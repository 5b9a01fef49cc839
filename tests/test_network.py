import numpy as np
import pytest

from ssht import data, losses, network


def small_spec(activation="tanh"):
    return network.NetworkSpec(input_dim=3, hidden_dims=[5, 4], feature_dim=6,
                               num_classes=4, activation=activation)


def test_init_deterministic():
    spec = small_spec()
    a = network.init_network(spec, seed=9)
    b = network.init_network(spec, seed=9)
    assert all(np.array_equal(p, q) for p, q in zip(a.params, b.params))


def test_init_shapes():
    spec = network.NetworkSpec(input_dim=2, hidden_dims=[8], feature_dim=6,
                               num_classes=3)
    net = network.init_network(spec, seed=0)
    shapes = [p.shape for p in net.params]
    assert shapes == [(2, 8), (8,), (8, 6), (6,), (6, 3), (3,)]
    assert all(np.all(net.params[i] == 0.0) for i in (1, 3, 5))


def test_init_zero_mean():
    spec = small_spec()
    draws = [network.init_network(spec, seed=s).params[0].ravel()
             for s in range(10)]
    pooled = np.concatenate(draws)
    limit = np.sqrt(6.0 / (3 + 5))
    se = (2 * limit) / np.sqrt(12.0) / np.sqrt(pooled.size)
    assert abs(pooled.mean()) <= 3 * se


def test_init_validates_spec():
    with pytest.raises(ValueError):
        network.init_network(
            network.NetworkSpec(2, [], 4, 3), seed=0)
    with pytest.raises(ValueError):
        network.init_network(
            network.NetworkSpec(2, [4], 4, 1), seed=0)
    with pytest.raises(ValueError):
        network.init_network(
            network.NetworkSpec(2, [4], 4, 3, activation="gelu"), seed=0)


@pytest.mark.parametrize("hidden,feature_dim", [
    ([10 ** 20], 16),              # a dimension past numpy's index
    ([4 * 10 ** 18], 16),          # indexable, but too many bytes
    ([64, 64], 10 ** 19),
    ([2 ** 30, 2 ** 30, 2 ** 30], 16),  # each tensor fits, the sum does not
])
def test_spec_numpy_cannot_allocate_is_rejected_naming_its_widths(
        hidden, feature_dim):
    spec = network.NetworkSpec(2, hidden, feature_dim, 4)
    with pytest.raises(ValueError, match="more than numpy can allocate") as e:
        spec.validate()
    assert f"hidden_dims={hidden}, feature_dim={feature_dim}" in str(e.value)


def test_spec_at_numpy_allocation_limit_validates():
    # one float64 per parameter: a spec of exactly intp-max // 8
    # parameters passes validate (it fails, if at all, at allocation)
    limit = np.iinfo(np.intp).max // np.dtype(float).itemsize
    # 1 x h, h biases, h x 1, 1 bias, 1 x 2, 2 biases: 3h + 5 parameters
    h = (limit - 5) // 3
    network.NetworkSpec(1, [h], 1, 2).validate()
    with pytest.raises(ValueError, match="numpy can allocate"):
        network.NetworkSpec(1, [h + 1], 1, 2).validate()


def test_model_file_with_an_unallocatable_spec_fails_at_load():
    text = network.serialize(network.init_network(small_spec(), seed=18))
    bad = text.replace("spec.hidden_dims = 5,4",
                       f"spec.hidden_dims = 5,{10 ** 20}")
    assert bad != text
    with pytest.raises(network.ModelFormatError,
                       match="more than numpy can allocate"):
        network.deserialize(bad)


def test_forward_zero_params():
    net = network.init_network(small_spec(), seed=1)
    for p in net.params:
        p[...] = 0.0
    logits = network.forward(net, np.ones((3, 3)))
    assert np.all(logits == 0.0)
    assert logits.shape == (3, 4)


def test_forward_rowwise_independent():
    net = network.init_network(small_spec(), seed=2)
    x = np.random.default_rng(0).normal(size=(1, 3))
    tiled = np.repeat(x, 5, axis=0)
    logits = network.forward(net, tiled)
    assert np.allclose(logits, logits[0])


def test_forward_rejects_bad_width():
    net = network.init_network(small_spec(), seed=3)
    with pytest.raises(ValueError):
        network.forward(net, np.zeros((2, 7)))


def test_softmax_uniform():
    p, log_p = losses.softmax_and_log(np.zeros((1, 3)))
    np.testing.assert_allclose(p, [[1 / 3, 1 / 3, 1 / 3]])
    np.testing.assert_allclose(log_p, np.log(p))


def test_softmax_extreme_logits():
    p, log_p = losses.softmax_and_log(np.array([[1000.0, 0.0], [-1e4, 1e4]]))
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.sum(p, axis=1), [1.0, 1.0], atol=1e-12)
    # the log of a probability that underflows to 0 stays exact
    assert np.array_equal(log_p, [[0.0, -1000.0], [-2e4, 0.0]])


def test_softmax_hand_value():
    p, log_p = losses.softmax_and_log(np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(
        p[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8)
    np.testing.assert_allclose(log_p, np.log(p), rtol=1e-14)


def test_backward_zero_grad():
    net = network.init_network(small_spec(), seed=4)
    tape = network.forward(net, np.ones((2, 3)), keep=True)
    grad = network.backward(net, tape, np.zeros((2, 4)))
    assert grad.shape == net.flat.shape
    assert np.all(grad == 0.0)


def test_backward_single_linear_layer_closed_form():
    # with tanh in its linear regime skipped entirely: test the head only,
    # gradient of the classifier weight is features^T @ logit_grad
    net = network.init_network(small_spec(), seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 3))
    g = rng.normal(size=(7, 4))
    tape = network.forward(net, x, keep=True)
    grads = net.split(network.backward(net, tape, g))
    feats = tape.acts[-1]
    np.testing.assert_allclose(grads[-2], feats.T @ g, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[-1], g.sum(axis=0), rtol=1e-12, atol=1e-12)


def fd_param_grads(net, x, g, h=1e-5):
    """Central differences of L = sum(logits * g) w.r.t. every parameter."""
    flat = net.flat
    out = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        lp = network.forward(net, x)
        flat[k] = orig - h
        lm = network.forward(net, x)
        flat[k] = orig
        out[k] = (np.sum(lp * g) - np.sum(lm * g)) / (2 * h)
    return out


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_backward_matches_finite_differences(activation):
    spec = network.NetworkSpec(input_dim=3, hidden_dims=[4], feature_dim=5,
                               num_classes=3, activation=activation)
    rng = np.random.default_rng(12)
    net = network.init_network(spec, seed=13)
    x = rng.normal(size=(6, 3))
    g = rng.normal(size=(6, 3))
    exact = network.backward(net, network.forward(net, x, keep=True), g)
    approx = fd_param_grads(net, x, g)
    rel = np.abs(exact - approx) / np.maximum.reduce(
        [np.abs(exact), np.abs(approx), np.full_like(exact, 1e-6)])
    assert np.max(rel) <= 1e-4


def test_backward_rejects_bad_grad_shape():
    net = network.init_network(small_spec(), seed=7)
    with pytest.raises(ValueError):
        network.backward(net, network.forward(net, np.zeros((2, 3)), keep=True),
                         np.zeros((2, 5)))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_forward_tape_matches_plain_forward(activation):
    spec = network.NetworkSpec(input_dim=3, hidden_dims=[4, 6], feature_dim=5,
                               num_classes=3, activation=activation)
    net = network.init_network(spec, seed=21)
    x = np.random.default_rng(22).normal(size=(9, 3))
    logits = network.forward(net, x)
    tape = network.forward(net, x, keep=True)
    assert np.array_equal(tape.logits, logits)
    assert np.array_equal(tape.acts[-1], _one_shot(net, x)[0])
    assert np.array_equal(tape.acts[0], x)
    assert [a.shape[1] for a in tape.acts] == [3, 4, 6, 5]
    # only what backward reads: every layer's output, and the logits
    assert tape._fields == ("acts", "logits")


def test_relu_backward_matches_a_pre_activation_reference_bit_for_bit():
    spec = network.NetworkSpec(input_dim=3, hidden_dims=[4, 6], feature_dim=5,
                               num_classes=3, activation="relu")
    net = network.init_network(spec, seed=23)
    rng = np.random.default_rng(24)
    x = rng.normal(size=(9, 3))
    x[2] = 0.0  # with zero biases, every pre-activation of this row is 0
    g = rng.normal(size=(9, 3))
    # the forward pass keeping each layer's pre-activation z, and the
    # backward pass taking the relu derivative as z > 0
    acts, pre = [x], []
    for layer in range(net.num_extractor_layers()):
        z = acts[-1] @ net.params[2 * layer] + net.params[2 * layer + 1]
        pre.append(z)
        acts.append(np.maximum(z, 0.0))
    assert all(np.all(z[2] == 0.0) for z in pre)
    assert any(np.any(z < 0.0) for z in pre)
    grads = [None] * len(net.params)
    grads[-2], grads[-1] = acts[-1].T @ g, g.sum(axis=0)
    da = g @ net.params[-2].T
    for layer in range(net.num_extractor_layers() - 1, -1, -1):
        dz = (pre[layer] > 0.0).astype(float) * da
        grads[2 * layer] = acts[layer].T @ dz
        grads[2 * layer + 1] = dz.sum(axis=0)
        da = dz @ net.params[2 * layer].T
    want = np.concatenate([v.ravel() for v in grads])
    got = network.backward(net, network.forward(net, x, keep=True), g)
    assert got.tobytes() == want.tobytes()


def _one_shot(net, x):
    """The forward pass as one product per layer over the whole batch."""
    a = x
    for layer in range(net.num_extractor_layers()):
        z = a @ net.params[2 * layer] + net.params[2 * layer + 1]
        a = np.tanh(z) if net.spec.activation == "tanh" else np.maximum(z, 0.0)
    return a, a @ net.params[-2] + net.params[-1]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("rows", [0, 1, 95, 96, 97, 193, 1000])
def test_blocked_forward_matches_one_shot(activation, rows):
    # the default network's widths, at the default 4 classes and at the
    # widest head a task may have; rows around the block size, a 1-row
    # tail (97, 193) and an evaluation split (1000)
    x = np.random.default_rng(rows).normal(size=(rows, 2)) * 3.0
    for classes in (4, data.MAX_CLASSES):
        net = network.init_network(
            network.default_spec(num_classes=classes, activation=activation),
            seed=23)
        logits = network.forward(net, x)
        assert logits.shape == (rows, classes)
        assert np.array_equal(logits, _one_shot(net, x)[1])


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("rows", [1, 2, 95, 96, 97, 108, 144, 193, 250])
def test_blocked_forward_matches_taped_pass(activation, rows):
    # evaluation (blocked, no tape) and training (one taped pass) give the
    # default network bit-identical logits for the same rows, at the
    # default and the largest class count; 108 and 144 rows are the
    # stacked step heights of the default task and of a 16-class one
    x = np.random.default_rng(100 + rows).normal(size=(rows, 2)) * 3.0
    for classes in (4, data.MAX_CLASSES):
        net = network.init_network(
            network.default_spec(num_classes=classes, activation=activation),
            seed=24)
        logits = network.forward(net, x)
        assert logits.shape == (rows, classes)
        assert np.array_equal(logits,
                              network.forward(net, x, keep=True).logits)


# ------------------------------------------------------- flat parameters

def test_params_are_views_of_flat():
    net = network.init_network(small_spec(), seed=30)
    assert net.flat.shape == (sum(p.size for p in net.params),)
    assert all(np.shares_memory(p, net.flat) for p in net.params)
    net.params[2][1, 3] = 7.0
    assert net.flat[net.offsets[2] + 1 * 4 + 3] == 7.0
    net.flat[net.offsets[-2]] = -3.0
    assert net.params[-1][0] == -3.0


def test_params_cannot_be_rebound():
    net = network.init_network(small_spec(), seed=31)
    with pytest.raises(TypeError):
        net.params[0] = np.zeros((3, 5))
    with pytest.raises(AttributeError):
        net.params = [p.copy() for p in net.params]
    with pytest.raises(AttributeError):
        net.flat = np.zeros_like(net.flat)


def test_network_copies_the_callers_arrays():
    src = network.init_network(small_spec(), seed=32)
    arrays = [p.copy() for p in src.params]
    net = network.Network(small_spec(), arrays)
    arrays[0][0, 0] = 99.0
    net.params[1][0] = -99.0
    assert net.params[0][0, 0] == src.params[0][0, 0]
    assert arrays[1][0] == 0.0
    with pytest.raises(ValueError, match="shapes"):
        network.Network(small_spec(), arrays[:-1])
    with pytest.raises(ValueError, match="shapes"):
        network.Network(small_spec(), [a.T for a in arrays])


def _per_tensor_sgd_step(params, grads, velocity, state, freeze_classifier):
    """The optimizer step as one loop over separate parameter tensors."""
    live = len(params) - 2 if freeze_classifier else len(params)
    for p, g, v in list(zip(params, grads, velocity))[:live]:
        g_eff = g + network.WEIGHT_DECAY * p
        v *= network.MOMENTUM
        v += g_eff
        p -= state.learning_rate * (network.MOMENTUM * v + g_eff)


@pytest.mark.parametrize("grad_scale,freeze", [
    (1.0, False),
    (0.0, False),
    (1.0, True),
], ids=["nesterov", "weight-decay", "frozen-classifier"])
def test_flat_sgd_matches_per_tensor_loop(grad_scale, freeze):
    # at grad_scale 0 the raw gradient is zero, so weight decay alone
    # moves the parameters
    net = network.init_network(small_spec(), seed=33)
    start = net.flat.copy()
    state = network.init_sgd(net, 0.05)
    params = [p.copy() for p in net.params]
    velocity = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(34)
    for _ in range(5):
        grad = grad_scale * rng.normal(size=net.flat.shape)
        network.sgd_step(net, grad, state, freeze_classifier=freeze)
        _per_tensor_sgd_step(params, net.split(grad), velocity, state, freeze)
    assert not np.array_equal(net.flat, start)
    assert np.array_equal(net.flat,
                          np.concatenate([p.ravel() for p in params]))
    assert np.array_equal(state.velocity,
                          np.concatenate([v.ravel() for v in velocity]))


def test_sgd_zero_lr_is_identity():
    net = network.init_network(small_spec(), seed=8)
    before = net.flat.copy()
    state = network.init_sgd(net, 1e-30)
    network.sgd_step(net, np.ones_like(net.flat), state)
    np.testing.assert_allclose(net.flat, before, atol=1e-25)


def test_sgd_plain_step():
    # from zero velocity, a first step at zero parameters moves each by
    # lr * (1 + momentum) * gradient: decay * 0 adds nothing
    net = network.init_network(small_spec(), seed=9)
    net.flat[...] = 0.0
    state = network.init_sgd(net, 1.0)
    network.sgd_step(net, np.full_like(net.flat, 0.25), state)
    np.testing.assert_allclose(-net.flat, (1 + network.MOMENTUM) * 0.25,
                               rtol=1e-12)
    np.testing.assert_allclose(state.velocity, 0.25, rtol=1e-12)


def test_sgd_matches_scalar_recurrence():
    # two nesterov steps on a single scalar against a hand simulation
    spec = network.NetworkSpec(input_dim=1, hidden_dims=[1], feature_dim=1,
                               num_classes=2)
    net = network.init_network(spec, seed=10)
    w0 = float(net.params[0][0, 0])
    lr, mom, decay = 0.1, network.MOMENTUM, network.WEIGHT_DECAY
    state = network.init_sgd(net, lr)

    w, v = w0, 0.0
    for step in range(2):
        g_raw = 0.5 + 0.1 * step
        grad = np.zeros_like(net.flat)
        net.split(grad)[0][0, 0] = g_raw
        network.sgd_step(net, grad, state)
        g = g_raw + decay * w
        v = mom * v + g
        w = w - lr * (mom * v + g)
    assert net.params[0][0, 0] == pytest.approx(w, rel=1e-12)


def test_sgd_frozen_indices():
    net = network.init_network(small_spec(), seed=11)
    head_before = [p.copy() for p in net.params[-2:]]
    state = network.init_sgd(net, 0.5)
    network.sgd_step(net, np.ones_like(net.flat), state,
                     freeze_classifier=True)
    assert all(np.array_equal(p, q) for p, q in zip(net.params[-2:],
                                                     head_before))
    assert not np.any(net.split(state.velocity)[-2])
    assert not np.array_equal(net.params[0],
                              network.init_network(small_spec(), seed=11).params[0])


def test_sgd_ignores_frozen_gradients():
    net = network.init_network(small_spec(), seed=14)
    head_before = net.params[-2].copy()
    state = network.init_sgd(net, 0.5)
    grad = np.ones_like(net.flat)
    net.split(grad)[-2][0, 0] = np.nan
    net.split(grad)[-1][0] = np.inf
    network.sgd_step(net, grad, state, freeze_classifier=True)
    assert np.array_equal(net.params[-2], head_before)
    assert np.all(np.isfinite(net.flat)) and np.all(np.isfinite(state.velocity))


def test_sgd_rejects_a_gradient_of_the_wrong_shape():
    net = network.init_network(small_spec(), seed=15)
    state = network.init_sgd(net, 0.1)
    with pytest.raises(ValueError, match="shape"):
        network.sgd_step(net, np.ones(net.flat.size - 1), state)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", np.nan),
    ("learning_rate", np.inf)])
def test_init_sgd_rejects_bad_hyperparameters(field, value):
    net = network.init_network(small_spec(), seed=16)
    with pytest.raises(ValueError, match=f"{field} must .* got {value}"):
        network.init_sgd(net, **{field: value})


def test_serialize_round_trip_bit_exact():
    net = network.init_network(small_spec(), seed=14)
    net.meta["seed"] = "14"
    text = network.serialize(net)
    back = network.deserialize(text)
    assert back.spec == net.spec
    assert back.meta == net.meta
    assert all(np.array_equal(p, q) for p, q in zip(net.params, back.params))
    assert network.serialize(back) == text


def test_deserialize_rejects_bad_header():
    with pytest.raises(network.ModelFormatError):
        network.deserialize("not-a-model\n")


def test_deserialize_rejects_tampered_shape():
    net = network.init_network(small_spec(), seed=15)
    text = network.serialize(net)
    bad = text.replace("param.0.shape = 3,5", "param.0.shape = 3,9")
    with pytest.raises(network.ModelFormatError):
        network.deserialize(bad)


def test_deserialize_rejects_truncated_data():
    net = network.init_network(small_spec(), seed=16)
    lines = network.serialize(net).splitlines()
    out = []
    for ln in lines:
        if ln.startswith("param.4.data = "):
            head, vals = ln.split(" = ", 1)
            ln = head + " = " + " ".join(vals.split()[:-1])
        out.append(ln)
    with pytest.raises(network.ModelFormatError):
        network.deserialize("\n".join(out) + "\n")


def _with_param_value(text, index, token):
    lines = []
    for ln in text.splitlines():
        if ln.startswith(f"param.{index}.data = "):
            head, vals = ln.split(" = ", 1)
            ln = head + " = " + " ".join([token] + vals.split()[1:])
        lines.append(ln)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_deserialize_rejects_non_finite_params(token):
    text = network.serialize(network.init_network(small_spec(), seed=17))
    with pytest.raises(network.ModelFormatError, match="non-finite"):
        network.deserialize(_with_param_value(text, 2, token))


def test_deserialize_accepts_edited_finite_param():
    text = network.serialize(network.init_network(small_spec(), seed=17))
    edited = _with_param_value(text, 2, "1e+308")
    back = network.deserialize(edited)
    assert back.params[2].ravel()[0] == 1e308
    assert network.serialize(back) == edited
