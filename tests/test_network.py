import numpy as np
import pytest

from ssht import network
from ssht.linalg import NumericalError


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


def test_forward_zero_params():
    net = network.init_network(small_spec(), seed=1)
    for p in net.params:
        p[...] = 0.0
    feats, logits = network.forward(net, np.ones((3, 3)))
    assert np.all(logits == 0.0)
    assert feats.shape == (3, 6)
    assert logits.shape == (3, 4)


def test_forward_rowwise_independent():
    net = network.init_network(small_spec(), seed=2)
    x = np.random.default_rng(0).normal(size=(1, 3))
    tiled = np.repeat(x, 5, axis=0)
    _, logits = network.forward(net, tiled)
    assert np.allclose(logits, logits[0])


def test_forward_rejects_bad_width():
    net = network.init_network(small_spec(), seed=3)
    with pytest.raises(ValueError):
        network.forward(net, np.zeros((2, 7)))


def test_softmax_uniform():
    p = network.softmax_rows(np.zeros((1, 3)))
    np.testing.assert_allclose(p, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_extreme_logits():
    p = network.softmax_rows(np.array([[1000.0, 0.0], [-1e4, 1e4]]))
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.sum(p, axis=1), [1.0, 1.0], atol=1e-12)


def test_softmax_hand_value():
    p = network.softmax_rows(np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(
        p[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8)


def test_backward_zero_grad():
    net = network.init_network(small_spec(), seed=4)
    tape = network.forward(net, np.ones((2, 3)), keep=True)
    grads = network.backward(net, tape, np.zeros((2, 4)))
    assert all(np.all(g == 0.0) for g in grads)


def test_backward_single_linear_layer_closed_form():
    # with tanh in its linear regime skipped entirely: test the head only,
    # gradient of the classifier weight is features^T @ logit_grad
    net = network.init_network(small_spec(), seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 3))
    g = rng.normal(size=(7, 4))
    feats, _ = network.forward(net, x)
    grads = network.backward(net, network.forward(net, x, keep=True), g)
    np.testing.assert_allclose(grads[-2], feats.T @ g, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[-1], g.sum(axis=0), rtol=1e-12, atol=1e-12)


def fd_param_grads(net, x, g, h=1e-5):
    """Central differences of L = sum(logits * g) w.r.t. every parameter."""
    out = []
    for p in net.params:
        gp = np.zeros_like(p)
        flat = p.ravel()
        gflat = gp.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            _, lp = network.forward(net, x)
            flat[k] = orig - h
            _, lm = network.forward(net, x)
            flat[k] = orig
            gflat[k] = (np.sum(lp * g) - np.sum(lm * g)) / (2 * h)
        out.append(gp)
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
    for a, b in zip(exact, approx):
        rel = np.abs(a - b) / np.maximum.reduce(
            [np.abs(a), np.abs(b), np.full_like(a, 1e-6)])
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
    feats, logits = network.forward(net, x)
    tape = network.forward(net, x, keep=True)
    assert np.array_equal(tape.logits, logits)
    assert np.array_equal(tape.acts[-1], feats)
    assert np.array_equal(tape.acts[0], x)
    assert [a.shape[1] for a in tape.acts] == [3, 4, 6, 5]
    assert [z.shape[1] for z in tape.pre] == [4, 6, 5]


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
    # the default network's widths; rows around the block size, a 1-row
    # tail (97, 193) and an evaluation split (1000)
    net = network.init_network(network.default_spec(activation=activation),
                               seed=23)
    x = np.random.default_rng(rows).normal(size=(rows, 2)) * 3.0
    feats, logits = network.forward(net, x)
    want_feats, want_logits = _one_shot(net, x)
    assert feats.shape == (rows, 16) and logits.shape == (rows, 4)
    assert np.array_equal(feats, want_feats)
    assert np.array_equal(logits, want_logits)


def test_sgd_zero_lr_is_identity():
    net = network.init_network(small_spec(), seed=8)
    before = [p.copy() for p in net.params]
    state = network.init_sgd(net, learning_rate=1e-30)
    grads = [np.ones_like(p) for p in net.params]
    network.sgd_step(net, grads, state)
    for b, p in zip(before, net.params):
        np.testing.assert_allclose(p, b, atol=1e-25)


def test_sgd_plain_step():
    net = network.init_network(small_spec(), seed=9)
    before = [p.copy() for p in net.params]
    state = network.init_sgd(net, learning_rate=1.0, momentum=0.0,
                             nesterov=False, weight_decay=0.0)
    grads = [np.full_like(p, 0.25) for p in net.params]
    network.sgd_step(net, grads, state)
    for b, p in zip(before, net.params):
        np.testing.assert_allclose(b - p, 0.25, rtol=1e-12)


def test_sgd_matches_scalar_recurrence():
    # two nesterov steps on a single scalar against a hand simulation
    spec = network.NetworkSpec(input_dim=1, hidden_dims=[1], feature_dim=1,
                               num_classes=2)
    net = network.init_network(spec, seed=10)
    w0 = float(net.params[0][0, 0])
    lr, mom, decay = 0.1, 0.9, 0.01
    state = network.init_sgd(net, lr, momentum=mom, nesterov=True,
                             weight_decay=decay)

    w, v = w0, 0.0
    for step in range(2):
        g_raw = 0.5 + 0.1 * step
        grads = [np.zeros_like(p) for p in net.params]
        grads[0][0, 0] = g_raw
        network.sgd_step(net, grads, state)
        g = g_raw + decay * w
        v = mom * v + g
        w = w - lr * (mom * v + g)
    assert net.params[0][0, 0] == pytest.approx(w, rel=1e-12)


def test_sgd_frozen_indices():
    net = network.init_network(small_spec(), seed=11)
    ci, bi = net.classifier_param_indices()
    head_before = net.params[ci].copy()
    state = network.init_sgd(net, learning_rate=0.5)
    grads = [np.ones_like(p) for p in net.params]
    network.sgd_step(net, grads, state, frozen=(ci, bi))
    assert np.array_equal(net.params[ci], head_before)
    assert not np.array_equal(net.params[0],
                              network.init_network(small_spec(), seed=11).params[0])


def test_sgd_rejects_non_finite():
    net = network.init_network(small_spec(), seed=12)
    state = network.init_sgd(net, learning_rate=0.1)
    grads = [np.zeros_like(p) for p in net.params]
    grads[2][0, 0] = np.nan
    with pytest.raises(NumericalError, match="2"):
        network.sgd_step(net, grads, state)


def test_sgd_non_finite_last_tensor_leaves_state_untouched():
    net = network.init_network(small_spec(), seed=13)
    state = network.init_sgd(net, learning_rate=0.1)
    network.sgd_step(net, [np.ones_like(p) for p in net.params], state)
    params = [p.copy() for p in net.params]
    velocity = [v.copy() for v in state.velocity]
    grads = [np.ones_like(p) for p in net.params]
    grads[-1][0] = np.nan
    with pytest.raises(NumericalError, match=str(len(grads) - 1)):
        network.sgd_step(net, grads, state)
    assert all(np.array_equal(p, q) for p, q in zip(net.params, params))
    assert all(np.array_equal(v, w) for v, w in zip(state.velocity, velocity))


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
