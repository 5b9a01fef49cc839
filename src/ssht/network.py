"""Small feedforward networks with hand-written reverse-mode gradients.

A network is a feature extractor (a stack of dense layers with a pointwise
nonlinearity) followed by a linear classifier head. Parameters live in a
flat list [W1, b1, ..., Wk, bk, Wc, bc] with weights stored input x output,
so a layer computes x @ W + b. Gradients come back in the same layout.
A forward pass can keep its activations in a Tape; the backward pass
consumes that tape instead of running the forward pass again. An
adaptation step keeps one tape for its whole stacked batch (labeled,
weak and strong rows) and runs one backward pass from one logit
gradient, so no gradient sets are summed. A pass that keeps no tape
(evaluation, prediction) runs in blocks of at most FORWARD_BLOCK_ROWS
rows, so that no matrix product grows tall enough for OpenBLAS to hand
it to a second thread.

The optimizer is SGD with nesterov momentum and decoupled-from-nothing
weight decay (decay is folded into the gradient before the momentum
update, the classic formulation).

Models serialize to an "ssht-model/1" key-value document (see fileio),
bit exact on a round trip; a non-finite parameter is rejected on load.
"""

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .fileio import (FormatError, format_document, format_floats,
                     parse_floats, read_document)
from .linalg import NumericalError

MODEL_FORMAT = "ssht-model/1"

ACTIVATIONS = ("tanh", "relu")


@dataclass
class NetworkSpec:
    input_dim: int
    hidden_dims: List[int]
    feature_dim: int
    num_classes: int
    activation: str = "tanh"

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if not self.hidden_dims:
            raise ValueError("hidden_dims must be non-empty")
        if any(int(h) < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be positive, got {self.feature_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, "
                             f"got {self.activation!r}")

    def layer_dims(self) -> List[Tuple[int, int]]:
        """(fan_in, fan_out) pairs for every layer, classifier last."""
        widths = [self.input_dim] + list(self.hidden_dims) + [self.feature_dim]
        dims = [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
        dims.append((self.feature_dim, self.num_classes))
        return dims


# A gradient set is one array per parameter, same order and shapes.
GradientSet = List[np.ndarray]


@dataclass
class Network:
    spec: NetworkSpec
    params: List[np.ndarray]
    meta: Dict[str, str] = field(default_factory=dict)

    def num_extractor_layers(self) -> int:
        return len(self.spec.hidden_dims) + 1

    def classifier_param_indices(self) -> Tuple[int, int]:
        n = len(self.params)
        return (n - 2, n - 1)


def default_spec(input_dim: int = 2, num_classes: int = 4,
                 activation: str = "tanh") -> NetworkSpec:
    return NetworkSpec(input_dim=input_dim, hidden_dims=[64, 64],
                       feature_dim=16, num_classes=num_classes,
                       activation=activation)


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    spec.validate()
    rng = np.random.default_rng(seed)
    params: List[np.ndarray] = []
    for fan_in, fan_out in spec.layer_dims():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return Network(spec=spec, params=params)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - a * a
    return (z > 0.0).astype(float)


def _check_batch(net: Network, x_batch: np.ndarray) -> np.ndarray:
    x = np.asarray(x_batch, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise ValueError(f"expected batch of shape (B, {net.spec.input_dim}), "
                         f"got {x.shape}")
    return x


class Tape(NamedTuple):
    """What one forward pass keeps for its backward pass."""
    acts: List[np.ndarray]  # the input, then every extractor layer's output
    pre: List[np.ndarray]   # every extractor layer's pre-activation
    logits: np.ndarray


# Rows per block of a pass run without a tape. 96 is the default source
# batch: products of that height stay below OpenBLAS's threading cut-off,
# so an evaluation pass never wakes its worker thread, which would then
# spin idle between passes. With an x86-64 OpenBLAS 0.3 gemm, row i of a
# product at the default widths (64, 64, 16, 4) does not depend on the
# other rows, so blocking leaves the default network's outputs
# bit-identical. Some other widths (such as 3 or 20 outputs from 64
# inputs) make gemm round a row differently with the number of rows, so
# there a blocked pass may differ from an unblocked one in the last bit.
FORWARD_BLOCK_ROWS = 96


def _layers(net: Network, x: np.ndarray) -> Tape:
    """One pass over a checked batch, keeping every activation."""
    kind = net.spec.activation
    acts = [x]
    pre = []
    a = x
    for layer in range(net.num_extractor_layers()):
        w, b = net.params[2 * layer], net.params[2 * layer + 1]
        z = a @ w + b
        a = _activate(z, kind)
        pre.append(z)
        acts.append(a)
    wc, bc = net.params[-2], net.params[-1]
    return Tape(acts=acts, pre=pre, logits=a @ wc + bc)


def forward(net: Network, x_batch: np.ndarray, keep: bool = False):
    """Return (features, logits) for a batch; pure function.

    Without a tape the batch runs in blocks of FORWARD_BLOCK_ROWS rows.
    With keep=True, return the whole pass's Tape instead, for `backward`.
    """
    x = _check_batch(net, x_batch)
    if keep:
        return _layers(net, x)
    n = x.shape[0]
    starts = list(range(0, n, FORWARD_BLOCK_ROWS))
    if n > 1 and n % FORWARD_BLOCK_ROWS == 1:
        # numpy multiplies a 1-row block by gemv, whose sums round
        # differently from gemm's; end on a 2-row block instead
        starts[-1] -= 1
    features = np.empty((n, net.spec.feature_dim))
    logits = np.empty((n, net.spec.num_classes))
    for start, stop in zip(starts, starts[1:] + [n]):
        rows = slice(start, stop)
        tape = _layers(net, x[rows])
        features[rows] = tape.acts[-1]
        logits[rows] = tape.logits
    return features, logits


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    z = np.asarray(logits, dtype=float)
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def backward(net: Network, tape: Tape, logit_grad: np.ndarray) -> GradientSet:
    """Reverse-mode gradients of any loss whose logit gradient is given.

    Backpropagates logit_grad (shape B x C) through the activations that
    `forward(net, x, keep=True)` stored in `tape`, to every parameter
    tensor. The parameters must not have changed since that forward.
    """
    g = np.asarray(logit_grad, dtype=float)
    if g.shape != tape.logits.shape:
        raise ValueError(f"logit_grad must be {tape.logits.shape}, "
                         f"got {g.shape}")
    kind = net.spec.activation
    acts, pre = tape.acts, tape.pre
    grads: GradientSet = [np.empty(0)] * len(net.params)

    features = acts[-1]
    grads[-2] = features.T @ g
    grads[-1] = np.sum(g, axis=0)
    da = g @ net.params[-2].T

    for layer in range(net.num_extractor_layers() - 1, -1, -1):
        dz = da * _activate_grad(pre[layer], acts[layer + 1], kind)
        grads[2 * layer] = acts[layer].T @ dz
        grads[2 * layer + 1] = np.sum(dz, axis=0)
        if layer > 0:
            da = dz @ net.params[2 * layer].T
    return grads


@dataclass
class SgdState:
    learning_rate: float
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 0.0
    velocity: List[np.ndarray] = field(default_factory=list)

    def validate(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")


def init_sgd(net: Network, learning_rate: float, momentum: float = 0.9,
             nesterov: bool = True, weight_decay: float = 0.0) -> SgdState:
    state = SgdState(learning_rate=learning_rate, momentum=momentum,
                     nesterov=nesterov, weight_decay=weight_decay,
                     velocity=[np.zeros_like(p) for p in net.params])
    state.validate()
    return state


def sgd_step(net: Network, grads: GradientSet, state: SgdState,
             frozen: Tuple[int, ...] = ()) -> None:
    """One optimizer step in place.

    Weight decay is added to the raw gradient, then
        v <- momentum * v + g
        update = momentum * v + g   (nesterov)  or  v
        param <- param - lr * update
    Parameter indices in `frozen` are skipped entirely. Every gradient is
    checked before any tensor is written, so a rejected step leaves the
    parameters and velocities untouched.
    """
    if len(grads) != len(net.params):
        raise ValueError("gradient count does not match parameter count")
    skip = set(frozen)
    live = [i for i in range(len(net.params)) if i not in skip]
    for i in live:
        p, g = net.params[i], grads[i]
        if g.shape != p.shape:
            raise ValueError(f"gradient {i} has shape {g.shape}, "
                             f"parameter has {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in parameter tensor {i}")
    for i in live:
        p, g = net.params[i], grads[i]
        g_eff = g + state.weight_decay * p
        v = state.velocity[i]
        v *= state.momentum
        v += g_eff
        update = state.momentum * v + g_eff if state.nesterov else v
        p -= state.learning_rate * update


def serialize(net: Network) -> str:
    """Self-describing text form of a network, version ssht-model/1."""
    s = net.spec
    fields = [(f"meta.{key}", net.meta[key]) for key in sorted(net.meta)]
    fields += [("spec.input_dim", s.input_dim),
               ("spec.hidden_dims", ",".join(str(h) for h in s.hidden_dims)),
               ("spec.feature_dim", s.feature_dim),
               ("spec.num_classes", s.num_classes),
               ("spec.activation", s.activation)]
    for i, p in enumerate(net.params):
        fields.append((f"param.{i}.shape", ",".join(str(d) for d in p.shape)))
        fields.append((f"param.{i}.data", format_floats(p)))
    return format_document(MODEL_FORMAT, fields)


class ModelFormatError(FormatError):
    """Raised when a model document fails to parse."""


def _parse_dims(value: str) -> List[int]:
    return [int(d) for d in value.split(",")]


def deserialize(text: str) -> Network:
    kv = read_document(text, MODEL_FORMAT, ModelFormatError)
    spec = kv.checked(NetworkSpec(
        input_dim=kv.parse("spec.input_dim", int),
        hidden_dims=kv.parse("spec.hidden_dims", _parse_dims),
        feature_dim=kv.parse("spec.feature_dim", int),
        num_classes=kv.parse("spec.num_classes", int),
        activation=kv["spec.activation"]))

    params: List[np.ndarray] = []
    expected = [d for pair in spec.layer_dims() for d in (pair, (pair[1],))]
    for i, want in enumerate(expected):
        shape = tuple(kv.parse(f"param.{i}.shape", _parse_dims))
        flat = kv.parse(f"param.{i}.data", parse_floats)
        if shape != want:
            raise ModelFormatError(f"param {i} shape {shape} does not match "
                                   f"spec shape {want}")
        if flat.size != int(np.prod(shape)):
            raise ModelFormatError(f"param {i} has {flat.size} values, "
                                   f"shape {shape} needs {int(np.prod(shape))}")
        if not np.all(np.isfinite(flat)):
            raise ModelFormatError(f"param {i} has non-finite values")
        params.append(flat.reshape(shape))

    meta = {k[len("meta."):]: v for k, v in kv.items() if k.startswith("meta.")}
    return Network(spec=spec, params=params, meta=meta)
