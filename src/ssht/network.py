"""Small feedforward networks with hand-written reverse-mode gradients.

A network is a feature extractor (a stack of dense layers with a pointwise
nonlinearity) followed by a linear classifier head. The parameter
tensors [W1, b1, ..., Wk, bk, Wc, bc] (weights stored input x output, so
a layer computes x @ W + b) lie one after another, row-major, in one
float64 vector, `Network.flat`; `Network.params` is a tuple of views
into it. `backward` returns one gradient vector in the same layout, so
the optimizer, checkpoints and rollbacks are whole-vector operations.
A forward pass returns the logits, or, asked to keep its activations,
a Tape of every layer's output; the backward pass consumes that tape
instead of running the forward pass again, and takes each activation's
derivative from its output alone. The network stops at the logits: the
softmax and its log belong to the objectives (losses.softmax_and_log).
An adaptation step keeps one tape for its whole stacked batch (labeled,
weak and strong rows) and runs one backward pass from one logit
gradient, so no per-pass gradients are summed.
At a step's sizes a pass costs about as much in numpy calls as in
arithmetic, so each layer adds its bias into its product and applies
its activation in place, and the backward pass builds each layer's
activation derivative in a new array and multiplies the incoming
gradient into it; every result rounds as the copying form would. A
pass that keeps no tape (evaluation, prediction) runs in blocks of at
most FORWARD_BLOCK_ROWS rows, so that no matrix product grows tall
enough for OpenBLAS to hand it to a second thread.

The optimizer is SGD with Nesterov momentum and coupled L2 weight
decay (added to the gradient before the momentum update, the classic
formulation), always at MOMENTUM and WEIGHT_DECAY: only the learning
rate is set per run. A step updates the parameters, and their
velocity, as one vector each; freezing the classifier head, the tail
of that vector, shortens both.

A model is an "ssht-model/1" document (see fileio, whose codec writes
the spec), bit exact on a round trip; non-finite parameters fail load.
"""

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .fileio import (CODECS, FormatError, finite, format_document,
                     format_floats, format_settings, parse_floats,
                     parse_settings, read_document)

MODEL_FORMAT = "ssht-model/1"

_format_shape, _parse_shape = CODECS[List[int]]

ACTIVATIONS = ("tanh", "relu")

# the SGD recipe of source training and adaptation alike
MOMENTUM = 0.9
WEIGHT_DECAY = 0.0005


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
        size = sum(a * b + b for a, b in self.layer_dims())
        if size * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise ValueError(f"{self} has {size} parameters, more than numpy "
                             f"can allocate")

    def layer_dims(self) -> List[Tuple[int, int]]:
        """(fan_in, fan_out) pairs for every layer, classifier last."""
        widths = [self.input_dim] + list(self.hidden_dims) + [self.feature_dim]
        dims = [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
        dims.append((self.feature_dim, self.num_classes))
        return dims

    def param_shapes(self) -> List[Tuple[int, ...]]:
        """The shape of every parameter tensor: W1, b1, ..., Wc, bc."""
        return [s for pair in self.layer_dims() for s in (pair, (pair[1],))]


class Network:
    """A spec, its parameters in one flat vector, and free-form metadata.
    The constructor copies `params`, given in `spec.param_shapes()` order."""

    def __init__(self, spec: NetworkSpec, params: Sequence[np.ndarray],
                 meta: Optional[Dict[str, str]] = None):
        self.spec = spec
        self.meta = {} if meta is None else meta
        shapes = spec.param_shapes()
        arrays = [np.asarray(p, dtype=float) for p in params]
        if [a.shape for a in arrays] != shapes:
            raise ValueError(f"parameter shapes {[a.shape for a in arrays]} "
                             f"do not match the spec's {shapes}")
        # tensor i is flat[offsets[i]:offsets[i + 1]]
        self.offsets = np.cumsum([0] + [a.size for a in arrays]).tolist()
        self._layout = [(slice(a, b), shape) for a, b, shape in
                        zip(self.offsets, self.offsets[1:], shapes)]
        self._flat = np.concatenate([a.ravel() for a in arrays])
        self._params = self.split(self._flat)

    # read-only: rebinding either would detach the views from `flat`
    flat = property(lambda self: self._flat)
    params = property(lambda self: self._params)

    def split(self, vec: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Views of a vector in the flat layout, one per parameter tensor."""
        return tuple([vec[s].reshape(shape) for s, shape in self._layout])

    def num_extractor_layers(self) -> int:
        return len(self.spec.hidden_dims) + 1


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
    """The activation of z, written over z."""
    if kind == "tanh":
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output a, as a new array:
    1 - a^2 for tanh; for relu a > 0, which holds exactly where the
    pre-activation is positive, since a = max(z, 0)."""
    if kind == "tanh":
        d = a * a
        return np.subtract(1.0, d, out=d)
    return (a > 0.0).astype(float)


def _check_batch(net: Network, x_batch: np.ndarray) -> np.ndarray:
    x = np.asarray(x_batch, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise ValueError(f"expected batch of shape (B, {net.spec.input_dim}), "
                         f"got {x.shape}")
    return x


class Tape(NamedTuple):
    """What one forward pass keeps for its backward pass."""
    acts: List[np.ndarray]  # the input, then every extractor layer's output
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
    a = x
    for layer in range(net.num_extractor_layers()):
        w, b = net.params[2 * layer], net.params[2 * layer + 1]
        z = a @ w
        z += b
        a = _activate(z, kind)
        acts.append(a)
    logits = a @ net.params[-2]
    logits += net.params[-1]
    return Tape(acts=acts, logits=logits)


def forward(net: Network, x_batch: np.ndarray, keep: bool = False):
    """Return the logits of a batch; pure function.

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
    logits = np.empty((n, net.spec.num_classes))
    for start, stop in zip(starts, starts[1:] + [n]):
        logits[start:stop] = _layers(net, x[start:stop]).logits
    return logits


def backward(net: Network, tape: Tape, logit_grad: np.ndarray) -> np.ndarray:
    """Reverse-mode gradients of any loss whose logit gradient is given.

    Backpropagates logit_grad (shape B x C) through the activations that
    `forward(net, x, keep=True)` stored in `tape`, to every parameter
    tensor, and returns them as one vector in the layout of `net.flat`.
    The parameters must not have changed since that forward.
    """
    g = np.asarray(logit_grad, dtype=float)
    if g.shape != tape.logits.shape:
        raise ValueError(f"logit_grad must be {tape.logits.shape}, "
                         f"got {g.shape}")
    kind = net.spec.activation
    acts = tape.acts
    grad = np.empty_like(net.flat)
    out = net.split(grad)

    np.matmul(acts[-1].T, g, out=out[-2])
    g.sum(axis=0, out=out[-1])
    da = g @ net.params[-2].T

    for layer in range(net.num_extractor_layers() - 1, -1, -1):
        dz = _activate_grad(acts[layer + 1], kind)
        dz *= da
        np.matmul(acts[layer].T, dz, out=out[2 * layer])
        dz.sum(axis=0, out=out[2 * layer + 1])
        if layer > 0:
            da = dz @ net.params[2 * layer].T
    return grad


@dataclass
class SgdState:
    learning_rate: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def validate(self) -> None:
        # a chained comparison, so that NaN fails it too
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")


def init_sgd(net: Network, learning_rate: float) -> SgdState:
    state = SgdState(learning_rate, velocity=np.zeros_like(net.flat))
    state.validate()
    return state


def sgd_step(net: Network, grad: np.ndarray, state: SgdState,
             freeze_classifier: bool = False) -> None:
    """One optimizer step in place, from a gradient in the flat layout.

    With g the raw gradient plus WEIGHT_DECAY * param, the Nesterov
    step is
        v <- MOMENTUM * v + g
        param <- param - lr * (MOMENTUM * v + g)
    With freeze_classifier, the classifier head (the tail of `flat`) and
    its velocity are skipped entirely. Nothing checks the arithmetic:
    pipeline's training loops run every step under np.errstate.
    """
    if grad.shape != net.flat.shape:
        raise ValueError(f"gradient has shape {grad.shape}, want {net.flat.shape}")
    live = net.offsets[-3] if freeze_classifier else net.flat.size
    g = grad[:live]
    p, v = net.flat[:live], state.velocity[:live]
    g_eff = WEIGHT_DECAY * p
    g_eff += g  # g + decay * p: the sum commutes exactly
    v *= MOMENTUM
    v += g_eff
    p -= state.learning_rate * np.add(MOMENTUM * v, g_eff, out=g_eff)


def serialize(net: Network) -> str:
    """Self-describing text form of a network, version ssht-model/1."""
    fields = [(f"meta.{key}", net.meta[key]) for key in sorted(net.meta)]
    fields += format_settings("spec", net.spec)
    for i, p in enumerate(net.params):
        fields.append((f"param.{i}.shape", _format_shape(p.shape)))
        fields.append((f"param.{i}.data", format_floats(p)))
    return format_document(MODEL_FORMAT, fields)


class ModelFormatError(FormatError):
    """Raised when a model document fails to parse."""


def deserialize(text: str) -> Network:
    kv = read_document(text, MODEL_FORMAT, ModelFormatError)
    spec = parse_settings(kv, "spec", NetworkSpec)

    params: List[np.ndarray] = []
    for i, want in enumerate(spec.param_shapes()):
        shape = tuple(kv.parse(f"param.{i}.shape", _parse_shape))
        flat = kv.parse(f"param.{i}.data", finite(parse_floats))
        if shape != want:
            raise ModelFormatError(f"param {i} shape {shape} does not match "
                                   f"spec shape {want}")
        if flat.size != int(np.prod(shape)):
            raise ModelFormatError(f"param {i} has {flat.size} values, "
                                   f"shape {shape} needs {int(np.prod(shape))}")
        params.append(flat.reshape(shape))

    meta = {k[len("meta."):]: v for k, v in kv.items() if k.startswith("meta.")}
    return Network(spec=spec, params=params, meta=meta)
