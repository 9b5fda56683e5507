"""Minimal LSTM classifier: forward pass and full BPTT over batches of
right-padded ragged sequences."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint

GATES = ("i", "f", "o", "g")  # order of the gate blocks in w, u and b
PARAM_KEYS = ("w", "u", "b", "theta")
CHECKPOINT_FORMAT = "intercom-lstm"
CHECKPOINT_VERSION = 2
FORWARD_CHUNK = 16  # sequences per inference forward (``mean_hidden``)


class NanError(FloatingPointError):
    def __init__(self, step: int):
        super().__init__(f"non-finite hidden state at step {step}")
        self.step = step


@dataclass
class LSTMParams:
    """Canonical no-peephole cell plus a logistic readout over the mean state.

    The gates are stacked in ``GATES`` order, one block of ``hidden_dim``
    rows each: ``w`` (4h x d) and ``u`` (4h x h) are the input and recurrent
    weights, ``b`` (4h) the biases and ``theta`` (h) the readout."""

    input_dim: int
    hidden_dim: int
    weights: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "LSTMParams":
        return LSTMParams(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            weights={k: v.copy() for k, v in self.weights.items()},
        )

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.weights.items()}


def init_params(input_dim: int, hidden_dim: int = 64, seed: int = 0) -> LSTMParams:
    """Uniform +/-1/sqrt(h) weights, drawn gate by gate (w then u); the
    forget-gate bias starts at 1.0 so early training does not wash out the
    cell state."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden_dim)
    blocks = [(rng.uniform(-scale, scale, size=(hidden_dim, input_dim)),
               rng.uniform(-scale, scale, size=(hidden_dim, hidden_dim))) for _ in GATES]
    b = np.zeros(4 * hidden_dim)
    b[hidden_dim:2 * hidden_dim] = 1.0
    weights = {"w": np.vstack([w for w, _ in blocks]), "u": np.vstack([u for _, u in blocks]),
               "b": b, "theta": rng.uniform(-scale, scale, size=hidden_dim)}
    return LSTMParams(input_dim=input_dim, hidden_dim=hidden_dim, weights=weights)


def save_params(path, params: LSTMParams, seed: int, max_words: int, log: list[dict]) -> None:
    """JSON checkpoint of the dimensions, seed, max_words, training log and weights."""
    write_checkpoint(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "input_dim": params.input_dim, "hidden_dim": params.hidden_dim,
        "seed": seed, "max_words": max_words, "log": log,
        "weights": params.weights})


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an int, not a bool, of at least ``least``."""
    return type(value) is int and value >= least


def load_params(path) -> tuple[LSTMParams, dict]:
    """Read a ``save_params`` checkpoint, checking its format, version,
    dimensions, seed, max_words, weight shapes and that every weight is
    finite; returns the params and the checkpoint's other fields."""
    checkpoint = read_checkpoint(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    d, h = checkpoint.get("input_dim"), checkpoint.get("hidden_dim")
    raw = checkpoint.pop("weights", None)
    if not (_is_count(d, 1) and _is_count(h, 1) and _is_count(checkpoint.get("seed"), 0)
            and _is_count(checkpoint.get("max_words"), 0)
            and isinstance(raw, dict) and sorted(raw) == sorted(PARAM_KEYS)):
        raise ValueError(f"{path}: malformed LSTM checkpoint")
    shapes = {"w": (4 * h, d), "u": (4 * h, h), "b": (4 * h,), "theta": (h,)}
    try:
        weights = {k: np.asarray(raw[k], dtype=np.float64) for k in PARAM_KEYS}
    except (TypeError, ValueError):
        raise ValueError(f"{path}: malformed LSTM checkpoint: a weight is not an array of numbers"
                         ) from None
    if any(weights[k].shape != shapes[k] for k in PARAM_KEYS):
        raise ValueError(f"{path}: weights do not fit an LSTM of input {d} and hidden size {h}")
    if not all(np.isfinite(weights[k]).all() for k in PARAM_KEYS):
        raise ValueError(f"{path}: malformed LSTM checkpoint: a weight is not a finite number")
    return LSTMParams(input_dim=d, hidden_dim=h, weights=weights), checkpoint


def _sigmoid(x):
    # clipped to dodge exp overflow; saturation error is far below 1e-200.
    # np.minimum/np.maximum give np.clip's values without its wrapper's cost
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500.0), 500.0)))


def pad(seqs: list, input_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Ragged (T_b, d) sequences as right-padded (T, B, d) inputs, zero past
    each end, and their lengths T_b."""
    lengths = np.zeros(len(seqs), dtype=np.intp)
    for b, seq in enumerate(seqs):
        shape = np.shape(seq)
        if len(shape) != 2 or shape[1] != input_dim or shape[0] == 0:
            raise ValueError(f"expected sequence of shape (T, {input_dim}) with T >= 1, got {shape}")
        lengths[b] = shape[0]
    X = np.zeros((int(lengths.max()), len(seqs), input_dim))
    for b, seq in enumerate(seqs):
        X[:lengths[b], b] = seq
    return X, lengths


def forward_padded(X: np.ndarray, params: LSTMParams):
    """The cell over right-padded inputs X (T, B, d): the activated gates
    (T, B, 4h) in ``GATES`` order, the cell states and the hidden states
    (T + 1, B, h, with the zero initial state in row 0) and the tanh of the
    cell states (T, B, h). Each array is allocated once per call. A padded
    step only reads zeros and never feeds a real one, so every sequence's
    states end where it does. Raises NanError at the first step with a
    non-finite hidden state."""
    T, B, _ = X.shape
    hdim = params.hidden_dim
    w = params.weights
    gates = X @ w["w"].T  # the input projection of every step, in one call
    gates += w["b"]
    cells = np.zeros((T + 1, B, hdim))
    hidden = np.zeros((T + 1, B, hdim))
    tanh_cells = np.empty((T, B, hdim))
    u_t = w["u"].T
    for t in range(T):
        z = gates[t]
        z += hidden[t] @ u_t
        z[:, :3 * hdim] = _sigmoid(z[:, :3 * hdim])
        np.tanh(z[:, 3 * hdim:], out=z[:, 3 * hdim:])
        gi, gf, go, gg = z[:, :hdim], z[:, hdim:2 * hdim], z[:, 2 * hdim:3 * hdim], z[:, 3 * hdim:]
        np.add(gf * cells[t], gi * gg, out=cells[t + 1])
        np.tanh(cells[t + 1], out=tanh_cells[t])
        np.multiply(go, tanh_cells[t], out=hidden[t + 1])
    finite = np.isfinite(hidden[1:]).all(axis=(1, 2))
    if not finite.all():
        raise NanError(int(np.argmin(finite)))
    return gates, cells, hidden, tanh_cells


def _pool_weights(lengths: np.ndarray, T: int) -> np.ndarray:
    """(T, B, 1) weights: 1 / T_b on a sequence's steps, 0 on its padding."""
    steps = np.arange(T)[:, None] < lengths[None, :]
    return (steps / lengths)[:, :, None]


def mean_hidden(seqs: list, params: LSTMParams) -> np.ndarray:
    """Mean hidden state (n, h) of each of the n (T, d) sequences. The
    forwards run in chunks of ``FORWARD_CHUNK`` sequences taken in length
    order, so that little of a chunk is padding."""
    out = np.empty((len(seqs), params.hidden_dim))
    order = np.argsort([len(seq) for seq in seqs], kind="stable")
    for start in range(0, len(order), FORWARD_CHUNK):
        chunk = order[start:start + FORWARD_CHUNK]
        X, lengths = pad([seqs[i] for i in chunk], params.input_dim)
        hidden = forward_padded(X, params)[2]
        out[chunk] = (hidden[1:] * _pool_weights(lengths, X.shape[0])).sum(axis=0)
    return out


def readout(hbar: np.ndarray, params: LSTMParams):
    """Mobilization probability of each mean hidden state (rows of ``hbar``)."""
    return _sigmoid(hbar @ params.weights["theta"])


def predict_prob(seqs: list, params: LSTMParams) -> np.ndarray:
    """Mobilization probability of each sequence: logistic readout of its
    mean hidden state."""
    return readout(mean_hidden(seqs, params), params)


def cross_entropy(y, labels):
    """Log loss of probabilities ``y`` against 0/1 labels, with y kept
    within [1e-12, 1 - 1e-12]."""
    y = np.minimum(np.maximum(y, 1e-12), 1.0 - 1e-12)
    return -(labels * np.log(y) + (1 - labels) * np.log(1.0 - y))


def example_loss(seqs: list, labels, params: LSTMParams) -> np.ndarray:
    """Cross-entropy of each sequence against its 0/1 label."""
    return cross_entropy(predict_prob(seqs, params), np.asarray(labels))


def bptt(seqs: list, labels, params: LSTMParams):
    """Cross-entropy losses, backprop-through-time gradients summed over the
    batch and predicted probabilities of a batch of ragged sequences.

    The batch runs as one right-padded forward (``forward_padded``); the
    padded steps get zero gradient, and the weight gradients of all steps
    are summed with one matrix product each."""
    labels = np.asarray(labels, dtype=np.float64)
    X, lengths = pad(seqs, params.input_dim)
    T, B, d = X.shape
    hdim = params.hidden_dim
    w = params.weights
    gates, cells, hidden, tanh_cells = forward_padded(X, params)
    pooling = _pool_weights(lengths, T)
    hbar = (hidden[1:] * pooling).sum(axis=0)
    y = readout(hbar, params)
    losses = cross_entropy(y, labels)

    grads = params.zeros_like()
    dlogit = y - labels  # d loss / d (theta . hbar), per example
    grads["theta"] = dlogit @ hbar
    pool = pooling * (dlogit[:, None] * w["theta"])  # (T, B, h): d loss / d h_t through the mean

    # derivatives of the activations, for all steps at once
    dact = gates.copy()
    dact[..., :3 * hdim] *= 1.0 - gates[..., :3 * hdim]
    dact[..., 3 * hdim:] = 1.0 - gates[..., 3 * hdim:] ** 2
    dtanh_cells = 1.0 - tanh_cells ** 2
    dz = np.empty_like(gates)
    dh_carry = np.zeros((B, hdim))
    dc_carry = np.zeros((B, hdim))
    for t in range(T - 1, -1, -1):
        z = gates[t]
        gi, gf, go, gg = z[:, :hdim], z[:, hdim:2 * hdim], z[:, 2 * hdim:3 * hdim], z[:, 3 * hdim:]
        dh = dh_carry + pool[t]
        dc = dc_carry + dh * go * dtanh_cells[t]
        step = dz[t]
        np.multiply(dc, gg, out=step[:, :hdim])
        np.multiply(dc, cells[t], out=step[:, hdim:2 * hdim])
        np.multiply(dh, tanh_cells[t], out=step[:, 2 * hdim:3 * hdim])
        np.multiply(dc, gi, out=step[:, 3 * hdim:])
        step *= dact[t]
        dh_carry = step @ w["u"]
        dc_carry = dc * gf
    flat = dz.reshape(T * B, 4 * hdim).T
    grads["w"] = flat @ X.reshape(T * B, d)
    grads["u"] = flat @ hidden[:-1].reshape(T * B, hdim)
    grads["b"] = dz.sum(axis=(0, 1))
    return losses, grads, y

