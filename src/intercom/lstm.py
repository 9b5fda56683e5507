"""Minimal LSTM classifier: forward pass, full BPTT, and gradient checking."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint

GATES = ("i", "f", "o", "g")
PARAM_KEYS = tuple(f"{kind}_{gate}" for gate in GATES for kind in ("w", "u", "b")) + ("theta",)
CHECKPOINT_FORMAT = "intercom-lstm"
CHECKPOINT_VERSION = 1


class NanError(FloatingPointError):
    def __init__(self, step: int):
        super().__init__(f"non-finite hidden state at step {step}")
        self.step = step


@dataclass
class LSTMParams:
    """Canonical no-peephole cell plus a logistic readout over the mean state."""

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
    """Uniform +/-1/sqrt(h) weights; forget-gate bias starts at 1.0 so early
    training does not wash out the cell state."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden_dim)
    weights: dict[str, np.ndarray] = {}
    for gate in GATES:
        weights[f"w_{gate}"] = rng.uniform(-scale, scale, size=(hidden_dim, input_dim))
        weights[f"u_{gate}"] = rng.uniform(-scale, scale, size=(hidden_dim, hidden_dim))
        weights[f"b_{gate}"] = np.ones(hidden_dim) if gate == "f" else np.zeros(hidden_dim)
    weights["theta"] = rng.uniform(-scale, scale, size=hidden_dim)
    return LSTMParams(input_dim=input_dim, hidden_dim=hidden_dim, weights=weights)


def save_params(path, params: LSTMParams, seed: int, max_words: int, log: list[dict]) -> None:
    """JSON checkpoint of the dimensions, seed, max_words, training log and weights."""
    write_checkpoint(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "input_dim": params.input_dim, "hidden_dim": params.hidden_dim,
        "seed": seed, "max_words": max_words, "log": log,
        "weights": {k: v.tolist() for k, v in params.weights.items()}})


def load_params(path) -> tuple[LSTMParams, dict]:
    """Read a ``save_params`` checkpoint, checking its format, version and
    weight shapes; returns the params and the checkpoint's other fields."""
    checkpoint = read_checkpoint(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    d, h = checkpoint.get("input_dim"), checkpoint.get("hidden_dim")
    raw = checkpoint.pop("weights", None)
    if not (isinstance(d, int) and isinstance(h, int) and d >= 1 and h >= 1
            and isinstance(raw, dict) and sorted(raw) == sorted(PARAM_KEYS)):
        raise ValueError(f"{path}: malformed LSTM checkpoint")
    shapes = {"theta": (h,)}
    for gate in GATES:
        shapes.update({f"w_{gate}": (h, d), f"u_{gate}": (h, h), f"b_{gate}": (h,)})
    weights = {k: np.asarray(raw[k], dtype=np.float64) for k in PARAM_KEYS}
    if any(weights[k].shape != shapes[k] for k in PARAM_KEYS):
        raise ValueError(f"{path}: weights do not fit an LSTM of input {d} and hidden size {h}")
    return LSTMParams(input_dim=d, hidden_dim=h, weights=weights), checkpoint


def _sigmoid(x):
    # clipped to dodge exp overflow; saturation error is far below 1e-200
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def lstm_forward(seq: np.ndarray, params: LSTMParams, with_cache: bool = False):
    """Hidden states [h_1 .. h_T] for an input sequence of shape (T, d)."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[1] != params.input_dim:
        raise ValueError(f"expected sequence of shape (T, {params.input_dim}), got {seq.shape}")
    w = params.weights
    T = seq.shape[0]
    hdim = params.hidden_dim
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    hs = np.zeros((T, hdim))
    cache = []
    for t in range(T):
        x = seq[t]
        gi = _sigmoid(w["w_i"] @ x + w["u_i"] @ h + w["b_i"])
        gf = _sigmoid(w["w_f"] @ x + w["u_f"] @ h + w["b_f"])
        go = _sigmoid(w["w_o"] @ x + w["u_o"] @ h + w["b_o"])
        gg = np.tanh(w["w_g"] @ x + w["u_g"] @ h + w["b_g"])
        c_new = gf * c + gi * gg
        tanh_c = np.tanh(c_new)
        h_new = go * tanh_c
        if not np.isfinite(h_new).all():
            raise NanError(t)
        if with_cache:
            cache.append((x, h, c, gi, gf, go, gg, c_new, tanh_c))
        h, c = h_new, c_new
        hs[t] = h
    if with_cache:
        return hs, cache
    return hs


def mean_hidden(seq: np.ndarray, params: LSTMParams) -> np.ndarray:
    return lstm_forward(seq, params).mean(axis=0)


def predict_prob(seq: np.ndarray, params: LSTMParams) -> float:
    """Mobilization probability: logistic readout of the mean hidden state."""
    return float(_sigmoid(params.weights["theta"] @ mean_hidden(seq, params)))


def example_loss(seq: np.ndarray, label: int, params: LSTMParams) -> float:
    y = predict_prob(seq, params)
    y = min(max(y, 1e-12), 1.0 - 1e-12)
    return -(label * np.log(y) + (1 - label) * np.log(1.0 - y))


def bptt(seq: np.ndarray, label: int, params: LSTMParams):
    """Cross-entropy loss, full backprop-through-time gradients, and the
    predicted probability for one example."""
    hs, cache = lstm_forward(seq, params, with_cache=True)
    T = hs.shape[0]
    w = params.weights
    hbar = hs.mean(axis=0)
    y = float(_sigmoid(w["theta"] @ hbar))
    y_safe = min(max(y, 1e-12), 1.0 - 1e-12)
    loss = -(label * np.log(y_safe) + (1 - label) * np.log(1.0 - y_safe))

    grads = params.zeros_like()
    dz = y - label  # d loss / d (theta . hbar)
    grads["theta"] = dz * hbar
    dh_pool = dz * w["theta"] / T

    dh_carry = np.zeros(params.hidden_dim)
    dc_carry = np.zeros(params.hidden_dim)
    for t in range(T - 1, -1, -1):
        x, h_prev, c_prev, gi, gf, go, gg, c_new, tanh_c = cache[t]
        dh = dh_pool + dh_carry
        dc = dc_carry + dh * go * (1.0 - tanh_c**2)
        do = dh * tanh_c
        di = dc * gg
        dg = dc * gi
        df = dc * c_prev
        dz_i = di * gi * (1.0 - gi)
        dz_f = df * gf * (1.0 - gf)
        dz_o = do * go * (1.0 - go)
        dz_g = dg * (1.0 - gg**2)
        for gate, dzg in (("i", dz_i), ("f", dz_f), ("o", dz_o), ("g", dz_g)):
            grads[f"w_{gate}"] += np.outer(dzg, x)
            grads[f"u_{gate}"] += np.outer(dzg, h_prev)
            grads[f"b_{gate}"] += dzg
        dh_carry = (
            w["u_i"].T @ dz_i + w["u_f"].T @ dz_f + w["u_o"].T @ dz_o + w["u_g"].T @ dz_g
        )
        dc_carry = dc * gf
    return loss, grads, y


def finite_difference_gradients(seq: np.ndarray, label: int, params: LSTMParams, step: float = 1e-5):
    """Central finite differences of the example loss over every parameter."""
    grads = params.zeros_like()
    for key, arr in params.weights.items():
        flat = arr.ravel()
        out = grads[key].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            plus = example_loss(seq, label, params)
            flat[idx] = orig - step
            minus = example_loss(seq, label, params)
            flat[idx] = orig
            out[idx] = (plus - minus) / (2.0 * step)
    return grads


def max_relative_error(grads_a: dict, grads_b: dict) -> float:
    # the 1e-6 floor keeps numerically-zero components (|g| ~ 1e-8 on an O(1)
    # loss) from turning finite-difference rounding noise into large ratios
    worst = 0.0
    for key in grads_a:
        a, b = grads_a[key].ravel(), grads_b[key].ravel()
        for x, y in zip(a, b):
            denom = max(abs(x), abs(y), 1e-6)
            worst = max(worst, abs(x - y) / denom)
    return worst


def gradient_check(params: LSTMParams, example, step: float = 1e-5) -> float:
    """Max relative error between analytic BPTT gradients and central finite
    differences over all parameters."""
    seq, label = example
    _, analytic, _ = bptt(seq, label, params)
    numeric = finite_difference_gradients(seq, label, params, step=step)
    return max_relative_error(analytic, numeric)
