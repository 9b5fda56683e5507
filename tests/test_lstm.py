import json
import math

import numpy as np
import pytest

from intercom import lstm
from intercom.lstm import (
    LSTMParams,
    NanError,
    bptt,
    example_loss,
    forward_padded,
    init_params,
    load_params,
    mean_hidden,
    pad,
    predict_prob,
    save_params,
)


def lstm_forward(seq: np.ndarray, params: LSTMParams) -> np.ndarray:
    """Hidden states [h_1 .. h_T] for an input sequence of shape (T, d)."""
    X, _ = pad([np.asarray(seq, dtype=np.float64)], params.input_dim)
    return forward_padded(X, params)[2][1:, 0]


def finite_difference_gradients(seqs: list, labels, params: LSTMParams, step: float = 1e-5):
    """Central finite differences of the batch's summed ``example_loss``
    over every parameter."""
    grads = params.zeros_like()
    for key, arr in params.weights.items():
        flat = arr.ravel()
        out = grads[key].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            plus = example_loss(seqs, labels, params).sum()
            flat[idx] = orig - step
            minus = example_loss(seqs, labels, params).sum()
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
    differences over all parameters; ``example`` is a (list of sequences,
    labels) pair."""
    seqs, labels = example
    _, analytic, _ = bptt(seqs, labels, params)
    numeric = finite_difference_gradients(seqs, labels, params, step=step)
    return max_relative_error(analytic, numeric)


def scalar_reference_forward(seq, params):
    """Independent step-by-step scalar implementation of the same cell."""
    w = params.weights
    d, h = params.input_dim, params.hidden_dim

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    hs = []
    h_prev = [0.0] * h
    c_prev = [0.0] * h
    for t in range(len(seq)):
        x = seq[t]
        h_new, c_new = [0.0] * h, [0.0] * h
        for r in range(h):
            zi, zf, zo, zg = (
                sum(w["w"][k * h + r][j] * x[j] for j in range(d))
                + sum(w["u"][k * h + r][j] * h_prev[j] for j in range(h)) + w["b"][k * h + r]
                for k in range(4))
            c_new[r] = sig(zf) * c_prev[r] + sig(zi) * math.tanh(zg)
            h_new[r] = sig(zo) * math.tanh(c_new[r])
        hs.append(list(h_new))
        h_prev, c_prev = h_new, c_new
    return hs


def scalar_reference_prob(seq, params):
    hs = scalar_reference_forward(seq, params)
    T, h = len(hs), params.hidden_dim
    pooled = [sum(hs[t][r] for t in range(T)) / T for r in range(h)]
    z = sum(params.weights["theta"][r] * pooled[r] for r in range(h))
    return 1.0 / (1.0 + math.exp(-z))


def test_all_zero_params_zero_states():
    params = init_params(4, 3, seed=0)
    for key in params.weights:
        params.weights[key] = np.zeros_like(params.weights[key])
    hs = lstm_forward(np.ones((5, 4)), params)
    assert np.all(hs == 0.0)
    assert predict_prob([np.ones((5, 4))], params)[0] == pytest.approx(0.5)


def test_causality_prefix():
    params = init_params(4, 3, seed=1)
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=(1, 4))
    x2 = np.vstack([x1, rng.normal(size=(1, 4))])
    h_one = lstm_forward(x1, params)
    h_two = lstm_forward(x2, params)
    assert np.array_equal(h_one[0], h_two[0])


def test_forward_matches_scalar_reference():
    rng = np.random.default_rng(7)
    params = init_params(5, 4, seed=7)
    seq = rng.normal(size=(3, 5))
    ours = lstm_forward(seq, params)
    reference = scalar_reference_forward(seq.tolist(), params)
    assert np.max(np.abs(ours - np.array(reference))) < 1e-12


def test_predict_prob_matches_scalar_reference():
    rng = np.random.default_rng(8)
    params = init_params(4, 6, seed=8)
    seq = rng.normal(size=(5, 4))
    assert predict_prob([seq], params)[0] == pytest.approx(
        scalar_reference_prob(seq.tolist(), params), abs=1e-12)


def test_theta_zero_gives_half():
    params = init_params(3, 4, seed=2)
    params.weights["theta"] = np.zeros(4)
    assert predict_prob([np.random.default_rng(0).normal(size=(4, 3))], params)[0] == 0.5


def test_hidden_permutation_invariance():
    # permuting hidden units consistently across all parameters leaves y fixed
    rng = np.random.default_rng(3)
    params = init_params(3, 5, seed=3)
    seq = rng.normal(size=(4, 3))
    y = predict_prob([seq], params)[0]
    perm = rng.permutation(5)
    permuted = params.copy()
    rows = np.concatenate([k * 5 + perm for k in range(4)])  # perm within each gate block
    permuted.weights["w"] = params.weights["w"][rows]
    permuted.weights["u"] = params.weights["u"][rows][:, perm]
    permuted.weights["b"] = params.weights["b"][rows]
    permuted.weights["theta"] = params.weights["theta"][perm]
    assert predict_prob([seq], permuted)[0] == pytest.approx(y, abs=1e-14)


def test_palindrome_reversal_invariance():
    rng = np.random.default_rng(4)
    params = init_params(3, 4, seed=4)
    a, b = rng.normal(size=3), rng.normal(size=3)
    seq = np.vstack([a, b, a])
    reversed_seq = seq[::-1].copy()
    assert predict_prob([seq], params)[0] == pytest.approx(
        predict_prob([reversed_seq], params)[0], abs=1e-14)


def test_nan_input_raises_with_step():
    params = init_params(3, 3, seed=5)
    seq = np.zeros((4, 3))
    seq[2, 0] = np.nan
    with pytest.raises(NanError) as err:
        lstm_forward(seq, params)
    assert err.value.step == 2


def test_shape_mismatch_raises():
    params = init_params(3, 3, seed=0)
    with pytest.raises(ValueError):
        lstm_forward(np.zeros((4, 5)), params)


def test_gradient_check_small():
    rng = np.random.default_rng(11)
    for seed in (0, 1):
        params = init_params(4, 3, seed=seed)
        seq = rng.normal(size=(4, 4))
        assert gradient_check(params, ([seq], [1])) < 1e-4
        assert gradient_check(params, ([seq], [0])) < 1e-4


def test_gradient_check_minimal_sequence():
    params = init_params(3, 3, seed=9)
    seq = np.random.default_rng(9).normal(size=(3, 3))
    assert gradient_check(params, ([seq], [1])) < 1e-4


def test_corrupted_forget_gate_detected():
    params = init_params(4, 3, seed=10)
    seq = np.random.default_rng(10).normal(size=(4, 4))
    _, analytic, _ = bptt([seq], [1], params)
    numeric = finite_difference_gradients([seq], [1], params)
    assert max_relative_error(analytic, numeric) < 1e-4
    analytic["w"][3:6] = analytic["w"][3:6] + 0.05  # the forget-gate block, rows h:2h
    assert max_relative_error(analytic, numeric) > 1e-2


def test_mean_hidden_matches_forward():
    params = init_params(3, 4, seed=6)
    seq = np.random.default_rng(6).normal(size=(5, 3))
    assert np.allclose(mean_hidden([seq], params)[0], lstm_forward(seq, params).mean(axis=0))


def ragged_batch(seed, input_dim):
    """Sequences of lengths 5, 1, 8 (the batch maximum) and 2, out of length
    order, and their labels."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, input_dim)) for n in (5, 1, 8, 2)], [1, 0, 0, 1]


def test_gradient_check_ragged_batch():
    # the summed loss of a right-padded batch against finite differences
    for seed in range(4):
        seqs, labels = ragged_batch(seed, 4)
        assert gradient_check(init_params(4, 3, seed=seed), (seqs, labels)) < 1e-4


def test_batched_mean_hidden_matches_scalar_reference(monkeypatch):
    params = init_params(5, 4, seed=13)
    seqs, _ = ragged_batch(13, 5)
    reference = [np.mean(scalar_reference_forward(seq.tolist(), params), axis=0) for seq in seqs]
    # in one padded forward, and in chunks of two sequences taken in length order
    for chunk in (lstm.FORWARD_CHUNK, 2):
        monkeypatch.setattr(lstm, "FORWARD_CHUNK", chunk)
        assert np.max(np.abs(mean_hidden(seqs, params) - np.array(reference))) < 1e-12
    assert mean_hidden([], params).shape == (0, 4)


def test_probability_does_not_depend_on_batch_mates_or_padding():
    rng = np.random.default_rng(14)
    params = init_params(3, 6, seed=14)
    params.weights["theta"] *= 4.0
    seqs, _ = ragged_batch(14, 3)
    # each sequence as a batch of one, and inside batches with longer and
    # shorter batch-mates, so that each sequence is padded
    alone = np.concatenate([predict_prob([seq], params) for seq in seqs])
    assert alone.shape == (len(seqs),)
    mates = [rng.normal(size=(n, 3)) for n in (12, 1, 3, 30)]
    for batch in (seqs, seqs[::-1], mates[:2] + seqs + mates[2:]):
        probs = dict(zip(map(id, batch), predict_prob(batch, params)))
        assert max(abs(probs[id(seq)] - y) for seq, y in zip(seqs, alone)) < 1e-12
    # and what the padded steps hold does not reach a sequence's mean state
    X, lengths = pad(seqs, 3)
    assert lengths.tolist() == [5, 1, 8, 2] and X.shape == (8, 4, 3)
    weights = lstm._pool_weights(lengths, X.shape[0])
    padded = weights[:, :, 0] == 0.0
    zero_padded = (lstm.forward_padded(X, params)[2][1:] * weights).sum(axis=0)
    X[padded] = rng.normal(0.0, 10.0, size=(int(padded.sum()), 3))
    noise_padded = (lstm.forward_padded(X, params)[2][1:] * weights).sum(axis=0)
    assert np.max(np.abs(zero_padded - mean_hidden(seqs, params))) < 1e-12
    assert np.max(np.abs(noise_padded - zero_padded)) < 1e-12


def test_params_copy_independent():
    params = init_params(3, 3, seed=0)
    clone = params.copy()
    clone.weights["theta"][0] += 1.0
    assert params.weights["theta"][0] != clone.weights["theta"][0]


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    params = init_params(3, 4, seed=7)
    path = tmp_path / "lstm.json"
    log = [{"epoch": 1, "train_loss": 0.1 + 0.2, "val_auc": None}]
    save_params(path, params, seed=7, max_words=12, log=log)
    loaded, checkpoint = load_params(path)
    assert (loaded.input_dim, loaded.hidden_dim) == (3, 4)
    assert all(np.array_equal(loaded.weights[k], params.weights[k]) for k in params.weights)
    assert (checkpoint["seed"], checkpoint["max_words"], checkpoint["log"]) == (7, 12, log)


def test_checkpoint_load_rejects_bad_files(tmp_path):
    path = tmp_path / "lstm.json"
    save_params(path, init_params(3, 4), seed=0, max_words=5, log=[])
    good = json.loads(path.read_text())
    bad_cases = [
        {**good, "format": "something-else"},
        {**good, "version": 99},
        {**good, "hidden_dim": 5},
        {**good, "weights": {k: v for k, v in good["weights"].items() if k != "theta"}},
    ]
    for case in bad_cases:
        path.write_text(json.dumps(case))
        with pytest.raises(ValueError):
            load_params(path)


@pytest.mark.parametrize("field, value", [
    ("seed", None), ("seed", True), ("seed", -1), ("seed", 1.0), ("seed", "0"),
    ("max_words", None), ("max_words", "x"), ("max_words", 2.5), ("max_words", -1),
    ("max_words", False), ("input_dim", True), ("hidden_dim", 4.0),
])
def test_checkpoint_load_rejects_a_seed_or_size_that_is_not_a_count(tmp_path, field, value):
    # predict eval/score copy seed and max_words into their Config
    path = tmp_path / "lstm.json"
    save_params(path, init_params(3, 4), seed=0, max_words=5, log=[])
    case = json.loads(path.read_text())
    if value is None:
        del case[field]
    else:
        case[field] = value
    path.write_text(json.dumps(case))
    with pytest.raises(ValueError, match="malformed LSTM checkpoint"):
        load_params(path)


def test_init_params_stacks_the_per_gate_draws():
    d, h, seed = 3, 4, 12
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(h)
    ws, us = [], []
    for _gate in "ifog":
        ws.append(rng.uniform(-scale, scale, size=(h, d)))
        us.append(rng.uniform(-scale, scale, size=(h, h)))
    theta = rng.uniform(-scale, scale, size=h)
    params = init_params(d, h, seed=seed)
    assert sorted(params.weights) == ["b", "theta", "u", "w"]
    assert np.array_equal(params.weights["w"], np.vstack(ws))
    assert np.array_equal(params.weights["u"], np.vstack(us))
    assert np.array_equal(params.weights["b"], np.concatenate([np.zeros(h), np.ones(h), np.zeros(2 * h)]))
    assert np.array_equal(params.weights["theta"], theta)


def test_checkpoint_load_rejects_a_version_1_per_gate_file(tmp_path):
    d, h = 3, 4
    weights = {"theta": [0.0] * h}
    for gate in "ifog":
        weights.update({f"w_{gate}": [[0.0] * d] * h, f"u_{gate}": [[0.0] * h] * h,
                        f"b_{gate}": [0.0] * h})
    path = tmp_path / "lstm.json"
    path.write_text(json.dumps({"format": "intercom-lstm", "version": 1, "input_dim": d,
                                "hidden_dim": h, "seed": 0, "max_words": 5, "log": [],
                                "weights": weights}))
    with pytest.raises(ValueError, match="version"):
        load_params(path)
