import json

import numpy as np
import pytest

from intercom.forest import SchemaError, load_forest, train_forest
from intercom.predictor import ensemble_features
from intercom.sentiment import builtin_lexicon, extract_text_features


def _separable(n, seed, noise=0.0):
    """Generator oracle: label 1 iff x0 + x1 > 1 (plus optional label noise)."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for _ in range(n):
        x0, x1, x2 = rng.uniform(0, 1, size=3)
        label = int(x0 + x1 > 1.0)
        if noise and rng.random() < noise:
            label = 1 - label
        X.append({"x0": x0, "x1": x1, "noise": x2})
        y.append(label)
    return X, y


def test_separable_holdout_accuracy():
    X, y = _separable(500, seed=0)
    forest = train_forest(X[:350], y[:350], trees=40, seed=1)
    pred = forest.predict(X[350:])
    accuracy = np.mean([p == t for p, t in zip(pred, y[350:])])
    assert accuracy >= 0.95


def test_label_independent_accuracy_near_prior():
    rng = np.random.default_rng(5)
    X, _ = _separable(900, seed=5)
    y = [int(rng.random() < 0.6) for _ in X]  # labels independent of features
    forest = train_forest(X[:600], y[:600], trees=40, seed=2)
    pred = forest.predict(X[600:])
    accuracy = np.mean([p == t for p, t in zip(pred, y[600:])])
    prior = max(np.mean(y[600:]), 1 - np.mean(y[600:]))
    assert abs(accuracy - prior) <= 0.06


def test_single_class_rejected():
    X, _ = _separable(10, seed=0)
    with pytest.raises(ValueError):
        train_forest(X, [1] * len(X), trees=5, seed=0)


def test_too_small_rejected():
    with pytest.raises(ValueError):
        train_forest([{"x": 1.0}], [0], trees=5, seed=0)


def test_nan_rejected():
    with pytest.raises(ValueError):
        train_forest([{"x": float("nan")}, {"x": 1.0}], [0, 1], trees=5, seed=0)


def test_schema_mismatch_rejected():
    X, y = _separable(50, seed=1)
    forest = train_forest(X, y, trees=5, seed=0)
    with pytest.raises(SchemaError):
        forest.predict_proba({"wrong": 1.0, "keys": 2.0, "here": 3.0})
    with pytest.raises(SchemaError):
        train_forest([{"a": 1.0}, {"b": 2.0}], [0, 1], trees=5, seed=0)


def test_probabilities_valid():
    X, y = _separable(200, seed=2, noise=0.2)
    forest = train_forest(X, y, trees=20, seed=3)
    proba = forest.predict_proba(X[:50])
    assert proba.shape == (50, 2)
    assert np.all(proba >= 0) and np.all(proba <= 1)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_unanimous_probability_on_clean_point():
    X, y = _separable(300, seed=3)
    forest = train_forest(X, y, trees=25, seed=4)
    proba = forest.predict_proba({"x0": 0.99, "x1": 0.99, "noise": 0.5})
    assert proba[0][forest.classes.index(1)] == pytest.approx(1.0)


def test_seed_reproducibility():
    X, y = _separable(150, seed=4)
    a = train_forest(X, y, trees=15, seed=9)
    b = train_forest(X, y, trees=15, seed=9)
    grid = [{"x0": i / 10, "x1": j / 10, "noise": 0.3} for i in range(10) for j in range(10)]
    assert np.array_equal(a.predict_proba(grid), b.predict_proba(grid))
    c = train_forest(X, y, trees=15, seed=10)
    assert not np.array_equal(a.predict_proba(grid), c.predict_proba(grid))


def test_oob_accuracy_reported():
    X, y = _separable(300, seed=6)
    forest = train_forest(X, y, trees=30, seed=0)
    assert forest.oob_accuracy is not None
    assert forest.oob_accuracy >= 0.9


def test_save_load_roundtrip(tmp_path):
    X, y = _separable(100, seed=7)
    forest = train_forest(X, y, trees=10, seed=0)
    path = tmp_path / "model.bin"
    forest.save(path)
    loaded = load_forest(path)
    assert loaded.schema == forest.schema
    assert np.array_equal(loaded.predict_proba(X[:20]), forest.predict_proba(X[:20]))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    import pickle

    with open(path, "wb") as fh:
        pickle.dump({"something": "else"}, fh)
    with pytest.raises(ValueError):
        load_forest(path)


def _assert_roundtrip(forest, rows, path):
    forest.save(path)
    loaded = load_forest(path)
    assert (loaded.schema, loaded.classes) == (forest.schema, forest.classes)
    assert np.array_equal(loaded.predict_proba(rows), forest.predict_proba(rows))
    return loaded


def test_roundtrip_sentiment_schema_with_string_classes(tmp_path):
    lexicon = builtin_lexicon()
    rng = np.random.default_rng(11)
    X, y = [], []
    for i in range(120):
        negative = i % 2 == 0
        words = ["hate" if negative and rng.random() < 0.5 else "calm" for _ in range(8)]
        X.append(extract_text_features(" ".join(words) + "!" * int(rng.integers(0, 3)), lexicon))
        y.append("negative" if negative else "neutral")
    forest = train_forest(X, y, trees=25, seed=2)
    loaded = _assert_roundtrip(forest, X, tmp_path / "sentiment_model.pkl")
    assert loaded.classes == ("negative", "neutral")
    assert loaded.oob_accuracy == forest.oob_accuracy


def test_roundtrip_ensemble_rows_with_0_1_classes(tmp_path):
    rng = np.random.default_rng(12)
    rows = [ensemble_features({"f0": float(rng.normal())}, rng.normal(size=3),
                              rng.normal(size=3), rng.normal(size=3), rng.normal(size=2))
            for _ in range(90)]
    labels = np.array([int(r["f0"] + r["hid_0"] > 0) for r in rows])  # numpy ints save as JSON ints
    forest = train_forest(rows, labels, trees=30, seed=5)
    assert _assert_roundtrip(forest, rows, tmp_path / "ensemble.json").classes == (0, 1)


def test_predict_proba_equals_a_walk_of_one_tree_at_a_time():
    X, y = _separable(200, seed=10, noise=0.2)
    forest = train_forest(X, y, trees=15, seed=1)
    mat = np.array([[fv[k] for k in forest.schema] for fv in X[:40]])
    expected = np.zeros((40, 2))
    for root in forest.roots:  # trees added in order, as the array descent must
        for i, row in enumerate(mat):
            node = root
            while forest.feature[node] >= 0:
                go_left = row[forest.feature[node]] < forest.threshold[node]
                node = forest.left[node] if go_left else forest.right[node]
            expected[i] += forest.value[node]
    assert np.array_equal(forest.predict_proba(mat), expected / 15)


def test_children_come_after_their_parent():
    X, y = _separable(120, seed=8, noise=0.1)
    forest = train_forest(X, y, trees=12, seed=0)
    inner = np.nonzero(forest.feature >= 0)[0]
    assert inner.size and np.all(forest.left[inner] > inner) and np.all(forest.right[inner] > inner)
    assert forest.roots.size == 12


@pytest.fixture
def checkpoint(tmp_path):
    X, y = _separable(60, seed=9, noise=0.1)
    path = tmp_path / "model.json"
    train_forest(X, y, trees=3, seed=0).save(path)
    return path, json.loads(path.read_text())


def _inner_node(good):
    return next(i for i, f in enumerate(good["feature"]) if f >= 0)


@pytest.mark.parametrize("craft", [
    lambda g: {**g, "version": 1},
    lambda g: {**g, "format": "intercom-lstm"},
    lambda g: {**g, "left": [i if i == -1 else 0 for i in g["left"]]},  # child before its node
    lambda g: {**g, "right": [i if i == -1 else len(g["right"]) for i in g["right"]]},
    lambda g: {**g, "left": [-1 if i == _inner_node(g) else x for i, x in enumerate(g["left"])]},
    lambda g: {**g, "feature": [len(g["schema"]) if f >= 0 else f for f in g["feature"]]},
    lambda g: {**g, "feature": [-2 if f >= 0 else f for f in g["feature"]]},
    lambda g: {**g, "value": [row + [0.0] for row in g["value"]]},
    lambda g: {**g, "value": g["value"][:-1]},
    lambda g: {**g, "threshold": g["threshold"][:-1]},
    lambda g: {**g, "roots": [len(g["feature"])]},
    lambda g: {**g, "roots": []},
    lambda g: {**g, "classes": [True, False]},
    lambda g: {**g, "classes": [0.0, 1.0]},
    lambda g: {k: v for k, v in g.items() if k != "value"},
], ids=["version-1", "other-format", "child-before-node", "child-past-end", "inner-node-missing-child",
        "feature-past-schema", "feature-below-leaf", "value-extra-class", "value-missing-row",
        "threshold-short", "root-past-end", "no-roots", "bool-classes", "float-classes", "no-value"])
def test_load_rejects_crafted_checkpoints(checkpoint, craft):
    path, good = checkpoint
    path.write_text(json.dumps(craft(good)))
    with pytest.raises(ValueError):
        load_forest(path)
