"""Bagged decision-tree ensemble with per-node feature subsampling."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint

FOREST_FORMAT = "intercom-forest"
FOREST_VERSION = 2
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


class SchemaError(ValueError):
    """Feature schema does not match the one the model was trained with."""


def _best_split(X, y_codes, idx, n_classes, features):
    """Best (impurity gain, feature, threshold) over the candidate features.

    Maximizes sum(left_counts^2)/|left| + sum(right_counts^2)/|right|, which
    is equivalent to minimizing weighted Gini impurity.
    """
    n = idx.size
    total = np.bincount(y_codes[idx], minlength=n_classes).astype(np.float64)
    base = float(np.dot(total, total)) / n
    best = None
    for f in features:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cut = np.nonzero(sv[:-1] < sv[1:])[0]
        if cut.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y_codes[idx][order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[cut]
        right = total - left
        left_n = (cut + 1).astype(np.float64)
        right_n = n - left_n
        score = (left * left).sum(axis=1) / left_n + (right * right).sum(axis=1) / right_n
        k = int(np.argmax(score))
        if score[k] > base + 1e-12 and (best is None or score[k] > best[0] + 1e-12):
            pos = cut[k]
            best = (float(score[k]), f, float((sv[pos] + sv[pos + 1]) / 2.0))
    return best


def _grow_tree(X, y_codes, idx, n_classes, mtry, rng, nodes: list) -> int:
    """Append one tree to ``nodes``, rows of (feature, threshold, left, right,
    value), and return its root. A child is numbered after its parent."""
    root = len(nodes)
    nodes.append([-1, 0.0, -1, -1, np.zeros(n_classes)])
    stack = [(root, idx)]
    n_features = X.shape[1]
    while stack:
        node, node_idx = stack.pop()
        row = nodes[node]
        counts = np.bincount(y_codes[node_idx], minlength=n_classes)
        if node_idx.size < 2 or np.count_nonzero(counts) == 1:
            row[4] = counts / counts.sum()
            continue
        features = rng.choice(n_features, size=mtry, replace=False)
        split = _best_split(X, y_codes, node_idx, n_classes, features)
        if split is None:
            row[4] = counts / counts.sum()
            continue
        _, feature, threshold = split
        mask = X[node_idx, feature] < threshold
        row[:4] = feature, threshold, len(nodes), len(nodes) + 1
        nodes += [[-1, 0.0, -1, -1, np.zeros(n_classes)] for _ in range(2)]
        stack.append((row[2], node_idx[mask]))
        stack.append((row[3], node_idx[~mask]))
    return root


@dataclass
class Forest:
    """Axis-aligned trees over a fixed feature schema, all in one set of node
    arrays: ``feature`` (-1 at a leaf), ``threshold``, ``left``/``right`` (node
    indices), ``value`` (nodes x classes leaf probabilities), one root per tree."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    schema: tuple[str, ...]
    classes: tuple
    seed: int
    oob_accuracy: float | None = None
    metadata: dict = field(default_factory=dict)

    def _to_matrix(self, X) -> np.ndarray:
        if not isinstance(X, np.ndarray):
            return _matrix([X] if isinstance(X, dict) else X, self.schema,
                           "feature vector keys do not match the trained schema")
        mat = np.asarray(np.atleast_2d(X), dtype=np.float64)
        if mat.shape[1] != len(self.schema):
            raise SchemaError(f"expected {len(self.schema)} features, got {mat.shape[1]}")
        return mat

    def leaves(self, mat: np.ndarray) -> np.ndarray:
        """(rows x trees) leaf reached by each row in each tree; every tree
        descends at once, one level per step."""
        node = np.tile(self.roots, (mat.shape[0], 1))
        rows = np.arange(mat.shape[0])[:, None]
        while True:
            feature = self.feature[node]
            if (feature < 0).all():
                return node
            go_left = mat[rows, np.maximum(feature, 0)] < self.threshold[node]
            node = np.where(feature < 0, node, np.where(go_left, self.left[node], self.right[node]))

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, rows aligned with ``self.classes``."""
        votes = self.value[self.leaves(self._to_matrix(X))]
        # a running total adds the trees in order; a pairwise sum rounds differently
        return np.cumsum(votes, axis=1)[:, -1] / self.roots.size

    def predict(self, X) -> list:
        return [self.classes[i] for i in np.argmax(self.predict_proba(X), axis=1)]

    def save(self, path) -> None:
        write_checkpoint(path, FOREST_FORMAT, FOREST_VERSION, {
            **{k: getattr(self, k).tolist() for k in NODE_ARRAYS + ("roots",)},
            "schema": list(self.schema), "classes": np.asarray(self.classes).tolist(),
            "seed": int(self.seed), "oob_accuracy": self.oob_accuracy, "metadata": self.metadata})


def load_forest(path) -> Forest:
    """Read a ``save`` checkpoint. The file is outside input, so the node
    arrays are checked to form trees in which every descent ends at a leaf."""
    checkpoint = read_checkpoint(path, FOREST_FORMAT, FOREST_VERSION)
    try:
        arrays = {k: np.asarray(checkpoint[k], dtype=np.float64 if k in ("threshold", "value") else np.intp)
                  for k in NODE_ARRAYS + ("roots",)}
        schema, classes = tuple(checkpoint["schema"]), tuple(checkpoint["classes"])
        fields = {k: checkpoint[k] for k in ("seed", "oob_accuracy", "metadata")}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed forest checkpoint ({exc})") from None
    feature, left, right, roots = (arrays[k] for k in ("feature", "left", "right", "roots"))
    n, own, bad = feature.size, np.arange(feature.size), f"{path}: malformed forest checkpoint: "
    if not (all(isinstance(s, str) for s in schema) and all(type(c) in (str, int) for c in classes)):
        raise ValueError(bad + "schema names must be strings and classes strings or ints")
    if not (all(arrays[k].shape == (n,) for k in NODE_ARRAYS[:4]) and roots.ndim == 1 and roots.size
            and arrays["value"].shape == (n, len(classes))):
        raise ValueError(bad + f"node arrays must all have {n} rows, value one column per class, and roots a tree")
    if not ((feature >= -1) & (feature < len(schema))).all():
        raise ValueError(bad + "a feature index outside the schema")
    if not np.where(feature >= 0, (left > own) & (left < n) & (right > own) & (right < n),
                    (left == -1) & (right == -1)).all():
        raise ValueError(bad + "a child index not after its node or outside the forest")
    if not ((roots >= 0) & (roots < n)).all():
        raise ValueError(bad + "a root index outside the forest")
    return Forest(**arrays, schema=schema, classes=classes, **fields)


def _matrix(X, schema: tuple[str, ...], mismatch: str) -> np.ndarray:
    rows = []
    for fv in X:
        if tuple(fv.keys()) != schema:
            raise SchemaError(mismatch)
        rows.append([fv[k] for k in schema])
    return np.asarray(rows, dtype=np.float64)


def _validate_features(X) -> tuple[np.ndarray, tuple[str, ...]]:
    if len(X) == 0:
        raise ValueError("empty training set")
    schema = tuple(X[0].keys())
    mat = _matrix(X, schema, "inconsistent feature schemas in training set")
    if not np.isfinite(mat).all():
        raise ValueError("feature matrix contains NaN or inf")
    return mat, schema


def train_forest(X, y, trees: int = 400, seed: int = 0) -> Forest:
    """Fit a bagged forest: bootstrap per tree, sqrt(F) features per node,
    unlimited depth, leaf size 1. Out-of-bag accuracy is recorded when any
    sample lands out of bag. Bit-reproducible for a fixed seed."""
    mat, schema = _validate_features(X)
    n, n_feat = mat.shape
    if len(y) != n:
        raise ValueError("X and y length mismatch")
    if n < 2:
        raise ValueError("need at least 2 training samples")
    if trees < 1:
        raise ValueError("need at least one tree")
    classes = tuple(sorted(set(y)))
    if len(classes) < 2:
        raise ValueError("training labels contain a single class")
    code = {c: i for i, c in enumerate(classes)}
    y_codes = np.asarray([code[v] for v in y], dtype=np.intp)
    mtry = max(1, int(np.sqrt(n_feat)))

    nodes, roots, boots = [], [], []
    for seq in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(seq)
        boots.append(rng.integers(0, n, size=n))
        roots.append(_grow_tree(mat, y_codes, boots[-1], len(classes), mtry, rng, nodes))
    forest = Forest(*(np.array(column) for column in zip(*nodes)), roots=np.array(roots),
                    schema=schema, classes=classes, seed=seed,
                    metadata={"n_samples": n, "n_trees": trees, "mtry": mtry})

    # each row's votes from the trees whose bootstrap left it out, added in tree order
    in_bag = np.zeros((n, trees), dtype=bool)
    in_bag[np.array(boots), np.arange(trees)[:, None]] = True
    votes = np.where(in_bag[:, :, None], 0.0, forest.value[forest.leaves(mat)])
    oob_seen = ~in_bag.all(axis=1)
    if oob_seen.any():
        pred = np.argmax(np.cumsum(votes, axis=1)[oob_seen, -1], axis=1)
        forest.oob_accuracy = float(np.mean(pred == y_codes[oob_seen]))
    return forest
