"""Bagged decision-tree ensemble with per-node feature subsampling.

All trees of a forest grow together. A node that holds fewer than 2 samples
or one class is recorded as a leaf when its parent splits; only the other
nodes go on their tree's stack. Each step pops one such node of every tree
whose stack is not empty, and one batched search (``_best_splits``) scores
the splits of all those nodes. The forest is, bit for bit, the one that
growing each tree alone, node by node, gives:

- Each tree pops its own stack in LIFO order and takes its nodes' feature
  subsets, in that order, from its own generator. The subsets are the ones
  successive ``choice(n_features, mtry, replace=False)`` calls give: each
  tree draws the bounded integers ``choice`` draws (Floyd's algorithm, then
  its shuffle) for a block of nodes in one ``integers`` call, and the blocks
  of all trees that need one are turned into subsets together. A tree's
  generator is read only for its own nodes, so interleaving the trees
  changes nothing, and a block drawn past a tree's last node reads nothing
  the tree uses.
- A node holds each distinct bootstrap row once, with its count as a weight.
  Duplicates have equal values and never fall on two sides of a cut.
- A cut is scored only between unequal values, where the class counts below
  it are the counts of a multiset. So one integer sort per search, on
  ``segment * n_rows + rank``, where ``rank`` is the row's rank in its
  column, can order every (node, feature) segment, in any order within ties.
- Class counts are whole numbers, and so are their cumsums and squared
  sums in float64, whatever order they are added in. Every score,
  sum(left^2)/|left| + sum(right^2)/|right|, is therefore the same double.
- The first best cut per (node, feature) is a max and then a min per
  segment, both exact. The 1e-12 tie rule across a node's features runs in
  feature order.
- Nodes are numbered per tree as their parent splits, and the trees are
  concatenated in tree order.

A search scores at most ``SPLIT_CHUNK`` rows x features at once, and the
subsets drawn ahead hold at most ``DRAW_CHUNK`` features over all trees (or
one subset per tree), which bounds the memory a step takes.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint

FOREST_FORMAT = "intercom-forest"
FOREST_VERSION = 2
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")
# rows x features of the nodes one split search scores at once; a larger
# node is searched alone
SPLIT_CHUNK = 8192
# feature subsets a tree draws ahead; and the most entries, over all trees,
# of the subsets held (trees x subsets x mtry) and of one refill's draws
# (trees x subsets x (2 mtry - 1)); a tree holds at least one subset
DRAW_BLOCK = 16
DRAW_CHUNK = 16384


class SchemaError(ValueError):
    """Feature schema does not match the one the model was trained with."""


def _column_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column; equal values share one."""
    order = np.argsort(X, axis=0, kind="stable")
    sv = np.take_along_axis(X, order, axis=0)
    dense = np.zeros(X.shape, dtype=np.int32 if X.shape[0] < 2**31 else np.intp)
    np.cumsum(sv[1:] != sv[:-1], axis=0, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    return ranks


def _best_splits(X, ranks, y_codes, n_classes, rows, weights, sizes, features) -> list:
    """Best (score, feature, threshold), or None, for each node of a batch.

    Node i holds the next ``sizes[i]`` entries of ``rows``, each a distinct
    row of ``X`` with its bootstrap count in ``weights``, and tries the
    features ``features[i]``; ``ranks`` is ``_column_ranks(X)``. A split
    maximizes sum(left_counts^2)/|left| + sum(right_counts^2)/|right|, which
    is minimizing weighted Gini impurity, and must beat the node's own score
    by 1e-12. Nodes are searched in chunks of at most ``SPLIT_CHUNK`` rows x
    features.
    """
    load = sizes * features.shape[1]
    best, start, stop = [], 0, 0
    while start < sizes.size:
        end = start + max(1, int(np.searchsorted(np.cumsum(load[start:]), SPLIT_CHUNK, side="right")))
        rows_end = stop + int(sizes[start:end].sum())
        best += _search(X, ranks, y_codes, n_classes, rows[stop:rows_end], weights[stop:rows_end],
                        sizes[start:end], features[start:end])
        start, stop = end, rows_end
    return best


def _tile(a: np.ndarray, k: int) -> np.ndarray:
    """``np.tile(a, k)`` of a 1-D array, without its Python overhead."""
    return a[None].repeat(k, axis=0).ravel()


def _search(X, ranks, y_codes, n_classes, rows, weights, sizes, features) -> list:
    """``_best_splits`` on one chunk, every node with at least one row."""
    b, mtry = features.shape
    n_rows, n_features = ranks.shape
    # segment j * b + i holds node i's rows on its j-th feature, and entry
    # j * rows.size + k is rows[k] on the j-th feature of its node
    seg_size = _tile(sizes, mtry)
    seg_start = np.zeros(seg_size.size, dtype=np.intp)
    np.cumsum(seg_size[:-1], out=seg_start[1:])
    at = features[np.repeat(np.arange(b), sizes)] + (rows * n_features)[:, None]
    key = ranks.take(at.T.ravel()) + np.repeat(np.arange(seg_size.size) * n_rows, seg_size)
    if seg_size.size * n_rows <= 2**16:  # numpy's stable sort of 16-bit keys is a radix sort
        key = key.astype(np.uint16)
        order = np.argsort(key, kind="stable")
    else:
        order = np.argsort(key)
    key, size = key[order], key.size
    # cum[c, e]: weight of class c among the first e sorted entries, over all
    # segments; whole numbers, so every sum below is exact. Entry k is row
    # rows[k % rows.size], so cum gathers each class's row weights tiled mtry
    # times (every index is in range; mode="clip" lets take write unbuffered)
    cum = np.empty((n_classes, size + 1))
    cum[:, 0] = 0.0
    class_weight = np.where(y_codes[rows] == np.arange(n_classes)[:, None], weights, 0.0)
    for c in range(n_classes):
        _tile(class_weight[c], mtry).take(order, out=cum[c, 1:], mode="clip")
    np.cumsum(cum, axis=1, out=cum)
    below = cum[:, seg_start]
    total = cum[:, seg_start + seg_size] - below
    total_n = total.sum(axis=0)
    base = (np.square(total[:, :b]).sum(axis=0) / total_n[:b]).tolist()
    # a cut after sorted entry e puts it and what precedes it in its segment
    # left; only cuts between unequal values of one segment count
    left = cum[:, 1:]
    left -= np.repeat(below, seg_size, axis=1)
    right = np.repeat(total, seg_size, axis=1)
    right -= left
    left_n = left.sum(axis=0)
    right_n = np.repeat(total_n, seg_size) - left_n
    with np.errstate(divide="ignore", invalid="ignore"):  # a segment's last entry has no right side
        score = np.square(left, out=left).sum(axis=0) / left_n
        score += np.square(right, out=right).sum(axis=0) / right_n
    cut = np.empty(size, dtype=bool)
    np.not_equal(key[:-1], key[1:], out=cut[:-1])
    cut[seg_start[1:] - 1] = cut[-1] = False
    score[~cut] = -np.inf
    top = np.maximum.reduceat(score, seg_start)
    first = np.minimum.reduceat(np.where(score == np.repeat(top, seg_size), np.arange(size), size), seg_start)
    seg_feature = features.T.ravel()
    after = np.minimum(first + 1, size - 1)
    below_cut = X[rows[order[first] % rows.size], seg_feature]
    above_cut = X[rows[order[after] % rows.size], seg_feature]
    with np.errstate(over="ignore"):
        mid = (below_cut + above_cut) / 2.0
    # the midpoint of neighbouring doubles can round down to the lower one
    # (or overflow), and then ``x < threshold`` would not split them
    threshold = np.where((below_cut < mid) & (mid <= above_cut), mid, above_cut).tolist()
    top, seg_feature = top.tolist(), seg_feature.tolist()
    best = []
    for i in range(b):
        found = None
        for s in range(i, mtry * b, b):
            if top[s] > base[i] + 1e-12 and (found is None or top[s] > found[0] + 1e-12):
                found = (top[s], seg_feature[s], threshold[s])
        best.append(found)
    return best


def _choices(rngs, n_features: int, mtry: int, count: int) -> np.ndarray:
    """(len(rngs), count, mtry): the subsets ``count`` successive
    ``rng.choice(n_features, mtry, replace=False)`` calls give, from one
    ``integers`` call per generator that makes the same bounded draws and
    leaves it as those calls do.

    Per subset ``choice`` draws a value in [0, j] for j = F - m ... F - 1 and
    keeps it, or j when it is kept already (Floyd's algorithm), then swaps
    entry i with a drawn entry in [0, i] for i = m - 1 ... 1. (It shuffles a
    whole range instead when F > 10000 and m > F // 50, which m = sqrt(F)
    never is.)
    """
    highs = _tile(np.r_[n_features - mtry + 1:n_features + 1, mtry:1:-1], count)
    draws = np.concatenate([rng.integers(0, highs) for rng in rngs]).reshape(-1, 2 * mtry - 1)
    subsets = draws[:, :mtry]
    for k, j in enumerate(range(n_features - mtry, n_features)):
        subsets[(subsets[:, :k] == subsets[:, k, None]).any(axis=1), k] = j
    rows = np.arange(len(draws))
    for i, swap in zip(range(mtry - 1, 0, -1), draws[:, mtry:].T):
        subsets[rows, i], subsets[rows, swap] = subsets[rows, swap], subsets[rows, i]
    return subsets.reshape(len(rngs), count, mtry)


class _Subsets:
    """Each tree's feature subsets in the order its nodes take them, drawn
    ``block`` subsets at a time by ``_choices`` into one buffer for all
    trees, refilled in place; both bounded by ``DRAW_CHUNK``."""

    def __init__(self, rngs, n_features: int, mtry: int):
        self.rngs, self.n_features, self.mtry = rngs, n_features, mtry
        self.block = min(DRAW_BLOCK, max(1, DRAW_CHUNK // (len(rngs) * mtry)))
        self.held = np.empty((len(rngs), self.block, mtry), dtype=np.int32)
        self.used = np.full(len(rngs), self.block)
        self.refill = max(1, DRAW_CHUNK // (self.block * (2 * mtry - 1)))  # trees drawn at once

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next subset of each of the distinct ``trees``, one row each."""
        empty = trees[self.used[trees] == self.block]
        for start in range(0, empty.size, self.refill):
            group = empty[start:start + self.refill]
            self.held[group] = _choices([self.rngs[t] for t in group.tolist()], self.n_features,
                                        self.mtry, self.block)
        self.used[empty] = 0
        subsets = self.held[trees, self.used[trees]]
        self.used[trees] += 1
        return subsets


def _grow(X, y_codes, n_classes, mtry, rngs, counts) -> tuple:
    """Grow one tree per generator, tree t on the rows with nonzero
    ``counts[t]`` weighted by those counts; return the node arrays and roots.

    A node becomes a leaf with its class frequencies when it holds fewer than
    2 samples or one class, which is known when its parent splits, or when no
    candidate feature splits it. Only the other nodes go on their tree's
    stack, and every step pops the top node of each tree whose stack is not
    empty and searches it. A split node's children are numbered next in its
    tree, and the left child is pushed first.
    """
    ranks = _column_ranks(X)
    stacks = [[] for _ in rngs]
    n_nodes = [1] * len(rngs)
    subsets = _Subsets(rngs, X.shape[1], mtry)
    splits, leaves = [], []  # (tree, node, feature, threshold, left); (trees, nodes, values)

    def settle(trees, ids, rw, sizes):
        """Record each node (tree, id) that holds the next ``sizes[i]`` columns
        of ``rw`` (row, count) as a leaf, or push it with its class counts."""
        node = np.repeat(np.arange(sizes.size), sizes)
        class_counts = np.bincount(node * n_classes + y_codes[rw[0]], weights=rw[1],
                                   minlength=sizes.size * n_classes)
        class_counts = class_counts.astype(np.int64).reshape(sizes.size, n_classes)
        n = class_counts.sum(axis=1)
        is_leaf = (n < 2) | (np.count_nonzero(class_counts, axis=1) == 1)
        leaf = np.flatnonzero(is_leaf)
        leaves.append((trees[leaf], ids[leaf], class_counts[leaf] / n[leaf, None]))
        bounds = [0] + np.cumsum(sizes).tolist()
        trees, ids = trees.tolist(), ids.tolist()
        for i in np.flatnonzero(~is_leaf).tolist():
            stacks[trees[i]].append((ids[i], rw[:, bounds[i]:bounds[i + 1]], class_counts[i]))

    in_bag = [np.nonzero(c)[0] for c in counts]
    settle(np.arange(len(rngs)), np.zeros(len(rngs), dtype=int),
           np.concatenate([np.stack([rows, counts[t, rows]]) for t, rows in enumerate(in_bag)], axis=1),
           np.array([rows.size for rows in in_bag]))
    active = [t for t in range(len(rngs)) if stacks[t]]
    while active:
        popped = [stacks[t].pop() for t in active]
        sizes = np.array([rw.shape[1] for _, rw, _ in popped])
        rw = np.concatenate([rw for _, rw, _ in popped], axis=1)
        split_at, split_feature, split_threshold, unsplit = [], [], [], []
        for i, best in enumerate(_best_splits(X, ranks, y_codes, n_classes, rw[0], rw[1], sizes,
                                              subsets.take(np.array(active)))):
            if best is None:
                unsplit.append(i)
            else:
                split_at.append(i)
                split_feature.append(best[1])
                split_threshold.append(best[2])
        if unsplit:
            class_counts = np.array([popped[i][2] for i in unsplit])
            leaves.append((np.array(active)[unsplit], np.array([popped[i][0] for i in unsplit]),
                           class_counts / class_counts.sum(axis=1, keepdims=True)))
        if split_at:
            position = np.full(len(active), -1)
            position[split_at] = np.arange(len(split_at))
            at = position[np.repeat(np.arange(len(active)), sizes)]
            rw, at = rw[:, at >= 0], at[at >= 0]
            go_left = X[rw[0], np.array(split_feature)[at]] < np.array(split_threshold)[at]
            child = 2 * at + ~go_left  # split k's left child is 2k, its right 2k + 1
            rw = rw[:, np.argsort(child)]
            trees, ids = [], []
            for k, i in enumerate(split_at):
                t = active[i]
                first = n_nodes[t]
                n_nodes[t] += 2
                splits.append((t, popped[i][0], split_feature[k], split_threshold[k], first))
                trees += [t, t]
                ids += [first, first + 1]
            settle(np.array(trees), np.array(ids), rw, np.bincount(child, minlength=2 * len(split_at)))
        active = [t for t in active if stacks[t]]

    roots = np.zeros(len(rngs), dtype=int)
    np.cumsum(n_nodes[:-1], out=roots[1:])
    total = int(roots[-1]) + n_nodes[-1]
    feature, left, right = np.full(total, -1), np.full(total, -1), np.full(total, -1)
    threshold, value = np.zeros(total), np.zeros((total, n_classes))
    if splits:
        tree, node_id, split_feature, split_threshold, first = (np.array(c) for c in zip(*splits))
        at = roots[tree] + node_id
        feature[at], threshold[at] = split_feature, split_threshold
        left[at] = roots[tree] + first
        right[at] = left[at] + 1
    for tree, node_id, frequencies in leaves:
        value[roots[tree] + node_id] = frequencies
    return (feature, threshold, left, right, value), roots


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

    def leaves(self, mat: np.ndarray) -> np.ndarray:
        """(rows x trees) leaf reached by each row in each tree; every
        (row, tree) pair not yet at a leaf descends one level per step."""
        node = np.tile(self.roots, mat.shape[0])
        at = np.flatnonzero(self.feature[node] >= 0)  # pairs row * trees + tree not at a leaf
        row, current = at // self.roots.size, node[at]
        while at.size:
            go_left = mat[row, self.feature[current]] < self.threshold[current]
            current = np.where(go_left, self.left[current], self.right[current])
            node[at] = current
            inner = self.feature[current] >= 0
            at, row, current = at[inner], row[inner], current[inner]
        return node.reshape(mat.shape[0], self.roots.size)

    def predict_proba(self, X: list[dict]) -> np.ndarray:
        """Class probabilities of each feature dict (rows), columns aligned
        with ``self.classes``."""
        mat = _matrix(X, self.schema, "feature vector keys do not match the trained schema")
        votes = self.value[self.leaves(mat)]
        # a running total adds the trees in order; a pairwise sum rounds differently
        return np.cumsum(votes, axis=1)[:, -1] / self.roots.size

    def save(self, path) -> None:
        write_checkpoint(path, FOREST_FORMAT, FOREST_VERSION, {
            **{k: getattr(self, k) for k in NODE_ARRAYS + ("roots",)},
            "schema": list(self.schema), "classes": np.asarray(self.classes).tolist(),
            "seed": int(self.seed), "oob_accuracy": self.oob_accuracy, "metadata": self.metadata})


def load_forest(path) -> Forest:
    """Read a ``save`` checkpoint. The file is outside input, so the node
    arrays are checked to form trees in which every descent ends at a leaf,
    with finite thresholds and leaf values."""
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
    if not (np.isfinite(arrays["threshold"]).all() and np.isfinite(arrays["value"]).all()):
        raise ValueError(bad + "a threshold or leaf value that is not a finite number")
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
    sample lands out of bag. Bit-reproducible for a fixed seed.

    Tree t draws its bootstrap and then its nodes' feature subsets from the
    t-th child of ``SeedSequence(seed)``, so the first k trees of a forest do
    not depend on how many trees it has. The trees grow together, one node
    per tree per step (see the module docstring for why that gives the same
    trees as growing them one at a time). Labels must be all strings or all
    ints, the class types a saved forest keeps.
    """
    mat, schema = _validate_features(X)
    n, n_feat = mat.shape
    if len(y) != n:
        raise ValueError("X and y length mismatch")
    if n < 2:
        raise ValueError("need at least 2 training samples")
    if isinstance(trees, bool) or not isinstance(trees, numbers.Integral) or trees < 1:
        raise ValueError(f"trees must be an int >= 1, got {trees!r}")
    if not (all(isinstance(v, str) for v in y)
            or all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in y)):
        raise ValueError("labels must be all strings or all ints (not bools or floats)")
    classes = tuple(sorted(set(y)))
    if len(classes) < 2:
        raise ValueError("training labels contain a single class")
    code = {c: i for i, c in enumerate(classes)}
    y_codes = np.asarray([code[v] for v in y], dtype=np.intp)
    mtry = max(1, int(np.sqrt(n_feat)))

    trees = int(trees)
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(trees)]
    # counts[t, i]: how often tree t's bootstrap drew row i
    counts = np.bincount(np.concatenate([rng.integers(0, n, size=n) + t * n for t, rng in enumerate(rngs)]),
                         minlength=trees * n).reshape(trees, n)
    arrays, roots = _grow(mat, y_codes, len(classes), mtry, rngs, counts)
    forest = Forest(*arrays, roots=roots, schema=schema, classes=classes, seed=seed,
                    metadata={"n_samples": n, "n_trees": trees, "mtry": mtry})

    # each row's votes from the trees whose bootstrap left it out, added in tree order
    in_bag = counts.T > 0
    votes = np.where(in_bag[:, :, None], 0.0, forest.value[forest.leaves(mat)])
    oob_seen = ~in_bag.all(axis=1)
    if oob_seen.any():
        pred = np.argmax(np.cumsum(votes, axis=1)[oob_seen, -1], axis=1)
        forest.oob_accuracy = float(np.mean(pred == y_codes[oob_seen]))
    return forest
