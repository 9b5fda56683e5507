"""The kernels against the loops they replaced, kept here as oracles: the
per-feature split search and the tree-at-a-time grower of the forest, the
per-edge SGD loop of the embedding trainer (restated for minibatches: every
edge reads the batch's snapshot and the updates are summed in edge order),
the per-example BPTT of the LSTM, the LSTM trainer as a loop over
minibatches, the one-graph-per-call power iteration of the group
PageRank, the one ``Generator.choice`` call per node that drew the
forest's feature subsets, and ``np.subtract.at`` over a matrix's rows,
which the embedding trainer's flat scatter replaced. Where the arithmetic of every kept value is the
same the comparison is exact, bit for bit; the batched BPTT sums its
gradients in another order than the per-example loop, so that comparison
has a 1e-12 bound.
"""
import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from intercom import embed  # noqa: E402
from intercom import forest as forest_mod  # noqa: E402
from intercom import predictor  # noqa: E402
from intercom import replynet  # noqa: E402
from intercom.embed import BipartiteMultigraph, train_embeddings  # noqa: E402
from intercom.forest import (NODE_ARRAYS, Forest, _best_splits, _column_ranks,  # noqa: E402
                            _validate_features, train_forest)
from intercom.lstm import (_sigmoid, bptt, cross_entropy, example_loss, init_params,  # noqa: E402
                           predict_prob)
from intercom.predictor import PredictionDataset  # noqa: E402
from intercom.replynet import (ConvergenceError, ReplyGraph, _teleport_nodes,  # noqa: E402
                               group_pagerank)

EXAMPLES = settings(max_examples=150, deadline=None)


# -- the loops the kernels replaced -------------------------------------------

def loop_best_split(X, y_codes, idx, n_classes, features):
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
            a, b = sv[cut[k]], sv[cut[k] + 1]
            with np.errstate(over="ignore"):
                mid = (a + b) / 2.0
            best = (float(score[k]), f, float(mid if a < mid <= b else b))
    return best


def loop_grow_tree(X, y_codes, idx, n_classes, mtry, rng, nodes: list) -> int:
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
        split = loop_best_split(X, y_codes, node_idx, n_classes, features)
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


def loop_train_forest(X, y, trees, seed):
    mat, schema = _validate_features(X)
    n, n_feat = mat.shape
    classes = tuple(sorted(set(y)))
    code = {c: i for i, c in enumerate(classes)}
    y_codes = np.asarray([code[v] for v in y], dtype=np.intp)
    mtry = max(1, int(np.sqrt(n_feat)))
    nodes, roots, boots = [], [], []
    for seq in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(seq)
        boots.append(rng.integers(0, n, size=n))
        roots.append(loop_grow_tree(mat, y_codes, boots[-1], len(classes), mtry, rng, nodes))
    forest = Forest(*(np.array(column) for column in zip(*nodes)), roots=np.array(roots),
                    schema=schema, classes=classes, seed=seed,
                    metadata={"n_samples": n, "n_trees": trees, "mtry": mtry})
    in_bag = np.zeros((n, trees), dtype=bool)
    in_bag[np.array(boots), np.arange(trees)[:, None]] = True
    votes = np.where(in_bag[:, :, None], 0.0, forest.value[forest.leaves(mat)])
    oob_seen = ~in_bag.all(axis=1)
    if oob_seen.any():
        pred = np.argmax(np.cumsum(votes, axis=1)[oob_seen, -1], axis=1)
        forest.oob_accuracy = float(np.mean(pred == y_codes[oob_seen]))
    return forest


def loop_train_embeddings(graph, dim, negatives, epochs, batch, lr_start=0.025, lr_end=1e-4, seed=0):
    """Minibatched negative-sampling SGD as a loop over edges: each edge of a
    batch of ``batch`` edges reads the vectors as they were before the
    batch, and its updates are summed into them edge by edge."""
    rng = np.random.default_rng(seed)
    n_users, n_comms = len(graph.users), len(graph.communities)
    U = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_users, dim))
    C = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_comms, dim))
    total_steps = epochs * graph.n_edges
    step = 0
    for _ in range(epochs):
        order = rng.permutation(graph.n_edges)
        negs_of = [rng.integers(0, n_comms, size=negatives) for _ in order]
        for start in range(0, graph.n_edges, batch):
            U0, C0 = U.copy(), C.copy()
            for e, negs in zip(order[start:start + batch], negs_of[start:start + batch]):
                lr = lr_start - (lr_start - lr_end) * (step / max(1, total_steps - 1))
                ui, ci = int(graph.edges[e, 0]), int(graph.edges[e, 1])
                u = U0[ui]
                g_pos = _sigmoid(float((u * C0[ci]).sum())) - 1.0
                du = g_pos * C0[ci]
                C[ci] -= lr * (g_pos * u)
                for nk in negs:
                    g = _sigmoid(float((C0[nk] * u).sum()))
                    du += g * C0[nk]
                    C[nk] -= lr * (g * u)
                U[ui] -= lr * du
                step += 1
    return U, C


def loop_bptt(seq, label, params):
    """One example's loss, gradients and probability: a step-by-step forward
    that keeps each step's values in a list, then backprop through time."""
    w, hdim = params.weights, params.hidden_dim
    h, c = np.zeros(hdim), np.zeros(hdim)
    hs, cache = [], []
    for x in seq:
        z = w["w"] @ x + w["u"] @ h + w["b"]
        gi, gf, go = _sigmoid(z[:3 * hdim]).reshape(3, hdim)
        gg = np.tanh(z[3 * hdim:])
        c_new = gf * c + gi * gg
        tanh_c = np.tanh(c_new)
        cache.append((x, h, c, gi, gf, go, gg, c_new, tanh_c))
        h, c = go * tanh_c, c_new
        hs.append(h)
    T = len(hs)
    hbar = np.mean(hs, axis=0)
    y = float(_sigmoid(w["theta"] @ hbar))
    y_safe = min(max(y, 1e-12), 1.0 - 1e-12)
    loss = -(label * np.log(y_safe) + (1 - label) * np.log(1.0 - y_safe))
    grads = params.zeros_like()
    dlogit = y - label
    grads["theta"] = dlogit * hbar
    dh_pool = dlogit * w["theta"] / T
    dh_carry, dc_carry = np.zeros(hdim), np.zeros(hdim)
    for t in range(T - 1, -1, -1):
        x, h_prev, c_prev, gi, gf, go, gg, c_new, tanh_c = cache[t]
        dh = dh_pool + dh_carry
        dc = dc_carry + dh * go * (1.0 - tanh_c**2)
        dz = np.concatenate([dc * gg * gi * (1.0 - gi), dc * c_prev * gf * (1.0 - gf),
                             dh * tanh_c * go * (1.0 - go), dc * gi * (1.0 - gg**2)])
        grads["w"] += np.outer(dz, x)
        grads["u"] += np.outer(dz, h_prev)
        grads["b"] += dz
        dh_carry = w["u"].T @ dz
        dc_carry = dc * gf
    return loss, grads, y


def loop_train(dataset, params_init, lr=0.01, epochs=20, seed=0, batch=16):
    """``predictor.train`` as a loop over minibatches of ``batch`` examples,
    each a ``bptt`` call and an Adam step on the mean gradient; returns
    (params, log, best_val_auc)."""
    train_idx = dataset.train_idx
    params = params_init.copy()
    rng = np.random.default_rng(seed)
    m, v = params.zeros_like(), params.zeros_like()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    adam_t = 0
    history, best, best_auc = [], params.copy(), None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(train_idx)
        total = 0.0
        for start in range(0, order.size, batch):
            idx = order[start:start + batch]
            losses, grads, _ = bptt([dataset.sequences[i] for i in idx], dataset.labels[idx], params)
            total += float(losses.sum())
            adam_t += 1
            for key in params.weights:
                g = grads[key] / idx.size
                m[key] = beta1 * m[key] + (1 - beta1) * g
                v[key] = beta2 * v[key] + (1 - beta2) * g * g
                m_hat = m[key] / (1 - beta1**adam_t)
                v_hat = v[key] / (1 - beta2**adam_t)
                params.weights[key] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        val_auc = predictor.auc_or_none(dataset.labels[dataset.val_idx], lambda: predict_prob(
            [dataset.sequences[i] for i in dataset.val_idx], params))
        history.append({"epoch": epoch, "train_loss": total / order.size, "val_auc": val_auc})
        if val_auc is None or best_auc is None or val_auc > best_auc:
            best = params.copy()
            if val_auc is not None:
                best_auc = val_auc
    return best, history, best_auc


def loop_group_pagerank(graph, teleport_set, alpha, tol, max_iter=10000):
    """One graph's ``group_pagerank`` as one power-iteration loop; returns
    (scores, iterations)."""
    nodes = sorted(graph.nodes)
    index = {u: i for i, u in enumerate(nodes)}
    teleport = _teleport_nodes(graph, teleport_set)
    n = len(nodes)
    v = np.zeros(n)
    for u in teleport:
        v[index[u]] = 1.0 / len(teleport)

    out_weight = np.zeros(n)
    for (i, j), w in graph.edges.items():
        out_weight[index[i]] += w
    src = np.array([index[i] for (i, j) in graph.edges], dtype=np.intp)
    dst = np.array([index[j] for (i, j) in graph.edges], dtype=np.intp)
    wgt = np.array(list(graph.edges.values()), dtype=np.float64)
    dangling = out_weight == 0.0
    safe_out = np.where(dangling, 1.0, out_weight)

    x = v.copy()
    for iteration in range(1, max_iter + 1):
        flow = np.zeros(n)
        if src.size:
            np.add.at(flow, dst, x[src] * wgt / safe_out[src])
        dangling_mass = float(x[dangling].sum())
        x_new = alpha * v + (1.0 - alpha) * (flow + dangling_mass * v)
        delta = float(np.abs(x_new - x).sum())
        x = x_new
        if delta < tol:
            return {u: float(x[index[u]]) for u in nodes}, iteration
    raise ConvergenceError(max_iter, delta)


# -- forest splits ------------------------------------------------------------

@st.composite
def split_batches(draw):
    """One step of the grower: nodes of a small matrix whose columns take few
    distinct values (ties), some of them constant; each node a set of rows
    drawn with repeats, all trying the same number of features; and a chunk
    bound that falls inside the batch and below single nodes."""
    n_rows = draw(st.integers(2, 12))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 3))
    levels = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.0])
    columns = [draw(st.lists(levels, min_size=n_rows, max_size=n_rows)) for _ in range(n_features)]
    for j in draw(st.sets(st.integers(0, n_features - 1))):
        columns[j] = [columns[j][0]] * n_rows  # constant column
    X = np.array(columns, dtype=np.float64).T
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows)),
                 dtype=np.intp)
    mtry = draw(st.integers(1, n_features))
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        idx = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=2 * n_rows)),
                       dtype=np.intp)
        features = np.array(draw(st.permutations(range(n_features)))[:mtry], dtype=np.intp)
        nodes.append((idx, features))
    return X, y, n_classes, nodes, draw(st.integers(1, 64))


def batched_best_splits(X, y, n_classes, nodes):
    """``_best_splits`` on nodes given as loop_best_split takes them."""
    distinct = [np.unique(idx, return_counts=True) for idx, _ in nodes]
    return _best_splits(X, _column_ranks(X), y, n_classes,
                        np.concatenate([rows for rows, _ in distinct]),
                        np.concatenate([weights for _, weights in distinct]),
                        np.array([rows.size for rows, _ in distinct]),
                        np.array([features for _, features in nodes]))


@EXAMPLES
@given(split_batches())
def test_best_split_equals_the_per_feature_loop(batch):
    X, y, n_classes, nodes, chunk = batch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_mod, "SPLIT_CHUNK", chunk)
        batched = batched_best_splits(X, y, n_classes, nodes)
    assert batched == [loop_best_split(X, y, idx, n_classes, features) for idx, features in nodes]


def test_best_split_on_two_rows_constant_columns_and_all_features():
    X = np.array([[0.0, 3.0, 1.0], [0.0, 3.0, 2.0]])
    y = np.array([0, 1], dtype=np.intp)
    idx = np.array([0, 1], dtype=np.intp)
    orders = ([0], [1], [0, 1], [2], [0, 1, 2], [2, 1, 0])
    for features in orders:
        features = np.array(features, dtype=np.intp)
        assert batched_best_splits(X, y, 2, [(idx, features)]) == [loop_best_split(X, y, idx, 2, features)]
    nodes = [(idx, np.array(features, dtype=np.intp)) for features in ([0, 2, 1], [0, 1, 2], [1, 0, 2])]
    assert batched_best_splits(X, y, 2, nodes) == [(2.0, 2, 1.5)] * 3
    assert batched_best_splits(X, y, 2, [(idx, np.array([0, 1]))]) == [None]


@pytest.mark.parametrize("a, b", [(1.0, np.nextafter(1.0, 2.0)), (1.7e308, 1.79e308)])
def test_a_cut_between_neighbouring_or_huge_values_has_a_threshold_that_splits_them(a, b):
    # (a + b) / 2 rounds to a for neighbouring doubles and overflows to inf
    # near the float maximum; either way ``x < threshold`` would not split
    X = np.array([[a], [b]] * 3)
    y = np.array([0, 1] * 3, dtype=np.intp)
    idx, features = np.arange(6), np.array([0])
    with np.errstate(over="raise"):
        (found,) = batched_best_splits(X, y, 2, [(idx, features)])
        assert found == loop_best_split(X, y, idx, 2, features)
    assert a < found[2] <= b


def test_a_later_feature_must_beat_the_best_by_more_than_1e_12():
    # both features' best cuts score 16/3, as 1 + 26/6 and 2 + 20/6, which
    # round to neighbouring doubles; the first feature tried keeps the split
    X = np.array([[3, 1, 1, 3, 1, 0, 2, 2], [2, 2, 2, 3, 1, 3, 2, 0]], dtype=np.float64).T
    y = np.array([0, 0, 1, 1, 1, 1, 1, 1], dtype=np.intp)
    idx = np.arange(8)
    for features, expected in (([0, 1], (5.333333333333333, 0, 2.5)), ([1, 0], (5.333333333333334, 1, 1.5))):
        features = np.array(features)
        assert loop_best_split(X, y, idx, 2, features) == expected
        assert batched_best_splits(X, y, 2, [(idx, features)]) == [expected]


def test_a_split_must_beat_its_node_by_more_than_1e_12():
    # the only cut leaves 3:2 and 6:4, the node's own 9:6 mix; its score,
    # 13/5 + 52/10, rounds one step above the node's 117/15
    X = np.array([[0.0] * 5 + [1.0] * 10]).T
    y = np.array([0, 0, 0, 1, 1] + [0] * 6 + [1] * 4, dtype=np.intp)
    idx, features = np.arange(15), np.array([0])
    assert 13 / 5 + 52 / 10 > 117 / 15
    assert loop_best_split(X, y, idx, 2, features) is None
    assert batched_best_splits(X, y, 2, [(idx, features)]) == [None]


def forest_arrays(forest):
    return {k: getattr(forest, k) for k in NODE_ARRAYS + ("roots",)}


def assert_same_forest(fast, slow):
    for key, array in forest_arrays(fast).items():
        assert array.dtype == forest_arrays(slow)[key].dtype
        assert array.tobytes() == forest_arrays(slow)[key].tobytes(), key
    assert fast.oob_accuracy == slow.oob_accuracy
    assert fast.metadata == slow.metadata


def forest_problem(seed, n, n_features, n_classes):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, n_features)).astype(np.float64)
    X[:, 0] = 1.0  # a constant column
    if n_features > 1:
        X[:, 1] = rng.normal(size=n)
    labels = [f"c{v}" for v in rng.integers(0, n_classes, size=n)]
    labels[:2] = ["c0", "c1"]
    return [{f"x{j}": float(v) for j, v in enumerate(row)} for row in X], labels


@pytest.mark.parametrize("seed", range(6))
def test_forest_grows_the_same_trees_as_with_the_per_feature_loop(seed):
    rng = np.random.default_rng(seed)
    n = 2 if seed == 0 else int(rng.integers(3, 40))
    rows, labels = forest_problem(seed, n, int(rng.integers(1, 10)), 2 + seed % 2)
    assert_same_forest(train_forest(rows, labels, trees=15, seed=seed),
                       loop_train_forest(rows, labels, trees=15, seed=seed))


@pytest.mark.parametrize("chunk", [forest_mod.SPLIT_CHUNK, 64, 1])
def test_forest_grows_the_same_trees_when_a_step_spans_chunks(chunk, monkeypatch):
    # 300 rows and mtry 8: each root alone loads about 1,900 rows x features,
    # so ten roots cross the default bound; 64 and 1 put most nodes alone
    rows, labels = forest_problem(7, 300, 64, 3)
    monkeypatch.setattr(forest_mod, "SPLIT_CHUNK", chunk)
    assert_same_forest(train_forest(rows, labels, trees=10, seed=7),
                       loop_train_forest(rows, labels, trees=10, seed=7))


def test_forest_grows_the_same_trees_when_sort_keys_pass_2_16(monkeypatch):
    # with no chunk bound the first step searches all 30 roots at once: 240
    # (node, feature) segments (mtry 8) of 300-row ranks, keys of up to
    # 72,000, past the 16-bit radix sort
    rows, labels = forest_problem(8, 300, 64, 3)
    monkeypatch.setattr(forest_mod, "SPLIT_CHUNK", 10**6)
    assert_same_forest(train_forest(rows, labels, trees=30, seed=8),
                       loop_train_forest(rows, labels, trees=30, seed=8))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 11), st.integers(2, 40), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_the_first_k_trees_do_not_depend_on_the_tree_count(k, extra, n, n_features, seed):
    """Tree t draws only from the t-th child of the seed, so a forest's first
    k trees are the k-tree forest; a batch that leaks one tree's state into
    another breaks this."""
    rows, labels = forest_problem(seed, n, n_features, 2)
    small = train_forest(rows, labels, trees=k, seed=seed)
    large = train_forest(rows, labels, trees=k + extra, seed=seed)
    end = large.roots[k] if extra else large.feature.size
    assert small.roots.tobytes() == large.roots[:k].tobytes()
    for key in NODE_ARRAYS:
        assert getattr(small, key).tobytes() == getattr(large, key)[:end].tobytes(), key


# -- embedding SGD ------------------------------------------------------------

@st.composite
def multigraphs(draw):
    n_users = draw(st.integers(1, 5))
    n_comms = draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_comms - 1)),
                          min_size=1, max_size=25))
    return BipartiteMultigraph(users=[f"u{i}" for i in range(n_users)],
                               communities=[f"c{i}" for i in range(n_comms)],
                               edges=np.array(edges, dtype=np.intp))


def assert_trainers_agree(graph, dim, negatives, epochs, seed, batch):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embed, "EDGE_BATCH", batch)
        table = train_embeddings(graph, dim=dim, negatives=negatives, epochs=epochs, seed=seed)
    U, C = loop_train_embeddings(graph, dim, negatives, epochs, batch, seed=seed)
    assert table.user_vectors.tobytes() == U.tobytes()
    assert table.community_vectors.tobytes() == C.tobytes()


@EXAMPLES
@given(multigraphs(), st.integers(1, 6), st.integers(0, 6), st.integers(1, 3), st.integers(0, 2**32),
       st.sampled_from([1, 2, 3, 7, embed.EDGE_BATCH]))
def test_embeddings_equal_the_per_edge_loop(graph, dim, negatives, epochs, seed, batch):
    assert_trainers_agree(graph, dim, negatives, epochs, seed, batch)


@pytest.mark.parametrize("n_comms, negatives, epochs", [(1, 5, 3), (2, 0, 2), (3, 8, 4), (5, 5, 2)])
def test_embeddings_equal_the_per_edge_loop_on_a_fixed_multigraph(n_comms, negatives, epochs):
    rng = np.random.default_rng(n_comms)
    edges = np.stack([rng.integers(0, 6, size=60), rng.integers(0, n_comms, size=60)], axis=1)
    graph = BipartiteMultigraph(users=[f"u{i}" for i in range(6)],
                                communities=[f"c{i}" for i in range(n_comms)], edges=edges)
    # one batch per epoch, a ragged last batch, and batches that span epochs' ends
    for batch in (embed.EDGE_BATCH, 16, 7):
        assert_trainers_agree(graph, 7, negatives, epochs, seed=11, batch=batch)


@EXAMPLES
@given(st.integers(1, 6), st.integers(1, 5), st.lists(st.integers(0, 5), max_size=60),
       st.integers(0, 2**32 - 1))
@example(n_rows=1, dim=3, rows=[0] * 50, seed=0)  # one row takes every update
@example(n_rows=4, dim=2, rows=[], seed=0)  # an empty batch
def test_the_flat_scatter_equals_subtract_at_on_the_rows(n_rows, dim, rows, seed):
    rows = np.array(rows, dtype=np.intp) % n_rows
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_rows, dim))
    # magnitudes far apart, so that adding the updates in another order rounds otherwise
    updates = rng.normal(size=(rows.size, dim)) * 10.0 ** rng.integers(-9, 9, size=(rows.size, 1))
    expected = matrix.copy()
    np.subtract.at(expected, rows, updates)
    embed._subtract_rows(matrix.reshape(-1), rows, updates)
    assert matrix.tobytes() == expected.tobytes()


def test_one_batched_negative_draw_equals_one_draw_per_edge():
    for n_comms, size, negatives in ((1, 9, 5), (3, 40, 5), (7, 33, 3), (2**31 + 5, 10, 2)):
        batched, per_edge = np.random.default_rng(4), np.random.default_rng(4)
        draws = batched.integers(0, n_comms, size=(size, negatives))
        assert draws.tolist() == [per_edge.integers(0, n_comms, size=negatives).tolist()
                                  for _ in range(size)]
        # and the stream goes on in the same place, the buffered half-words included
        assert batched.integers(0, n_comms, size=3).tolist() == per_edge.integers(0, n_comms, size=3).tolist()
        assert batched.random() == per_edge.random()


# -- LSTM BPTT and training ---------------------------------------------------

def small_dataset(seed, n=12, input_dim=3):
    rng = np.random.default_rng(seed)
    sequences = [rng.normal(size=(int(rng.integers(1, 6)), input_dim)) for _ in range(n)]
    labels = np.array([i % 2 for i in range(n)], dtype=np.intp)
    order = rng.permutation(n)
    return PredictionDataset(sequences=sequences, labels=labels, train_idx=order[:8],
                             val_idx=order[8:10], test_idx=order[10:])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_batched_bptt_equals_the_sum_of_per_example_gradients(lengths, input_dim, hidden_dim, seed):
    rng = np.random.default_rng(seed)
    params = init_params(input_dim, hidden_dim, seed=seed)
    params.weights["theta"] *= 4.0  # a readout far from 0.5, so the gradients are not small
    seqs = [rng.normal(size=(n, input_dim)) for n in lengths]
    labels = rng.integers(0, 2, size=len(seqs))
    losses, grads, probs = bptt(seqs, labels, params)
    loops = [loop_bptt(seq, int(label), params) for seq, label in zip(seqs, labels)]
    assert np.max(np.abs(losses - [loss for loss, _, _ in loops])) <= 1e-12
    assert np.max(np.abs(probs - [y for _, _, y in loops])) <= 1e-12
    for key, grad in grads.items():
        assert np.max(np.abs(grad - sum(g[key] for _, g, _ in loops))) <= 1e-12, key
    # a batch of one gives that example's values in the batch, and its gradients
    loss, grad, y = bptt(seqs[:1], labels[:1], params)
    assert loss.shape == y.shape == (1,)
    assert abs(loss[0] - losses[0]) <= 1e-12 and abs(y[0] - probs[0]) <= 1e-12
    assert all(np.max(np.abs(grad[key] - loops[0][1][key])) <= 1e-12 for key in grad)


def test_the_initial_loss_forward_gives_the_bptt_losses():
    dataset = small_dataset(4, n=40)
    params = init_params(3, hidden_dim=4, seed=4)
    seqs = [dataset.sequences[i] for i in dataset.train_idx]
    labels = dataset.labels[dataset.train_idx]
    forward = cross_entropy(predict_prob(seqs, params), labels)
    assert np.allclose(forward, bptt(seqs, labels, params)[0], rtol=1e-12, atol=0)
    assert np.array_equal(example_loss(seqs, labels, params), forward)


@pytest.mark.parametrize("seed", range(3))
def test_train_makes_one_bptt_call_per_batch_and_epoch(seed, monkeypatch):
    dataset = small_dataset(seed)
    params = init_params(3, hidden_dim=4, seed=seed)
    n = dataset.train_idx.size
    calls = []

    def counting_bptt(seqs, labels, params):
        calls.append(len(seqs))
        return bptt(seqs, labels, params)

    # one batch, a ragged last batch, and one example a batch
    for batch in (predictor.BATCH, 3, 1):
        best, log, best_auc = loop_train(dataset, params, lr=0.05, epochs=3, seed=seed, batch=batch)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(predictor, "BATCH", batch)
            patch.setattr(predictor, "bptt", counting_bptt)
            result = predictor.train(dataset, params, lr=0.05, epochs=3, seed=seed)
        assert calls == [min(batch, n - start) for start in range(0, n, batch)] * 3
        assert result.log == log
        assert result.best_val_auc == best_auc
        for key, array in result.params.weights.items():
            assert array.tobytes() == best.weights[key].tobytes()


# -- group PageRank -----------------------------------------------------------

def reply_graph(rng, n, d, self_loops):
    """n users u000.. with at least one attacker and one defender; the last d
    have no out-edge, every other user has one or more. The edges are in
    shuffled order."""
    names = [f"u{i:03d}" for i in range(n)]
    groups = ["attacker", "defender"] + [rng.choice(("attacker", "defender", "other"))
                                         for _ in range(n - 2)]
    rng.shuffle(groups)
    edges = {}
    for i in range(n - d):
        for _ in range(rng.randint(1, 3)):
            j = i if self_loops and rng.random() < 0.3 else rng.randrange(n)
            edges[(names[i], names[j])] = edges.get((names[i], names[j]), 0) + rng.randint(1, 4)
    items = list(edges.items())
    rng.shuffle(items)
    return ReplyGraph(nodes=dict(zip(names, groups)), edges=dict(items))


def mixed_batch(rng):
    """Families of graphs sharing a node and dangling count, one each of
    n < 8, 8 <= n <= 128 and n > 128 plus random ones, and an edgeless
    graph, in shuffled order."""
    sizes = [rng.randint(2, 7), rng.randint(8, 128), rng.randint(129, 180)]
    sizes += [rng.randint(2, 40) for _ in range(rng.randint(0, 3))]
    edgeless = rng.randint(2, 9)
    batch = [reply_graph(rng, edgeless, edgeless, self_loops=False)]
    for k, n in enumerate(sizes):
        d = rng.choice([0, 1, rng.randint(0, n - 1), n - 1])  # n - 1: all but one dangling
        for _ in range(rng.randint(1, 4)):
            batch.append(reply_graph(rng, n, d, self_loops=k % 2 == 0))
    rng.shuffle(batch)
    return batch


def score_bytes(scores):
    return list(scores), np.array(list(scores.values())).tobytes()


TELEPORT_SETS = ("attackers", "defenders", "all")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.1, 0.6]), st.sampled_from([1e-10, 1e-13]))
def test_batched_group_pagerank_equals_the_per_graph_loop(seed, alpha, tol):
    batch = mixed_batch(random.Random(seed))
    for teleport in TELEPORT_SETS:
        results = group_pagerank(batch, teleport, alpha=alpha, tol=tol)
        assert len(results) == len(batch)
        for graph, result in zip(batch, results):
            scores, iterations = loop_group_pagerank(graph, teleport, alpha, tol)
            assert result.iterations == iterations
            assert score_bytes(result.scores) == score_bytes(scores)
        # a batch of one gives what the graph gets inside the mixed batch
        [alone] = group_pagerank(batch[:1], teleport, alpha=alpha, tol=tol)
        assert alone.iterations == results[0].iterations
        assert score_bytes(alone.scores) == score_bytes(results[0].scores)


def test_one_batch_per_node_count_mixes_dangling_counts_and_equals_the_per_graph_loop(monkeypatch):
    """Graphs of one node count but many dangling counts, among graphs of
    other node counts, run as one power iteration per node count."""
    rng = random.Random(30)
    batch = [reply_graph(rng, 14, d, self_loops=k % 2 == 0)
             for k, d in enumerate((0, 3, 1, 3, 0, 7, 13, 1, 3, 12, 9))]
    batch += [reply_graph(rng, n, d, self_loops=False)
              for n, d in ((5, 2), (5, 0), (5, 4), (30, 4), (30, 11), (30, 4), (9, 9), (140, 20), (140, 3))]
    rng.shuffle(batch)
    node_counts, power_iterate = [], replynet._power_iterate

    def counted(jobs, *args):
        node_counts.append(len(jobs[0].nodes))
        return power_iterate(jobs, *args)

    monkeypatch.setattr(replynet, "_power_iterate", counted)
    for teleport in TELEPORT_SETS:
        node_counts.clear()
        results = group_pagerank(batch, teleport, alpha=0.25, tol=1e-10)
        assert sorted(node_counts) == [5, 9, 14, 30, 140]
        for graph, result in zip(batch, results):
            scores, iterations = loop_group_pagerank(graph, teleport, 0.25, 1e-10)
            assert result.iterations == iterations
            assert score_bytes(result.scores) == score_bytes(scores)


# -- forest feature draws -----------------------------------------------------

@pytest.mark.parametrize("n_features", [1, 2, 3, 39, 199, 2600, 12000])
@pytest.mark.parametrize("small_chunk", [False, True])
def test_block_draws_give_the_subsets_and_generator_states_of_successive_choice_calls(
        n_features, small_chunk, monkeypatch):
    """Each tree's subsets, taken a few trees at a time across several
    blocks, are its successive ``choice`` subsets, and each generator ends
    where as many ``choice`` calls as subsets were drawn leave it. The small
    chunk, the draws of 3 subsets, holds one subset per tree and refills 3
    trees at a time."""
    mtry = max(1, int(np.sqrt(n_features)))
    if small_chunk:
        monkeypatch.setattr(forest_mod, "DRAW_CHUNK", 3 * (2 * mtry - 1))
    seeds = np.random.SeedSequence(n_features).spawn(7)
    fast = [np.random.default_rng(seq) for seq in seeds]
    slow = [np.random.default_rng(seq) for seq in seeds]
    for rng in fast + slow:  # as train_forest draws each bootstrap first
        rng.integers(0, 50, size=50)
    subsets = forest_mod._Subsets(fast, n_features, mtry)
    if small_chunk:
        assert (subsets.block, subsets.refill) == (1, 3)
    else:
        assert subsets.block == forest_mod.DRAW_BLOCK
    pick, taken = random.Random(n_features), [0] * len(fast)
    for _ in range(40):
        trees = sorted(pick.sample(range(len(fast)), pick.randint(1, len(fast))))
        got = subsets.take(np.array(trees))
        assert got.shape == (len(trees), mtry)
        for t, row in zip(trees, got.tolist()):
            assert row == slow[t].choice(n_features, size=mtry, replace=False).tolist()
            taken[t] += 1
    assert max(taken) > forest_mod.DRAW_BLOCK
    for t, rng in enumerate(slow):
        for _ in range(-taken[t] % subsets.block):  # the rest of the last block drawn
            rng.choice(n_features, size=mtry, replace=False)
        assert fast[t].bit_generator.state == rng.bit_generator.state
