import math

import numpy as np
import pytest

from intercom.embed import (
    BipartiteMultigraph,
    build_bipartite,
    build_word_bipartite,
    edge_gradients,
    edge_losses,
    load_vectors,
    loss,
    save_vectors,
    train_embeddings,
)

from conftest import BASE, corpus_from, post


def graph_from_edges(n_users, n_comms, pairs):
    users = [f"u{i}" for i in range(n_users)]
    comms = [f"c{j}" for j in range(n_comms)]
    edges = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    return BipartiteMultigraph(users=users, communities=comms, edges=edges)


def planted_two_block(users_per_block=15, comms_per_block=5, posts_per_user=8, seed=0):
    """Users in block 0 post only in block-0 communities, likewise block 1."""
    rng = np.random.default_rng(seed)
    pairs = []
    for block in (0, 1):
        for u in range(users_per_block):
            user = block * users_per_block + u
            for _ in range(posts_per_user):
                comm = block * comms_per_block + int(rng.integers(0, comms_per_block))
                pairs.append((user, comm))
    return graph_from_edges(2 * users_per_block, 2 * comms_per_block, pairs), comms_per_block


def test_build_bipartite_parallel_edges():
    corpus = corpus_from([post(f"p{i}", "u1", "C", BASE + i) for i in range(3)])
    graph = build_bipartite(corpus)
    assert graph.n_edges == 3
    assert np.bincount(graph.edges[:, 0]).tolist() == [3]
    assert np.bincount(graph.edges[:, 1]).tolist() == [3]


def test_build_bipartite_empty():
    graph = build_bipartite(corpus_from([]))
    assert graph.n_edges == 0


def test_build_bipartite_grid_degrees():
    events = []
    n = 0
    for u in ("u1", "u2"):
        for c in ("A", "B"):
            events.append(post(f"p{n}", u, c, BASE + n))
            n += 1
    graph = build_bipartite(corpus_from(events))
    assert graph.n_edges == 4
    assert np.bincount(graph.edges[:, 0]).tolist() == [2, 2]
    assert np.bincount(graph.edges[:, 1]).tolist() == [2, 2]


def test_edge_gradients_match_finite_differences():
    # central differences of a batch's summed loss over the stacked
    # (u, c_pos, c_negs) parameters; an edge's loss reads only its own rows
    rng = np.random.default_rng(3)
    b, d, k = 3, 7, 4
    u = rng.normal(0, 0.7, (b, d))
    c_pos = rng.normal(0, 0.7, (b, d))
    c_negs = rng.normal(0, 0.7, (b, k, d))
    du, dc, dn = edge_gradients(u, c_pos, c_negs)

    step = 1e-5
    worst = 0.0

    def check(vec, grad):
        nonlocal worst
        for i in range(vec.size):
            orig = vec.flat[i]
            vec.flat[i] = orig + step
            plus = edge_losses(u, c_pos, c_negs).sum()
            vec.flat[i] = orig - step
            minus = edge_losses(u, c_pos, c_negs).sum()
            vec.flat[i] = orig
            fd = (plus - minus) / (2 * step)
            denom = max(abs(fd), abs(grad.flat[i]), 1e-10)
            worst = max(worst, abs(fd - grad.flat[i]) / denom)

    check(u, du)
    check(c_pos, dc)
    check(c_negs, dn)
    assert worst < 1e-6


def test_one_training_step_follows_edge_gradients():
    # replay the trainer's draws for one edge and one epoch, whose single
    # step has rate lr_start; only seeds whose negatives are distinct and
    # miss the positive, so that no vector is updated twice in the step
    dim, n_comms, negatives, lr, pos = 8, 100, 5, 0.025, 7
    graph = graph_from_edges(1, n_comms, [(0, pos)])
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        U = rng.uniform(-0.5 / dim, 0.5 / dim, size=(1, dim))
        C = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_comms, dim))
        rng.permutation(1)
        negs = rng.integers(0, n_comms, size=negatives).tolist()
        if len(set(negs)) < negatives or pos in negs:
            continue
        du, dc_pos, dc_negs = (g[0] for g in edge_gradients(U[:1], C[[pos]], C[negs][None]))
        U[0] -= lr * du
        C[pos] -= lr * dc_pos
        C[negs] -= lr * dc_negs
        table = train_embeddings(graph, dim=dim, negatives=negatives, epochs=1, lr_start=lr,
                                 seed=seed)
        assert np.allclose(table.user_vectors, U, rtol=1e-13, atol=0), seed
        assert np.allclose(table.community_vectors, C, rtol=1e-13, atol=0), seed
        checked += 1
    assert checked >= 30


def test_zero_vector_loss_closed_form():
    graph = graph_from_edges(2, 3, [(0, 0), (1, 1), (0, 2)])
    from intercom.embed import EmbeddingTable

    table = EmbeddingTable(users=graph.users, communities=graph.communities,
                           user_vectors=np.zeros((2, 4)), community_vectors=np.zeros((3, 4)),
                           dim=4, negatives=5)
    assert loss(graph, table, seed=0) == pytest.approx(6 * math.log(2))


def test_single_edge_attraction():
    graph = graph_from_edges(1, 1, [(0, 0)])
    table = train_embeddings(graph, dim=8, negatives=0, epochs=400, lr_start=0.5,
                             lr_end=0.5, seed=0)
    score = 1.0 / (1.0 + np.exp(-(table.user_vectors[0] @ table.community_vectors[0])))
    assert score > 1 - 1e-3


def test_training_deterministic():
    graph, _ = planted_two_block(users_per_block=5, comms_per_block=2, posts_per_user=4)
    a = train_embeddings(graph, dim=6, epochs=3, seed=7)
    b = train_embeddings(graph, dim=6, epochs=3, seed=7)
    assert np.array_equal(a.user_vectors, b.user_vectors)
    assert np.array_equal(a.community_vectors, b.community_vectors)
    c = train_embeddings(graph, dim=6, epochs=3, seed=8)
    assert not np.array_equal(a.community_vectors, c.community_vectors)


def test_planted_blocks_recovered():
    graph, per_block = planted_two_block()
    table = train_embeddings(graph, dim=16, epochs=60, seed=0)
    C = table.community_vectors
    norm = C / np.linalg.norm(C, axis=1, keepdims=True)
    cos = norm @ norm.T
    n = C.shape[0]
    within, cross = [], []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < per_block) == (j < per_block)
            (within if same else cross).append(cos[i, j])
    assert np.mean(within) > np.mean(cross)


def test_loss_decreases_with_training():
    graph, _ = planted_two_block(users_per_block=8, comms_per_block=3, posts_per_user=5)
    drops = []
    for seed in range(5):
        before = train_embeddings(graph, dim=8, epochs=1, lr_start=1e-9, lr_end=1e-9,
                                  seed=seed)  # effectively untrained
        after = train_embeddings(graph, dim=8, epochs=30, seed=seed)
        drops.append(loss(graph, after, seed=99) - loss(graph, before, seed=99))
    assert np.median(drops) < 0


def test_empty_graph_error():
    graph = graph_from_edges(1, 1, [])
    with pytest.raises(ValueError):
        train_embeddings(graph, dim=4, epochs=1)


def test_relabel_invariance():
    # renaming entities (index mapping fixed) permutes nothing numerically
    graph, _ = planted_two_block(users_per_block=4, comms_per_block=2, posts_per_user=3)
    renamed = BipartiteMultigraph(
        users=[f"W{u}" for u in graph.users],
        communities=[f"K{c}" for c in graph.communities],
        edges=graph.edges.copy(),
    )
    a = train_embeddings(graph, dim=6, epochs=4, seed=3)
    b = train_embeddings(renamed, dim=6, epochs=4, seed=3)
    assert np.array_equal(a.user_vectors, b.user_vectors)
    assert np.array_equal(a.community_vectors, b.community_vectors)


def test_nearest_communities_planted_blocks():
    graph, per_block = planted_two_block()
    table = train_embeddings(graph, dim=16, epochs=60, seed=1)
    vectors = table.community_vectors
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    for query in (0, per_block):
        # the two communities most cosine-similar to the query, itself left out
        cosine = unit @ unit[query]
        cosine[query] = -np.inf
        for nearest in np.argsort(-cosine, kind="stable")[:2]:
            assert (nearest < per_block) == (query < per_block)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    names = ["x", "y", "z"]
    vectors = rng.normal(size=(3, 5))
    path = tmp_path / "vectors.vec"
    save_vectors(path, names, vectors)
    loaded = load_vectors(path)
    assert set(loaded) == set(names)
    for i, name in enumerate(names):
        assert np.array_equal(loaded[name], vectors[i])


def test_load_vectors_rejects_malformed(tmp_path):
    path = tmp_path / "bad.vec"
    path.write_text("2 3\nx 3 1.0 2.0 3.0\ny 2 1.0 2.0\n")
    with pytest.raises(ValueError):
        load_vectors(path)


def test_build_word_bipartite():
    corpus = corpus_from([
        post("p1", "u", "A", BASE, body="alpha beta alpha"),
        post("p2", "u", "B", BASE + 1, body="beta gamma"),
    ])
    graph = build_word_bipartite(corpus)
    assert graph.n_edges == 5  # one edge per token occurrence
    assert set(graph.users) == {"alpha", "beta", "gamma"}
    capped = build_word_bipartite(corpus, max_vocab=2)
    assert set(capped.users) <= {"alpha", "beta"}
