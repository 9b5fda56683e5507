import random

import numpy as np
import pytest

from intercom.corpus import CrossLink
from intercom.lexicon import Lexicon
from intercom.mobilization import MobilizationRecord
from intercom.replynet import (
    TELEPORT_PROB,
    ConvergenceError,
    ReplyGraph,
    anger_rate,
    build_reply_graph,
    echo_metrics,
    group_pagerank,
    thread_replies,
)

from conftest import BASE, comment


def make_graph(nodes, edges):
    """nodes: {user: group}; edges: {(src, dst): weight}"""
    return ReplyGraph(nodes=dict(nodes), edges=dict(edges))


def _jump_table(graph):
    """Per node with out-edges: its total out-weight and its (cumulative
    weight, target) list, in edge order."""
    out = {}
    for (i, j), w in graph.edges.items():
        out.setdefault(i, []).append((j, w))
    cumulative = {}
    for i, nbrs in out.items():
        total = 0
        acc = []
        for j, w in nbrs:
            total += w
            acc.append((total, j))
        cumulative[i] = (total, acc)
    return cumulative


def mc_pagerank(graph, teleport, alpha, steps, seed, expected_visits=False):
    """Independent oracle: visit frequencies of a simulated random walk.

    With expected_visits=True each step credits the walker's exact
    conditional next-state distribution instead of the realized jump
    (Rao-Blackwellized occupancy): same chain, same step count, much lower
    variance, so the 1e-3 tolerance holds reliably at 10^6 steps.
    """
    rng = random.Random(seed)
    teleport = sorted(teleport)
    cumulative = _jump_table(graph)
    counts = {u: 0.0 for u in graph.nodes}
    t_share = alpha / len(teleport)
    current = teleport[0]
    for _ in range(steps):
        dangling = current not in cumulative
        if expected_visits:
            if dangling:
                for u in teleport:
                    counts[u] += 1.0 / len(teleport)
            else:
                for u in teleport:
                    counts[u] += t_share
                total, acc = cumulative[current]
                prev = 0
                for bound, j in acc:
                    counts[j] += (1 - alpha) * (bound - prev) / total
                    prev = bound
        if rng.random() < alpha or dangling:
            current = teleport[rng.randrange(len(teleport))]
        else:
            total, acc = cumulative[current]
            r = rng.random() * total
            for bound, j in acc:
                if r < bound:
                    current = j
                    break
        if not expected_visits:
            counts[current] += 1
    return {u: counts[u] / steps for u in graph.nodes}


def mc_pagerank_visits(graph, teleport, alpha, steps, seed):
    """``mc_pagerank(..., expected_visits=True)`` from the same walk and the
    same draws, but the walk only counts the steps taken from each state;
    each state's next-state distribution is credited once at the end, times
    its count."""
    rng = random.Random(seed)
    teleport = sorted(teleport)
    cumulative = _jump_table(graph)
    visits = dict.fromkeys(graph.nodes, 0)
    current = teleport[0]
    for _ in range(steps):
        visits[current] += 1
        if rng.random() < alpha or current not in cumulative:
            current = teleport[rng.randrange(len(teleport))]
        else:
            total, acc = cumulative[current]
            r = rng.random() * total
            for bound, j in acc:
                if r < bound:
                    current = j
                    break
    counts = {u: 0.0 for u in graph.nodes}
    for state, n in visits.items():
        if state not in cumulative:
            for u in teleport:
                counts[u] += n / len(teleport)
            continue
        for u in teleport:
            counts[u] += n * alpha / len(teleport)
        total, acc = cumulative[state]
        prev = 0
        for bound, j in acc:
            counts[j] += n * (1 - alpha) * (bound - prev) / total
            prev = bound
    return {u: counts[u] / steps for u in graph.nodes}


def reference_pagerank(graph, damping, tol=1e-12):
    """Independent standard PageRank: dense matrix power iteration with a
    uniform teleport vector and uniform dangling redistribution."""
    nodes = sorted(graph.nodes)
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    M = np.zeros((n, n))
    for (i, j), w in graph.edges.items():
        M[index[j], index[i]] += w
    out = M.sum(axis=0)
    for i in range(n):
        if out[i] > 0:
            M[:, i] /= out[i]
        else:
            M[:, i] = 1.0 / n
    x = np.full(n, 1.0 / n)
    for _ in range(100000):
        x_new = (1 - damping) / n + damping * (M @ x)
        if np.abs(x_new - x).sum() < tol:
            break
        x = x_new
    return {u: x[index[u]] for u in nodes}


def test_build_reply_graph_single_comment():
    comments = [comment("c1", "u1", "B", BASE + 1, "p1")]
    graph = build_reply_graph(thread_replies(comments), "p1", set(), set())
    assert graph.edges == {}
    assert graph.nodes == {"u1": "other"}


def test_build_reply_graph_double_reply():
    comments = [
        comment("c1", "j", "B", BASE + 1, "p1"),
        comment("c2", "i", "B", BASE + 2, "p1", parent_id="c1"),
        comment("c3", "i", "B", BASE + 3, "p1", parent_id="c1"),
    ]
    graph = build_reply_graph(thread_replies(comments), "p1", {"i"}, {"j"})
    assert graph.edges == {("i", "j"): 2}
    assert graph.nodes == {"j": "defender", "i": "attacker"}


def test_build_reply_graph_chain():
    # post <- c1(j) <- c2(i) <- c3(j): w(i->j)=1 and w(j->i)=1
    comments = [
        comment("c1", "j", "B", BASE + 1, "p1"),
        comment("c2", "i", "B", BASE + 2, "p1", parent_id="c1"),
        comment("c3", "j", "B", BASE + 3, "p1", parent_id="c2"),
    ]
    graph = build_reply_graph(thread_replies(comments), "p1", {"i"}, {"j"})
    assert graph.edges == {("i", "j"): 1, ("j", "i"): 1}


def test_build_reply_graph_dangling_parent():
    comments = [comment("c1", "u", "B", BASE + 1, "p1", parent_id="ghost")]
    graph = build_reply_graph(thread_replies(comments), "p1", set(), set())
    assert graph.skipped_comments == 1
    assert graph.edges == {}


def test_build_reply_graph_self_loop_flagged():
    comments = [
        comment("c1", "u", "B", BASE + 1, "p1"),
        comment("c2", "u", "B", BASE + 2, "p1", parent_id="c1"),
    ]
    graph = build_reply_graph(thread_replies(comments), "p1", set(), set())
    assert graph.edges == {("u", "u"): 1}


def test_pagerank_single_node():
    graph = make_graph({"a": "attacker"}, {})
    result = group_pagerank([graph], "attackers")[0]
    assert result.scores == {"a": 1.0}


def test_pagerank_sums_to_one_and_nonnegative():
    rng = random.Random(0)
    for _ in range(5):
        nodes = {f"u{i}": "attacker" if i % 2 else "defender" for i in range(rng.randint(2, 15))}
        edges = {}
        names = sorted(nodes)
        for _ in range(rng.randint(1, 30)):
            i, j = rng.choice(names), rng.choice(names)
            edges[(i, j)] = edges.get((i, j), 0) + rng.randint(1, 4)
        graph = make_graph(nodes, edges)
        for teleport in ("attackers", "defenders", "all"):
            if teleport == "attackers" and not graph.users_in_group("attacker"):
                continue
            if teleport == "defenders" and not graph.users_in_group("defender"):
                continue
            scores = group_pagerank([graph], teleport)[0].scores
            assert abs(sum(scores.values()) - 1.0) <= 1e-9
            assert all(s >= 0 for s in scores.values())


def test_pagerank_teleport_all_equals_standard():
    rng = random.Random(1)
    for _ in range(5):
        n = rng.randint(2, 12)
        nodes = {f"u{i}": "other" for i in range(n)}
        edges = {}
        names = sorted(nodes)
        for _ in range(rng.randint(0, 25)):
            i, j = rng.choice(names), rng.choice(names)
            edges[(i, j)] = edges.get((i, j), 0) + rng.randint(1, 3)
        graph = make_graph(nodes, edges)
        ours = group_pagerank([graph], "all", alpha=0.25, tol=1e-14)[0].scores
        reference = reference_pagerank(graph, damping=0.75)
        for u in nodes:
            assert ours[u] == pytest.approx(reference[u], abs=1e-10)


def test_pagerank_three_node_fixture_vs_monte_carlo():
    graph = make_graph(
        {"a1": "attacker", "a2": "attacker", "d1": "defender"},
        {("a1", "d1"): 1, ("a2", "d1"): 1},
    )
    scores = group_pagerank([graph], "attackers")[0].scores
    freqs = mc_pagerank(graph, {"a1", "a2"}, alpha=0.25, steps=10**6, seed=42)
    for u in graph.nodes:
        assert scores[u] == pytest.approx(freqs[u], abs=1e-3)


@pytest.mark.parametrize("seed", range(8))
def test_visit_count_oracle_equals_the_per_step_oracle(seed):
    rng = random.Random(seed)
    names = [f"u{i}" for i in range(rng.randint(2, 12))]
    nodes = {u: rng.choice(("attacker", "defender")) for u in names}
    edges = {}
    for _ in range(rng.randint(0, 3 * len(names))):  # some nodes stay dangling
        key = (rng.choice(names), rng.choice(names))
        edges[key] = edges.get(key, 0) + rng.randint(1, 5)
    graph = make_graph(nodes, edges)
    teleport = rng.choice([names[:1], names[: len(names) // 2 + 1], names])
    per_step = mc_pagerank(graph, teleport, alpha=0.25, steps=20000, seed=seed,
                           expected_visits=True)
    by_visits = mc_pagerank_visits(graph, teleport, alpha=0.25, steps=20000, seed=seed)
    assert set(by_visits) == set(per_step)
    for u in names:
        assert abs(by_visits[u] - per_step[u]) <= 1e-11


def test_pagerank_weight_scale_invariance():
    nodes = {"a": "attacker", "b": "defender", "c": "other"}
    edges = {("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 3}
    one = group_pagerank([make_graph(nodes, edges)], "all")[0].scores
    scaled = group_pagerank(
        [make_graph(nodes, {k: w * 7 for k, w in edges.items()})], "all")[0].scores
    for u in nodes:
        assert one[u] == pytest.approx(scaled[u], abs=1e-12)


def test_pagerank_teleport_members_positive_and_no_inflow_zero():
    graph = make_graph(
        {"a1": "attacker", "d1": "defender", "d2": "defender"},
        {("a1", "d1"): 1},
    )
    scores = group_pagerank([graph], "attackers")[0].scores
    assert scores["a1"] > 0
    assert scores["d1"] > 0  # has inflow
    assert scores["d2"] == 0.0  # outside teleport set, no inflow: exactly zero


def test_pagerank_empty_teleport_error():
    graph = make_graph({"d1": "defender"}, {})
    with pytest.raises(ValueError):
        group_pagerank([graph], "attackers")


def test_pagerank_relabel_symmetry_exact():
    rng = random.Random(2)
    names = [f"u{i}" for i in range(10)]
    nodes = {u: ("attacker" if i < 5 else "defender") for i, u in enumerate(names)}
    edges = {}
    for _ in range(25):
        i, j = rng.choice(names), rng.choice(names)
        edges[(i, j)] = edges.get((i, j), 0) + 1
    swapped = {u: ("defender" if g == "attacker" else "attacker") for u, g in nodes.items()}
    a_scores = group_pagerank([make_graph(nodes, edges)], "attackers")[0].scores
    d_scores = group_pagerank([make_graph(swapped, edges)], "defenders")[0].scores
    assert a_scores == d_scores  # bitwise identical


def test_a_batch_that_cannot_converge_names_max_iter_and_its_first_graph():
    # an edgeless graph is at its fixed point after one step; a graph with an
    # edge out of the teleport set is not
    edgeless = make_graph({"a": "attacker", "d": "defender"}, {})
    first = make_graph({"a": "attacker", "d": "defender", "o": "other"}, {("a", "d"): 1})
    second = make_graph({"a": "attacker", "d": "defender"}, {("a", "a"): 1, ("a", "d"): 1})
    assert group_pagerank([edgeless], "attackers", max_iter=1)[0].iterations == 1
    with pytest.raises(ConvergenceError) as single:
        group_pagerank([first], "attackers", max_iter=1)
    with pytest.raises(ConvergenceError) as batch:
        group_pagerank([edgeless, first, second], "attackers", max_iter=1)
    assert batch.value.iterations == 1
    assert "did not converge in 1 steps" in str(batch.value)
    assert str(batch.value) == str(single.value)
    with pytest.raises(ConvergenceError) as later:
        group_pagerank([second], "attackers", max_iter=1)
    assert str(later.value) != str(single.value)


def random_reply_graph(rng):
    """2-40 users with at least one attacker and one defender; about a
    third of them reply to no one (dangling)."""
    n = rng.randint(2, 40)
    names = [f"u{i:02d}" for i in range(n)]
    groups = ["attacker", "defender"] + [rng.choice(("attacker", "defender", "other"))
                                         for _ in range(n - 2)]
    rng.shuffle(groups)
    edges = {}
    for i in rng.sample(names, k=rng.randint(0, (2 * n) // 3)):
        for _ in range(rng.randint(1, 3)):
            j = rng.choice(names)
            edges[(i, j)] = edges.get((i, j), 0) + rng.randint(1, 4)
    return make_graph(dict(zip(names, groups)), edges)


# Both solvers iterate the same map, which contracts L1 distances by
# 1 - alpha, so a result is within (1 - alpha) / alpha times its last L1 step
# of the fixed point. Ours stops when that step is below PR_TOL, networkx's
# when it is below n * NX_TOL. ROUNDING covers the float error of either
# iteration, about n * 1e-16 per step.
PR_TOL, NX_TOL, ROUNDING = 1e-12, 1e-13, 1e-12


def networkx_bound(n, alpha=TELEPORT_PROB):
    return (1 - alpha) / alpha * (PR_TOL + n * NX_TOL) + ROUNDING


def test_group_pagerank_matches_networkx_single_and_batched():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    graphs = [random_reply_graph(rng) for _ in range(40)]
    assert sum(len(g.nodes) - len({i for i, _j in g.edges}) for g in graphs) > 0  # dangling users
    for teleport, group in (("attackers", "attacker"), ("defenders", "defender"), ("all", None)):
        batch = group_pagerank(graphs, teleport, tol=PR_TOL)
        for graph, batched in zip(graphs, batch):
            members = [u for u, g in graph.nodes.items() if group in (None, g)]
            v = {u: (1.0 / len(members) if u in members else 0.0) for u in graph.nodes}
            digraph = nx.DiGraph()
            digraph.add_nodes_from(graph.nodes)
            digraph.add_weighted_edges_from((i, j, w) for (i, j), w in graph.edges.items())
            expected = nx.pagerank(digraph, alpha=1 - TELEPORT_PROB, personalization=v,
                                   dangling=v, weight="weight", tol=NX_TOL, max_iter=100000)
            # the graph as a batch of one gets what it gets among the others
            [single] = group_pagerank([graph], teleport, tol=PR_TOL)
            assert single == batched
            for result in (single, batched):
                distance = sum(abs(result.scores[u] - expected[u]) for u in graph.nodes)
                assert distance <= networkx_bound(len(graph.nodes))


def test_echo_metrics_attacker_only_edges():
    graph = make_graph(
        {"a1": "attacker", "a2": "attacker", "d1": "defender"},
        {("a1", "a2"): 3, ("a2", "a1"): 2},
    )
    report = echo_metrics(graph, group_pagerank([graph], "attackers")[0].scores,
                          group_pagerank([graph], "defenders")[0].scores)
    assert report["cross_group_ratio"] == 0.0
    assert report["attacker_attacker_weight"] == 5
    assert report["defender_apr_zero_fraction"] == 1.0


def _gang_up_graph(n_attackers):
    # every attacker replies once to the single loud defender d*
    nodes = {f"a{i:02d}": "attacker" for i in range(n_attackers)}
    nodes["dstar"] = "defender"
    nodes["dquiet"] = "defender"
    edges = {(f"a{i:02d}", "dstar"): 1 for i in range(n_attackers)}
    return make_graph(nodes, edges)


def _echo(graph):
    apr, dpr = (group_pagerank([graph], group)[0].scores for group in ("attackers", "defenders"))
    return apr, echo_metrics(graph, apr, dpr)


def test_echo_metrics_gang_up_flag():
    # closed-form oracle for the star fixture: d* is dangling, so
    # x(d*) = a(1-a) / (1 - (1-a)^2) = 3/7 for a = 0.25, independent of the
    # attacker count, while the 10x-mean threshold is 10/n. The flag
    # therefore trips exactly when n = attackers + defenders >= 24.
    x_dstar = 0.25 * 0.75 / (1 - 0.75**2)
    scores, report = _echo(_gang_up_graph(22))  # n = 24
    assert scores["dstar"] == pytest.approx(x_dstar, abs=1e-9)
    assert x_dstar >= 10 / 24
    assert report["defender_apr_tentimes_fraction"] == pytest.approx(0.5)
    assert report["defender_apr_zero_fraction"] == pytest.approx(0.5)

    _scores, below = _echo(_gang_up_graph(21))  # n = 23: 10/23 > 3/7
    assert below["defender_apr_tentimes_fraction"] == 0.0


def test_echo_metrics_requires_both_groups():
    graph = make_graph({"a1": "attacker"}, {})
    apr = group_pagerank([graph], "attackers")[0].scores
    with pytest.raises(ValueError):
        echo_metrics(graph, apr, apr)


def test_a_record_whose_attackers_and_defenders_overlap_is_refused():
    # link_members makes a link's source and target members disjoint, so
    # no measured link has a user in both sets
    link = CrossLink("s1", "p1", "A", "B", BASE, "op")
    with pytest.raises(ValueError, match=r"\['u'\]"):
        MobilizationRecord(link, 0, 1, 2.0, 1.0, "mobilization",
                           attackers={"a", "u"}, defenders={"u", "d"})
    assert MobilizationRecord(link, 0, 1, 2.0, 1.0, "mobilization",
                              attackers={"a"}, defenders={"d"}).id == "s1"


@pytest.fixture
def anger_lexicon():
    return Lexicon(name="t", categories={"anger": {"hate"}})


def test_anger_rate_no_anger(anger_lexicon):
    comments = [
        comment("c1", "d", "B", BASE + 1, "p1"),
        comment("c2", "a", "B", BASE + 2, "p1", parent_id="c1", body="calm reply here"),
    ]
    assert anger_rate(thread_replies(comments), anger_lexicon, {"a"}, {"d"}) == 0.0


def test_anger_rate_half(anger_lexicon):
    comments = [
        comment("c1", "d", "B", BASE + 1, "p1"),
        comment("c2", "a", "B", BASE + 2, "p1", parent_id="c1", body="hate this"),
    ]
    assert anger_rate(thread_replies(comments), anger_lexicon, {"a"}, {"d"}) == pytest.approx(0.5)


def test_anger_rate_no_replies_sentinel(anger_lexicon):
    comments = [comment("c1", "d", "B", BASE + 1, "p1", body="hate")]
    assert anger_rate(thread_replies(comments), anger_lexicon, {"a"}, {"d"}) is None


def test_anger_rate_requires_anger_category():
    lex = Lexicon(name="t", categories={"positive": {"joy"}})
    with pytest.raises(ValueError):
        anger_rate([], lex, set(), set())
