"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Full-scale figures from the source dataset (8.8x thread increase,
AUC 0.76, ...) are documented reference points, not desk-scale targets;
every check here is property- or oracle-based.
"""
import itertools
import random
import time

import numpy as np
import pytest

from intercom.corpus import extract_crosslinks, load_events
from intercom.embed import edge_gradients, edge_losses, train_embeddings
from intercom.forest import train_forest
from intercom.impact import mann_whitney_u, wilcoxon_signed_rank
from intercom.lstm import init_params
from intercom.mobilization import baseline_ratio, detect, measure
from intercom.pipeline import RUN_RECORD, Config, run_pipeline
from intercom.predictor import PredictionDataset, auc, predict_prob, split_indices, train
from intercom.replynet import group_pagerank
from intercom.sentiment import Lexicon, builtin_lexicon, extract_text_features, strip_shared_words
from intercom.synth import SynthSpec, generate_corpus

from test_forest import predict
from test_lstm import gradient_check, lstm_forward, scalar_reference_forward
from test_predictor import brute_force_auc
from test_replynet import make_graph, mc_pagerank_visits, reference_pagerank
from test_synth import generate_sentiment_examples


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_null_model_detector(tmp_path):
    started = time.monotonic()
    spec = SynthSpec(n_communities=12, n_crosslinks=220, burst_ratio=3.2,
                     quiet_ratio=0.8, matched_ratio=1.6, mobilization_fraction=0.5,
                     seed=0)
    events_path, manifest = generate_corpus(spec, tmp_path)
    assert len(manifest["links"]) >= 200
    corpus = load_events(events_path)
    links = extract_crosslinks(corpus)
    assert len(links) == len(manifest["links"])

    baseline = baseline_ratio(measured := measure(corpus, links))
    assert baseline == pytest.approx(1.6, abs=0.1)

    by_source = {m["source_post"]: m for m in manifest["links"]}
    planted_hot = planted_quiet = hits = false_alarms = 0
    for link in links:
        planted = by_source[link.source_post]
        record = detect(measured[links.index(link)], baseline)
        # planted smoothed ratios: 3.2 = 2x baseline, 0.8 = baseline/2
        if planted["mobilization"]:
            planted_hot += 1
            hits += record.verdict == "mobilization"
        else:
            planted_quiet += 1
            false_alarms += record.verdict == "mobilization"
    assert planted_hot > 0 and planted_quiet > 0
    recall = hits / planted_hot
    fpr = false_alarms / planted_quiet
    assert recall == 1.0
    assert fpr == 0.0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(1, f"detector recall=1.0, FPR=0.0 on {len(links)} planted links; "
              f"baseline {baseline:.3f} (target 1.6 +/- 0.1); {elapsed:.1f}s < 60s")


def _random_graph(rng):
    n = rng.randint(2, 20)
    names = [f"u{i:02d}" for i in range(n)]
    n_attackers = rng.randint(1, n - 1)
    nodes = {u: ("attacker" if i < n_attackers else "defender")
             for i, u in enumerate(names)}
    edges = {}
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.choice(names), rng.choice(names)
        edges[(i, j)] = edges.get((i, j), 0) + rng.randint(1, 5)
    return make_graph(nodes, edges)


def test_criterion_2_group_pagerank():
    started = time.monotonic()
    rng = random.Random(202)
    worst_mc = 0.0
    for trial in range(25):
        graph = _random_graph(rng)
        teleport_name = ("attackers", "defenders", "all")[trial % 3]
        teleport_users = {u for u, g in graph.nodes.items()
                          if teleport_name == "all" or g == teleport_name[:-1]}
        result = group_pagerank([graph], teleport_name, tol=1e-12)[0]
        assert abs(sum(result.scores.values()) - 1.0) <= 1e-9
        freqs = mc_pagerank_visits(graph, teleport_users, alpha=0.25, steps=10**6, seed=trial)
        for u in graph.nodes:
            worst_mc = max(worst_mc, abs(result.scores[u] - freqs[u]))
            assert abs(result.scores[u] - freqs[u]) < 1e-3

    # teleport all == standard PageRank with damping 0.75
    for trial in range(10):
        graph = _random_graph(rng)
        ours = group_pagerank([graph], "all", tol=1e-14)[0].scores
        standard = reference_pagerank(graph, damping=0.75)
        for u in graph.nodes:
            assert ours[u] == pytest.approx(standard[u], abs=1e-10)

    # relabel symmetry is exact (bitwise)
    for trial in range(10):
        graph = _random_graph(rng)
        if not graph.users_in_group("attacker") or not graph.users_in_group("defender"):
            continue
        swapped = make_graph({u: ("defender" if g == "attacker" else "attacker")
                              for u, g in graph.nodes.items()}, graph.edges)
        assert (group_pagerank([graph], "attackers")[0].scores
                == group_pagerank([swapped], "defenders")[0].scores)

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(2, f"25 graphs within {worst_mc:.2e} of 1e6-step Monte Carlo (<1e-3); "
              f"sums 1 +/- 1e-9; standard-PageRank and relabel checks exact; "
              f"{elapsed:.1f}s < 120s")


def test_criterion_3_embedding_objective(tmp_path):
    started = time.monotonic()
    # gradient check on the negative-sampling objective
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(5):
        d, k = 9, 5
        u = rng.normal(0, 0.8, d)
        c_pos = rng.normal(0, 0.8, d)
        c_negs = rng.normal(0, 0.8, (k, d))
        du, dc, dn = (g[0] for g in edge_gradients(u[None], c_pos[None], c_negs[None]))
        step = 1e-5
        for vec, grad in ((u, du), (c_pos, dc), (c_negs, dn)):
            for i in range(vec.size):
                orig = vec.flat[i]
                vec.flat[i] = orig + step
                plus = edge_losses(u[None], c_pos[None], c_negs[None])[0]
                vec.flat[i] = orig - step
                minus = edge_losses(u[None], c_pos[None], c_negs[None])[0]
                vec.flat[i] = orig
                fd = (plus - minus) / (2 * step)
                denom = max(abs(fd), abs(grad.flat[i]), 1e-10)
                worst = max(worst, abs(fd - grad.flat[i]) / denom)
    assert worst < 1e-6

    # planted 2-block bipartite graph, d=16, 100 epochs
    from test_embed import planted_two_block

    graph, per_block = planted_two_block(users_per_block=15, comms_per_block=5,
                                         posts_per_user=8, seed=0)
    table = train_embeddings(graph, dim=16, epochs=100, seed=0)
    C = table.community_vectors
    norm = C / np.linalg.norm(C, axis=1, keepdims=True)
    cos = norm @ norm.T
    n = C.shape[0]
    within, cross = [], []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < per_block) == (j < per_block)
            (within if same else cross).append(cos[i, j])
    separated = sum(1 for w, x in itertools.product(within, cross) if w > x)
    fraction = separated / (len(within) * len(cross))
    assert fraction >= 0.95
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(3, f"gradient check {worst:.2e} < 1e-6; within/cross block separation "
              f"{fraction:.3f} >= 0.95 (d=16, 100 epochs); {elapsed:.1f}s < 5min")


def _planted_sequences(n, dim, seed, null=False):
    """Planted rule: label = 1 iff the target-community vector is in block B."""
    rng = np.random.default_rng(seed)
    a = np.array([2.0] + [0.0] * (dim - 1))
    b = -a
    sequences, labels = [], []
    for _ in range(n):
        label = int(rng.random() < 0.5)
        c_t = (b if label else a) + rng.normal(0, 0.2, size=dim)
        rows = [rng.normal(0, 0.5, size=dim), rng.normal(0, 0.5, size=dim), c_t]
        for _ in range(int(rng.integers(0, 4))):
            rows.append(rng.normal(0, 0.5, size=dim))
        sequences.append(np.vstack(rows))
        labels.append(label)
    labels = np.asarray(labels)
    if null:
        labels = np.random.default_rng(seed + 1).permutation(labels)
    fractions = (0.6, 0.1, 0.3) if null else (0.8, 0.1, 0.1)
    tr, va, te = split_indices(n, seed=seed, fractions=fractions)
    return PredictionDataset(sequences=sequences, labels=labels,
                             train_idx=tr, val_idx=va, test_idx=te)


def test_criterion_4_lstm():
    # gradient check over 20 seeds
    worst = 0.0
    for seed in range(20):
        params = init_params(4, 3, seed=seed)
        seq = np.random.default_rng(100 + seed).normal(size=(4, 4))
        worst = max(worst, gradient_check(params, ([seq], [seed % 2])))
    assert worst < 1e-4

    # forward pass against the scalar reference
    rng = np.random.default_rng(404)
    worst_fwd = 0.0
    for seed in range(5):
        params = init_params(5, 4, seed=seed)
        seq = rng.normal(size=(4, 5))
        ours = lstm_forward(seq, params)
        reference = np.array(scalar_reference_forward(seq.tolist(), params))
        worst_fwd = max(worst_fwd, float(np.max(np.abs(ours - reference))))
    assert worst_fwd < 1e-12

    # planted-rule task
    dataset = _planted_sequences(400, 8, seed=1)
    result = train(dataset, init_params(8, 8, seed=1), lr=0.02, epochs=15, seed=1)
    scores = [predict_prob([dataset.sequences[i]], result.params)[0] for i in dataset.test_idx]
    labels = [int(dataset.labels[i]) for i in dataset.test_idx]
    planted_auc = auc(scores, labels)
    assert planted_auc >= 0.95

    # label-shuffled null
    null_ds = _planted_sequences(2000, 8, seed=0, null=True)
    null_result = train(null_ds, init_params(8, 8, seed=0), lr=0.02, epochs=3, seed=0)
    null_scores = [predict_prob([null_ds.sequences[i]], null_result.params)[0]
                   for i in null_ds.test_idx]
    null_labels = [int(null_ds.labels[i]) for i in null_ds.test_idx]
    null_auc = auc(null_scores, null_labels)
    assert abs(null_auc - 0.5) <= 0.05
    report(4, f"gradient check {worst:.2e} < 1e-4 over 20 seeds; forward within "
              f"{worst_fwd:.1e} of scalar reference; planted AUC {planted_auc:.3f} >= 0.95; "
              f"null AUC {null_auc:.3f} = 0.5 +/- 0.05")


def test_criterion_5_auc_brute_force():
    # exhaustive: n <= 5 over a coarse score grid (forces ties), all label mixes
    checked = 0
    for n in range(2, 6):
        for scores in itertools.product((0.0, 0.5, 1.0), repeat=n):
            for labels in itertools.product((0, 1), repeat=n):
                if sum(labels) in (0, n):
                    continue
                assert auc(scores, labels) == pytest.approx(
                    brute_force_auc(scores, labels))
                checked += 1
    # random fixtures up to n = 8
    rng = np.random.default_rng(505)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 5, size=n) / 4.0
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels))
        checked += 1
    report(5, f"AUC equals brute-force pairwise computation on {checked} fixtures "
              f"(ties included)")


def test_criterion_6_statistical_tests():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert (u, p) == (0, pytest.approx(0.1))

    w, p_w = wilcoxon_signed_rank([(d, 0) for d in (1, 2, 3, 4, 5)])
    assert (w, p_w) == (15, pytest.approx(0.0625))

    mwu_hits = 0
    for trial in range(1000):
        rng = np.random.default_rng(1000 + trial)
        _, p_null = mann_whitney_u(rng.normal(size=50).tolist(),
                                   rng.normal(size=50).tolist())
        mwu_hits += p_null < 0.05
    mwu_fpr = mwu_hits / 1000
    assert abs(mwu_fpr - 0.05) <= 0.02

    wil_hits = 0
    for trial in range(1000):
        rng = np.random.default_rng(5000 + trial)
        pairs = list(zip(rng.normal(size=100).tolist(), rng.normal(size=100).tolist()))
        _, p_null = wilcoxon_signed_rank(pairs)
        wil_hits += p_null < 0.05
    wil_fpr = wil_hits / 1000
    assert abs(wil_fpr - 0.05) <= 0.02
    report(6, f"MWU exact p=0.1, Wilcoxon exact p=0.0625; null FPR at alpha=0.05: "
              f"MWU {mwu_fpr:.3f}, Wilcoxon {wil_fpr:.3f} (both 0.05 +/- 0.02)")


def test_criterion_7_sentiment_classifier():
    lexicon = builtin_lexicon()
    examples = generate_sentiment_examples(1000, seed=0)
    X = [extract_text_features(text, lexicon) for text, _ in examples]
    y = [label for _, label in examples]
    forest = train_forest(X[:700], y[:700], trees=400, seed=0)
    pred = predict(forest, X[700:])
    accuracy = float(np.mean([p == t for p, t in zip(pred, y[700:])]))
    assert accuracy >= 0.95

    shuffled = generate_sentiment_examples(1000, seed=0, separable=False)
    Xs = [extract_text_features(text, lexicon) for text, _ in shuffled]
    ys = [label for _, label in shuffled]
    null_forest = train_forest(Xs[:700], ys[:700], trees=100, seed=0)
    null_pred = predict(null_forest, Xs[700:])
    null_accuracy = float(np.mean([p == t for p, t in zip(null_pred, ys[700:])]))
    test_prior = max(ys[700:].count("negative"), ys[700:].count("neutral")) / 300
    assert abs(null_accuracy - test_prior) <= 0.05

    # hand-computed fixtures, exact
    assert strip_shared_words("come look at idiots", "idiots") == "come look at"
    lex = Lexicon(name="t", categories={"anger": {"hate"}, "positive": {"joy"}})
    fv = extract_text_features("hate hate joy", lex)
    assert fv["lex_anger"] == 2 / 3
    assert fv["lex_positive"] == 1 / 3
    fv2 = extract_text_features("aa bb!!", lex)
    assert fv2["avg_word_len"] == 2.0
    assert fv2["punct_exclam"] == 2.0
    report(7, f"separable accuracy {accuracy:.3f} >= 0.95 (n=1000); label-independent "
              f"accuracy {null_accuracy:.3f} within 0.05 of prior {test_prior:.3f}; "
              f"hand-computed fixtures exact")


def test_criterion_8_pipeline_reproducibility(tmp_path):
    spec = SynthSpec(n_communities=4, n_crosslinks=8, background_posts_per_community=10,
                     background_comments_per_user=6, seed=8)
    events_path, _ = generate_corpus(spec, tmp_path / "synth")
    bundles = []
    for name in ("one", "two"):
        config = Config(corpus=str(events_path), output_dir=str(tmp_path / name),
                        embed_enabled=True, predict_enabled=True,
                        embed_dim=8, embed_epochs=4, hidden_size=6, predict_epochs=2,
                        ensemble_trees=10, seed=13)
        run_pipeline(config)
        # every file but the run record, whose timings change from run to run
        bundles.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())
                        if p.is_file() and p.name != RUN_RECORD})
    assert bundles[0].keys() == bundles[1].keys()
    differing = [name for name in bundles[0] if bundles[0][name] != bundles[1][name]]
    assert differing == []
    report(8, f"two pipeline runs produced byte-identical bundles "
              f"({len(bundles[0])} files compared)")
