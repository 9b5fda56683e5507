import itertools

import numpy as np
import pytest

from intercom.corpus import extract_crosslinks
from intercom.embed import EmbeddingTable
from intercom.forest import train_forest
from intercom.lstm import init_params
from intercom.predictor import (
    MissingEmbeddingError,
    PredictionDataset,
    TrainingDivergedError,
    assemble_sequence,
    auc,
    baseline_features,
    build_dataset,
    ensemble_features,
    predict_prob,
    split_indices,
    train,
)
from intercom.sentiment import community_tfidf_vectors

from conftest import BASE, corpus_from, post


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_perfect_ranking():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_matches_brute_force_small_fixtures():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 4, size=n) / 3.0  # coarse grid forces ties
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels))


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 0, 1
    assert auc(scores, labels) == pytest.approx(auc(np.exp(scores), labels))


def test_auc_single_class_error():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])


def test_split_indices_disjoint_exhaustive():
    train_idx, val_idx, test_idx = split_indices(103, seed=5)
    allidx = np.concatenate([train_idx, val_idx, test_idx])
    assert sorted(allidx.tolist()) == list(range(103))
    again = split_indices(103, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip((train_idx, val_idx, test_idx), again))
    other = split_indices(103, seed=6)
    assert not np.array_equal(train_idx, other[0])


def _table(dim=6, users=("alice",), communities=("A", "B")):
    rng = np.random.default_rng(0)
    return EmbeddingTable(
        users=list(users), communities=list(communities),
        user_vectors=rng.normal(size=(len(users), dim)),
        community_vectors=rng.normal(size=(len(communities), dim)),
        dim=dim,
    )


def _corpus_with_link(body):
    corpus = corpus_from([
        post("tgt", "bob", "B", BASE, body="target text"),
        post("src", "alice", "A", BASE + 3600, body=body + " r/B/comments/tgt"),
    ])
    return corpus, extract_crosslinks(corpus)[0]


def test_assemble_sequence_empty_body():
    from intercom.corpus import CrossLink

    corpus = corpus_from([
        post("tgt", "bob", "B", BASE, body="target text"),
        post("src", "alice", "A", BASE + 3600, body=""),
    ])
    link = CrossLink(source_post="src", target_post="tgt", source_community="A",
                     target_community="B", t0=BASE + 3600, author="alice")
    table = _table()
    words = {}
    seq = assemble_sequence(link, corpus, table, words)
    assert seq.shape == (3, 6)
    assert np.array_equal(seq[0], table.user_vector("alice"))
    assert np.array_equal(seq[1], table.community_vector("A"))
    assert np.array_equal(seq[2], table.community_vector("B"))


def test_assemble_sequence_truncation():
    corpus, link = _corpus_with_link(" ".join(f"w{i}" for i in range(80)))
    seq = assemble_sequence(link, corpus, _table(), {})
    assert seq.shape[0] == 53


def test_assemble_sequence_oov_zero_vectors():
    corpus, link = _corpus_with_link("strange words")
    words = {"strange": np.ones(6)}
    seq = assemble_sequence(link, corpus, _table(), words)
    assert np.array_equal(seq[3], np.ones(6))
    assert np.all(seq[4] == 0.0)


def test_assemble_sequence_missing_embedding():
    corpus, link = _corpus_with_link("hello")
    table = _table(users=("not_alice",))
    with pytest.raises(MissingEmbeddingError):
        assemble_sequence(link, corpus, table, {})


def test_baseline_features_no_history():
    corpus, link = _corpus_with_link("fresh author text")
    from intercom.lexicon import Lexicon

    lexicon = Lexicon(name="t", categories={"anger": {"hate"}})
    fv = baseline_features(corpus, link, lexicon, community_tfidf_vectors(corpus))
    assert fv["author_post_count"] == 0.0
    assert fv["author_frac_posts_target"] == 0.0
    assert fv["hist_support"] == 0.0
    assert all(v == 0.0 for k, v in fv.items() if k.startswith("hist_") and k != "hist_support")


def test_baseline_features_hand_computed():
    # author history: 2 posts in B (target), 1 in A (source), 1 in C
    from intercom.lexicon import Lexicon

    events = [
        post("h1", "alice", "B", BASE - 400, body="old one"),
        post("h2", "alice", "B", BASE - 300, body="old two"),
        post("h3", "alice", "A", BASE - 200, body="old three"),
        post("h4", "alice", "C", BASE - 100, body="hate"),
        post("tgt", "bob", "B", BASE, body="target text"),
        post("src", "alice", "A", BASE + 3600, body="hate this r/B/comments/tgt"),
    ]
    corpus = corpus_from(events)
    link = extract_crosslinks(corpus)[0]
    lexicon = Lexicon(name="t", categories={"anger": {"hate"}})
    fv = baseline_features(corpus, link, lexicon, community_tfidf_vectors(corpus))
    assert fv["author_post_count"] == 4.0
    assert fv["author_frac_posts_target"] == pytest.approx(0.5)
    assert fv["author_frac_posts_source"] == pytest.approx(0.25)
    # history anger rates: 0, 0, 0, 1 -> mean 0.25
    assert fv["hist_lex_anger"] == pytest.approx(0.25)
    assert fv["post_lex_anger"] > 0


def test_baseline_features_identical_communities_tfidf():
    # the cross-linking post's own URL tokens are mirrored into the target
    # body so both community documents carry identical token multisets
    events = [
        post("pa", "u", "A", BASE - 10, body="same words here"),
        post("pb", "u", "B", BASE - 9, body="same words here"),
        post("pc", "u", "C", BASE - 8, body="totally different vocabulary"),
        post("tgt", "bob", "B", BASE, body="r b comments tgt"),
        post("src", "alice", "A", BASE + 3600, body="r/B/comments/tgt"),
    ]
    corpus = corpus_from(events)
    link = extract_crosslinks(corpus)[0]
    from intercom.lexicon import Lexicon

    lexicon = Lexicon(name="t", categories={"anger": {"hate"}})
    fv = baseline_features(corpus, link, lexicon, community_tfidf_vectors(corpus))
    assert fv["tfidf_similarity"] == pytest.approx(1.0)


def _planted_dataset(n=120, dim=8, seed=0):
    """label = 1 iff the target-community slot vector comes from block B."""
    rng = np.random.default_rng(seed)
    block_a = rng.normal(0.0, 0.3, size=dim) + np.array([2.0] + [0.0] * (dim - 1))
    block_b = rng.normal(0.0, 0.3, size=dim) - np.array([2.0] + [0.0] * (dim - 1))
    sequences, labels = [], []
    for _ in range(n):
        label = int(rng.random() < 0.5)
        center = block_b if label else block_a
        c_t = center + rng.normal(0, 0.2, size=dim)
        rows = [rng.normal(0, 0.5, size=dim), rng.normal(0, 0.5, size=dim), c_t]
        for _ in range(int(rng.integers(0, 4))):
            rows.append(rng.normal(0, 0.5, size=dim))
        sequences.append(np.vstack(rows))
        labels.append(label)
    train_idx, val_idx, test_idx = split_indices(n, seed=seed)
    return PredictionDataset(sequences=sequences, labels=np.asarray(labels),
                             train_idx=train_idx, val_idx=val_idx, test_idx=test_idx)


def test_train_memorizes_single_example():
    rng = np.random.default_rng(2)
    seq = rng.normal(size=(4, 6))
    dataset = PredictionDataset(
        sequences=[seq, rng.normal(size=(4, 6))],
        labels=np.array([1, 0]),
        train_idx=np.array([0, 1]), val_idx=np.array([], dtype=int),
        test_idx=np.array([], dtype=int),
    )
    result = train(dataset, init_params(6, 8, seed=0), lr=0.05, epochs=150, seed=0)
    from intercom.lstm import example_loss

    assert example_loss([seq], [1], result.params)[0] < 1e-3


def test_train_planted_rule_auc():
    dataset = _planted_dataset()
    result = train(dataset, init_params(8, 8, seed=1), lr=0.02, epochs=25, seed=1)
    scores = [predict_prob([dataset.sequences[i]], result.params)[0] for i in dataset.test_idx]
    labels = [int(dataset.labels[i]) for i in dataset.test_idx]
    assert auc(scores, labels) >= 0.95
    assert result.log and all("train_loss" in entry for entry in result.log)


def test_train_divergence_aborts():
    dataset = _planted_dataset(n=40)
    with pytest.raises(TrainingDivergedError):
        train(dataset, init_params(8, 8, seed=0), lr=500.0, epochs=10, seed=0)


def test_train_requires_both_labels():
    dataset = _planted_dataset(n=20)
    dataset.labels[:] = 1
    with pytest.raises(ValueError):
        train(dataset, init_params(8, 4, seed=0), epochs=1)


def test_build_dataset_backoff(two_community_corpus):
    corpus, _ = two_community_corpus
    links = extract_crosslinks(corpus)
    rng = np.random.default_rng(0)
    table = EmbeddingTable(
        users=["somebody_else"], communities=["A", "B"],
        user_vectors=rng.normal(size=(1, 4)),
        community_vectors=rng.normal(size=(2, 4)), dim=4,
    )
    labels = {links[0].source_post: 1}
    dataset = build_dataset(corpus, links, labels, table, {}, seed=0)
    assert dataset.backoff_count == 1
    assert len(dataset.sequences) == 1
    assert np.array_equal(dataset.sequences[0][0], table.user_vectors.mean(axis=0))


def test_ensemble_beats_or_matches_components():
    # planted task where the hidden state carries the signal
    rng = np.random.default_rng(3)
    n, dim = 240, 6
    labels = rng.integers(0, 2, size=n)
    features = [{"f0": float(rng.normal()), "f1": float(labels[i] + rng.normal(0, 0.4))}
                for i in range(n)]
    user_embs = [rng.normal(size=dim) for _ in range(n)]
    comm_embs = [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(n)]
    hiddens = [np.full(4, labels[i] + rng.normal(0, 0.4)) for i in range(n)]
    split = 180
    # rows built as the predict stage builds them
    rows = [ensemble_features(f, u, cs, ct, h)
            for f, u, (cs, ct), h in zip(features, user_embs, comm_embs, hiddens)]
    forest = train_forest(rows[:split], labels[:split].tolist(), trees=60, seed=0)
    proba = forest.predict_proba(rows[split:])[:, forest.classes.index(1)]
    ensemble_auc = auc(proba, labels[split:])

    feature_rows = [ensemble_features(f, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))
                    for f in features]
    feature_forest = train_forest(feature_rows[:split], labels[:split].tolist(), trees=60, seed=0)
    feature_auc = auc(feature_forest.predict_proba(feature_rows[split:])[:, 1], labels[split:])
    assert ensemble_auc >= feature_auc - 0.02
