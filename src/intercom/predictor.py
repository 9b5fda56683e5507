"""Mobilization prediction: feature baseline, socially-primed LSTM, ensemble."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .corpus import Corpus, CrossLink
from .embed import EmbeddingTable
from .forest import train_forest
from .impact import midranks
from .lexicon import Lexicon
from .lstm import LSTMParams, bptt, example_loss, mean_hidden, predict_prob, readout
from .sentiment import community_tfidf_vectors, extract_text_features, sparse_cosine, tokenize

log = logging.getLogger(__name__)

MAX_WORDS = 50  # tokens beyond this are discarded from the sequence
BATCH = 16  # training examples per BPTT call and Adam step


class MissingEmbeddingError(KeyError):
    pass


class TrainingDivergedError(RuntimeError):
    pass


def baseline_features(
    corpus: Corpus,
    link: CrossLink,
    lexicon: Lexicon,
    tfidf_vectors: dict[str, dict[str, float]],
) -> dict[str, float]:
    """Hand-crafted features for one cross-link: source-post text statistics,
    author activity and averaged history features, and source/target tf-idf
    similarity. Authors with no prior posts get zeroed history features with
    hist_support = 0 as the flag. ``tfidf_vectors`` is
    ``community_tfidf_vectors(corpus)``, computed once for all links."""
    post = corpus.posts[link.source_post]
    features = {f"post_{k}": v for k, v in extract_text_features(post.body, lexicon).items()}

    history = [p for p in corpus.user_posts.get(link.author, []) if p.timestamp < link.t0]
    n_hist = len(history)
    in_target = sum(1 for p in history if p.community == link.target_community)
    in_source = sum(1 for p in history if p.community == link.source_community)
    features["author_post_count"] = float(n_hist)
    features["author_frac_posts_target"] = in_target / n_hist if n_hist else 0.0
    features["author_frac_posts_source"] = in_source / n_hist if n_hist else 0.0

    hist_schema = extract_text_features("", lexicon)
    sums = {k: 0.0 for k in hist_schema}
    for p in history:
        for k, v in extract_text_features(p.body, lexicon).items():
            sums[k] += v
    for k in hist_schema:
        features[f"hist_{k}"] = sums[k] / n_hist if n_hist else 0.0
    features["hist_support"] = float(n_hist)

    features["tfidf_similarity"] = sparse_cosine(
        tfidf_vectors.get(link.source_community, {}),
        tfidf_vectors.get(link.target_community, {}),
    )
    return features


def assemble_sequence(
    link: CrossLink,
    corpus: Corpus,
    user_table: EmbeddingTable,
    word_vectors: dict[str, np.ndarray],
    max_words: int = MAX_WORDS,
    author_vector: np.ndarray | None = None,
) -> np.ndarray:
    """Socially-primed input: [author, source community, target community]
    embeddings followed by the post's word vectors. Out-of-vocabulary tokens
    map to zero vectors; a missing user or community embedding raises.
    ``author_vector``, when given, stands in for the author's embedding."""
    if author_vector is None:
        if not user_table.has_user(link.author):
            raise MissingEmbeddingError(f"no embedding for user {link.author!r}")
        author_vector = user_table.user_vector(link.author)
    for community in (link.source_community, link.target_community):
        if not user_table.has_community(community):
            raise MissingEmbeddingError(f"no embedding for community {community!r}")
    dim = user_table.dim
    rows = [
        author_vector,
        user_table.community_vector(link.source_community),
        user_table.community_vector(link.target_community),
    ]
    for tok in tokenize(corpus.posts[link.source_post].body)[:max_words]:
        vec = word_vectors.get(tok)
        rows.append(vec if vec is not None else np.zeros(dim))
    return np.vstack(rows)


def assemble_sequences(
    corpus: Corpus,
    links: list[CrossLink],
    user_table: EmbeddingTable,
    word_vectors: dict[str, np.ndarray],
    max_words: int = MAX_WORDS,
) -> tuple[list[np.ndarray], int]:
    """One sequence per link, and the number of links whose author has no
    embedding and backs off to the mean user vector (logged as a warning)."""
    mean_user = user_table.user_vectors.mean(axis=0)
    sequences, backoff = [], 0
    for link in links:
        author = None if user_table.has_user(link.author) else mean_user
        backoff += author is not None
        sequences.append(assemble_sequence(link, corpus, user_table, word_vectors,
                                           max_words=max_words, author_vector=author))
    if backoff:
        log.warning("%d links used the mean user vector (missing user embeddings)", backoff)
    return sequences, backoff


@dataclass
class PredictionDataset:
    sequences: list[np.ndarray]
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    links: list[CrossLink] = field(default_factory=list)
    backoff_count: int = 0  # links that fell back to the mean user vector


def split_indices(n: int, seed: int, fractions=(0.8, 0.1, 0.1)):
    """Disjoint, exhaustive train/val/test index split by seeded shuffle."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def build_dataset(
    corpus: Corpus,
    links: list[CrossLink],
    labels: dict[str, int],
    user_table: EmbeddingTable,
    word_vectors: dict[str, np.ndarray],
    seed: int = 0,
    max_words: int = MAX_WORDS,
) -> PredictionDataset:
    """Assemble sequences for every labeled link (``assemble_sequences``)."""
    links = [link for link in links if link.source_post in labels]
    sequences, backoff = assemble_sequences(corpus, links, user_table, word_vectors, max_words)
    train_idx, val_idx, test_idx = split_indices(len(sequences), seed)
    return PredictionDataset(
        sequences=sequences,
        labels=np.asarray([labels[link.source_post] for link in links], dtype=np.intp),
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
        links=links,
        backoff_count=backoff,
    )


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, ties
    counted as half; computed from midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative labels")
    ranks = np.asarray(midranks(scores.tolist()))
    r_pos = float(ranks[pos].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_or_none(labels, scores) -> float | None:
    """``auc`` of ``scores()`` against ``labels``, or None (and the callable
    ``scores`` is not called) unless both classes are present."""
    labels = np.asarray(labels)
    if len(set(labels.tolist())) < 2:
        return None
    return auc(scores(), labels)


@dataclass
class TrainResult:
    params: LSTMParams
    log: list[dict]
    best_val_auc: float | None


def train(
    dataset: PredictionDataset,
    params_init: LSTMParams,
    lr: float = 0.01,
    *,
    epochs: int,
    seed: int = 0,
) -> TrainResult:
    """Adam over minibatches of ``BATCH`` examples, taken in a seeded
    permutation of the training split each epoch: one batched BPTT call and
    one step on the batch's mean gradient per minibatch. Returns the
    checkpoint with the best validation AUC. Aborts if the training loss
    exceeds 10x its initial value."""
    train_idx = dataset.train_idx
    if train_idx.size == 0:
        raise ValueError("empty training split")
    train_labels = set(dataset.labels[train_idx].tolist())
    if len(train_labels) < 2:
        raise ValueError("training split must contain both labels")

    params = params_init.copy()
    rng = np.random.default_rng(seed)
    m = params.zeros_like()
    v = params.zeros_like()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    adam_t = 0

    def sequences(idx):
        return [dataset.sequences[i] for i in idx]

    # one batched forward gives the losses bptt would, without the gradients
    initial_loss = float(np.mean(example_loss(sequences(train_idx), dataset.labels[train_idx],
                                              params)))
    history: list[dict] = []
    best = params.copy()
    best_auc: float | None = None

    for epoch in range(1, epochs + 1):
        order = rng.permutation(train_idx)
        total = 0.0
        for start in range(0, order.size, BATCH):
            batch = order[start:start + BATCH]
            losses, grads, _ = bptt(sequences(batch), dataset.labels[batch], params)
            total += float(losses.sum())
            adam_t += 1
            for key in params.weights:
                g = grads[key] / batch.size
                m[key] = beta1 * m[key] + (1 - beta1) * g
                v[key] = beta2 * v[key] + (1 - beta2) * g * g
                m_hat = m[key] / (1 - beta1**adam_t)
                v_hat = v[key] / (1 - beta2**adam_t)
                params.weights[key] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        epoch_loss = total / order.size
        if epoch_loss > 10.0 * max(initial_loss, 1e-12):
            raise TrainingDivergedError(
                f"epoch {epoch} loss {epoch_loss:.4f} exceeds 10x initial {initial_loss:.4f}"
            )
        val_auc = auc_or_none(dataset.labels[dataset.val_idx], lambda: predict_prob(
            sequences(dataset.val_idx), params))
        history.append({"epoch": epoch, "train_loss": epoch_loss, "val_auc": val_auc})
        if val_auc is None or best_auc is None or val_auc > best_auc:
            best = params.copy()
            if val_auc is not None:
                best_auc = val_auc
    return TrainResult(params=best, log=history, best_val_auc=best_auc)


@cache
def _feature_names(prefix: str, length: int) -> tuple[str, ...]:
    """The keys ``prefix_0`` ... of a vector's entries in an ensemble row,
    one tuple shared by every row."""
    return tuple(f"{prefix}_{i}" for i in range(length))


def ensemble_features(
    features: dict[str, float],
    user_emb: np.ndarray,
    source_emb: np.ndarray,
    target_emb: np.ndarray,
    hidden: np.ndarray,
) -> dict[str, float]:
    row = dict(features)
    for prefix, vec in (("uemb", user_emb), ("csrc", source_emb), ("ctgt", target_emb), ("hid", hidden)):
        row.update(zip(_feature_names(prefix, len(vec)), vec.tolist()))
    return row


def evaluate(corpus: Corpus, lexicon: Lexicon, dataset: PredictionDataset, result: TrainResult,
             *, vocab_size: int, trees: int, seed: int) -> dict:
    """predict.json: the split sizes, the backoff count, the LSTM's best
    validation AUC and the test AUCs of the LSTM and of forests on the
    baseline and the ensemble features. Every link's sequence enters one
    batched LSTM forward (``mean_hidden``)."""
    tfidf_vectors = community_tfidf_vectors(corpus, vocab_size)
    ys = dataset.labels.tolist()
    train_y = [ys[i] for i in dataset.train_idx]
    test_y = [ys[i] for i in dataset.test_idx]
    hiddens = mean_hidden(dataset.sequences, result.params)
    scores = readout(hiddens, result.params)
    feats = [baseline_features(corpus, link, lexicon, tfidf_vectors=tfidf_vectors)
             for link in dataset.links]

    def forest_auc(rows):
        if len(set(train_y)) < 2:  # no forest to train
            return None
        forest = train_forest([rows[i] for i in dataset.train_idx], train_y, trees=trees, seed=seed)
        return auc_or_none(test_y, lambda: forest.predict_proba(
            [rows[i] for i in dataset.test_idx])[:, forest.classes.index(1)])

    lstm_auc = auc_or_none(test_y, lambda: scores[dataset.test_idx])
    baseline_auc = forest_auc(feats)
    ensemble_rows = [ensemble_features(f, seq[0], seq[1], seq[2], h)
                     for f, seq, h in zip(feats, dataset.sequences, hiddens)]
    return {
        "examples": len(ys),
        "train": int(dataset.train_idx.size),
        "val": int(dataset.val_idx.size),
        "test": int(dataset.test_idx.size),
        "backoff_count": dataset.backoff_count,
        "best_val_auc": result.best_val_auc,
        "lstm_test_auc": lstm_auc,
        "baseline_test_auc": baseline_auc,
        "ensemble_test_auc": forest_auc(ensemble_rows),
    }
