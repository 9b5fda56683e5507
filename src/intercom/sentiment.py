"""Source-post sentiment features and classifier, plus community tf-idf similarity."""
from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

# by module, so that the lexicon (the input digest of every report) loads
# without the corpus or the forest, and without numpy
from . import corpus as corpus_mod
from . import forest as forest_mod

TOKEN_RE = re.compile(r"[a-z0-9']+")
SENTENCE_RE = re.compile(r"[.!?]+")
PUNCT_MARKS = {
    "period": ".",
    "comma": ",",
    "exclam": "!",
    "question": "?",
    "semicolon": ";",
    "colon": ":",
    "apostrophe": "'",
    "quote": '"',
    "lparen": "(",
    "rparen": ")",
    "dash": "-",
}

LABEL_NEGATIVE = "negative"
LABEL_NEUTRAL = "neutral"


@dataclass
class Lexicon:
    name: str
    categories: dict[str, set[str]]

    def __post_init__(self):
        for cat, words in self.categories.items():
            if not words:
                raise ValueError(f"lexicon category {cat!r} is empty")
            self.categories[cat] = {w.lower() for w in words}


def load_lexicon(directory, name: str | None = None) -> Lexicon:
    """Build a Lexicon from a directory of ``<category>.txt`` word lists."""
    directory = Path(directory)
    categories = {}
    for path in sorted(directory.glob("*.txt")):
        words = {line.strip().lower() for line in path.read_text(encoding="utf-8").splitlines()}
        words.discard("")
        if words:
            categories[path.stem] = words
    if not categories:
        raise ValueError(f"no lexicon categories found in {directory}")
    return Lexicon(name=name or directory.name, categories=categories)


def builtin_lexicon() -> Lexicon:
    """The small open word lists shipped with the package."""
    root = resources.files("intercom").joinpath("data/lexicons")
    with resources.as_file(root) as path:
        return load_lexicon(path, name="builtin")


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def strip_shared_words(source_text: str, target_text: str) -> str:
    """Drop source tokens that also occur in the target, preserving order.

    Used before feature extraction because the source post may quote the
    target post.
    """
    target_vocab = set(tokenize(target_text))
    survivors = [tok for tok in TOKEN_RE.findall(source_text.lower()) if tok not in target_vocab]
    return " ".join(survivors)


def _syllables(word: str) -> int:
    groups = re.findall(r"[aeiouy]+", word)
    return max(1, len(groups))


def flesch_reading_ease(text: str) -> float:
    tokens = tokenize(text)
    if not tokens:
        return 0.0
    sentences = max(1, len([s for s in SENTENCE_RE.split(text) if s.strip()]))
    syllables = sum(_syllables(t) for t in tokens)
    return 206.835 - 1.015 * (len(tokens) / sentences) - 84.6 * (syllables / len(tokens))


def extract_text_features(text: str, lexicon: Lexicon) -> dict[str, float]:
    """Lexicon rates and stylistic statistics for one text.

    Empty text yields an all-zero vector with the same schema.
    """
    tokens = tokenize(text)
    n = len(tokens)
    features: dict[str, float] = {}
    for cat in sorted(lexicon.categories):
        words = lexicon.categories[cat]
        hits = sum(1 for t in tokens if t in words)
        features[f"lex_{cat}"] = hits / n if n else 0.0
    features["avg_word_len"] = sum(len(t) for t in tokens) / n if n else 0.0
    features["readability"] = flesch_reading_ease(text) if n else 0.0
    for mark_name, mark in PUNCT_MARKS.items():
        features[f"punct_{mark_name}"] = float(text.count(mark)) if n else 0.0
    features["token_count"] = float(n)
    return features


def crosslink_features(corpus: corpus_mod.Corpus, link: corpus_mod.CrossLink,
                       lexicon: Lexicon) -> dict[str, float]:
    """Feature vector for a cross-linking post, with target-shared words removed."""
    source_body = corpus.posts[link.source_post].body
    target_body = corpus.posts[link.target_post].body
    return extract_text_features(strip_shared_words(source_body, target_body), lexicon)


def predict_sentiment(
    forest: forest_mod.Forest, links: Sequence[corpus_mod.CrossLink], corpus: corpus_mod.Corpus,
    lexicon: Lexicon,
) -> list[tuple[str, float]]:
    """(label, P(negative)) of each cross-link's source post, in input order,
    from one ``predict_proba`` over all their rows; each row's probabilities
    are the ones it gets alone."""
    if LABEL_NEGATIVE not in forest.classes:
        raise forest_mod.SchemaError("model was not trained with a 'negative' class")
    column = forest.classes.index(LABEL_NEGATIVE)
    proba = forest.predict_proba([crosslink_features(corpus, link, lexicon) for link in links])
    return [((LABEL_NEGATIVE if p_neg > 0.5 else LABEL_NEUTRAL), p_neg)
            for p_neg in proba[:, column].tolist()]


def _community_tokens(corpus: corpus_mod.Corpus) -> dict[str, list[str]]:
    docs = {}
    for community, posts in corpus.community_posts.items():
        tokens: list[str] = []
        for p in posts:
            tokens.extend(tokenize(p.body))
        docs[community] = tokens
    return docs


def top_vocabulary(docs: Iterable[list[str]], size: int) -> set[str]:
    """The ``size`` most frequent tokens of ``docs``, ties broken toward the
    smaller token."""
    total = Counter()
    for tokens in docs:
        total.update(tokens)
    return {w for w, _ in sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))[:size]}


def community_tfidf_vectors(corpus: corpus_mod.Corpus,
                            vocab_size: int = 10000) -> dict[str, dict[str, float]]:
    """tf-idf vector per community over the top-``vocab_size`` corpus words.

    tf is the term count normalized by document length; idf = ln(N/df) over
    community documents.
    """
    docs = _community_tokens(corpus)
    df = Counter()
    for tokens in docs.values():
        df.update(set(tokens))
    vocab = top_vocabulary(docs.values(), vocab_size)
    n_docs = len(docs)
    vectors = {}
    for community, tokens in docs.items():
        counts: dict[str, int] = {}
        for t in tokens:
            if t in vocab:
                counts[t] = counts.get(t, 0) + 1
        length = len(tokens)
        vec = {}
        if length:
            for t, c in counts.items():
                idf = math.log(n_docs / df[t])
                if idf > 0.0:
                    vec[t] = (c / length) * idf
        vectors[community] = vec
    return vectors


def sparse_cosine(a: dict[str, float], b: dict[str, float]) -> float:
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    return dot / (na * nb)

