import numpy as np
import pytest

from intercom import lexicon as lexicon_mod, sentiment
from intercom.corpus import extract_crosslinks
from intercom.lexicon import Lexicon, builtin_lexicon
from intercom.sentiment import (
    community_tfidf_vectors,
    crosslink_features,
    extract_text_features,
    flesch_reading_ease,
    predict_sentiment,
    sparse_cosine,
    strip_shared_words,
    tokenize,
    top_vocabulary,
)
from intercom.forest import train_forest

from conftest import BASE, corpus_from, post


@pytest.fixture
def lexicon():
    return Lexicon(name="test", categories={"anger": {"hate"}, "positive": {"joy"}})


def test_top_vocabulary_ranks_by_count_then_token():
    docs = [["b", "a", "c"], ["c", "b"], ["d"]]
    assert top_vocabulary(docs, 2) == {"b", "c"}
    assert top_vocabulary(docs, 3) == {"a", "b", "c"}
    assert top_vocabulary(iter(docs), 10) == {"a", "b", "c", "d"}


def test_strip_shared_words():
    assert strip_shared_words("come look at idiots", "idiots") == "come look at"
    assert strip_shared_words("alpha beta", "gamma delta") == "alpha beta"
    assert strip_shared_words("same words", "same words here") == ""


def test_strip_shared_words_case_insensitive():
    assert strip_shared_words("Come LOOK at IDIOTS", "idiots look") == "come at"


def test_features_empty_text(lexicon):
    fv = extract_text_features("", lexicon)
    assert all(v == 0.0 for v in fv.values())


def test_features_lexicon_rates(lexicon):
    fv = extract_text_features("hate hate joy", lexicon)
    assert fv["lex_anger"] == pytest.approx(2 / 3)
    assert fv["lex_positive"] == pytest.approx(1 / 3)
    assert fv["token_count"] == 3


def test_features_word_length_and_punctuation(lexicon):
    fv = extract_text_features("aa bb!!", lexicon)
    assert fv["avg_word_len"] == pytest.approx(2.0)
    assert fv["punct_exclam"] == 2


def test_features_bounded(lexicon):
    texts = ["hate joy hate", "nothing here", "a b c d!!! ??", ""]
    for text in texts:
        fv = extract_text_features(text, lexicon)
        assert 0.0 <= fv["lex_anger"] <= 1.0
        assert 0.0 <= fv["lex_positive"] <= 1.0
        assert all(np.isfinite(v) for v in fv.values())


def test_features_schema_stable(lexicon):
    a = extract_text_features("hate", lexicon)
    b = extract_text_features("", lexicon)
    assert tuple(a.keys()) == tuple(b.keys())


def test_flesch_reading_ease():
    # one sentence, two one-syllable words: 206.835 - 1.015*2 - 84.6*1
    assert flesch_reading_ease("cat dog.") == pytest.approx(206.835 - 2.03 - 84.6)


def test_tokenize():
    assert tokenize("Don't panic, IDIOTS!") == ["don't", "panic", "idiots"]


def _three_community_corpus(text_a, text_b):
    return corpus_from([
        post("p1", "u", "A", BASE, body=text_a),
        post("p2", "u", "B", BASE + 1, body=text_b),
        post("p3", "u", "C", BASE + 2, body="completely separate topic zone"),
    ])


def similarity(corpus, a, b, vocab_size=10000):
    """The cosine of two communities' tf-idf vectors, as the predictor takes
    it: a community without posts has the empty vector."""
    vectors = community_tfidf_vectors(corpus, vocab_size)
    return sparse_cosine(vectors.get(a, {}), vectors.get(b, {}))


def test_tfidf_identical_text():
    corpus = _three_community_corpus("alpha beta gamma", "alpha beta gamma")
    assert similarity(corpus, "A", "B") == pytest.approx(1.0)


def test_tfidf_disjoint_vocabulary():
    corpus = _three_community_corpus("alpha beta", "delta epsilon")
    assert similarity(corpus, "A", "B") == pytest.approx(0.0)


def test_tfidf_symmetric_and_bounded():
    corpus = _three_community_corpus("alpha beta shared words", "shared words here too")
    ab = similarity(corpus, "A", "B")
    ba = similarity(corpus, "B", "A")
    assert ab == pytest.approx(ba)
    assert 0.0 <= ab <= 1.0


def test_tfidf_scale_invariance():
    # duplicating every post in one community leaves the vector direction alone
    text_a, text_b = "alpha beta shared", "shared beta other"
    corpus1 = _three_community_corpus(text_a, text_b)
    corpus2 = corpus_from([
        post("p1", "u", "A", BASE, body=text_a),
        post("p1b", "u", "A", BASE + 5, body=text_a),
        post("p2", "u", "B", BASE + 1, body=text_b),
        post("p3", "u", "C", BASE + 2, body="completely separate topic zone"),
    ])
    assert similarity(corpus1, "A", "B") == pytest.approx(
        similarity(corpus2, "A", "B"))


def test_tfidf_empty_community():
    corpus = _three_community_corpus("alpha", "beta")
    assert similarity(corpus, "A", "nowhere") == 0.0


def test_tfidf_vocab_cap():
    # vocabulary restricted to the single most frequent word
    corpus = _three_community_corpus("alpha alpha beta", "alpha gamma gamma")
    full = similarity(corpus, "A", "B")
    capped = similarity(corpus, "A", "B", vocab_size=1)
    assert 0.0 <= capped <= 1.0
    assert capped != pytest.approx(full) or full in (0.0, 1.0)


def test_builtin_lexicon_loads():
    lex = builtin_lexicon()
    assert {"anger", "positive", "negative"} <= set(lex.categories)
    assert "hate" in lex.categories["anger"]


def test_the_sentiment_module_gives_the_lexicon_modules_loaders():
    # perfbench/fixtures.py imports builtin_lexicon from intercom.sentiment
    for name in ("Lexicon", "builtin_lexicon", "load_lexicon"):
        assert getattr(sentiment, name) is getattr(lexicon_mod, name)


def test_lexicon_rejects_empty_category():
    with pytest.raises(ValueError):
        Lexicon(name="bad", categories={"anger": set()})


def test_predict_sentiment_on_separable_fixture(lexicon):
    # generator oracle: anger-dense bodies are negative, others neutral
    rng = np.random.default_rng(0)
    X, y = [], []
    for i in range(300):
        negative = i % 2 == 0
        n = int(rng.integers(5, 12))
        words = ["hate" if (negative and rng.random() < 0.6) else "joy" for _ in range(n)]
        X.append(extract_text_features(" ".join(words), lexicon))
        y.append("negative" if negative else "neutral")
    forest = train_forest(X, y, trees=30, seed=1)

    corpus = corpus_from([
        post("tgt", "bob", "B", BASE, body="calm discussion thread"),
        post("src", "alice", "A", BASE + 3600,
             body="hate hate hate this r/B/comments/tgt hate hate hate hate"),
    ])
    link = extract_crosslinks(corpus)[0]
    [(label, p_neg)] = predict_sentiment(forest, [link], corpus, lexicon)
    assert label == "negative"
    assert p_neg > 0.5


def test_predict_sentiment_empty_body_degenerate(lexicon):
    # an empty body takes the degenerate path: the returned probability is
    # the forest's training prior for the all-zero feature region
    rng = np.random.default_rng(1)
    X, y = [], []
    for i in range(200):
        negative = i % 2 == 0
        words = ["hate" if (negative and rng.random() < 0.7) else "joy"
                 for _ in range(int(rng.integers(4, 10)))]
        X.append(extract_text_features(" ".join(words), lexicon))
        y.append("negative" if negative else "neutral")
    forest = train_forest(X, y, trees=20, seed=0)
    corpus = corpus_from([
        post("tgt", "bob", "B", BASE, body="whatever original"),
        post("src", "alice", "A", BASE + 3600, body=""),
    ])
    from intercom.corpus import CrossLink

    link = CrossLink(source_post="src", target_post="tgt", source_community="A",
                     target_community="B", t0=BASE + 3600, author="alice")
    [(label, p_neg)] = predict_sentiment(forest, [link], corpus, lexicon)
    assert 0.0 <= p_neg <= 1.0
    region_proba = forest.predict_proba([extract_text_features("", lexicon)])[0]
    assert p_neg == pytest.approx(region_proba[forest.classes.index("negative")])
    assert label == ("negative" if p_neg > 0.5 else "neutral")


def test_crosslink_features_strip_quoted_text(lexicon):
    corpus = corpus_from([
        post("tgt", "bob", "B", BASE, body="hate filled original"),
        post("src", "alice", "A", BASE + 3600, body="hate filled original r/B/comments/tgt joy"),
    ])
    link = extract_crosslinks(corpus)[0]
    fv = crosslink_features(corpus, link, lexicon)
    # the quoted anger word is shared with the target and stripped
    assert fv["lex_anger"] == 0.0
    assert fv["lex_positive"] > 0.0


def test_predict_sentiment_on_links_equals_one_call_per_link(lexicon):
    rng = np.random.default_rng(2)
    X, y = [], []
    for i in range(200):
        words = rng.choice(["hate", "joy", "calm", "well"], size=int(rng.integers(1, 12)))
        X.append(extract_text_features(" ".join(words) + "!" * int(rng.integers(0, 3)), lexicon))
        y.append("negative" if rng.random() < 0.3 + 0.4 * (i % 2) else "neutral")
    forest = train_forest(X, y, trees=25, seed=3)
    events = []
    for i in range(40):
        words = rng.choice(["hate", "joy", "calm", "well", "r"], size=int(rng.integers(0, 9)))
        events.append(post(f"t{i}", "bob", "B", BASE + i, body="joy calm"))
        events.append(post(f"s{i}", "alice", "A", BASE + 3600 + i,
                           body=" ".join(words) + f" r/B/comments/t{i}" + "!" * (i % 4)))
    corpus = corpus_from(events)
    links = extract_crosslinks(corpus)
    assert len(links) == 40
    alone = [pair for link in links for pair in predict_sentiment(forest, [link], corpus, lexicon)]
    together = predict_sentiment(forest, links, corpus, lexicon)
    assert [(label, p.hex()) for label, p in together] == [(label, p.hex()) for label, p in alone]
    assert all(type(p) is float for _label, p in together)
    assert len({p for _label, p in alone}) > 3 and {label for label, _p in alone} == {"negative", "neutral"}
    assert predict_sentiment(forest, tuple(links[:1]), corpus, lexicon) == alone[:1]
    assert predict_sentiment(forest, [], corpus, lexicon) == []
