import hashlib
import json
import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from intercom.corpus import DAY, extract_crosslinks, load_events, member_window
from intercom.lexicon import builtin_lexicon
from intercom.mobilization import baseline_ratio, detect, measure
from intercom.sentiment import extract_text_features
from intercom.synth import SynthError, SynthSpec, _body, generate_corpus


def generate_sentiment_examples(n: int, seed: int = 0, separable: bool = True) -> list[tuple[str, str]]:
    """(text, label) pairs; anger-dense texts are labeled negative. With
    separable=False the labels are shuffled independently of the texts."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        negative = rng.random() < 0.5
        anger_prob = rng.uniform(0.4, 0.7) if negative else rng.uniform(0.0, 0.05)
        n_tokens = int(rng.integers(6, 20))
        text = _body(rng, anger_prob, n_tokens)
        if rng.random() < 0.3:
            text += "!"
        examples.append((text, "negative" if negative else "neutral"))
    if not separable:
        labels = [lab for _, lab in examples]
        rng.shuffle(labels)
        examples = [(text, lab) for (text, _), lab in zip(examples, labels)]
    return examples


def small_spec(**kwargs):
    defaults = dict(n_communities=4, n_crosslinks=8, background_posts_per_community=10,
                    background_comments_per_user=6, seed=0)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


# sha256 of (events.jsonl, manifest.json): the generator's own bytes, so a
# refactor of the synth that moves a single draw fails here first
SYNTH_DIGESTS = {
    "default-seed0": ("83702f6876b261add4cb0b1ef487547c20d261599ef4a3b31bb935259c1be19e",
                      "ed7b03c1abf90700985aa84e46012c82ba21adb69f1c768c4c1c760e787e4716"),
    "default-seed1": ("9b29f9b15e9a15f8b8f34b3887c5176b58f86f9662bcd972112a22a86e946ba1",
                      "b43d7ded1d714f06a0d3a9be91e38196ffabf86fc0608494141903f68a3b1d3d"),
    "default-seed2": ("946f8a5bf762a5a8f38f79cfb3fe46ea60f244f5f42fd82eae72ebec549cf249",
                      "7a473be07120335666c915172bcfe7d7ae5bb0305334a5cc26f25c2b1c0869c6"),
    "small-seed3": ("234eec6dbae8ccf5aa7d9847b0451ab66be5eb4b1bbf61543f31fca6b200a075",
                    "1c57fcda01ae09908b512821f16ea079b7d559fdd557ed2b4cc3a89d6463cfd8"),
}


@pytest.mark.parametrize("name, spec", [
    ("default-seed0", SynthSpec(seed=0)),
    ("default-seed1", SynthSpec(seed=1)),
    ("default-seed2", SynthSpec(seed=2)),
    ("small-seed3", small_spec(seed=3)),
])
def test_generator_bytes_pinned(tmp_path, name, spec):
    generate_corpus(spec, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("events.jsonl", "manifest.json"))
    assert digests == SYNTH_DIGESTS[name]


def test_zero_crosslinks_empty_manifest(tmp_path):
    spec = small_spec(n_crosslinks=0)
    _, manifest = generate_corpus(spec, tmp_path)
    assert manifest["links"] == []
    assert manifest["counts"]["mobilizations"] == 0


def test_generation_deterministic(tmp_path):
    spec = small_spec(seed=11)
    path_a, _ = generate_corpus(spec, tmp_path / "a")
    path_b, _ = generate_corpus(small_spec(seed=11), tmp_path / "b")
    assert path_a.read_bytes() == path_b.read_bytes()
    assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()
    path_c, _ = generate_corpus(small_spec(seed=12), tmp_path / "c")
    assert path_a.read_bytes() != path_c.read_bytes()


def test_infeasible_specs_rejected(tmp_path):
    with pytest.raises(SynthError):
        generate_corpus(small_spec(users_per_community=3), tmp_path)
    with pytest.raises(SynthError):
        generate_corpus(small_spec(attackers_per_link=0), tmp_path)
    with pytest.raises(SynthError):
        generate_corpus(small_spec(n_communities=1), tmp_path)
    with pytest.raises(SynthError, match="^need at least 3 communities$"):
        generate_corpus(small_spec(n_communities=2), tmp_path)
    with pytest.raises(SynthError, match="^first_link_day must be >= 20$"):
        generate_corpus(small_spec(first_link_day=19), tmp_path)
    with pytest.raises(SynthError):
        generate_corpus(small_spec(burst_ratio=-1), tmp_path)


@pytest.mark.parametrize("ratio", ["burst_ratio", "quiet_ratio", "matched_ratio"])
def test_after_window_comments_need_attackers(tmp_path, ratio):
    # at ratio 0.1 a link plants no after-window comment, at 3.0 some
    ratios = {"burst_ratio": 0.1, "quiet_ratio": 0.1, "matched_ratio": 0.1}
    generate_corpus(small_spec(attackers_per_link=0, **ratios), tmp_path / "none")
    with pytest.raises(SynthError, match=f"^{ratio} plants after-window comments but attackers_per_link is 0$"):
        generate_corpus(small_spec(attackers_per_link=0, **{**ratios, ratio: 3.0}), tmp_path / "some")


@pytest.mark.parametrize("field", ["mobilization_fraction", "burst_ratio", "quiet_ratio",
                                   "matched_ratio", "negative_fraction"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_validate_names_a_non_finite_float(field, value):
    with pytest.raises(SynthError, match=f"^{field} must be finite$"):
        small_spec(**{field: value}).validate()


def test_corpus_loads_cleanly(tmp_path):
    events_path, manifest = generate_corpus(small_spec(), tmp_path)
    corpus = load_events(events_path)
    assert corpus.stats.rejected == 0
    assert corpus.stats.dangling_comments == 0
    assert corpus.stats.posts == manifest["counts"]["posts"]
    assert corpus.stats.comments == manifest["counts"]["comments"]


def test_planted_links_extracted_exactly(tmp_path):
    events_path, manifest = generate_corpus(small_spec(), tmp_path)
    corpus = load_events(events_path)
    links = extract_crosslinks(corpus)
    assert {l.source_post for l in links} == {m["source_post"] for m in manifest["links"]}
    by_source = {m["source_post"]: m for m in manifest["links"]}
    for link in links:
        planted = by_source[link.source_post]
        assert link.target_post == planted["target_post"]
        assert link.source_community == planted["source_community"]
        assert link.target_community == planted["target_community"]
        assert link.t0 == pytest.approx(planted["t0"])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_communities=st.integers(2, 6), pre_comments=st.integers(0, 6),
       attackers_per_link=st.integers(0, 8), defenders_per_link=st.integers(0, 6),
       first_link_day=st.integers(0, 60))
@example(seed=3, n_communities=4, pre_comments=4, attackers_per_link=6, defenders_per_link=4, first_link_day=40)
def test_detector_counts_match_manifest(**fields):
    spec = small_spec(**fields)
    try:
        spec.validate()
    except SynthError:
        reject()
    with tempfile.TemporaryDirectory() as out:
        events_path, manifest = generate_corpus(spec, out)
        corpus = load_events(events_path)
        with open(events_path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
    post_times = {e["id"]: e["timestamp"] for e in events if e["kind"] == "post"}
    comment_times = defaultdict(list)  # (author, community) -> comment timestamps
    for event in events:
        if event["kind"] == "comment":  # later than its thread's post
            assert event["timestamp"] > post_times[event["thread_id"]]
            comment_times[event["author"], event["community"]].append(event["timestamp"])
    links = extract_crosslinks(corpus)
    by_source = {m["source_post"]: m for m in manifest["links"]}
    baseline = manifest["planted_matched_ratio"]
    assert len(links) == len(by_source)
    for link, counts in zip(links, measure(corpus, links)):
        planted = by_source[link.source_post]
        record = detect(counts, baseline)
        assert (record.before_count, record.after_count) == (
            planted["before_count"], planted["after_count"])
        assert record.ratio == pytest.approx(planted["planted_ratio"])
        assert record.attackers == set(planted["attackers"])
        assert record.defenders == set(planted["defenders"])
        assert (record.matched_before, record.matched_after) == (
            planted["matched_before"], planted["matched_after"])
        # each planted participant is a member by a comment in the window
        # that lies 3 or more days before t0
        lo, hi = member_window(link)
        for community, users in ((link.source_community, planted["attackers"]),
                                 (link.target_community, planted["defenders"])):
            for user in users:
                assert any(lo <= ts < hi and link.t0 - ts >= 3 * DAY
                           for ts in comment_times[user, community]), (user, community)


def test_baseline_recovered_and_verdicts_match(tmp_path):
    # generator tuned to matched ratio 1.0, hot ratio 5: planted verdicts recovered
    spec = small_spec(seed=5, matched_ratio=1.0, burst_ratio=5.0, quiet_ratio=0.5)
    events_path, manifest = generate_corpus(spec, tmp_path)
    corpus = load_events(events_path)
    links = extract_crosslinks(corpus)
    baseline = baseline_ratio(measured := measure(corpus, links))
    assert baseline == pytest.approx(manifest["planted_matched_ratio"], abs=0.1)
    by_source = {m["source_post"]: m for m in manifest["links"]}
    for link, counts in zip(links, measured):
        record = detect(counts, baseline)
        assert (record.verdict == "mobilization") == by_source[link.source_post]["mobilization"]


def test_sentiment_labels_and_bodies(tmp_path):
    spec = small_spec(seed=7, negative_fraction=0.5)
    events_path, manifest = generate_corpus(spec, tmp_path)
    corpus = load_events(events_path)
    lexicon = builtin_lexicon()
    labels = {m["sentiment"] for m in manifest["links"]}
    assert labels == {"negative", "neutral"}
    for planted in manifest["links"]:
        body = corpus.posts[planted["source_post"]].body
        rate = extract_text_features(body, lexicon)["lex_anger"]
        if planted["sentiment"] == "negative":
            assert rate > 0.2
        else:
            assert rate < 0.2


def test_sentiment_examples_generator():
    separable = generate_sentiment_examples(200, seed=0)
    assert len(separable) == 200
    assert {label for _, label in separable} == {"negative", "neutral"}
    assert separable == generate_sentiment_examples(200, seed=0)
    shuffled = generate_sentiment_examples(200, seed=0, separable=False)
    assert sorted(l for _, l in shuffled) == sorted(l for _, l in separable)
