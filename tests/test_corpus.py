import gc
import json
import logging
import random
import weakref

import pytest

from intercom import corpus as corpus_mod
from intercom.corpus import (
    CorpusError,
    day_start,
    extract_crosslinks,
    load_events,
    members,
    remove_overlapping,
    user_activity,
)

from conftest import BASE, DAY, HOUR, comment, corpus_from, post, write_events


def test_load_empty_file(tmp_path):
    corpus = load_events(write_events(tmp_path / "events.jsonl", []))
    assert corpus.stats.posts == 0
    assert corpus.stats.comments == 0


def test_load_counts_and_thread_index(tmp_path):
    events = [
        post("p1", "u1", "A", BASE),
        post("p2", "u2", "A", BASE + 10),
        comment("c1", "u1", "A", BASE + 20, "p1"),
        comment("c2", "u2", "A", BASE + 30, "p1"),
        comment("c3", "u3", "A", BASE + 40, "p2"),
    ]
    corpus = load_events(write_events(tmp_path / "events.jsonl", events))
    assert (corpus.stats.posts, corpus.stats.comments) == (2, 3)
    assert set(corpus.thread_comments) == {"p1", "p2"}
    assert [c.id for c in corpus.thread_comments["p1"]] == ["c1", "c2"]


def test_load_missing_author_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "post", "id": "p1", "community": "A",
                             "timestamp": BASE, "body": ""}) + "\n")
        fh.write(json.dumps({"kind": "post", "id": "p2", "author": "u", "community": "A",
                             "timestamp": BASE, "body": ""}) + "\n")
    corpus = load_events(path)
    assert corpus.stats.rejected == 1
    assert corpus.stats.posts == 1


def test_load_malformed_and_unknown_fields(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps({"kind": "post", "id": "p1", "author": "u", "community": "A",
                             "timestamp": BASE, "body": "", "extra_field": 42}) + "\n")
        fh.write(json.dumps({"kind": "comment", "id": "c1", "author": "u", "community": "A",
                             "timestamp": BASE}) + "\n")  # comment without thread/parent
        fh.write(json.dumps({"kind": "post", "id": "p3", "author": "u", "community": "A",
                             "timestamp": -5, "body": ""}) + "\n")  # negative timestamp
    corpus = load_events(path)
    assert corpus.stats.posts == 1
    assert corpus.stats.rejected == 3


def test_load_rejects_non_finite_and_bool_timestamps(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "post", "id": "p0", "author": "u", "community": "A",
                             "timestamp": BASE}) + "\n")
        for i, raw in enumerate(("NaN", "Infinity", "-Infinity", "true", "false", "1" + "0" * 400)):
            fh.write('{"kind": "post", "id": "p%d", "author": "u", "community": "A", '
                     '"timestamp": %s}\n' % (i + 1, raw))
    corpus = load_events(path)
    assert list(corpus.posts) == ["p0"]
    assert corpus.stats.rejected == 6


def test_load_rejects_empty_names_and_names_with_whitespace(tmp_path):
    path = tmp_path / "events.jsonl"
    bad = [("a b", "A"), ("", "A"), ("u\t", "A"), ("\u00a0u", "A"), ("u", "A B"), ("u", ""),
           ("u", " A"), ("u", "A\n")]
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "post", "id": "p0", "author": "u_1", "community": "A-b",
                             "timestamp": BASE}) + "\n")
        for i, (author, community) in enumerate(bad):
            fh.write(json.dumps({"kind": "post", "id": f"p{i + 1}", "author": author,
                                 "community": community, "timestamp": BASE}) + "\n")
        fh.write(json.dumps({"kind": "comment", "id": "c1", "author": "x y", "community": "A-b",
                             "timestamp": BASE + 1, "thread_id": "p0", "parent_id": "p0"}) + "\n")
    corpus = load_events(path)
    assert list(corpus.posts) == ["p0"] and corpus.comments == {}
    assert corpus.stats.rejected == len(bad) + 1


def test_load_rejects_only_the_lines_that_are_not_utf8(tmp_path):
    path = tmp_path / "events.jsonl"
    row = {"kind": "post", "author": "u", "community": "A", "timestamp": BASE}
    with open(path, "wb") as fh:
        fh.write(json.dumps({**row, "id": "p0"}).encode("utf-8") + b"\n")
        fh.write(b'{"kind": "post", "id": "p1", "author": "u", "community": "A", '
                 b'"timestamp": 1, "body": "\xff"}\n')
        # a UTF-16 surrogate encoded in three bytes is not UTF-8 either
        fh.write(b'{"kind": "post", "id": "p2", "author": "u", "community": "A", '
                 b'"timestamp": 1, "body": "\xed\xa0\x80"}\r\n')
        fh.write(b"\x80\xfe\r")  # a lone carriage return still ends a line
        fh.write(json.dumps({**row, "id": "p3", "body": "caf\u00e9 \u2603"},
                            ensure_ascii=False).encode("utf-8") + b"\n")
    corpus = load_events(path)
    assert list(corpus.posts) == ["p0", "p3"]
    assert corpus.posts["p3"].body == "caf\u00e9 \u2603"
    assert (corpus.stats.lines, corpus.stats.rejected) == (5, 3)


def test_load_rejects_ids_and_names_that_are_not_strings_or_integers(tmp_path):
    path = tmp_path / "events.jsonl"
    post_row = {"kind": "post", "id": "p0", "author": "u", "community": "A", "timestamp": BASE}
    comment_row = {**post_row, "kind": "comment", "id": "c0", "thread_id": "p0", "parent_id": "p0"}
    rows = [post_row, comment_row,
            # integers stand for their decimal string, as before
            {**post_row, "id": 7, "author": 42, "community": -3},
            {**comment_row, "id": 8, "thread_id": 7, "parent_id": 7},
            # a post's thread_id and parent_id are ignored
            {**post_row, "id": "p9", "thread_id": {}, "parent_id": 1.5}]
    bad_values = [{}, [], ["p0"], True, False, 1.5, 1e400, 0.0]
    bad = [{**post_row, "id": f"x{i}", key: value}
           for key in ("id", "author", "community") for i, value in enumerate(bad_values)]
    bad += [{**comment_row, "id": f"y{i}", key: value}
            for key in ("thread_id", "parent_id") for i, value in enumerate(bad_values)]
    with open(path, "w") as fh:
        for row in rows + bad:
            fh.write(json.dumps(row) + "\n")
    corpus = load_events(path)
    assert list(corpus.posts) == ["p0", "7", "p9"]
    assert list(corpus.comments) == ["c0", "8"]
    assert corpus.posts["7"][1:4] == ("7", "42", "-3")
    assert corpus.comments["8"].thread_id == corpus.comments["8"].parent_id == "7"
    assert corpus.posts["p9"].thread_id is None
    assert (corpus.stats.lines, corpus.stats.rejected) == (len(rows) + len(bad), len(bad))
    assert corpus.stats.dangling_comments == 0
    # one string per name, shared by every event that names it
    assert corpus.posts["p9"].author is corpus.comments["c0"].author


def test_load_rejects_lines_json_cannot_decode_into_values(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "post", "id": "p0", "author": "u", "community": "A",
                             "timestamp": BASE}) + "\n")
        # an integer past the interpreter's digit limit, and nesting past its
        # recursion limit
        fh.write('{"kind": "post", "id": "p1", "author": "u", "community": "A", '
                 '"timestamp": %s}\n' % ("1" * 5000))
        fh.write('{"kind": "post", "id": "p2", "author": "u", "community": "A", '
                 '"timestamp": 1, "x": %s}\n' % ("[" * 100000 + "]" * 100000))
    corpus = load_events(path)
    assert list(corpus.posts) == ["p0"]
    assert corpus.stats.rejected == 2


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled):
    path = write_events(tmp_path / "events.jsonl", [post("p1", "u1", "A", BASE)])
    during = []

    def failing_index(*args):
        during.append(gc.isenabled())
        raise RuntimeError("index failed")

    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        load_events(path)
        assert gc.isenabled() is enabled
        with pytest.raises(CorpusError):
            load_events(tmp_path / "missing.jsonl")
        assert gc.isenabled() is enabled
        monkeypatch.setattr(corpus_mod, "_index", failing_index)
        with pytest.raises(RuntimeError, match="index failed"):
            load_events(path)
        assert gc.isenabled() is enabled
        assert during == [False]  # paused while the Corpus is built
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_load_rejects_names_of_other_json_types_before_and_after_a_seen_name(tmp_path):
    # a seen name is looked up in a dict of str names first: an array or an
    # object cannot be hashed, and a bool or float never equals a str key
    path = tmp_path / "events.jsonl"
    row = {"kind": "post", "author": "u", "community": "A", "timestamp": BASE}
    bad_values = [["u"], [], {"u": "u"}, {}, True, False, 1.0, 1.5, 0.0]
    bad = [{**row, "id": f"{key}{when}{i}", key: value}
           for when in ("before", "after") for key in ("author", "community")
           for i, value in enumerate(bad_values)]
    half = len(bad) // 2
    rows = bad[:half] + [{**row, "id": "p0"}, {**row, "id": "p1", "author": "1", "community": "0"}]
    with open(path, "w") as fh:
        for r in rows + bad[half:]:
            fh.write(json.dumps(r) + "\n")
    corpus = load_events(path)
    assert list(corpus.posts) == ["p0", "p1"]
    assert (corpus.stats.lines, corpus.stats.rejected) == (len(bad) + 2, len(bad))


def test_an_int_name_and_its_decimal_string_are_one_name(tmp_path):
    path = tmp_path / "events.jsonl"
    row = {"kind": "post", "timestamp": BASE}
    with open(path, "w") as fh:
        for pid, author, community in (("p0", "5", 7), ("p1", 5, "7"), ("p2", 5, 7), ("p3", "5", "7")):
            fh.write(json.dumps({**row, "id": pid, "author": author, "community": community}) + "\n")
    corpus = load_events(path)
    posts = list(corpus.posts.values())
    assert [(p.id, p.author, p.community) for p in posts] == [
        ("p0", "5", "7"), ("p1", "5", "7"), ("p2", "5", "7"), ("p3", "5", "7")]
    assert all(p.author is posts[0].author and p.community is posts[0].community for p in posts)
    assert corpus.stats.rejected == 0


def test_a_loaded_corpus_is_frozen_and_still_freed(tmp_path):
    events = [post(f"p{i}", f"u{i % 3}", "A", BASE + i) for i in range(50)]
    events += [comment(f"c{i}", f"u{i % 5}", "A", BASE + 100 + i, f"p{i}") for i in range(50)]
    path = write_events(tmp_path / "events.jsonl", events)
    before = gc.get_freeze_count()
    corpus = load_events(path)
    frozen = gc.get_freeze_count()
    assert frozen - before >= len(events)
    # the permanent generation is never collected, but the Corpus holds no
    # cycles: dropping the last reference frees it and its events
    ref = weakref.ref(corpus)
    del corpus
    assert ref() is None
    assert gc.get_freeze_count() <= frozen - len(events)


def test_only_a_successful_load_freezes(tmp_path, monkeypatch):
    path = write_events(tmp_path / "events.jsonl", [post("p1", "u1", "A", BASE)])
    freezes = []
    freeze = gc.freeze

    def counted_freeze():
        freezes.append(gc.get_freeze_count())
        freeze()

    monkeypatch.setattr(gc, "freeze", counted_freeze)
    before = gc.get_freeze_count()
    with pytest.raises(CorpusError):
        load_events(tmp_path / "missing.jsonl")
    with monkeypatch.context() as patch:
        patch.setattr(corpus_mod, "_index", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            load_events(path)
    assert freezes == [] and gc.get_freeze_count() <= before
    load_events(path)
    assert len(freezes) == 1


def test_load_unreadable_file(tmp_path):
    with pytest.raises(CorpusError):
        load_events(tmp_path / "missing.jsonl")


def test_duplicate_ids_rejected(tmp_path):
    events = [
        post("p1", "u1", "A", BASE),
        post("p1", "u2", "B", BASE + 10),
        comment("c1", "u1", "A", BASE + 20, "p1"),
        comment("c1", "u1", "A", BASE + 30, "p1"),
    ]
    corpus = load_events(write_events(tmp_path / "events.jsonl", events))
    assert corpus.stats.rejected == 2
    assert corpus.posts["p1"].author == "u1"


def test_dangling_comment_dropped(tmp_path):
    events = [
        post("p1", "u1", "A", BASE),
        comment("c1", "u1", "A", BASE + 10, "p1"),
        comment("c2", "u1", "A", BASE + 20, "nope"),
    ]
    corpus = load_events(write_events(tmp_path / "events.jsonl", events))
    assert corpus.stats.comments == 1
    assert corpus.stats.dangling_comments == 1


def test_crosslink_basic_match():
    corpus = corpus_from([
        post("x9", "bob", "B", BASE),
        post("s1", "alice", "A", BASE + HOUR,
             body="look at https://reddit.example/r/B/comments/x9 please"),
    ])
    links = extract_crosslinks(corpus)
    assert len(links) == 1
    link = links[0]
    assert (link.source_post, link.target_post) == ("s1", "x9")
    assert (link.source_community, link.target_community) == ("A", "B")
    assert link.t0 == BASE + HOUR
    assert link.author == "alice"


def test_crosslink_same_community_excluded():
    corpus = corpus_from([
        post("x9", "bob", "A", BASE),
        post("s1", "alice", "A", BASE + HOUR, body="see r/A/comments/x9"),
    ])
    assert extract_crosslinks(corpus) == []


def test_crosslink_unknown_target_dropped():
    corpus = corpus_from([
        post("s1", "alice", "A", BASE, body="see r/B/comments/ghost"),
    ])
    assert extract_crosslinks(corpus) == []


def test_crosslink_host_allowlist():
    corpus = corpus_from([
        post("x9", "bob", "B", BASE),
        post("s1", "alice", "A", BASE + 1,
             body="https://evil.example/r/B/comments/x9"),
        post("s2", "carol", "A", BASE + 2,
             body="https://reddit.example/r/B/comments/x9 again"),
    ])
    links = extract_crosslinks(corpus, host_allowlist=["reddit.example"], remove_overlaps=False)
    assert [l.source_post for l in links] == ["s2"]
    # bare r/... mentions are not filtered by the allowlist
    corpus2 = corpus_from([
        post("x9", "bob", "B", BASE),
        post("s1", "alice", "A", BASE + 1, body="view r/B/comments/x9 now"),
    ])
    assert len(extract_crosslinks(corpus2, host_allowlist=["reddit.example"])) == 1


def test_crosslink_one_per_source_post():
    corpus = corpus_from([
        post("x1", "bob", "B", BASE),
        post("x2", "bob", "C", BASE + 1),
        post("s1", "alice", "A", BASE + HOUR,
             body="r/B/comments/x1 and also r/C/comments/x2"),
    ])
    links = extract_crosslinks(corpus)
    assert len(links) == 1
    assert links[0].target_post == "x1"


def test_crosslink_counts_unknown_targets_and_overlap_removals():
    # s1 names two unknown posts before t1; s2 names one; s3 and s4 link t1
    # within s1's window, s5 links t1 a day later and t2 is linked once
    corpus = corpus_from([
        post("t1", "bob", "B", BASE),
        post("t2", "bob", "C", BASE),
        post("s1", "u", "A", BASE + 30 * HOUR,
             body="r/B/comments/gone r/B/comments/nope r/B/comments/t1"),
        post("s2", "u", "A", BASE + 31 * HOUR, body="r/C/comments/gone r/C/comments/t2"),
        post("s3", "u", "A", BASE + 32 * HOUR, body="r/B/comments/t1"),
        post("s4", "u", "A", BASE + 40 * HOUR, body="r/B/comments/t1"),
        post("s5", "u", "A", BASE + 54 * HOUR, body="r/B/comments/t1"),
    ])
    counts = {}
    links = extract_crosslinks(corpus, counts=counts)
    assert [l.source_post for l in links] == ["s1", "s2", "s5"]
    assert counts == {"unknown_target": 3, "overlap_removed": 2}
    counts = {}
    assert len(extract_crosslinks(corpus, remove_overlaps=False, counts=counts)) == 5
    assert counts == {"unknown_target": 3, "overlap_removed": 0}


def test_overlap_removal_keeps_earlier():
    # two links to the same target 1 h apart: windows intersect, earlier kept
    corpus = corpus_from([
        post("t1", "bob", "B", BASE),
        post("s1", "alice", "A", BASE + 30 * HOUR, body="r/B/comments/t1"),
        post("s2", "carol", "A", BASE + 31 * HOUR, body="r/B/comments/t1"),
    ])
    links = extract_crosslinks(corpus)
    assert [l.source_post for l in links] == ["s1"]
    raw = extract_crosslinks(corpus, remove_overlaps=False)
    assert len(raw) == 2


def test_overlap_removal_nonintersecting_kept():
    # 24 h apart: half-open +/-12 h windows do not intersect
    corpus = corpus_from([
        post("t1", "bob", "B", BASE),
        post("s1", "alice", "A", BASE + 30 * HOUR, body="r/B/comments/t1"),
        post("s2", "carol", "A", BASE + 54 * HOUR, body="r/B/comments/t1"),
    ])
    assert len(extract_crosslinks(corpus)) == 2


def test_overlap_removal_greedy_chain():
    # worked by hand: links at 0h, 20h, 30h to one target; 0h kept, 20h
    # dropped (overlaps 0h), 30h dropped? 30h - 0h = 30h >= 24h -> kept
    times = [0, 20, 30]
    events = [post("t1", "bob", "B", BASE)]
    for i, hours in enumerate(times):
        events.append(post(f"s{i}", "u", "A", BASE + 100 * HOUR + hours * HOUR,
                           body="r/B/comments/t1"))
    links = extract_crosslinks(corpus_from(events), remove_overlaps=False)
    kept = remove_overlapping(links)
    assert [l.source_post for l in kept] == ["s0", "s2"]


def test_extract_deterministic_and_sorted():
    events = [post("t1", "bob", "B", BASE), post("t2", "eve", "C", BASE + 1)]
    for i in range(20):
        target = "t1" if i % 2 else "t2"
        events.append(post(f"s{i:02d}", "u", "A", BASE + (40 + 25 * i) * HOUR,
                           body=f"r/X/comments/{target}"))
    corpus = corpus_from(events)
    first = extract_crosslinks(corpus)
    second = extract_crosslinks(corpus)
    assert first == second
    assert all(a.t0 <= b.t0 for a, b in zip(first, second[1:]))


def test_members_window_and_exclusion():
    d = BASE + 60 * DAY
    corpus = corpus_from([
        post("p1", "x", "C", BASE),
        post("p2", "x", "D", BASE),
        comment("c1", "u_in", "C", d - 5 * DAY, "p1"),
        comment("c2", "u_both", "C", d - 5 * DAY, "p1"),
        comment("c3", "u_both", "D", d - 4 * DAY, "p2"),
        comment("c4", "u_old", "C", d - 31 * DAY, "p1"),
        comment("c5", "u_edge", "C", d, "p1"),  # at d: outside half-open window
    ])
    assert members(corpus, "C", d, "D") == {"u_in"}
    assert members(corpus, "C", d) == {"u_in", "u_both"}
    assert members(corpus, "nowhere", d, "D") == set()


def test_members_unknown_community_warns(caplog):
    d = BASE + 60 * DAY
    corpus = corpus_from([post("p1", "x", "C", BASE), comment("c1", "u1", "C", d - DAY, "p1")])
    with caplog.at_level(logging.WARNING, logger="intercom.corpus"):
        assert members(corpus, "nowhere", d) == set()
        assert members(corpus, "nowhere", d, "C") == set()
    assert caplog.text.count("members(): unknown community 'nowhere'") == 2
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="intercom.corpus"):
        # an unknown excluded community excludes nobody, silently
        assert members(corpus, "C", d, "nowhere") == {"u1"}
    assert caplog.text == ""


def test_members_mutually_exclusive():
    rng = random.Random(7)
    events = [post("p1", "x", "C", BASE), post("p2", "x", "D", BASE)]
    d = BASE + 40 * DAY
    for i in range(40):
        user = f"u{i}"
        if rng.random() < 0.6:
            events.append(comment(f"cc{i}", user, "C", d - rng.uniform(1, 29) * DAY, "p1"))
        if rng.random() < 0.6:
            events.append(comment(f"cd{i}", user, "D", d - rng.uniform(1, 29) * DAY, "p2"))
    corpus = corpus_from(events)
    assert members(corpus, "C", d, "D") & members(corpus, "D", d, "C") == set()


def test_time_shift_invariance():
    shift = 12345.0
    d = BASE + 40 * DAY
    base_events = [
        post("p1", "x", "C", BASE),
        comment("c1", "u1", "C", d - 3 * DAY, "p1"),
        comment("c2", "u2", "C", d - 29 * DAY, "p1"),
        post("t1", "bob", "B", BASE + 1),
        post("s1", "alice", "A", d, body="r/B/comments/t1"),
    ]
    shifted = []
    for e in base_events:
        shifted.append(post(e.id, e.author, e.community, e.timestamp + shift, e.body)
                       if e.kind == "post"
                       else comment(e.id, e.author, e.community, e.timestamp + shift,
                                    e.thread_id, e.parent_id, e.body))
    c1, c2 = corpus_from(base_events), corpus_from(shifted)
    assert members(c1, "C", d) == members(c2, "C", d + shift)
    t1 = extract_crosslinks(c1)[0].t0
    t2 = extract_crosslinks(c2)[0].t0
    assert t2 - t1 == shift


def test_user_activity():
    events = [post("p1", "x", "C", BASE), post("p2", "x", "D", BASE)]
    for i in range(3):
        events.append(comment(f"c{i}", "u", "C", BASE + DAY + i, "p1"))
    for i in range(7):
        events.append(comment(f"d{i}", "u", "D", BASE + DAY + 100 + i, "p2"))
    corpus = corpus_from(events)
    assert user_activity(corpus, "u", "C", (BASE, BASE + 2 * DAY)) == (3, 10, 0.30)
    assert user_activity(corpus, "ghost", "C", (BASE, BASE + DAY)) == (0, 0, 0.0)
    with pytest.raises(ValueError):
        user_activity(corpus, "u", "C", (BASE + DAY, BASE))


def test_day_start():
    assert day_start(BASE + 5 * HOUR) == BASE
    assert day_start(BASE) == BASE
