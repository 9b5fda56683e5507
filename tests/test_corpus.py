import gc
import json
import logging
import random
import sys
import tracemalloc
import weakref
from itertools import product

import numpy as np
import orjson
import pytest

from intercom import corpus as corpus_mod
from intercom.corpus import (
    CorpusError,
    CrossLink,
    Event,
    day_start,
    extract_crosslinks,
    link_members,
    load_events,
    member_window,
    members,
    remove_overlapping,
    Texts,
    _first_rows,
    _offsets,
    _pack,
)
from intercom.synth import SynthSpec, generate_corpus

from conftest import (BASE, DAY, HOUR, comment, comment_events, corpus_from, names, post,
                      tracked_objects, write_events)


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
    assert set(corpus.threads) == {"p1", "p2"}
    assert [c.id for c in corpus.thread_comments("p1")] == ["c1", "c2"]


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
    assert list(corpus.posts) == ["p0"] and comment_events(corpus) == {}
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
    comments = comment_events(corpus)
    assert list(comments) == ["c0", "8"]
    assert corpus.posts["7"][1:4] == ("7", "42", "-3")
    assert comments["8"].thread_id == comments["8"].parent_id == "7"
    assert corpus.posts["p9"].thread_id is None
    assert (corpus.stats.lines, corpus.stats.rejected) == (len(rows) + len(bad), len(bad))
    assert corpus.stats.dangling_comments == 0
    # one string per name, shared by every event that names it
    assert corpus.posts["p9"].author is comments["c0"].author


def test_a_loaded_log_holds_one_string_per_thread_id_and_per_parent_id(tmp_path):
    row = {"kind": "comment", "author": "u", "community": "A", "timestamp": BASE}
    rows = [{**row, "id": f"c{i}", "thread_id": "p0", "parent_id": "p0" if i % 2 else "c0"}
            for i in range(6)]
    # a comment before its post, and integer ids, which stand for new strings
    rows.insert(0, {**row, "id": "c9", "thread_id": 7, "parent_id": 7})
    rows += [{**row, "id": f"d{i}", "thread_id": 7, "parent_id": "7"} for i in range(3)]
    rows += [{**row, "kind": "post", "id": "p0"}, {**row, "kind": "post", "id": 7}]
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    events_path, _ = generate_corpus(SynthSpec(n_communities=3, n_crosslinks=4, seed=2),
                                     tmp_path / "synth")
    for log_path in (path, events_path):
        corpus = load_events(log_path)
        comments = list(comment_events(corpus).values())
        assert len(comments) == corpus.stats.comments > 0
        for values in ([c.thread_id for c in comments], [c.parent_id for c in comments],
                       corpus.comment_parents):
            assert len({id(v) for v in values}) == len(set(values)) < len(values)
        assert all(c.thread_id is corpus.posts[c.thread_id].id for c in comments)


def loaded_and_retained(path):
    """The Corpus of the log at ``path`` and the bytes its load retained,
    by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = load_events(path)
        return corpus, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


# Written down before the first run, from the layout: a 7-character id
# string (56 bytes), three list slots (24), a table row (24) and its by-user
# and by-thread rows (8) come to 112 bytes a comment; the posts, names and
# distinct parent ids add a few more. One Event tuple a comment, or one
# thread-id or parent-id string a comment, would each add over 50. With ids
# and bodies packed into ``Texts`` it reads about 90.
RETAINED_BYTES_PER_COMMENT = 160


def test_load_retains_a_bounded_number_of_bytes_per_comment(tmp_path):
    events_path, _ = generate_corpus(SynthSpec(n_communities=4, n_crosslinks=20, seed=7),
                                     tmp_path / "synth")
    corpus, retained = loaded_and_retained(events_path)
    # the comments' text is the log's, not the layout's
    bodies = len(corpus.comment_bodies.data)
    n = corpus.stats.comments
    assert n > 1000
    assert (retained - bodies) / n <= RETAINED_BYTES_PER_COMMENT


# Fixed before the first run: a loaded default world retained about 220
# bytes an event with one id string and one body string a comment, and
# about 130 with both packed into ``Texts``.
RETAINED_BYTES_PER_EVENT = 160


def test_load_retains_a_bounded_number_of_bytes_per_event(tmp_path):
    events_path, _ = generate_corpus(SynthSpec(seed=1), tmp_path / "world")
    corpus, retained = loaded_and_retained(events_path)
    assert corpus.stats.lines > 10000
    assert retained / corpus.stats.lines <= RETAINED_BYTES_PER_EVENT


def packed(strings):
    """``strings`` packed into ``Texts`` as ``_read_events`` packs a log's
    comment ids, in two batches of about half each."""
    data, half = bytearray(), len(strings) // 2
    return Texts(data, _offsets([_pack(strings[:half], data), _pack(strings[half:], data)]))


def test_texts_give_back_every_string_they_pack():
    strings = ["c1", "", "caf\u00e9", "\U0001f600", "\ud800", "\ud83d\ude00", "a b", "c1"]
    texts = packed(strings)
    assert len(texts) == len(strings)
    assert [texts[k] for k in range(len(texts))] == list(texts) == strings
    assert texts.strings(np.array([7, 0, 2, 2])) == ["c1", "c1", "caf\u00e9", "caf\u00e9"]
    kept = np.array([True, False, True, True, False, True, False, True])
    assert list(texts.select(kept)) == [s for s, keep in zip(strings, kept) if keep]
    assert list(packed([])) == list(texts.select(np.zeros(len(strings), dtype=bool))) == []
    for k in (-1, len(strings)):
        with pytest.raises(IndexError):
            texts[k]


@pytest.mark.parametrize("strings", [
    ["a", "b", "a", "c", "b", "a", "", "", "c"],
    [f"c{k % 7}" for k in range(40)],
    ["only"],
    [],
])
def test_first_rows_keeps_the_first_row_of_each_distinct_string(strings):
    expected = [s not in strings[:k] for k, s in enumerate(strings)]
    texts = packed(strings)
    hashes = np.array([hash(s) for s in strings], dtype=np.int64)
    assert _first_rows(texts, hashes).tolist() == expected
    # every hash equal, as if all collided: the strings alone decide
    assert _first_rows(texts, np.zeros(len(strings), dtype=np.int64)).tolist() == expected
    # hashes that collide only across distinct strings keep every row
    distinct = list(dict.fromkeys(strings))
    assert _first_rows(packed(distinct), np.full(len(distinct), 5)).all()


def test_load_rejects_lines_json_cannot_decode_into_values(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "post", "id": "p0", "author": "u", "community": "A",
                             "timestamp": BASE}) + "\n")
        # an integer past the float range and the interpreter's digit limit,
        # and nesting on which orjson, were it to read the line, would crash
        fh.write('{"kind": "post", "id": "p1", "author": "u", "community": "A", '
                 '"timestamp": %s}\n' % ("1" * 5000))
        fh.write('{"kind": "post", "id": "p2", "author": "u", "community": "A", '
                 '"timestamp": 1, "x": %s}\n' % ("[" * 100000 + "]" * 100000))
    corpus = load_events(path)
    assert list(corpus.posts) == ["p0"]
    assert corpus.stats.rejected == 2


def test_load_decides_each_line_by_the_written_rule(tmp_path):
    # the lines on which the stdlib's JSON rule and orjson differ, each with
    # the post the written rule stores, or None where it rejects the line
    row = {"kind": "post", "author": "u", "community": "A", "timestamp": BASE}

    def line(**fields):
        return json.dumps({**row, **fields})  # escapes lone surrogates

    def raw(pid, text):
        return line(id=pid)[:-1] + ", " + text + "}"

    table = [
        (line(id="p0"), "p0"),
        # lone-surrogate escapes
        (line(id="s0", body="\ud800"), None),
        (line(id="s1", author="\udc80"), None),
        (line(id="s2", community="x\ud800", body="\udc80y"), None),
        # timestamps: a negative one, and integers past 64 bits, stored as
        # their nearest floats, up to the largest float
        (line(id="t0", timestamp=-2**63 - 1), None),
        (line(id="t1", timestamp=2**63), "t1"),
        (line(id="t2", timestamp=2**64), "t2"),
        (line(id="t3", timestamp=10**20), "t3"),
        (line(id="t4", timestamp=int(sys.float_info.max) + 1), "t4"),
        (line(id="t5", timestamp=sys.float_info.max), "t5"),
        # integer ids and names must lie in [-2**63, 2**64)
        (line(id=-2**63 - 1), None),
        (line(id=2**63), "9223372036854775808"),
        (line(id=2**64), None),
        (line(id=10**20), None),
        (line(id="i0", author=2**64, community=-2**63 - 1), None),
        # a repeated key: the last value counts
        (raw("k0", '"author": null, "author": "v"'), "k0"),
        (raw("k1", '"author": "v", "author": null'), None),
        # nesting past MAX_DEPTH, far past and just past it, below it, and
        # brackets inside a string, which do not count
        (raw("n0", '"x": ' + "[" * 100_000 + "]" * 100_000), None),
        (raw("n1", '"x": ' + '{"a": ' * 300 + "1" + "}" * 300), None),
        (raw("n2", '"x": ' + "[" * 100 + "]" * 100), "n2"),
        (line(id="n3", body="[{" * 200), "n3"),
        # padding: JSON's whitespace is stripped, and any other makes the
        # line no JSON value, a line of it alone included
        (" \t" + line(id="w0") + "\t ", "w0"),
        ("\u00a0" + line(id="w1"), None),
        (line(id="w2") + "\u3000", None),
        (line(id="w3") + "\u2028", None),
        ("\f" + line(id="w4") + " \f", None),
        ("\x1c" + line(id="w5"), None),
        (line(id="w6") + "\x1f", None),
        ("\f", None),
        ("\u00a0 \u3000", None),
    ]
    path = tmp_path / "events.jsonl"
    path.write_text("".join(text + "\n" for text, _ in table), encoding="utf-8")
    corpus = load_events(path)
    assert list(corpus.posts) == [pid for _, pid in table if pid is not None]
    assert (corpus.stats.lines, corpus.stats.rejected) == (
        len(table), sum(pid is None for _, pid in table))
    posts = corpus.posts
    assert [posts[pid].timestamp for pid in ("t1", "t2", "t3", "t4", "t5")] == [
        2.0**63, 2.0**64, 1e20, sys.float_info.max, sys.float_info.max]
    assert posts["k0"].author == "v" and posts["n3"].body == "[{" * 200


def test_a_lines_verdict_depends_on_its_bytes_alone(tmp_path):
    # the stdlib's scanner would decide the first two lines by the
    # interpreter's recursion limit and integer digit limit
    row = {"kind": "post", "author": "u", "community": "A", "timestamp": BASE}
    lines = [json.dumps({**row, "id": "deep"})[:-1] + ', "x": ' + "[" * 600 + "]" * 600 + "}",
             json.dumps({**row, "id": "digits"})[:-1] + ', "x": ' + "1" * 5000 + "}",
             json.dumps({**row, "id": "ok"})]
    path = tmp_path / "events.jsonl"
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    recursion, digits = sys.getrecursionlimit(), sys.get_int_max_str_digits()
    accepted = set()
    try:
        for recursion_limit, digit_limit in product((1000, 4000), (4300, 100_000)):
            sys.setrecursionlimit(recursion_limit)
            sys.set_int_max_str_digits(digit_limit)
            accepted.add(tuple(load_events(path).posts))
    finally:
        sys.setrecursionlimit(recursion)
        sys.set_int_max_str_digits(digits)
    assert accepted == {("ok",)}


def test_orjson_decides_the_rule_load_events_relies_on():
    # the decoder facts behind parts 1, 2 and 4 of load_events' rule, so that
    # an orjson release that changes one fails here
    refused = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
               str(2**1024 - 2**970), '"\\ud800"', '"\\udc80"', '"\udc80"', "\ufeff{}",
               "{} x"]
    for text in refused:
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
    for number in (2**64 - 1, -2**63):
        assert type(orjson.loads(str(number))) is int and orjson.loads(str(number)) == number
    for number in (2**64, -2**63 - 1, int(sys.float_info.max) + 1):
        assert orjson.loads(str(number)) == float(number)
        assert type(orjson.loads(str(number))) is float
    assert orjson.loads('{"a": 1, "a": 2}') == {"a": 2}


def test_load_rejects_no_line_of_an_ordinary_log(tmp_path, two_community_corpus):
    world, _t0 = two_community_corpus
    path = write_events(tmp_path / "world.jsonl",
                        [*world.posts.values(), *comment_events(world).values()])
    events_path, _ = generate_corpus(SynthSpec(n_communities=3, n_crosslinks=4, seed=2),
                                     tmp_path / "synth")
    for log_path in (path, events_path):
        corpus = load_events(log_path)
        assert corpus.stats.rejected == 0 and corpus.stats.lines > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled):
    path = write_events(tmp_path / "events.jsonl", [post("p1", "u1", "A", BASE)])

    def failing_index(*args):
        raise RuntimeError("index failed")

    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        frozen = gc.get_freeze_count()
        load_events(path)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        with pytest.raises(CorpusError):
            load_events(tmp_path / "missing.jsonl")
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        monkeypatch.setattr(corpus_mod, "_index", failing_index)
        with pytest.raises(RuntimeError, match="index failed"):
            load_events(path)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
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


def test_a_loaded_corpus_holds_its_posts_as_events_and_is_freed(tmp_path):
    events = [post(f"p{i}", f"u{i % 3}", "A", BASE + i) for i in range(50)]
    events += [comment(f"c{i}", f"u{i % 5}", "A", BASE + 100 + i, f"p{i}") for i in range(50)]
    path = write_events(tmp_path / "events.jsonl", events)
    corpus = load_events(path)
    # what the collector tracks of a Corpus is the Corpus, its dicts, lists
    # and tuples, and its posts: comments are held as strings and arrays,
    # which it does not track
    held = tracked_objects(corpus)
    assert sum(type(obj) is Event for obj in held) == 50
    del held
    # the Corpus holds no cycles: dropping the last reference frees it
    ref = weakref.ref(corpus)
    del corpus
    assert ref() is None


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
    # the log file and the in-memory corpus, built by the same rule
    for corpus in (load_events(write_events(tmp_path / "events.jsonl", events)),
                   corpus_from(events)):
        assert corpus.stats.rejected == 2
        assert corpus.posts["p1"].author == "u1"
        assert comment_events(corpus)["c1"].timestamp == BASE + 20


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


def _link(source, target, t0):
    return CrossLink("s", "t", source, target, t0, "x")


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
    # a link created on the day that starts at d takes members over [d-30d, d)
    for t0 in (d, d + 15 * HOUR, d + DAY - 1):
        assert member_window(_link("C", "D", t0)) == (d - 30 * DAY, d)
    lo, hi = member_window(_link("C", "D", d))
    assert names(corpus, members(corpus, "C", lo, hi)) == {"u_in", "u_both"}
    source, target = link_members(corpus, _link("C", "D", d + 15 * HOUR))
    assert (names(corpus, source), names(corpus, target)) == ({"u_in"}, set())
    source, target = link_members(corpus, _link("D", "C", d + 15 * HOUR))
    assert (names(corpus, source), names(corpus, target)) == (set(), {"u_in"})
    assert names(corpus, link_members(corpus, _link("nowhere", "D", d))[0]) == set()
    mask = members(corpus, "C", lo, hi)
    assert mask.dtype == bool and mask.shape == (len(corpus.users),)


def test_members_unknown_community_warns(caplog):
    d = BASE + 60 * DAY
    lo, hi = d - 30 * DAY, d
    corpus = corpus_from([post("p1", "x", "C", BASE), comment("c1", "u1", "C", d - DAY, "p1"),
                          post("p2", "x", "quiet", BASE)])
    with caplog.at_level(logging.WARNING, logger="intercom.corpus"):
        assert names(corpus, members(corpus, "nowhere", lo, hi)) == set()
        # an unknown side has no members and excludes nobody from the other
        source, target = link_members(corpus, _link("nowhere", "C", d))
        assert (names(corpus, source), names(corpus, target)) == (set(), {"u1"})
    assert caplog.text.count("members(): unknown community 'nowhere'") == 2
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="intercom.corpus"):
        # a community with posts but no comments is known, with no members
        assert names(corpus, members(corpus, "quiet", lo, hi)) == set()
        source, target = link_members(corpus, _link("quiet", "C", d))
        assert (names(corpus, source), names(corpus, target)) == (set(), {"u1"})
        source, target = link_members(corpus, _link("C", "quiet", d))
        assert (names(corpus, source), names(corpus, target)) == ({"u1"}, set())
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
    source, target = link_members(corpus, _link("C", "D", d + HOUR))
    assert not (source & target).any()
    # together they are the users who are members of exactly one side
    in_c, in_d = members(corpus, "C", d - 30 * DAY, d), members(corpus, "D", d - 30 * DAY, d)
    assert ((source | target) == (in_c ^ in_d)).all() and source.any() and target.any()


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
    assert (members(c1, "C", d - 30 * DAY, d)
            == members(c2, "C", d - 30 * DAY + shift, d + shift)).all()
    t1 = extract_crosslinks(c1)[0].t0
    t2 = extract_crosslinks(c2)[0].t0
    assert t2 - t1 == shift


def test_day_start():
    assert day_start(BASE + 5 * HOUR) == BASE
    assert day_start(BASE) == BASE
