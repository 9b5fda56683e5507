import gc
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from intercom.corpus import CROSSLINK_RE, Event, index_lines
from intercom.impact import Participant, activity_delta
from intercom.matching import match_pools, matched_user

DAY = 86400.0
HOUR = 3600.0
BASE = 10000 * 86400.0  # a UTC midnight
SRC = Path(__file__).resolve().parent.parent / "src"


def post(pid, author, community, ts, body=""):
    return Event(kind="post", id=pid, author=author, community=community,
                 timestamp=float(ts), body=body)


def comment(cid, author, community, ts, thread_id, parent_id=None, body=""):
    return Event(kind="comment", id=cid, author=author, community=community,
                 timestamp=float(ts), body=body, thread_id=thread_id,
                 parent_id=parent_id or thread_id)


def corpus_from(events):
    """The Corpus of the events' log lines, as ``write_events`` writes them."""
    return index_lines(map(log_line, events))


def paired_participants(corpus, records, seed):
    """Oracle of ``impact.mobilization_impacts``: per record, per side, the
    side's matched users, then one ``activity_delta`` call per user and per
    matched user, each answer paired with the user it asked about."""
    def delta(user, link):
        [answer] = activity_delta(corpus, [(user, link.target_community, link.t0)])
        return answer

    found = []
    for index, record in enumerate(records):
        link = record.crosslink
        for role, users, pool in zip(("attacker", "defender"),
                                     (record.attackers, record.defenders),
                                     match_pools(corpus, link)):
            users = sorted(users)
            for user, match in zip(users, matched_user(corpus, users, pool, seed=seed)):
                own = delta(user, link)
                found.append(Participant(index, role, user, own.delta,
                                         None if match is None else delta(match, link).delta,
                                         own.low_support))
    return found


def held_threads(posts):
    """The ids of ``posts``, a list of post Events, whose comments' bodies a
    loaded Corpus holds: those that some post's body names in a permalink,
    whatever its host or community, found by a scan of every body."""
    ids = {p.id for p in posts}
    return {m.group(3) for p in posts for m in CROSSLINK_RE.finditer(p.body)} & ids


def comment_events(corpus):
    """The comments of a Corpus keyed by id in input order, as Events, read
    from its comment columns and table: the id -> comment map the analysis
    never reads. A comment's body is None unless ``held_threads`` holds its
    thread, and then it is the one the Corpus holds, which must exist."""
    table = corpus.table
    held = held_threads(list(corpus.posts.values()))
    rows = sorted(zip(table.events.tolist(), table.authors.tolist(), table.communities.tolist(),
                      table.times.tolist(), table.threads.tolist()))

    def body(k, thread):
        row = int(corpus.comment_body_rows[k])
        return corpus.comment_bodies[row] if thread in held else None  # [-1] raises

    return {corpus.comment_ids[k]: Event("comment", corpus.comment_ids[k], corpus.users[a],
                                         corpus.communities[c], t,
                                         body(k, corpus.threads[h]),
                                         corpus.threads[h], corpus.comment_parents[k])
            for k, a, c, t, h in rows}


def logged_events(corpus):
    """The posts, then the comments, of a Corpus whose comments all have
    empty bodies, as Events to write to a log again: a comment body it does
    not hold is None, written as the empty body it stands for."""
    return [*corpus.posts.values(),
            *(c._replace(body=c.body or "") for c in comment_events(corpus).values())]


def names(corpus, mask):
    """The names of the users a mask over user codes selects."""
    return {corpus.users[k] for k in mask.nonzero()[0].tolist()}


def record(event):
    """The event as the dict of its log line."""
    row = {"kind": event.kind, "id": event.id, "author": event.author,
           "community": event.community, "timestamp": event.timestamp, "body": event.body}
    if event.kind == "comment":
        row["thread_id"] = event.thread_id
        row["parent_id"] = event.parent_id
    return row


def log_line(event):
    """The event's log line, without its line end."""
    return json.dumps(record(event))


def tracked_objects(root):
    """The objects the cyclic collector tracks that ``root`` reaches, root
    included, not following into classes."""
    found = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in found or isinstance(obj, type) or not gc.is_tracked(obj):
            continue
        found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(found.values())


def write_events(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(log_line(event) + "\n")
    return path


class _CreateFile:
    """Unpickling this calls ``open(path, "w")``, which creates the file."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def write_canary_pickle(path, canary):
    """A version-1 style forest pickle that creates ``canary`` if unpickled."""
    with open(path, "wb") as fh:
        pickle.dump({"format": "intercom-forest", "version": 1, "forest": _CreateFile(canary)}, fh)
    return path


@pytest.fixture
def two_community_corpus():
    """Posts/comments across two communities with a planted cross-link.

    The cross-linking post pa1 (community A, t0 at 15:00) points at pb1
    (community B). Source members a1..a5 are established by comments 10 days
    earlier; 2 of their comments land in the 12 h before t0 and 9 after.
    Defenders b1, b2 comment after t0.
    """
    t0 = BASE + 50 * DAY + 15 * HOUR
    events = [
        post("pa0", "author0", "A", BASE + 10 * DAY),
        post("pb0", "target_author0", "B", BASE + 10 * DAY + HOUR),
        post("pb1", "target_author", "B", t0 - 14 * HOUR, body="original thing"),
        post("pb2", "target_author2", "B", t0 - 14 * HOUR + 600, body="matched thing"),
        post("pa1", "linker", "A", t0,
             body="come look at this https://reddit.example/r/B/comments/pb1 thread"),
    ]
    for i in range(1, 6):
        events.append(comment(f"m{i}", f"a{i}", "A", t0 - 10 * DAY + i, "pa0"))
    for i in (1, 2):
        events.append(comment(f"d{i}", f"b{i}", "B", t0 - 9 * DAY + i, "pb0"))
    events.append(comment("pre1", "a1", "B", t0 - 2 * HOUR, "pb1"))
    events.append(comment("pre2", "a2", "B", t0 - 1 * HOUR, "pb1"))
    for k in range(9):
        events.append(comment(f"aft{k}", f"a{1 + k % 5}", "B", t0 + 600 + k * 60, "pb1"))
    events.append(comment("def1", "b1", "B", t0 + 3600, "pb1", parent_id="aft0"))
    events.append(comment("def2", "b2", "B", t0 + 4000, "pb1"))
    events.append(comment("oth1", "stranger", "B", t0 + 4500, "pb1"))
    return corpus_from(events), t0


def run_python(code: str, *args) -> subprocess.CompletedProcess:
    """``python -c code args`` in a fresh interpreter with the package's
    sources on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)

