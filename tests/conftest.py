import gc
import json
import pickle

import pytest

from intercom.corpus import Event, index_events

DAY = 86400.0
HOUR = 3600.0
BASE = 10000 * 86400.0  # a UTC midnight


def post(pid, author, community, ts, body=""):
    return Event(kind="post", id=pid, author=author, community=community,
                 timestamp=float(ts), body=body)


def comment(cid, author, community, ts, thread_id, parent_id=None, body=""):
    return Event(kind="comment", id=cid, author=author, community=community,
                 timestamp=float(ts), body=body, thread_id=thread_id,
                 parent_id=parent_id or thread_id)


def corpus_from(events):
    return index_events(events)


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
            fh.write(json.dumps(record(event)) + "\n")
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
