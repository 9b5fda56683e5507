"""Word lists by category: the lexicon that the sentiment features and the
anger rates read. Its words are an input digest of every report, so this
module loads without numpy or any stage module."""
from __future__ import annotations

from importlib import resources
from pathlib import Path


class Lexicon:
    """A named set of word lists by category, each lowercased and none empty."""

    def __init__(self, name: str, categories: dict[str, set[str]]):
        for cat, words in categories.items():
            if not words:
                raise ValueError(f"lexicon category {cat!r} is empty")
            categories[cat] = {w.lower() for w in words}
        self.name = name
        self.categories = categories


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


def configured(lexicon_dir: str) -> Lexicon:
    """The lexicon of a config's ``lexicon_dir``: the word lists in that
    directory, or the builtin ones when it is empty."""
    return load_lexicon(lexicon_dir) if lexicon_dir else builtin_lexicon()
