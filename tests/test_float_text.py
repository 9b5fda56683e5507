"""The float text writers against what they replaced, kept here as oracles:
``checkpoint.float_rows`` against ``repr`` and ``json.dumps`` one value at
a time, and ``embed.save_vectors``, ``checkpoint.write_checkpoint`` (with
``lstm.save_params`` and ``Forest.save`` on it) and ``pipeline.write_csv``
against their bodies from before their floats went through ``float_rows``.
Every comparison is exact, byte for byte.
"""
import csv
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from intercom import embed, lstm  # noqa: E402
from intercom.checkpoint import BLOCK, float_rows, write_checkpoint  # noqa: E402
from intercom.forest import FOREST_FORMAT, FOREST_VERSION, NODE_ARRAYS, train_forest  # noqa: E402
from intercom.pipeline import write_csv  # noqa: E402

EXAMPLES = settings(max_examples=150, deadline=None)


# -- the writers' bodies before float_rows --------------------------------------

def reference_save_vectors(path, names, vectors):
    n, d = vectors.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        for name, row in zip(names, vectors.tolist()):
            fh.write(f"{name} {d} {' '.join(map(repr, row))}\n")


def reference_write_checkpoint(path, fmt, version, fields):
    text = json.dumps({"format": fmt, "version": version, **fields}, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def reference_save_params(path, params, seed, max_words, log):
    reference_write_checkpoint(path, lstm.CHECKPOINT_FORMAT, lstm.CHECKPOINT_VERSION, {
        "input_dim": params.input_dim, "hidden_dim": params.hidden_dim,
        "seed": seed, "max_words": max_words, "log": log,
        "weights": {k: v.tolist() for k, v in params.weights.items()}})


def reference_save_forest(path, forest):
    reference_write_checkpoint(path, FOREST_FORMAT, FOREST_VERSION, {
        **{k: getattr(forest, k).tolist() for k in NODE_ARRAYS + ("roots",)},
        "schema": list(forest.schema), "classes": np.asarray(forest.classes).tolist(),
        "seed": int(forest.seed), "oob_accuracy": forest.oob_accuracy, "metadata": forest.metadata})


def reference_write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])


# -- draws -----------------------------------------------------------------------

def around(x):
    return [float(np.nextafter(x, -math.inf)), x, float(np.nextafter(x, math.inf))]


# where repr's notation changes (1e-4, 1e16), subnormals, the extremes and
# powers of ten; NaN and the infinities are written by repr and json.dumps alone
EDGES = [0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, 0.1, 1 / 3, 2.0**53, 9999999999999998.0,
         *around(1e-4), *around(1e-5), *around(1e16), *around(1e15),
         *(10.0**k for k in range(-25, 25))]
EDGES += [-x for x in EDGES]
NON_FINITE = [math.nan, math.inf, -math.inf]
SEPARATORS = [" ", ", ", ",", "\t"]

floats = st.floats(width=64)
tables = hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(0, 12)),
                    elements=floats, fill=floats)


def scattered(seed, shape):
    """Finite values of every magnitude: random bit patterns, and normal
    draws scaled by powers of ten from 1e-12 to 1e20."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    scaled = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 21, size=shape)
    return np.where((rng.random(shape) < 0.2) & np.isfinite(bits), bits, scaled)


def written(one, values, sep=" "):
    return [sep.join(map(one, row)) for row in values.tolist()]


# -- float_rows ------------------------------------------------------------------

@EXAMPLES
@given(st.lists(floats, max_size=2 * BLOCK // 100))
@example(EDGES + NON_FINITE)
def test_each_value_is_written_as_repr_and_json_dumps_write_it(values):
    values = [float(v) for v in values]
    assert list(float_rows(np.array(values))) == [repr(v) for v in values]
    assert list(float_rows(values, as_json=True)) == [json.dumps(v) for v in values]


def test_every_edge_value_is_written_as_repr_and_json_dumps_write_it():
    # one block and a column of blocks: each value meets every position
    values = np.array(EDGES + NON_FINITE)
    for one, as_json in ((repr, False), (json.dumps, True)):
        assert list(float_rows(values, as_json=as_json)) == [one(v) for v in values.tolist()]
        grid = np.resize(values, (2 * BLOCK // len(values) + 1, len(values)))
        for sep in SEPARATORS:
            assert list(float_rows(grid, sep, as_json)) == written(one, grid, sep)


@EXAMPLES
@given(tables, st.sampled_from(SEPARATORS), st.booleans())
def test_each_row_is_its_values_joined(values, sep, as_json):
    one = json.dumps if as_json else repr
    assert list(float_rows(values, sep, as_json)) == written(one, values, sep)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3 * BLOCK), st.sampled_from([1, 7, 32, BLOCK + 3]))
def test_rows_across_blocks_are_their_values_joined(seed, n, width):
    values = scattered(seed, (max(1, n // width), width))
    assert list(float_rows(values)) == written(repr, values)
    assert list(float_rows(values, ", ", as_json=True)) == written(json.dumps, values, ", ")
    column = values.ravel()
    assert list(float_rows(column)) == [repr(v) for v in column.tolist()]


def test_empty_arrays_and_zero_width_rows():
    assert list(float_rows(np.zeros(0))) == list(float_rows([])) == []
    assert list(float_rows(np.zeros((0, 3)))) == list(float_rows(np.zeros((0, 0)))) == []
    assert list(float_rows(np.zeros((1, 0)))) == [""]
    assert list(float_rows(np.zeros((3, 0)), ", ", as_json=True)) == ["", "", ""]


def test_a_strided_or_non_native_array_is_written_as_its_values():
    values = scattered(5, (30, 20))
    for view in (values[::3, ::2], values.T, values.astype(">f8")):
        assert list(float_rows(view)) == written(repr, view)


# -- the writers -----------------------------------------------------------------

@EXAMPLES
@given(st.one_of(tables, st.tuples(st.integers(0, 2**32), st.tuples(st.integers(0, 300), st.integers(0, 40)))
                 .map(lambda drawn: scattered(*drawn))))
def test_vectors_file_bytes_equal_the_reference_writer(tmp_path_factory, vectors):
    out = tmp_path_factory.mktemp("vectors")
    names = [f"u{i}" for i in range(len(vectors))]
    embed.save_vectors(out / "new.vec", names, vectors)
    reference_save_vectors(out / "old.vec", names, vectors)
    assert (out / "new.vec").read_bytes() == (out / "old.vec").read_bytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32), st.booleans())
def test_lstm_checkpoint_bytes_equal_the_reference_writer(tmp_path_factory, d, h, seed, scatter):
    out = tmp_path_factory.mktemp("lstm")
    params = lstm.init_params(d, h, seed=seed)
    if scatter:
        params.weights = {k: scattered(seed, v.shape) for k, v in params.weights.items()}
    log = [{"epoch": 1, "train_loss": 1 / 3, "val_auc": None}, {"epoch": 2, "train_loss": 4.69e-06}]
    lstm.save_params(out / "new.json", params, seed=seed, max_words=d, log=log)
    reference_save_params(out / "old.json", params, seed=seed, max_words=d, log=log)
    assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(8, 60), st.integers(1, 6), st.integers(2, 4))
def test_forest_checkpoint_bytes_equal_the_reference_writer(tmp_path_factory, seed, n, f, k):
    out = tmp_path_factory.mktemp("forest")
    rng = np.random.default_rng(seed)
    X = [dict(zip("abcdef", row)) for row in scattered(seed, (n, f)).tolist()]
    y = [f"c{c}" for c in rng.integers(0, k, size=n).tolist()]
    forest = train_forest(X, y, trees=3, seed=seed)
    forest.save(out / "new.json")
    reference_save_forest(out / "old.json", forest)
    assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()


def test_checkpoint_arrays_are_written_as_their_lists(tmp_path):
    values = scattered(2, (BLOCK + 9,))
    fields = {
        "long": values, "grid": values[:3 * 700].reshape(700, 3), "nested": {"b": values[:5], "a": {}},
        "empty": np.zeros(0), "no_rows": np.zeros((0, 4)), "no_columns": np.zeros((3, 0)),
        "non_finite": np.array([math.nan, -math.inf, 1e16, -0.0]), "ints": np.arange(-3, 3),
        "single": np.array([0.1, 1e-05, 3e38], dtype=np.float32), "cube": values[:8].reshape(2, 2, 2),
        "scalar": np.float64(4.69e-06), "listed": [1e-05, 0.5],
    }
    write_checkpoint(tmp_path / "new.json", "test-model", 1, fields)

    def listed(value):
        if isinstance(value, dict):
            return {key: listed(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    reference_write_checkpoint(tmp_path / "old.json", "test-model", 1, listed(fields))
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


cells = st.one_of(floats, floats.map(np.float64), st.integers(-10**20, 10**20), st.booleans(),
                  st.none(), st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))


@EXAMPLES
@given(st.lists(st.lists(cells, max_size=6), max_size=30))
@example([[v, "x", None, 3] for v in EDGES + NON_FINITE])
def test_csv_bytes_equal_the_reference_writer(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("csv")
    header = ["a", "b,c", 'd"']
    write_csv(out / "new.csv", header, (tuple(row) for row in rows))
    reference_write_csv(out / "old.csv", header, rows)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
