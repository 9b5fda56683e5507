"""JSON model checkpoints: a format name and version over plain lists,
written with sorted keys and repr floats so arrays load back bit-exact."""
import json

import numpy as np
import orjson

# orjson writes a float as repr writes it, the same shortest round-trip
# digits, when it is 0 or its magnitude is in [SHORT_LO, SHORT_HI); outside
# that range it writes 0.00001 and 1e16 where repr writes 1e-05 and 1e+16
SHORT_LO, SHORT_HI = 1e-4, 1e16
# values rendered at a time: each takes at most 30 characters (24, a
# separator and, in a column, its row's brackets), so a block's bytes, its
# text and its rows' texts stay below glibc's 128 KiB mmap threshold
BLOCK = 4096


def float_rows(values, sep: str = " ", as_json: bool = False):
    """The text of every value of a float64 array as ``repr`` writes it
    (``json.dumps`` with ``as_json``), one text per value of a 1-D array and
    one per row of a 2-D array, its values joined by ``sep``, which must be
    text that no float's text holds. Values are rendered by orjson a block
    at a time; only those it writes otherwise, and non-finite ones, go
    through ``repr`` (``json.dumps``) one at a time."""
    values = np.asarray(values, dtype=np.float64)
    rows = values.reshape(-1, 1) if values.ndim == 1 else values
    one = json.dumps if as_json else repr
    step = max(1, BLOCK // max(1, rows.shape[1]))
    for lo in range(0, len(rows), step):
        block = np.ascontiguousarray(rows[lo:lo + step])
        magnitude = np.abs(block)
        odd = ~(((magnitude >= SHORT_LO) & (magnitude < SHORT_HI)) | (block == 0))
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
        texts = text.replace(",", sep).split(f"]{sep}[")
        for i in np.flatnonzero(odd.any(axis=1)).tolist():
            cells = texts[i].split(sep)
            for j in np.flatnonzero(odd[i]).tolist():
                cells[j] = one(float(block[i, j]))
            texts[i] = sep.join(cells)
        yield from texts


def _float_array_json(values: np.ndarray):
    """The pieces of ``json.dumps(values.tolist())`` for a 1-D or 2-D array."""
    if values.ndim == 1:
        yield "["
        for lo in range(0, values.size, BLOCK):
            if lo:
                yield ", "
            yield from float_rows(values[None, lo:lo + BLOCK], ", ", as_json=True)
        yield "]"
        return
    yield "[" if len(values) else "[]"
    for i, text in enumerate(float_rows(values, ", ", as_json=True)):
        yield "], [" if i else "["
        yield text
    if len(values):
        yield "]]"


def _json_pieces(value):
    """The pieces of ``json.dumps(value, sort_keys=True)``, where a float64
    array of one or two dimensions, at any depth of dicts, stands for its
    ``tolist()`` and other arrays stand for theirs."""
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_pieces(value[key])
        yield "}"
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim in (1, 2):
        yield from _float_array_json(value)
    else:
        yield json.dumps(value.tolist() if isinstance(value, np.ndarray) else value, sort_keys=True)


def write_checkpoint(path, fmt: str, version: int, fields: dict) -> None:
    """``fields``, with the format name and version, as one line of
    ``json.dumps(..., sort_keys=True)``; a field may be a numpy array, which
    is written as its ``tolist()`` would be. The text is written piece by
    piece, never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces({"format": fmt, "version": version, **fields}))
        fh.write("\n")


def read_checkpoint(path, fmt: str, version: int) -> dict:
    """The checkpoint's fields, or ValueError unless it is JSON of this format
    and version. Nothing in the file is executed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            checkpoint = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ValueError(f"{path} is not a JSON {fmt} checkpoint") from None
    if not isinstance(checkpoint, dict) or checkpoint.get("format") != fmt:
        raise ValueError(f"{path} is not a {fmt} checkpoint")
    if checkpoint.get("version") != version:
        raise ValueError(f"{path}: unsupported {fmt} version {checkpoint.get('version')!r}, expected {version}")
    return checkpoint
