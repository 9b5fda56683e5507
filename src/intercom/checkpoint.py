"""JSON model checkpoints: a format name and version over plain lists,
written with sorted keys and repr floats so arrays load back bit-exact."""
import json


def write_checkpoint(path, fmt: str, version: int, fields: dict) -> None:
    # one json.dumps runs the C encoder; json.dump streams through the
    # Python one, about twice as slow on an LSTM checkpoint
    text = json.dumps({"format": fmt, "version": version, **fields}, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
