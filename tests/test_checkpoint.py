import json

import numpy as np

from intercom.checkpoint import read_checkpoint, write_checkpoint
from intercom.lstm import init_params


def streamed(obj) -> str:
    """The text ``json.dump(obj, fh, sort_keys=True)`` streamed, plus the
    closing newline: the pure-Python encoder's output."""
    return "".join(json.JSONEncoder(sort_keys=True).iterencode(obj)) + "\n"


def test_checkpoint_bytes_equal_the_streamed_encoder(tmp_path):
    weights = init_params(5, 4, seed=3).weights
    fields = {
        "weights": {k: v.tolist() for k, v in weights.items()},
        "log": [{"val_auc": None, "epoch": 1, "train_loss": 0.1 + 0.2}],
        "floats": [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 1 / 3, 2.0**60, -1.5],
        "ints": [0, -7, 10**30], "flags": [True, False],
        "names": ["café", "☃", "tab\there", 'quote"'],
        "nested": {"b": {"z": 1, "a": [{}, []]}, "a": None},
    }
    path = tmp_path / "model.json"
    write_checkpoint(path, "test-model", 2, fields)
    obj = {"format": "test-model", "version": 2, **fields}
    assert path.read_bytes() == streamed(obj).encode("utf-8")
    loaded = read_checkpoint(path, "test-model", 2)
    assert all(np.array_equal(np.asarray(loaded["weights"][k]), weights[k]) for k in weights)
