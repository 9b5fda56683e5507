"""Intercommunity mobilization detection, analysis, and prediction."""

__version__ = "0.1.0"  # set before the import below: the pipeline's run record reads it

# ``import intercom`` loads every analysis module through the pipeline, so
# that a tracer which rebinds the functions of the loaded ``intercom``
# modules (``perfbench/spans.py``) finds each one.
from . import pipeline  # noqa: E402,F401
