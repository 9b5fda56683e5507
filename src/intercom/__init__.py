"""Intercommunity mobilization detection, analysis, and prediction."""

import importlib.util
import sys

__version__ = "0.1.0"

# The analysis modules, each registered lazily (``importlib.util.LazyLoader``):
# ``import intercom`` puts every one in sys.modules and binds it on the
# package, and a module's code runs on the first access to one of its
# attributes. A command runs only the modules it uses, and a tracer that
# rebinds the functions of the ``intercom`` modules in sys.modules
# (``perfbench/spans.py``) still finds each one. The entry points ``cli``
# and ``synth`` are imported the ordinary way.
LAZY_MODULES = ("checkpoint", "corpus", "embed", "forest", "impact", "lexicon", "lstm",
                "matching", "mobilization", "pipeline", "predictor", "replynet", "sentiment",
                "settings", "stages")


def _register_lazily(names) -> None:
    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_register_lazily(LAZY_MODULES)
