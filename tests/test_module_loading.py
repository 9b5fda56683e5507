"""Which ``intercom`` modules a command runs.

``import intercom`` registers every analysis module lazily
(``intercom.LAZY_MODULES``), and a module's code runs on the first access to
one of its attributes. Each probe runs in a fresh interpreter (``probe``).
"""
import json
from pathlib import Path

import pytest

import intercom
from intercom.pipeline import Config, run_pipeline
from intercom.synth import SynthSpec, generate_corpus

from conftest import run_python

# The head of a module probe's code. ``ran(**fields)`` prints one JSON line:
# the ``intercom`` modules whose code has run, whether numpy was imported, and
# ``fields``. A module that ``import intercom`` registered lazily and that has
# not run yet is a subclass of ModuleType, and reading any attribute of it
# would run it, so the probe reads only its type.
PROBE = """\
import json, sys, types


def ran(**fields):
    names = sorted(name for name, module in sys.modules.items()
                   if name.partition(".")[0] == "intercom" and type(module) is types.ModuleType)
    print(json.dumps({"ran": names, "numpy": "numpy" in sys.modules, **fields}))


"""

LEARNING = {"intercom.embed", "intercom.forest", "intercom.lstm", "intercom.predictor"}


def probe(code: str, *args) -> dict:
    """The fields of the last line that ``PROBE + code`` prints, which is
    its call of ``ran``."""
    result = run_python(PROBE + code, *args)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def events_path(tmp_path_factory):
    spec = SynthSpec(n_communities=4, n_crosslinks=8, background_posts_per_community=10,
                     background_comments_per_user=6, seed=3)
    path, _ = generate_corpus(spec, tmp_path_factory.mktemp("loading_synth"))
    return path


def test_every_analysis_module_is_registered_lazily():
    # a module missing from the list would not be in sys.modules after
    # ``import intercom``, and a tracer that rebinds the loaded modules'
    # functions (perfbench/spans.py) would not see it
    package = Path(intercom.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "cli", "synth"}
    assert sorted(intercom.LAZY_MODULES) == sorted(modules)
    found = probe("""
import intercom
ran(registered=[sys.modules.get(f"intercom.{name}") is vars(intercom)[name]
                for name in intercom.LAZY_MODULES])
""")
    assert found["ran"] == ["intercom"] and not found["numpy"]
    assert found["registered"] == [True] * len(modules)


def test_an_all_hit_rerun_runs_no_stage_module_and_imports_no_numpy(events_path, tmp_path):
    out = tmp_path / "bundle"
    first = run_pipeline(Config(corpus=str(events_path), output_dir=str(out)))
    # the modules the re-run adds are compared within the probe, so that
    # what the interpreter imports at start-up does not matter
    found = probe("""
import intercom
before = set(sys.modules)
from intercom import pipeline
result = pipeline.run_pipeline(pipeline.Config(corpus=sys.argv[1], output_dir=sys.argv[2]))
ran(hits=result.cache_hits, added=sorted(set(sys.modules) - before))
""", events_path, out)
    assert found["hits"] == list(first.manifest["stages"])
    assert found["ran"] == ["intercom", "intercom.lexicon", "intercom.pipeline",
                            "intercom.settings"]
    assert not found["numpy"]
    assert not {"csv", "logging", "platform"} & set(found["added"])


def test_an_all_hit_cli_report_runs_only_the_pipeline_modules(events_path, tmp_path):
    out = tmp_path / "bundle"
    run_pipeline(Config(corpus=str(events_path), output_dir=str(out)))
    found = probe("""
from intercom import cli
ran(status=cli.main(sys.argv[1:]))
""", "report", "--corpus", events_path, "--out", out)
    assert found["status"] == 0
    assert found["ran"] == ["intercom", "intercom.cli", "intercom.lexicon", "intercom.pipeline",
                            "intercom.settings"]
    assert not found["numpy"]


def test_importing_the_cli_and_its_help_import_no_numpy():
    found = probe("""
from intercom import cli
try:
    cli.main(["--help"])
except SystemExit as exit:
    ran(status=exit.code)
""")
    assert found["status"] == 0
    assert found["ran"] == ["intercom", "intercom.cli", "intercom.settings"]
    assert not found["numpy"]


@pytest.mark.parametrize("args", [
    ["report", "--corpus", "{missing}", "--out", "{out}"],
    ["report", "--config", "{missing}", "--out", "{out}"],
    ["match", "--corpus", "{events}", "--post", "no-such-post"],
], ids=["missing corpus", "missing config", "unknown post"])
def test_a_data_error_exits_2_in_a_fresh_interpreter(events_path, tmp_path, args):
    # the data errors are looked up only once an error is handled: here the
    # first lookup of the corpus, matching and mobilization modules' errors
    paths = {"missing": tmp_path / "missing", "out": tmp_path / "out", "events": events_path}
    found = probe("""
from intercom import cli
ran(status=cli.main(sys.argv[1:]))
""", *(arg.format(**paths) for arg in args))
    assert found["status"] == 2


def test_loading_an_event_log_runs_only_the_corpus_module(events_path):
    found = probe("""
from intercom.corpus import load_events
ran(lines=load_events(sys.argv[1]).stats.lines)
""", events_path)
    assert found["ran"] == ["intercom", "intercom.corpus"]
    assert found["lines"] > 0


@pytest.mark.parametrize("command", ["report", "ingest", "crosslinks"])
def test_a_command_without_embed_or_predict_runs_no_learning_module(events_path, tmp_path,
                                                                    command):
    found = probe("""
from intercom.cli import main
ran(status=main(sys.argv[1:]))
""", command, "--corpus", events_path, "--out", tmp_path / "out")
    assert found["status"] == 0
    assert "intercom.corpus" in found["ran"] and not LEARNING & set(found["ran"])
