"""Checks of the benchmark itself. From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

import fixtures
import run
import spans
import speed
from intercom.synth import SynthSpec, generate_corpus

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(fixtures.WORKLOADS))
def test_fixtures_are_byte_reproducible_per_seed(tmp_path, workload):
    first = fixtures.build(workload, 7, tmp_path / "a")
    second = fixtures.build(workload, 7, tmp_path / "b")
    files = _files(tmp_path / "a")
    assert files and files == _files(tmp_path / "b")
    assert first.truth == second.truth
    assert first.info["events"] == second.info["events"]
    assert first.info["mobilizations"] == first.info["planted_mobilizations_target"]


def test_traced_run_writes_the_untraced_bundle_and_covers_every_span(tmp_path):
    # one small corpus that runs every traced layer: sentiment model and
    # embed/predict both on
    spec = SynthSpec(n_crosslinks=60, seed=3)
    events, truth = generate_corpus(spec, tmp_path / "corpus")
    model = fixtures.train_sentiment_model(SynthSpec(n_crosslinks=60, seed=4), tmp_path)
    config = {"corpus": str(events), "seed": 3, "sentiment_model": str(model),
              "embed_enabled": True, "predict_enabled": True,
              "embed_epochs": 1, "predict_epochs": 1}
    bench = run.Bench(fixtures.Fixture("small", 3, config, truth, {}), tmp_path,
                      deadline=time.perf_counter() + run.RUN_LIMIT_S)

    plain, plain_manifest = bench.fresh("untraced")
    traced, traced_manifest = bench.fresh("traced", trace=True)
    rerun = bench.rerun("traced re-run", traced.bundle, trace=True)
    assert [op.problems for op in bench.ops] == [[], [], []]
    assert traced_manifest["files"] == plain_manifest["files"]

    stats = spans.span_stats([traced.result["spans"], rerun.result["spans"]])
    never_called = [spans.span_name(m, a) for m, a, _w, _c in spans.TARGETS
                    if stats[spans.span_name(m, a)].calls == 0]
    assert never_called == []
    assert len(rerun.result["cache_hits"]) == len(traced_manifest["stages"])


def test_span_stats_busy_and_self_time():
    # run_pipeline [0, 10] > detect [1, 5] > matched_post [2, 3] (raises)
    #                      > detect [6, 8]; one nested same-name span
    trace = [
        ["pipeline.run_pipeline", 0.0, 10.0, -1, None, 0],
        ["mobilization.detect", 1.0, 5.0, 0, None, 0],
        ["matching.matched_post", 2.0, 3.0, 1, "NoMatchError", 0],
        ["mobilization.detect", 6.0, 8.0, 0, None, 0],
        ["mobilization.detect", 6.5, 7.0, 3, None, 0],
    ]
    stats = spans.span_stats([trace, trace])
    detect = stats["mobilization.detect"]
    assert detect.calls == 6
    assert detect.busy == pytest.approx(2 * (4.0 + 2.0))
    assert detect.self_time == pytest.approx(2 * (3.0 + 1.5 + 0.5))
    assert stats["pipeline.run_pipeline"].self_time == pytest.approx(2 * 4.0)
    metrics = spans.layer_metrics(stats, cache_hits=3, overhead_frac=0.01)
    assert metrics["matching.no_match"] == (2, "count")
    assert spans.coverage_failures(stats, "links-440")[0] == "corpus.load_events"


def test_benchmark_json_matches_the_code():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(fixtures.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in fixtures.WORKLOADS.values()]
    layer = spans.layer_metrics(spans.span_stats([]), cache_hits=0, overhead_frac=0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_v, u) in layer.items()}
    assert {m["name"] for m in bench["end_to_end"]} == {
        "report_wall_s", "report_cpu_s", "peak_rss_mb", "rerun_wall_s", "setup_s", "verdict_agreement"}


def test_tail_percentile_needs_eleven_samples():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(20)]) == (50, 9.0)


def test_speed_scales_by_the_probes_taken_during_the_operation():
    nominal = speed.NOMINAL_PROBE_S
    # probes at half speed during [1, 2], at full speed after it
    samples = [(1.0 + i / 10, 2 * nominal) for i in range(11)]
    samples += [(2.05 + i / 10, nominal) for i in range(10)]
    assert speed.speed(samples, 1.0, 2.0) == pytest.approx(0.5)
    assert speed.speed(samples, 2.01, 3.0) == pytest.approx(1.0)
    # too few probes inside: borrow from around the operation
    assert 0.5 < speed.speed(samples, 1.98, 2.02) < 1.0
    assert speed.speed(samples, 10.0, 11.0) is None


def test_monitor_samples_until_stopped(tmp_path):
    with speed.Monitor(min(os.sched_getaffinity(0)), tmp_path / "speed.json") as monitor:
        time.sleep(1.0)
        samples = monitor.stop()
    assert monitor.proc.returncode == 0
    assert len(samples) >= 10
    assert all(d > 0 for _t, d in samples)
