"""Benchmark of ``intercom report`` on planted synthetic workloads.

    python3 perfbench/run.py --workload links-440 --seed 1 --seconds 40 --trace 0

Run from the repository root. It builds the workload's fixtures from
``--seed`` (see ``fixtures.py``), then measures in fresh subprocesses, one at
a time, all pinned to one CPU next to a host-speed monitor (``speed.py``):

* ``--trace 0``: rounds of a fresh report and pairs of a cached re-run into
  the first bundle and a set-up run (import + ``load_events``) until
  ``--seconds`` have passed, at least two rounds. Prints the end-to-end
  metrics: medians of times scaled to a nominal host speed (see
  ``measure``).
* ``--trace 1``: one untraced and one traced fresh report plus a traced
  re-run. Prints per-layer metrics derived from the spans (``spans.py``).

Every run checks the bundles: ``validate_bundle``, identical ``files``
digests across fresh (and traced) runs, a re-run that hits every stage and
leaves ``manifest.json`` byte-identical, and verdicts and sentiment labels
against the planted ground truth. A failed operation or check is counted,
not fatal. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
environment, goes to ``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_ROUNDS = 2
# After each fresh report a round runs (cached re-run, set-up) pairs until
# they took PAIRS_SHARE of the report's time, at least one: next to a 4-5 s
# report one pair, next to a 10 s one two.
PAIRS_SHARE = 0.3
# A run must end within 180 s; children still running at this point of the
# run are killed and counted as failed.
RUN_LIMIT_S = 170
# A detector or sentiment model that misses this share of the planted truth
# is broken, not noisy.
MIN_AGREEMENT = 0.9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Measured:
    metrics: dict  # name -> (value, unit): the metrics the final JSON line carries
    extra: dict = field(default_factory=dict)  # name -> (value, unit), printed and recorded
    notes: list[str] = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # op label -> wall times, recorded only


@dataclass
class Op:
    """One measured subprocess: its wall time, the child's result and every
    problem found with it."""

    label: str
    wall_s: float
    result: dict | None
    problems: list[str] = field(default_factory=list)
    bundle: Path | None = None  # set once the bundle passed validate_bundle
    interval: tuple[float, float] = (0.0, 0.0)  # start and end on time.monotonic()

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    def __init__(self, fixture, workdir: Path, deadline: float, cpu: int | None = None):
        self.fx = fixture
        self.workdir = workdir
        self.deadline = deadline  # time.perf_counter() value
        self.cpu = cpu  # every child runs pinned to this CPU, if set
        self.ops: list[Op] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def _child(self, label: str, mode: str, input_path: str, *flags: str) -> Op:
        result_path = self.workdir / f"op{len(self.ops)}.result.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, input_path, str(result_path), *flags]
        pin = None if self.cpu is None else lambda: os.sched_setaffinity(0, {self.cpu})
        start, at = time.perf_counter(), time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  preexec_fn=pin, timeout=max(0.1, self.deadline - start))
        except subprocess.TimeoutExpired:
            op = Op(label, time.perf_counter() - start, None, ["killed at the run's time limit"])
        else:
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                op = Op(label, wall, None, [f"exit {proc.returncode}: {proc.stderr[-500:]}"])
            else:
                result = json.loads(result_path.read_text())
                op = Op(label, wall, result, [result["error"]] if result["error"] else [])
        op.interval = (at, time.monotonic())
        self.ops.append(op)
        return op

    def report(self, label: str, out: Path, trace: bool = False) -> Op:
        config_path = self.workdir / f"op{len(self.ops)}.config.json"
        config_path.write_text(json.dumps(dict(self.fx.config, output_dir=str(out))))
        return self._child(label, "report", str(config_path), *(["--trace"] if trace else []))

    def fresh(self, label: str, trace: bool = False) -> tuple[Op, dict | None]:
        """A report into a new directory; returns the op and its manifest."""
        out = self.workdir / f"bundle{len(self.ops)}"
        op = self.report(label, out, trace)
        manifest = self._validated(op, out)
        if manifest is not None:
            op.bundle = out
        return op, manifest

    def rerun(self, label: str, bundle: Path, trace: bool = False) -> Op:
        before = (bundle / "manifest.json").read_bytes()
        op = self.report(label, bundle, trace)
        manifest = self._validated(op, bundle)
        if manifest is not None:
            stages = sorted(manifest["stages"])
            if sorted(op.result["cache_hits"]) != stages:
                op.problems.append(f"re-run hit {op.result['cache_hits']}, expected every stage {stages}")
            if (bundle / "manifest.json").read_bytes() != before:
                op.problems.append("re-run changed manifest.json")
        return op

    def setup(self) -> Op:
        return self._child("setup", "setup", self.fx.config["corpus"])

    def _validated(self, op: Op, out: Path) -> dict | None:
        if not op.ok:
            return None
        from intercom.pipeline import validate_bundle

        try:
            validate_bundle(out)
        except ValueError as exc:
            op.problems.append(f"validate_bundle: {exc}")
            return None
        return json.loads((out / "manifest.json").read_text())

    def quality(self, bundle: Path) -> dict:
        """Agreement of the bundle with the planted ground truth."""
        planted = self.fx.truth["links"]

        def agreement(rows, key, truth_key, convert):
            got = {row["source_post"]: convert(row[key]) for row in rows}
            return sum(got.get(l["source_post"]) == l[truth_key] for l in planted) / len(planted)

        q = {"verdict_agreement": agreement(_jsonl(bundle / "mobilizations.jsonl"), "verdict",
                                            "mobilization", lambda v: v == "mobilization")}
        if self.fx.config.get("sentiment_model"):
            q["sentiment_agreement"] = agreement(_jsonl(bundle / "sentiment.jsonl"), "label",
                                                 "sentiment", str)
        if self.fx.config.get("predict_enabled"):
            q["predict_auc"] = json.loads((bundle / "predict.json").read_text())["ensemble_test_auc"]
        return q

    def check_quality(self, op: Op, q: dict) -> None:
        for key in ("verdict_agreement", "sentiment_agreement"):
            if key in q and q[key] < MIN_AGREEMENT:
                op.problems.append(f"{key} {q[key]:.3f} < {MIN_AGREEMENT}")
        if "predict_auc" in q and q["predict_auc"] is None:
            op.problems.append("predict.json has no ensemble_test_auc")


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return (100 * (n - 10)) // n, sorted(values)[n - 11]


def measure(bench: Bench, seconds: float, monitor: speed.Monitor) -> Measured | None:
    """Rounds of a fresh report and (cached re-run, set-up) pairs until
    ``seconds`` have passed, at least MIN_ROUNDS rounds. The first valid
    bundle is the reference for digests and re-runs.

    Every time is scaled by the host speed the monitor saw while the
    operation ran (``speed.py``), and a metric is the median of the scaled
    times over the run. There is no warm-up: over 66 runs the first report
    of a run took 1.0x the median of the others."""
    fresh: list[tuple[Op, dict | None]] = []
    reruns: list[Op] = []
    setups: list[Op] = []
    first: tuple[Op, dict] | None = None  # the first valid bundle and its manifest
    start = time.perf_counter()
    round_s = 0.0
    while len(fresh) < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        op, manifest = bench.fresh("fresh report")
        fresh.append((op, manifest))
        if manifest is not None and first is None:
            first = (op, manifest)
        elif manifest is not None and manifest["files"] != first[1]["files"]:
            op.problems.append("bundle digests differ from the first fresh run")
        pairs_s = 0.0
        while first is not None and (pairs_s == 0.0 or pairs_s < PAIRS_SHARE * op.wall_s):
            reruns.append(bench.rerun("cached re-run", first[0].bundle))
            setups.append(bench.setup())
            pairs_s += reruns[-1].wall_s + setups[-1].wall_s
        round_s = time.perf_counter() - round_start
    samples = monitor.stop()
    good = [op for op, m in fresh if m is not None]
    # a time counts if its operation ran to the end, even if a later check on
    # its output failed: the failure is counted on its own
    speeds = {id(op): speed.speed(samples, *op.interval)
              for op in good + reruns + setups if op.result is not None}
    if first is None or None in speeds.values():
        return None

    def scaled(ops: list[Op], value=lambda op: op.wall_s) -> list[float]:
        return [value(op) * speeds[id(op)] for op in ops if id(op) in speeds]

    walls, rerun_walls, setup_walls = scaled(good), scaled(reruns), scaled(setups)
    if not rerun_walls or not setup_walls:
        return None
    identical = sum(m["files"] == first[1]["files"] for _, m in fresh if m is not None)
    q = bench.quality(first[0].bundle)
    bench.check_quality(first[0], q)
    median = statistics.median
    pct = tail(walls)
    return Measured(
        metrics={
            "report_wall_s": (median(walls), "s"),
            "report_cpu_s": (median(scaled(good, lambda op: op.result["cpu_s"])), "s"),
            "peak_rss_mb": (median([op.result["peak_rss_mb"] for op in good]), "MB"),
            "rerun_wall_s": (median(rerun_walls), "s"),
            "setup_s": (median(setup_walls), "s"),
            "verdict_agreement": (q.pop("verdict_agreement"), "fraction"),
        },
        extra={
            "report_wall_s.unscaled": (median([op.wall_s for op in good]), "s"),
            "rerun_wall_s.unscaled": (median([op.wall_s for op in reruns if id(op) in speeds]), "s"),
            "setup_s.unscaled": (median([op.wall_s for op in setups if id(op) in speeds]), "s"),
            "host_speed": (statistics.fmean(speeds.values()), "fraction"),
            "bundle_identical": (identical / len(fresh), "fraction"),
            **{k: (v, "AUC" if k == "predict_auc" else "fraction") for k, v in q.items()},
        },
        notes=[f"times are scaled to the host speed at which a speed probe takes "
               f"{speed.NOMINAL_PROBE_S * 1e3:.2f} ms; host_speed is the mean speed the "
               f"{len(samples)} probes saw during the operations, as a fraction of that",
               f"scaled report_wall_s samples: {', '.join(f'{w:.3f}' for w in walls)} s; tail: "
               + (f"p{pct[0]} = {pct[1]:.3f} s" if pct else
                  f"none supported (n={len(walls)}, a tail percentile needs 11)")],
        samples={kind: [[op.wall_s, speeds.get(id(op))] for op in ops]
                 for kind, ops in (("fresh report", [op for op, _ in fresh]),
                                   ("cached re-run", reruns), ("setup", setups))},
    )


def measure_traced(bench: Bench, monitor: speed.Monitor) -> Measured | None:
    from spans import coverage_failures, layer_metrics, span_stats, wrapper_cost_s

    plain, plain_manifest = bench.fresh("untraced report")
    traced, traced_manifest = bench.fresh("traced report", trace=True)
    rerun = bench.rerun("traced re-run", traced.bundle, trace=True) if traced.bundle else None
    samples = monitor.stop()
    if plain_manifest is None or traced_manifest is None or rerun is None or rerun.result is None:
        return None
    if traced_manifest["files"] != plain_manifest["files"]:
        traced.problems.append("traced bundle digests differ from the untraced run")
    stats = span_stats([traced.result["spans"], rerun.result["spans"]])
    missing = coverage_failures(stats, bench.fx.workload)
    if missing:
        traced.problems.append(f"span coverage: no calls recorded for {missing}")
    plain_speed, traced_speed = (speed.speed(samples, *op.interval) for op in (plain, traced))
    if plain_speed is None or traced_speed is None:
        return None
    traced_wall = traced.result["wall_s"]
    overhead = (traced_wall * traced_speed) / (plain.result["wall_s"] * plain_speed) - 1.0
    n_spans = len(traced.result["spans"])
    cost = n_spans * wrapper_cost_s()
    return Measured(
        metrics=layer_metrics(stats, len(rerun.result["cache_hits"]), overhead),
        notes=[f"run_pipeline wall: untraced {plain.result['wall_s']:.3f} s at host speed "
               f"{plain_speed:.3f}, traced {traced_wall:.3f} s at {traced_speed:.3f}; "
               f"per-layer figures sum the traced fresh report and the traced re-run",
               f"wrapper cost estimate: {n_spans} spans in the fresh report x no-op call "
               f"cost = {cost:.4f} s ({cost / traced_wall:.2%} of its wall)"],
    )


def environment(cpu: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        # the measured children and the speed monitor share this CPU; the
        # driver process runs on the others
        "measured_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        # unset means the BLAS default: one thread per usable CPU
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
    }


def main() -> int:
    if not (ROOT / "src" / "intercom" / "pipeline.py").is_file():
        print(f"error: no intercom sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fixtures

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(fixtures.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: the finally blocks below stop the monitor and the
    # running child and remove the work directory
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    work_root = ROOT / ".bench_work"
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:-1])
    try:
        with speed.Monitor(cpu, workdir / "speed.json") as monitor:
            fx = fixtures.build(args.workload, args.seed, workdir)
            bench = Bench(fx, workdir, deadline, cpu)
            measured = (measure_traced(bench, monitor) if args.trace
                        else measure(bench, args.seconds, monitor))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(cpu)
    failures = [f"{op.label}: {p}" for op in bench.ops for p in op.problems]
    attempted, failed = len(bench.ops), sum(not op.ok for op in bench.ops)
    as_json = lambda items: {k: {"value": v, "unit": u} for k, (v, u) in items.items()}  # noqa: E731
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": fixtures.WORKLOADS[args.workload].why,
        "workload_info": fx.info, "environment": env,
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": as_json(measured.metrics) if measured else {},
        "extra": as_json(measured.extra) if measured else {},
        "notes": measured.notes if measured else [],
        "samples": measured.samples if measured else {},
    }
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    info = fx.info
    print(f"{args.workload} seed {args.seed}: {info['events']} events, {info['links']} links, "
          f"{info['mobilizations']} planted mobilizations, fixtures built in "
          f"{info['generation_s']:.2f} s")
    print(f"environment: {json.dumps(env)}")
    for failure in failures:
        print(f"FAILED {failure}")
    if measured is None:
        print("error: no successful report to measure", file=sys.stderr)
        return 1
    print(f"ops_failed_frac = {failed / attempted:.4f} fraction ({failed} of {attempted} operations)")
    for name, (value, unit) in {**measured.metrics, **measured.extra}.items():
        print(f"{name} = {value} {unit}")
    for note in measured.notes:
        print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": as_json(measured.metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
