"""One measured operation in a fresh interpreter.

    python3 perfbench/child.py report CONFIG.json RESULT.json [--trace]
    python3 perfbench/child.py setup EVENTS.jsonl RESULT.json

``report`` runs ``intercom.pipeline.run_pipeline`` (the ``intercom report``
path) with the Config fields in CONFIG.json; ``setup`` imports intercom and
loads the event log, the fixed cost every command pays. Either writes its
result, CPU time and peak RSS to RESULT.json. ``src/`` must be on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import resource
import time
import traceback


def run_report(config_path: str, trace: bool) -> dict:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer().install()
    # looked up on the module after install, so the traced run_pipeline is called
    from intercom import pipeline

    with open(config_path, encoding="utf-8") as fh:
        config = pipeline.Config(**json.load(fh))
    result = {"cache_hits": [], "error": None}
    start = time.perf_counter()
    try:
        result["cache_hits"] = pipeline.run_pipeline(config).cache_hits
    except Exception:  # noqa: BLE001 - a failed report is counted, not fatal
        result["error"] = traceback.format_exc(limit=3)
    result["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def run_setup(events_path: str) -> dict:
    from intercom.corpus import load_events

    return {"events": load_events(events_path).stats.lines, "error": None}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["report", "setup"])
    parser.add_argument("input")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "report":
        result = run_report(args.input, args.trace)
    else:
        result = run_setup(args.input)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
