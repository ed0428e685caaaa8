#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fwd-train --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload again under the per-layer tracer
(:mod:`layers`) and reports the per-layer metrics instead. Either way
the command checks that the program's outputs are correct, prints every
metric by name with its unit, writes the full result — provenance,
raw per-window samples, checks — to ``perfbench/results/`` and prints
one JSON summary as its last line. It exits 1 when a correctness check
fails and 2 when the program cannot be imported.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (needs the path set above)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "tuples_per_s": "tuples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_tuples_per_s": "tuples/s",
}

#: Units of the modelled (virtual-time) figures printed beside the
#: end-to-end metrics.
MODEL_UNITS = {
    "complete_latency_p50_ms": "ms",
    "complete_latency_p99_ms": "ms",
    "latency_samples": "count",
    "reconfig_ms": "ms",
    "failover_blackout_ms": "ms",
    "failed_ratio": "fraction",
    "replayed_roots": "count",
    "exhausted_roots": "count",
    "stale_rules_before_failover": "count",
}

#: Workload set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 21

#: Virtual seconds the traced run covers on steady-stream workloads
#: (the scheduled workload is traced over its whole schedule).
TRACE_SPAN = {"fwd-train": 1.0, "bcast-remote": 0.2}


def measure_windows(run, until: Optional[float] = None,
                    deadline: float = 0.0) -> harness.WindowLog:
    """Time fixed virtual-time windows from ``run.measure_from``.

    With ``until`` the windows end there (a scheduled workload's horizon,
    or a traced span); otherwise they go on until the wall-clock
    ``deadline``, and for at least ``run.model_windows`` windows."""
    log = harness.WindowLog()
    now = run.measure_from
    run.engine.run(until=now)
    while True:
        if until is not None:
            if now >= until - 1e-9:
                break
            now = min(until, now + run.window)
        else:
            if len(log) >= run.model_windows \
                    and time.perf_counter() >= deadline:
                break
            now += run.window
        log.time(lambda: run.engine.run(until=now), run.processed)
    return log


def measured(workload, seed: int, seconds: float) -> Dict[str, object]:
    """The ``--trace 0`` run: end-to-end metrics with tracing off."""
    setups: List[Tuple[float, float]] = []
    logs: List[harness.WindowLog] = []
    outcomes = []

    def setup():
        run, raw, norm = harness.timed_setup(lambda: workload.start(seed))
        setups.append((raw, norm))
        return run

    if workload.scheduled:
        # The whole schedule runs once per repeat; the fault-free run
        # gives the replicated pipeline's reference output.
        reference = workload.start(seed, faults=False).reference_output()
        for _ in range(SETUP_REPS - 1):
            setup()
        deadline = time.perf_counter() + seconds
        while not outcomes or time.perf_counter() < deadline:
            run = setup()
            logs.append(measure_windows(run, until=run.horizon))
            outcomes.append(run.finish(logs[-1].tuples,
                                       reference=reference))
            del run
    else:
        for _ in range(SETUP_REPS - 1):
            setup()
        run = setup()
        deadline = time.perf_counter() + seconds
        logs.append(measure_windows(run, deadline=deadline))
        outcomes.append(run.finish(logs[-1].tuples))

    outcome = outcomes[0]
    checks = list(outcome.checks)
    if len(outcomes) > 1:
        same = all(other.model == outcome.model for other in outcomes[1:])
        checks.append(_check("deterministic-repeats", same,
                             "repeats=%d" % len(outcomes)))
    rates = [rate for log in logs for rate in log.normalized_rates()]
    metrics = {
        "tuples_per_s": harness.median(rates),
        "setup_s": harness.median([norm for _raw, norm in setups]),
        "peak_rss_mb": harness.peak_rss_mb(),
        "model_tuples_per_s": outcome.model["model_tuples_per_s"],
    }
    return {
        "metrics": {name: (value, END_TO_END[name])
                    for name, value in metrics.items()},
        "checks": checks,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "model": outcome.model,
        "info": outcome.info,
        "samples": {
            "windows": [log.samples() for log in logs],
            "raw_tuples_per_s": [r for log in logs for r in log.raw_rates()],
            "normalized_tuples_per_s": rates,
            "setup_raw_s": [raw for raw, _norm in setups],
            "setup_normalized_s": [norm for _raw, norm in setups],
        },
    }


def traced(workload, seed: int) -> Dict[str, object]:
    """The ``--trace 1`` run: the same workload once untraced and once
    under the layer tracer, over the same virtual span."""
    import layers

    kwargs = {}
    if workload.scheduled:
        kwargs["reference"] = workload.start(
            seed, faults=False).reference_output()

    plain = workload.start(seed)
    until = plain.horizon or plain.measure_from + TRACE_SPAN[workload.name]
    plain.engine.run(until=plain.measure_from)
    before = layers.snapshot(plain)
    plain_log = measure_windows(plain, until=until)
    plain_counts = layers.delta(before, layers.snapshot(plain))

    tracer = layers.LayerTracer().install()
    try:
        run = workload.start(seed)
        tracer.in_update = lambda: run.updating > 0
        run.engine.run(until=run.measure_from)
        before = layers.snapshot(run)
        tracer.begin()
        log = measure_windows(run, until=until)
        counts = layers.delta(before, layers.snapshot(run))
        tracer.end()
    finally:
        tracer.uninstall()

    outcome = plain.finish(plain_log.tuples, **kwargs)
    per_layer, mismatches = layers.layer_metrics(
        tracer, counts, plain_counts, outcome.model,
        traced_wall=log.normalized_wall(),
        plain_wall=plain_log.normalized_wall(),
        speed=log.wall_total / log.normalized_wall())
    checks = list(outcome.checks)
    checks.append(_check("trace-crosscheck", not mismatches,
                         "; ".join(mismatches) or "all counters agree"))
    return {
        "metrics": per_layer,
        "checks": checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "model": outcome.model,
        "info": outcome.info,
        "samples": {
            "traced_windows": log.samples(),
            "plain_windows": plain_log.samples(),
            "layer_self_s": tracer.layer_self_seconds(),
            "unattributed_s": tracer.unattributed_seconds(),
            "calls": dict(sorted(tracer.calls.items())),
            "counts": counts,
        },
    }


def _check(name: str, ok: bool, detail: str):
    from workloads import Check
    return Check(name, ok, detail)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from workloads import WORKLOADS
    except ImportError as error:
        print("perfbench: cannot import the program under test: %s"
              % error, file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))

    started = time.perf_counter()
    if args.trace:
        result = traced(workload, args.seed)
    else:
        result = measured(workload, args.seed, args.seconds)
    elapsed = time.perf_counter() - started

    checks = result["checks"]
    correct = all(check.ok for check in checks)
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"]) if correct else attempted

    print("== perfbench %s seed=%d trace=%d (%.1f s) =="
          % (workload.name, args.seed, args.trace, elapsed))
    for name, (value, unit) in result["metrics"].items():
        print("%-34s %16.6g %s" % (name, value, unit))
    if not args.trace:
        for name, value in sorted(result["model"].items()):
            if name != "model_tuples_per_s":
                print("%-34s %16.6g %s (modelled)"
                      % (name, value, MODEL_UNITS.get(name, "")))
    for check in checks:
        print("check %-32s %s  %s" % (check.name,
                                      "PASS" if check.ok else "FAIL",
                                      check.detail))

    record = {
        "provenance": harness.provenance(ROOT, args.seed, workload.name,
                                         args.seconds, bool(args.trace)),
        "elapsed_s": elapsed,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
        "modelled": result["model"],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in checks],
        "info": result["info"],
        "samples": result["samples"],
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / ("%s-seed%d-trace%d.json"
                          % (workload.name, args.seed, args.trace))
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True,
                                   default=str) + "\n")
    print("result written to %s" % out_path.relative_to(ROOT))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
