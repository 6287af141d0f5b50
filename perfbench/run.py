#!/usr/bin/env python3
"""CLEO end-to-end benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload daily_pipeline --seed 0 \\
        --seconds 20 --trace 0

Workloads (``perfbench/workloads.py``): ``daily_pipeline`` (the nightly
cycle: execute, train, serve, plan with learned costs, retrain),
``replan_fleet`` (fleet replanning of recurring instances) and
``serving_mix`` (the multi-cluster request stream against the sharded
router).  A run sets the workload up at least three times, runs one untimed pass
that the correctness gate checks, then repeats timed passes for
``--seconds``; every timed pass must reproduce the checked pass's outputs.

With ``--trace 0`` the result holds the end-to-end metrics, measured
untraced.  With ``--trace 1`` passes alternate untraced and traced; the
traced ones give each layer's self time, share and counts, and the two
kinds together give the tracing overhead.  Spans are written to
``perfbench/out/``.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the provenance and the workload's own metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from metrics import END_TO_END, PER_LAYER, REQUEST_LAYERS, TIMED_LAYERS  # noqa: E402
from tracing import NO_TRACE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up runs at least this often, and while the set-ups so far took less
#: than ``SETUP_SECONDS`` (up to ``MAX_SETUPS``), so a cheap set-up's
#: median rests on many samples spread over a few seconds: the machine's
#: speed drifts over seconds, and tenth-of-a-second set-ups packed into one
#: second spread by a third between runs.
MIN_SETUPS = 3
MAX_SETUPS = 40
SETUP_SECONDS = 3.0
#: Timed passes run at least this often, even past ``--seconds``.
MIN_PASSES = 3
#: With tracing, at least this many passes of each kind (traced, untraced).
MIN_TRACED_PASSES = 2


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _git(*args: str) -> str | None:
    """Output of a git command on this checkout; None outside a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def provenance(args, sizes: dict) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": sha.strip() if sha else None,
        "dirty": None if status is None else bool(status.strip()),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seconds: float, trace: bool) -> dict:
    """Set up, check one pass, then time passes for ``seconds``."""
    tracer = Tracer() if trace else NO_TRACE
    setup_times: list[float] = []
    state = None
    while len(setup_times) < MIN_SETUPS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS
    ):
        if state is not None:
            state.close()
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(tracer)
        setup_times.append(time.perf_counter() - start)
    try:
        gc.collect()
        first = workload.run_pass(state, NO_TRACE)
        checked, mismatches = workload.check(state, first)
        quality = workload.quality(state, first)
        sizes = workload.sizes(state, first)
        reference = first.fingerprint
        attempted = first.attempted
        failed = min(first.attempted, first.failed + mismatches)
        first = None

        untraced, traced = [], []
        diverged = 0
        deadline = time.perf_counter() + seconds
        n = 0
        while (
            time.perf_counter() < deadline
            or len(untraced) < (MIN_TRACED_PASSES if trace else MIN_PASSES)
            or (trace and len(traced) < MIN_TRACED_PASSES)
        ):
            gc.collect()
            use_trace = trace and n % 2 == 1
            result = workload.run_pass(state, tracer if use_trace else NO_TRACE)
            attempted += result.attempted
            if result.fingerprint != reference:
                diverged += 1
                failed += result.attempted
            else:
                failed += result.failed
            result.outputs = {}
            result.fingerprint = None
            (traced if use_trace else untraced).append(result)
            n += 1
        setup_counters = state.counters
    finally:
        state.close()
    return {
        "setup_times": setup_times,
        "untraced": untraced,
        "traced": traced,
        "tracer": tracer,
        "setup_counters": setup_counters,
        "attempted": attempted,
        "failed": failed,
        "gate": {"checked": checked, "mismatches": mismatches, "diverged_passes": diverged},
        "quality": quality,
        "sizes": sizes,
    }


#: Units of the figures a workload also reports under its own names.
FIGURE_UNITS = {
    **{name: unit for name, unit, _ in END_TO_END},
    "pass_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
}


def figures(measured: dict) -> dict[str, float]:
    """End-to-end figures of the untraced passes, by generic name."""
    passes = measured["untraced"]
    # Percentiles are taken per pass and their median reported, so a burst
    # of contention from outside the process that covers fewer than half of
    # the passes does not move them.
    return {
        "setup_s": _median(measured["setup_times"]),
        "throughput": _median(p.units / p.seconds for p in passes),
        "latency_ms_p50": _median(1e3 * np.quantile(p.latencies, 0.50) for p in passes),
        "latency_ms_p95": _median(1e3 * np.quantile(p.latencies, 0.95) for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": _median(p.seconds for p in passes),
    }


def end_to_end_metrics(measured: dict) -> dict:
    values = figures(measured)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_metrics(measured: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, plus where each was measured."""
    tracer: Tracer = measured["tracer"]
    pass_roots = tracer.roots("pass")
    setup_roots = tracer.roots("setup")
    self_times = {r: tracer.self_times(r) for r in pass_roots + setup_roots}

    def duration(root: int) -> float:
        span = tracer.spans[root]
        return span.end - span.start

    values: dict[str, float] = {}
    phases: dict[str, str] = {}
    for layer in TIMED_LAYERS + REQUEST_LAYERS:
        if any(layer in self_times[r] for r in pass_roots):
            roots, phases[layer] = pass_roots, "pass"
        elif any(layer in self_times[r] for r in setup_roots):
            roots, phases[layer] = setup_roots, "setup"
        else:
            roots, phases[layer] = [], "absent"
        values[f"{layer}_share_pct"] = _median(
            100.0 * self_times[r].get(layer, 0.0) / duration(r) for r in roots
        )
        if layer in REQUEST_LAYERS:
            values[f"{layer}_ms_p50"] = 1e3 * _median(tracer.durations(layer))
        else:
            values[f"{layer}_s"] = _median(self_times[r].get(layer, 0.0) for r in roots)
    values["pass.unattributed_share_pct"] = _median(
        100.0 * self_times[r]["pass"] / duration(r) for r in pass_roots
    )

    counters = dict(measured["setup_counters"])
    traced = measured["traced"]
    for key in {k for p in traced for k in p.counters}:
        counters[key] = _median(p.counters.get(key, 0.0) for p in traced)
    hits = counters.pop("serving.cache.hits", 0)
    misses = counters.pop("serving.cache.misses", 0)
    counters["serving.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    values.update(counters)

    untraced_s = _median(p.seconds for p in measured["untraced"])
    traced_s = _median(p.seconds for p in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
    return metrics, phases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    measured = run(workload, args.seconds, bool(args.trace))
    attempted, failed = measured["attempted"], measured["failed"]
    gate = measured["gate"]
    correct = gate["mismatches"] == 0 and gate["diverged_passes"] == 0 and failed == 0

    detail: dict = {
        "provenance": provenance(args, measured["sizes"]),
        "gate": gate,
        "error_rate": failed / attempted,
        "passes": {
            "untraced": len(measured["untraced"]),
            "traced": len(measured["traced"]),
        },
        "latency_samples": sum(len(p.latencies) for p in measured["untraced"]),
        "latency_samples_per_pass": min(
            (len(p.latencies) for p in measured["untraced"]), default=0
        ),
        "quality": measured["quality"],
    }
    if args.trace:
        metrics, detail["layer_phase"] = per_layer_metrics(measured)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps(measured["tracer"].to_json()) + "\n")
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(measured)
        values = figures(measured)
        detail["named"] = {
            alias: {"value": values[name], "unit": FIGURE_UNITS[name]}
            for name, alias in workload.aliases.items()
        }

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
