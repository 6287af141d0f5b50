"""Names, units and meanings of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names and units; the benchmark's tests
keep the two in step.  Each per-layer entry names the end-to-end metric it
should move, and on which workload, so a change to one layer can state
beforehand which numbers move and which stay.
"""

from __future__ import annotations

#: (name, unit, meaning per workload).  Every workload reports all of them.
#: Per-operation latencies are printed with each workload's own figures
#: (plan_ms_p50, plan_ms_p95, serve_ms_p50, serve_ms_p95) but carry no
#: bound: they rest on the day's mix of job sizes as well as on the
#: machine's speed, and spread by 6-30% over ten seeds.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    (
        "setup_s",
        "s",
        "median over the run's set-ups (at least three) of the work done "
        "before the timed passes: input generation (daily_pipeline); each "
        "cluster's run_days and training (replan_fleet), plus load building "
        "and router construction (serving_mix)",
    ),
    (
        "throughput",
        "1/s",
        "median over passes of the workload's operations per second: jobs "
        "of the cycle's four days per second of the nightly cycle "
        "(daily_pipeline, jobs_per_s), instances replanned per second "
        "(replan_fleet, replan_plans_per_s), operator predictions served per "
        "second (serving_mix, serve_preds_per_s).  The counts come from the "
        "inputs, so no change to the program moves them",
    ),
    ("peak_rss_mb", "MB", "peak resident memory of the benchmark process"),
)

#: (name, unit, what should move).  Timings are self times from the traced
#: passes (set-ups for a layer that runs only there), shares are of the
#: same root span.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workload.run_days_s", "s", "throughput (daily_pipeline); setup_s (others)"),
    ("workload.run_days_share_pct", "%", "as workload.run_days_s"),
    ("workload.jobs", "count", "throughput (daily_pipeline); setup_s (others)"),
    ("workload.operators", "count", "throughput (daily_pipeline); setup_s (others)"),
    ("core.trainer.train_s", "s", "throughput (daily_pipeline); setup_s (others)"),
    ("core.trainer.train_share_pct", "%", "as core.trainer.train_s"),
    ("core.trainer.models", "count", "throughput (daily_pipeline); setup_s (others)"),
    ("core.trainer.rows_dropped", "count", "error metrics only; 0 on clean logs"),
    (
        "core.packed.compile_s",
        "s",
        "throughput (daily_pipeline): first predict_table call minus a warm one",
    ),
    (
        "serving.service.predict_table_s",
        "s",
        "throughput (daily_pipeline); under 1% of the cycle, so no visible move",
    ),
    ("serving.service.predict_table_share_pct", "%", "as serving.service.predict_table_s"),
    (
        "serving.service.model_calls",
        "count",
        "vectorized model calls of every service the pass used; all workloads",
    ),
    ("serving.service.lookups", "count", "model lookups of the same services"),
    (
        "optimizer.planner.search_s",
        "s",
        "throughput, plan_ms_p50 (daily_pipeline)",
    ),
    ("optimizer.planner.search_share_pct", "%", "as optimizer.planner.search_s"),
    (
        "optimizer.planner.candidates",
        "count",
        "throughput (daily_pipeline, replan_fleet)",
    ),
    (
        "optimizer.partition.sweep_s",
        "s",
        "throughput, plan_ms_p50, plan_ms_p95 (daily_pipeline); "
        "nothing on replan_fleet or serving_mix",
    ),
    ("optimizer.partition.sweep_share_pct", "%", "as optimizer.partition.sweep_s"),
    (
        "optimizer.partition.lookups",
        "count",
        "service lookups made by the sweep; as optimizer.partition.sweep_s",
    ),
    ("core.lifecycle.step_s", "s", "throughput (daily_pipeline)"),
    ("core.lifecycle.step_share_pct", "%", "as core.lifecycle.step_s"),
    ("core.lifecycle.retrains", "count", "throughput (daily_pipeline)"),
    ("core.lifecycle.rollbacks", "count", "throughput (daily_pipeline)"),
    ("optimizer.replan.replan_s", "s", "throughput (replan_fleet)"),
    ("optimizer.replan.replan_share_pct", "%", "as optimizer.replan.replan_s"),
    (
        "optimizer.replan.skeleton_hit_ratio",
        "ratio",
        "skeleton hits / (hits + builds); throughput (replan_fleet)",
    ),
    ("optimizer.replan.frontier_flushes", "count", "throughput (replan_fleet)"),
    ("serving.shard.router_init_s", "s", "setup_s (serving_mix)"),
    ("serving.shard.router_init_share_pct", "%", "as serving.shard.router_init_s"),
    (
        "serving.shard.predict_ms_p50",
        "ms",
        "throughput, serve_ms_p50 (serving_mix)",
    ),
    ("serving.shard.predict_share_pct", "%", "as serving.shard.predict_ms_p50"),
    (
        "serving.shard.plan_cost_ms_p50",
        "ms",
        "throughput, serve_ms_p50 (serving_mix)",
    ),
    ("serving.shard.plan_cost_share_pct", "%", "as serving.shard.plan_cost_ms_p50"),
    ("serving.cache.hit_rate", "ratio", "throughput (serving_mix)"),
    ("serving.cache.evictions", "count", "throughput (serving_mix)"),
    ("serving.service.in_batch_reuses", "count", "throughput (serving_mix)"),
    ("serving.shard.retries", "count", "failed (serving_mix)"),
    ("serving.shard.breaker_opens", "count", "failed (serving_mix)"),
    ("serving.shard.degraded_predictions", "count", "failed (serving_mix)"),
    (
        "pass.unattributed_share_pct",
        "%",
        "share of a pass outside every layer span (glue in the benchmark "
        "and in the program between layer calls)",
    ),
    (
        "trace.overhead_pct",
        "%",
        "median traced pass time over median untraced pass time, minus one",
    ),
)

#: Span names timed around layer calls; each gives ``<name>_s`` (or, for
#: per-request spans, ``<name>_ms_p50``) and ``<name>_share_pct``.
TIMED_LAYERS: tuple[str, ...] = (
    "workload.run_days",
    "core.trainer.train",
    "serving.service.predict_table",
    "optimizer.planner.search",
    "optimizer.partition.sweep",
    "core.lifecycle.step",
    "optimizer.replan.replan",
    "serving.shard.router_init",
)
REQUEST_LAYERS: tuple[str, ...] = ("serving.shard.predict", "serving.shard.plan_cost")
