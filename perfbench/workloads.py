"""The benchmark's workloads: set-up, one timed pass, and the correctness gate.

Each workload drives the program only through the public entry points of
``repro.workload``, ``repro.core``, ``repro.serving`` and
``repro.optimizer``.  Spans are opened here, around those calls; counts
come from the counters the layers already expose (``CleoService.stats()``,
``FleetReplanner.stats()``, ``ShardedCleoRouter.stats()``, the trainer's
audit).  A pass opens one root span, ``pass``; a set-up opens ``setup``.

Every pass of a workload does the same work on the same inputs, so its
outputs (the fingerprint) must equal the first pass's.  The first pass is
also checked against an independent path through the program (the gate).
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.stats import median_error_pct
from repro.core.cost_model import CleoCostModel
from repro.core.lifecycle import LifecycleManager, RetrainPolicy
from repro.core.trainer import CleoTrainer
from repro.experiments.shared import cluster_spec, workload_config
from repro.optimizer.partition import SamplingStrategy, optimize_partitions
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.serving.service import CleoService
from repro.serving.shard.loadgen import PlanJob, ServiceBackend, build_load, run_load
from repro.serving.shard.router import ShardedCleoRouter
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner
from repro.workload.templates import instantiate

#: Each cluster's tables, fragments and recurring templates come from this
#: fixed generator seed, as a production cluster's persist from one day to
#: the next.  ``--seed`` picks which days of them a run replays (``Days``)
#: and seeds the execution noise of the runs that make the training logs.
CLUSTER_SEED = 0
#: Seeds map onto this many first days: four weeks, so every phase of the
#: generator's weekly drift in input sizes is covered.
DAY_WINDOW = 28


@dataclass(frozen=True)
class Days:
    """The consecutive days a run replays, picked by the seed.

    Individual models train on the first two days and the combined model on
    the second; the third is the test day that is served and planned.
    Different days of a cluster differ in their ad-hoc jobs, template churn,
    instance counts and parameters, and input sizes.
    """

    all: tuple[int, ...]

    @classmethod
    def for_seed(cls, seed: int, count: int) -> Days:
        first = 1 + seed % DAY_WINDOW
        return cls(tuple(range(first, first + count)))

    @property
    def train(self) -> list[int]:
        return list(self.all[:2])

    @property
    def combined(self) -> list[int]:
        return [self.all[1]]

    @property
    def test(self) -> int:
        return self.all[2]


@dataclass
class PassResult:
    """What one pass measured and produced."""

    #: Wall seconds of the timed section.
    seconds: float
    #: Work done in the workload's own unit: jobs executed, instances
    #: replanned, predictions served.
    units: int
    #: Seconds per operation (planned job, replanned instance, request).
    latencies: list[float]
    attempted: int
    failed: int
    #: Everything a change in behaviour would perturb; equal on every pass.
    fingerprint: object
    #: Per-layer counts of this pass (filled on traced passes).
    counters: dict[str, float] = field(default_factory=dict)
    #: Objects the gate and the quality metrics need (first pass only).
    outputs: dict = field(default_factory=dict)


def _plan_fingerprint(plan, cost: float, candidates: int) -> tuple:
    shape = tuple((op.op_type.value, op.partition_count) for op in plan.walk())
    return (shape, cost, candidates)


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _service_counters(stats) -> dict[str, float]:
    return {
        "serving.service.model_calls": stats.model_calls,
        "serving.cache.hits": stats.cache.hits,
        "serving.cache.misses": stats.cache.misses,
        "serving.cache.evictions": stats.cache.evictions,
        "serving.service.in_batch_reuses": stats.in_batch_reuses,
        "serving.shard.retries": stats.retries,
        "serving.shard.breaker_opens": stats.breaker_opens,
        "serving.shard.degraded_predictions": stats.degraded_predictions,
    }


def _run_and_train(cluster: str, scale: str, seed: int, days: Days, tracer, counters):
    """Generate a cluster's workload, execute ``days`` and train on it."""
    generator = WorkloadGenerator(workload_config(cluster, scale, CLUSTER_SEED))
    runner = WorkloadRunner(cluster=cluster_spec(cluster), seed=seed, keep_plans=True)
    with tracer.span("workload.run_days"):
        log = runner.run_days(generator, list(days.all))
    trainer = CleoTrainer()
    with tracer.span("core.trainer.train"):
        predictor = trainer.train(
            log, individual_days=days.train, combined_days=days.combined
        )
    _add(
        counters,
        {
            "workload.jobs": len(log),
            "workload.operators": len(log.to_table()),
            "core.trainer.models": predictor.model_count,
            "core.trainer.rows_dropped": trainer.last_audit.rows_dropped,
        },
    )
    return generator, runner, log, predictor


# ---------------------------------------------------------------------- #
# daily_pipeline
# ---------------------------------------------------------------------- #


@dataclass
class DailyInputs:
    """One cluster's generated inputs for the nightly cycle."""

    cluster: str
    generator: WorkloadGenerator
    #: (job, logical plan) for every test-day job, planned with learned costs.
    jobs: list
    #: Logical operators of every job on every day of the cycle.
    operators: int


@dataclass
class DailyState:
    inputs: list[DailyInputs]
    counters: dict = field(default_factory=dict)

    def close(self) -> None:
        pass


class DailyPipeline:
    """One nightly cycle per cluster: execute, train, serve, plan, retrain.

    Set-up generates each cluster's inputs for the four days the seed picks
    (templates, catalogs, the test day's logical plans); every pass then
    runs the whole cycle on them from scratch with fresh runner, trainer,
    service, planner and lifecycle manager.
    """

    name = "daily_pipeline"
    #: The workload's own names for the generic metrics it reports.
    aliases = {
        "pass_s": "cycle_s",
        "throughput": "jobs_per_s",
        "latency_ms_p50": "plan_ms_p50",
        "latency_ms_p95": "plan_ms_p95",
    }
    clusters = ("cluster1", "cluster2")

    def __init__(self, seed: int, scale: str = "small") -> None:
        self.seed = seed
        self.scale = scale
        self.days = Days.for_seed(seed, 4)
        #: The lifecycle steps through the test day and the day after it.
        self.lifecycle_days = self.days.all[2:]
        self.strategy = SamplingStrategy(scheme="geometric")

    def setup(self, tracer) -> DailyState:
        inputs = []
        with tracer.span("setup"):
            for cluster in self.clusters:
                generator = WorkloadGenerator(
                    workload_config(cluster, self.scale, CLUSTER_SEED)
                )
                operators = 0
                for day in self.days.all:
                    catalog = generator.catalog_for_day(day)
                    plans = [
                        (job, instantiate(job, catalog))
                        for job in generator.jobs_for_day(day)
                    ]
                    operators += sum(len(list(plan.walk())) for _, plan in plans)
                    if day == self.days.test:
                        jobs = plans
                inputs.append(DailyInputs(cluster, generator, jobs, operators))
        return DailyState(inputs)

    def run_pass(self, state: DailyState, tracer) -> PassResult:
        start = time.perf_counter()
        with tracer.span("pass"):
            cycles = [self._cycle(inputs, tracer) for inputs in state.inputs]
        seconds = time.perf_counter() - start
        counters: dict[str, float] = {}
        if tracer.enabled:
            for cycle in cycles:
                warm_start = time.perf_counter()
                cycle["service"].predict_table(cycle["test_table"])
                cycle["counters"]["core.packed.compile_s"] = cycle["first_call"] - (
                    time.perf_counter() - warm_start
                )
                _add(counters, cycle["counters"])
        return PassResult(
            seconds=seconds,
            units=sum(c["jobs"] for c in cycles),
            latencies=[x for c in cycles for x in c["latencies"]],
            attempted=sum(c["attempted"] for c in cycles),
            failed=sum(c["failed"] for c in cycles),
            fingerprint=tuple(c["fingerprint"] for c in cycles),
            counters=counters,
            outputs={"cycles": cycles},
        )

    def _cycle(self, inputs: DailyInputs, tracer) -> dict:
        traced = tracer.enabled
        failed = 0
        plans: list = []
        latencies: list[float] = []
        sweep_lookups = 0
        candidates = 0
        runner = WorkloadRunner(
            cluster=cluster_spec(inputs.cluster), seed=self.seed, keep_plans=True
        )
        with tracer.span("workload.run_days"):
            log = runner.run_days(inputs.generator, list(self.days.all))
        trainer = CleoTrainer()
        with tracer.span("core.trainer.train"):
            predictor = trainer.train(
                log,
                individual_days=self.days.train,
                combined_days=self.days.combined,
            )
        service = CleoService(predictor, prediction_cache_size=0)
        test_table = log.filter(days=[self.days.test]).to_table()
        predict_start = time.perf_counter()
        with tracer.span("serving.service.predict_table"):
            predictions = service.predict_table(test_table)
        first_call = time.perf_counter() - predict_start
        if not np.isfinite(predictions).all():
            failed += 1

        cost_model = CleoCostModel(predictor)
        planner = QueryPlanner(cost_model, CardinalityEstimator(), PlannerConfig())
        for job, logical in inputs.jobs:
            job_start = time.perf_counter()
            try:
                planner.jitter_salt = job.job_id
                with tracer.span("optimizer.planner.search"):
                    planned = planner.plan(logical)
                before = cost_model.service.lookup_count if traced else 0
                with tracer.span("optimizer.partition.sweep"):
                    plan = optimize_partitions(
                        planned.plan,
                        cost_model,
                        planner.estimator,
                        self.strategy,
                        max_partitions=planner.config.max_partitions,
                    )
                if traced:
                    sweep_lookups += cost_model.service.lookup_count - before
                cost = cost_model.plan_cost(plan, planner.estimator)
            except Exception as exc:  # counted, reported, and the cycle goes on
                traceback.print_exception(exc)
                failed += 1
                plans.append(None)
                continue
            latencies.append(time.perf_counter() - job_start)
            candidates += planned.candidates_considered
            if not math.isfinite(cost):
                failed += 1
            plans.append((plan, cost, planned.candidates_considered))

        manager = LifecycleManager(policy=RetrainPolicy(window_days=2, frequency_days=1))
        outcomes = []
        for day in self.lifecycle_days:
            with tracer.span("core.lifecycle.step"):
                outcomes.append(manager.step(log, day))
        failed += sum(1 for o in outcomes if not math.isfinite(o.median_error_pct))

        counters: dict[str, float] = {}
        if traced:
            counters = {
                "workload.jobs": len(log),
                "workload.operators": len(log.to_table()),
                "core.trainer.models": predictor.model_count,
                "core.trainer.rows_dropped": trainer.last_audit.rows_dropped,
                "serving.service.lookups": predictor.lookup_count,
                "optimizer.planner.candidates": candidates,
                "optimizer.partition.lookups": sweep_lookups,
                "core.lifecycle.retrains": sum(o.retrained for o in outcomes),
                "core.lifecycle.rollbacks": sum(o.rolled_back for o in outcomes),
            }
            _add(counters, _service_counters(service.stats()))
            _add(counters, _service_counters(cost_model.service.stats()))
        fingerprint = (
            predictions.tobytes(),
            tuple(None if p is None else _plan_fingerprint(*p) for p in plans),
            tuple(
                (o.day, o.active_version, o.retrained, o.rolled_back, o.median_error_pct)
                for o in outcomes
            ),
        )
        return {
            "jobs": len(log),
            "latencies": latencies,
            "attempted": 3 + len(inputs.jobs) + len(outcomes),
            "failed": failed,
            "fingerprint": fingerprint,
            "counters": counters,
            "service": service,
            "first_call": first_call,
            "test_table": test_table,
            "predictor": predictor,
            "plans": plans,
            "runner": runner,
            "predictions": predictions,
        }

    def check(self, state: DailyState, first: PassResult) -> tuple[int, int]:
        """Split search-then-sweep plans equal the partitioned planner's."""
        checked = mismatches = 0
        for inputs, cycle in zip(state.inputs, first.outputs["cycles"]):
            reference = QueryPlanner(
                CleoCostModel(cycle["predictor"]),
                CardinalityEstimator(),
                PlannerConfig(partition_strategy=self.strategy),
            )
            for (job, logical), got in zip(inputs.jobs, cycle["plans"]):
                reference.jitter_salt = job.job_id
                want = reference.plan(logical)
                expected = _plan_fingerprint(
                    want.plan, want.estimated_cost, want.candidates_considered
                )
                checked += 1
                if got is None or _plan_fingerprint(*got) != expected:
                    mismatches += 1
        return checked, mismatches

    def quality(self, state: DailyState, first: PassResult) -> dict:
        cycles = first.outputs["cycles"]
        latency = sum(
            c["runner"].simulator.expected_job_latency(p[0])
            for c in cycles
            for p in c["plans"]
            if p is not None
        )
        predicted = np.concatenate([c["predictions"] for c in cycles])
        actual = np.concatenate([c["test_table"].latency for c in cycles])
        return {
            "chosen_plan_latency_s": {"value": latency, "unit": "s"},
            "cleo_median_err_pct": {
                "value": median_error_pct(predicted, actual),
                "unit": "%",
            },
        }

    def sizes(self, state: DailyState, first: PassResult) -> dict:
        cycles = first.outputs["cycles"]
        return {
            "clusters": list(self.clusters),
            "scale": self.scale,
            "days": list(self.days.all),
            "jobs": first.units,
            "operators": sum(i.operators for i in state.inputs),
            "test_day_jobs": sum(len(i.jobs) for i in state.inputs),
            "test_day_operators": sum(len(c["test_table"]) for c in cycles),
            "models": sum(c["predictor"].model_count for c in cycles),
        }


# ---------------------------------------------------------------------- #
# replan_fleet
# ---------------------------------------------------------------------- #


@dataclass
class ReplanFleetInputs:
    """One cluster's trained models and its fleet of instances."""

    runner: WorkloadRunner
    predictor: object
    jobs: list[ReplanJob]
    #: Logical operators over all instances.
    operators: int


@dataclass
class ReplanState:
    fleets: list[ReplanFleetInputs]
    counters: dict = field(default_factory=dict)

    def close(self) -> None:
        pass


class ReplanFleet:
    """Replan every test-day job of each cluster, replicated into instances.

    One ``FleetReplanner.replan_jobs`` call per cluster and pass, since each
    cluster's fleet is priced by that cluster's models.
    """

    name = "replan_fleet"
    aliases = {
        "pass_s": "replan_s",
        "throughput": "replan_plans_per_s",
        "latency_ms_p50": "instance_ms_p50",
        "latency_ms_p95": "instance_ms_p95",
    }
    clusters = ("cluster1", "cluster2", "cluster3", "cluster4")
    instances = 4
    #: Every ``gate_stride``-th instance is re-planned by the per-job planner.
    gate_stride = 12

    def __init__(self, seed: int, scale: str = "small") -> None:
        self.seed = seed
        self.scale = scale
        self.days = Days.for_seed(seed, 3)

    def setup(self, tracer) -> ReplanState:
        counters: dict[str, float] = {}
        fleets = []
        with tracer.span("setup"):
            for cluster in self.clusters:
                generator, runner, _, predictor = _run_and_train(
                    cluster, self.scale, self.seed, self.days, tracer, counters
                )
                catalog = generator.catalog_for_day(self.days.test)
                jobs: list[ReplanJob] = []
                for spec in generator.jobs_for_day(self.days.test):
                    logical = instantiate(spec, catalog)
                    for k in range(self.instances):
                        job_id = spec.job_id if k == 0 else f"{spec.job_id}/rep{k}"
                        jobs.append(
                            ReplanJob(
                                job_id, spec.template.template_id, spec.day, logical
                            )
                        )
                operators = sum(len(list(job.logical.walk())) for job in jobs)
                fleets.append(ReplanFleetInputs(runner, predictor, jobs, operators))
        return ReplanState(fleets, counters)

    def run_pass(self, state: ReplanState, tracer) -> PassResult:
        models = [CleoCostModel(fleet.predictor) for fleet in state.fleets]
        lookups_before = [fleet.predictor.lookup_count for fleet in state.fleets]
        replanners = []
        results = []
        failed = 0
        start = time.perf_counter()
        with tracer.span("pass"):
            for fleet, cost_model in zip(state.fleets, models):
                replanner = FleetReplanner(
                    cost_model, CardinalityEstimator(), PlannerConfig()
                )
                replanners.append(replanner)
                try:
                    with tracer.span("optimizer.replan.replan"):
                        results.append(replanner.replan_jobs(fleet.jobs))
                except Exception as exc:  # every instance of the call failed
                    traceback.print_exception(exc)
                    results.append([])
                    failed += len(fleet.jobs)
        seconds = time.perf_counter() - start
        planned = [p for result in results for p in result]
        failed += sum(1 for p in planned if not math.isfinite(p.estimated_cost))
        counters: dict[str, float] = {}
        if tracer.enabled:
            stats = [replanner.stats() for replanner in replanners]
            hits = sum(s.skeleton_hits for s in stats)
            builds = sum(s.skeleton_builds for s in stats)
            counters["optimizer.replan.skeleton_hit_ratio"] = (
                hits / (hits + builds) if hits + builds else 0.0
            )
            counters["optimizer.replan.frontier_flushes"] = sum(
                s.frontier_flushes for s in stats
            )
            counters["optimizer.planner.candidates"] = sum(
                p.candidates_considered for p in planned
            )
            counters["serving.service.lookups"] = sum(
                fleet.predictor.lookup_count - before
                for fleet, before in zip(state.fleets, lookups_before)
            )
            for cost_model in models:
                _add(counters, _service_counters(cost_model.service.stats()))
        return PassResult(
            seconds=seconds,
            units=sum(len(fleet.jobs) for fleet in state.fleets),
            latencies=[p.optimize_seconds for p in planned],
            attempted=sum(len(fleet.jobs) for fleet in state.fleets),
            failed=failed,
            fingerprint=tuple(
                _plan_fingerprint(p.plan, p.estimated_cost, p.candidates_considered)
                for p in planned
            ),
            counters=counters,
            outputs={"results": results},
        )

    def check(self, state: ReplanState, first: PassResult) -> tuple[int, int]:
        """A fixed sample of instances equals the per-job batched planner."""
        checked = mismatches = 0
        for fleet, planned in zip(state.fleets, first.outputs["results"]):
            reference = QueryPlanner(
                CleoCostModel(fleet.predictor), CardinalityEstimator(), PlannerConfig()
            )
            for i in range(0, len(fleet.jobs), self.gate_stride):
                job = fleet.jobs[i]
                reference.jitter_salt = job.salt
                want = reference.plan(job.logical)
                expected = _plan_fingerprint(
                    want.plan, want.estimated_cost, want.candidates_considered
                )
                checked += 1
                if len(planned) != len(fleet.jobs) or expected != _plan_fingerprint(
                    planned[i].plan,
                    planned[i].estimated_cost,
                    planned[i].candidates_considered,
                ):
                    mismatches += 1
        return checked, mismatches

    def quality(self, state: ReplanState, first: PassResult) -> dict:
        latency = sum(
            fleet.runner.simulator.expected_job_latency(p.plan)
            for fleet, planned in zip(state.fleets, first.outputs["results"])
            for p in planned
        )
        return {"chosen_plan_latency_s": {"value": latency, "unit": "s"}}

    def sizes(self, state: ReplanState, first: PassResult) -> dict:
        originals = [j for f in state.fleets for j in f.jobs[:: self.instances]]
        return {
            "clusters": list(self.clusters),
            "scale": self.scale,
            "days": list(self.days.all),
            "jobs": len(originals),
            "instances": first.units,
            "instances_per_job": self.instances,
            "operators": sum(f.operators for f in state.fleets),
            "templates": len({j.template_id for j in originals}),
            "models": sum(f.predictor.model_count for f in state.fleets),
        }


# ---------------------------------------------------------------------- #
# serving_mix
# ---------------------------------------------------------------------- #


@dataclass
class _LoadSource:
    """What ``build_load`` reads from one cluster's trained workload."""

    trained: object
    log: object
    runner: WorkloadRunner

    def predictor(self):
        return self.trained

    def test_log(self):
        return self.log


@dataclass
class ServingState:
    load: object
    router: ShardedCleoRouter
    capacity: int
    counters: dict = field(default_factory=dict)

    def close(self) -> None:
        self.router.close()


class ServingMix:
    """Replay the multi-cluster request stream against the sharded router.

    Closed loop with one client: each request is sent after the previous
    reply, as optimizer sessions block on each reply.  A pass is
    ``epochs`` epochs of the stream; the router and its caches persist
    across epochs and passes.
    """

    name = "serving_mix"
    aliases = {
        "throughput": "serve_preds_per_s",
        "latency_ms_p50": "serve_ms_p50",
        "latency_ms_p95": "serve_ms_p95",
    }
    clusters = ("cluster1", "cluster2", "cluster3", "cluster4")
    shards = 2
    #: Per-shard LRU capacity as a share of the smallest cluster's per-epoch
    #: working set.  Each shard keeps one LRU per cluster holding about half
    #: of that cluster's keys, so at a quarter every LRU of every cluster
    #: evicts on each epoch.  Under the cyclic replay an LRU either holds its
    #: share or thrashes; keeping every cluster well on the thrashing side
    #: means no seed's sizes flip a cluster into the hitting regime.
    cache_fraction = 0.25
    #: One worker: shard sub-batches run in the caller's thread.  With a
    #: pool, each fan-out waits for a pool thread to wake, which on a small
    #: virtual machine swung throughput by a third between runs of one seed.
    workers = 1
    #: Epochs per pass.  One epoch takes about a quarter of a second, and
    #: the small virtual machine's speed flips between two levels about 40%
    #: apart every few seconds, so a median over one-epoch passes jumped
    #: between the levels from run to run; ten epochs span the flips.
    epochs = 10

    def __init__(self, seed: int, scale: str = "small") -> None:
        self.seed = seed
        self.scale = scale
        self.days = Days.for_seed(seed, 3)

    def setup(self, tracer) -> ServingState:
        counters: dict[str, float] = {}
        with tracer.span("setup"):
            sources = {}
            for cluster in self.clusters:
                _, runner, log, predictor = _run_and_train(
                    cluster, self.scale, self.seed, self.days, tracer, counters
                )
                sources[cluster] = _LoadSource(
                    predictor, log.filter(days=[self.days.test]), runner
                )
            load = build_load(sources)
            capacity = load.suggested_cache_capacity(self.cache_fraction)
            with tracer.span("serving.shard.router_init"):
                router = ShardedCleoRouter(
                    load.predictors,
                    n_shards=self.shards,
                    n_workers=self.workers,
                    prediction_cache_size=capacity,
                )
        return ServingState(load, router, capacity, counters)

    def run_pass(self, state: ServingState, tracer) -> PassResult:
        load, router = state.load, state.router
        before = router.stats()
        lookups_before = router.lookup_count
        latencies: list[float] = []
        outputs: list = []
        failed = 0
        start = time.perf_counter()
        with tracer.span("pass"):
            for request in load.requests * self.epochs:
                sent = time.perf_counter()
                try:
                    if isinstance(request, PlanJob):
                        with tracer.span("serving.shard.plan_cost"):
                            out = router.predict_plan(
                                request.cluster,
                                request.root,
                                load.fresh_estimator(request.cluster),
                            )
                        ok = math.isfinite(out)
                    else:
                        with tracer.span("serving.shard.predict"):
                            out = router.predict_batch(
                                request.cluster, list(request.requests)
                            )
                        ok = bool(np.isfinite(out).all())
                except Exception as exc:  # counted, reported, the stream goes on
                    traceback.print_exception(exc)
                    out, ok = None, False
                latencies.append(time.perf_counter() - sent)
                outputs.append(out)
                failed += not ok
        seconds = time.perf_counter() - start
        after = router.stats()
        degraded = after.degraded_predictions - before.degraded_predictions
        failed = min(len(outputs), failed + degraded)
        counters: dict[str, float] = {}
        if tracer.enabled:
            now, then = _service_counters(after), _service_counters(before)
            counters = {key: now[key] - then[key] for key in now}
            counters["serving.service.lookups"] = router.lookup_count - lookups_before
        return PassResult(
            seconds=seconds,
            units=load.n_predictions * self.epochs,
            latencies=latencies,
            attempted=len(outputs),
            failed=failed,
            fingerprint=tuple(
                out.tobytes() if isinstance(out, np.ndarray) else out for out in outputs
            ),
            counters=counters,
            outputs={"replies": outputs},
        )

    def check(self, state: ServingState, first: PassResult) -> tuple[int, int]:
        """Each epoch of the first pass is bitwise a single-process service's."""
        load = state.load
        services = {
            cluster: CleoService(predictor, prediction_cache_size=state.capacity)
            for cluster, predictor in load.predictors.items()
        }
        baseline = run_load(ServiceBackend(services), load, epochs=1)
        expected = iter(baseline.predictions * self.epochs)
        totals = iter(baseline.plan_totals * self.epochs)
        replies = first.outputs["replies"]
        mismatches = 0
        for request, got in zip(load.requests * self.epochs, replies):
            if isinstance(request, PlanJob):
                mismatches += got != next(totals)
            else:
                mismatches += got is None or not np.array_equal(got, next(expected))
        return len(replies), int(mismatches)

    def quality(self, state: ServingState, first: PassResult) -> dict:
        return {}

    def sizes(self, state: ServingState, first: PassResult) -> dict:
        load = state.load
        return {
            "clusters": list(load.clusters),
            "scale": self.scale,
            "days": list(self.days.all),
            "requests_per_epoch": len(load.requests),
            "predictions_per_epoch": load.n_predictions,
            "plan_requests_per_epoch": sum(
                isinstance(r, PlanJob) for r in load.requests
            ),
            "unique_keys_per_cluster": dict(load.unique_keys),
            "per_shard_cache_capacity": state.capacity,
            "epochs_per_pass": self.epochs,
            "shards": self.shards,
            "workers": self.workers,
        }


WORKLOADS = {w.name: w for w in (DailyPipeline, ReplanFleet, ServingMix)}
