"""Fleet-scale recurring-job replanning through the packed runtime.

A production cluster re-optimizes its recurring jobs in bulk — nightly, or
whenever a model bank refresh lands (the paper's monthly retraining cadence,
Section 6.3).  The fleet shares massive structure: thousands of instances of
a few hundred templates, each instance differing only in its numbers.  This
driver compounds the repo's three planning optimizations over that shape:

* **skeleton memoization** — each ``(template_id, day)`` shape is analyzed
  once and replayed per instance (:class:`~repro.optimizer.skeleton.SkeletonPlanner`);
* **deferred frontier pricing** — candidate costs accumulate in the
  reference planner's ledger instead of scalar model round-trips;
* **packed inference** — and, the fleet-scale step, *every* instance of
  *every* template in one :meth:`FleetReplanner.replan_jobs` call is driven
  through the search in lockstep, so each search step prices the whole
  fleet's pending candidates in one
  :meth:`~repro.serving.service.CleoService.predict_inputs` pass, and the
  final per-plan totals go through one
  :meth:`~repro.core.cost_model.CleoCostModel.price_plans` call.

**Where schedules come from.**  The search's *frame sequence* — which
``(node, requirement)`` subproblems are optimized, in what order — is a pure
function of the template structure and planner config: costs pick winners,
they never change which frames run.  So a skeleton's frame
:attr:`~repro.optimizer.skeleton.TemplateSkeleton.schedule` is recorded
once, without pricing anything, by replaying its first instance under the
inlined :class:`~repro.cost.default_model.DefaultCostModel` formula
(:meth:`SkeletonPlanner.frame_schedule`).  That replay runs over the *same*
skeleton object the learned search uses, because frames carry the
skeleton's own requirement objects and memo keys use their ``id()``.  The
schedule stays on the cached skeleton for later calls.

**The fleet-wide steps.**  Every instance is prepared first (bound to its
skeleton, estimates primed).  Then step *k* runs frame *k* of every
instance whose schedule has one: it generates and enforces the candidates
(children are memo hits, since the schedule is the memo-entry creation
order); if any instance faces a genuine comparison, all stepping instances'
pending operators are priced in one packed pass; then each instance picks
its winner with the solo replay's first-seen strict ``<`` rule.  A final
pass prices the stragglers, so one call makes at most (longest schedule
+ 1) frontier flushes however many templates it spans.  Early pricing never
perturbs values or ledger indices (predictions are batch-invariant, indices
are assigned at ``_cost`` time), so candidate generation, tie-breaking,
choice keys and floating-point arithmetic are exactly the solo replay's.
Plans, costs, candidate counts and (with the prediction cache disabled, the
optimizer-experiment default) per-prediction lookup accounting are bitwise
identical to a per-job :class:`~repro.optimizer.planner.QueryPlanner` loop;
with a shared prediction cache enabled, values are still identical but
in-batch reuse accounting can differ, as for any batch that spans plans.

**Timing.**  Instances share every search step and the pricing finale, so
per-job wall clock is not attributable: each :class:`PlannedJob`'s
``optimize_seconds`` is the whole call's wall clock divided evenly over its
jobs (a configured partition strategy's per-job pass included).

Heuristic cost models and scalar learned serving (``batched=False``) have no
frontier batches to share, so :meth:`FleetReplanner.replan_jobs` simply runs
:meth:`SkeletonPlanner.replan_job` per instance — still skeleton-memoized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import OptimizationError
from repro.cost.default_model import DefaultCostModel
from repro.optimizer.planner import PlannedJob, PlannerConfig
from repro.optimizer.skeleton import (
    _ANY,
    _NO_SORT,
    RNode,
    SkeletonPlanner,
    SkeletonPlannerStats,
    _ReplayState,
    _pick_priced,
    _replay_feature_input,
    _walk_replay,
    materialize,
)
from repro.plan.logical import LogicalOp


@dataclass(frozen=True)
class ReplanJob:
    """One recurring-job instance in a fleet replanning request.

    ``jitter_salt`` defaults to ``job_id``, matching the workload runner's
    per-job salting convention.
    """

    job_id: str
    template_id: str
    day: int
    logical: LogicalOp
    jitter_salt: str | None = None

    @property
    def salt(self) -> str:
        return self.job_id if self.jitter_salt is None else self.jitter_salt


class FleetReplanner:
    """Replans a fleet of recurring jobs, batching across instances.

    One instance wraps one :class:`SkeletonPlanner` (and thus one cost
    model / estimator / config triple); the skeleton cache and telemetry
    persist across :meth:`replan_jobs` calls, so a nightly driver reuses
    template analyses from the previous night.  A second, heuristic
    :class:`SkeletonPlanner` over the same config supplies frame schedules
    for skeletons that do not have one yet.
    """

    def __init__(
        self,
        cost_model,
        estimator: CardinalityEstimator | None = None,
        config: PlannerConfig | None = None,
    ) -> None:
        estimator = estimator or CardinalityEstimator()
        self.planner = SkeletonPlanner(cost_model, estimator, config)
        self._scheduler = SkeletonPlanner(
            DefaultCostModel(), estimator, self.planner.config
        )

    def stats(self) -> SkeletonPlannerStats:
        return self.planner.stats()

    def replan_jobs(self, jobs) -> list[PlannedJob]:
        """Replan every instance; results align with the input order.

        ``optimize_seconds`` spreads the whole call's wall clock evenly over
        its jobs — per-job time is not attributable once every instance
        shares each search step and the pricing finale.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        planner = self.planner
        if not planner._deferred:
            # No frontier batches to share across instances: the solo replay
            # (already skeleton-memoized) is the whole optimization.
            return [
                planner.replan_job(job.template_id, job.day, job.logical, job.salt)
                for job in jobs
            ]

        start = time.perf_counter()
        states: list[_ReplayState] = []
        for job in jobs:
            skeleton = planner.prepare_job(
                job.template_id, job.day, job.logical, job.salt
            )
            states.append(planner._export_state())
            if skeleton.schedule is None:
                skeleton.schedule = self._scheduler.frame_schedule(
                    skeleton, job.logical, job.salt
                )
        longest = max(len(st.skel.schedule) for st in states)
        for step in range(longest):
            self._step(
                [st for st in states if step < len(st.skel.schedule)], step
            )
        # The solo replay flushes stragglers after the search; match it so
        # lookup accounting stays aligned.
        self._flush_states(states)
        wins = [
            st.memo[(st.skel.root_index, id(_ANY), id(_NO_SORT))][0]
            for st in states
        ]

        if planner.config.partition_strategy is not None:
            finals = [planner._finalize(win) for win in wins]
        else:
            # Fleet-wide pricing finale: every job's plan total in one packed
            # pass, each reduced with predict_plan's exact left-fold order.
            walks = [list(_walk_replay(win)) for win in wins]
            inputs = [
                _replay_feature_input(node) for nodes in walks for node in nodes
            ]
            bundles = [node.bundle for nodes in walks for node in nodes]
            lengths = [len(nodes) for nodes in walks]
            totals = planner.cost_model.price_plans(inputs, bundles, lengths)
            finals = [
                (materialize(win), float(total)) for win, total in zip(wins, totals)
            ]
        share = (time.perf_counter() - start) / len(jobs)
        return [
            PlannedJob(plan, total, share, st.candidates_considered)
            for (plan, total), st in zip(finals, states)
        ]

    # ------------------------------------------------------------------ #
    # One search step across the whole fleet
    # ------------------------------------------------------------------ #

    def _step(self, states: list[_ReplayState], step: int) -> None:
        """Run frame ``step`` of each state's schedule.

        Mirrors ``SkeletonPlanner._optimize`` for a cache-missing frame —
        same candidate generation, enforcement, choice-key packing, and
        first-seen strict ``<`` tie-breaking — except that when any state
        has a real comparison to make, *all* stepping states' pending
        operators are priced in one packed pass.  Early pricing never
        perturbs values or ledger indices (predictions are batch-invariant
        and indices are assigned at ``_cost`` time), so per-instance
        arithmetic is exactly the solo replay's.
        """
        planner = self.planner
        per_state: list[tuple[tuple[int, int, int], list]] = []
        need_flush = False
        for st in states:
            index, req_part, req_sort = st.skel.schedule[step]
            planner._load_state(st)
            candidates = planner._implementations(index, req_part, req_sort)
            if not candidates:
                raise OptimizationError(
                    f"no implementation for {st.bound[index].op_type.value} "
                    f"under {req_part.describe()}/{req_sort.describe()}"
                )
            st.candidates_considered += len(candidates)
            enforced = planner._enforce_all(candidates, req_part, req_sort)
            if len(enforced) > 1:
                need_flush = True
            per_state.append(((index, id(req_part), id(req_sort)), enforced))
        if need_flush:
            self._flush_states(states)
        for st, (key, enforced) in zip(states, per_state):
            if len(enforced) == 1:
                best, best_ordinal = enforced[0], 0
            else:
                best, best_ordinal = _pick_priced(enforced, st.priced)
            st.choices.append(best_ordinal * 16 + len(enforced))
            st.memo[key] = best

    def _flush_states(self, states: list[_ReplayState]) -> None:
        """Price every instance's pending operators in one packed pass."""
        pending: list[RNode] = []
        for st in states:
            pending.extend(st.pending)
        if not pending:
            return
        planner = self.planner
        inputs = [_replay_feature_input(node) for node in pending]
        bundles = [node.bundle for node in pending]
        values = planner.cost_model.price_inputs(inputs, bundles)
        offset = 0
        for st in states:
            n = len(st.pending)
            for value in values[offset : offset + n]:
                st.priced.append(float(value))
            # In-place clear: the planner's _pending aliases this list while
            # the state is loaded.
            st.pending.clear()
            offset += n
        planner._frontier_flushes += 1


def replan_jobs(
    jobs,
    cost_model,
    estimator: CardinalityEstimator | None = None,
    config: PlannerConfig | None = None,
) -> list[PlannedJob]:
    """One-shot fleet replanning (see :class:`FleetReplanner`)."""
    return FleetReplanner(cost_model, estimator, config).replan_jobs(jobs)


__all__ = ["FleetReplanner", "ReplanJob", "replan_jobs"]
