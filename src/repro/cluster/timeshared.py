"""Time-shared cluster with deadline-proportional processor sharing.

This is the execution substrate of the Libra family (paper §5.2): multiple
jobs share each processor, each guaranteed at least its *committed share*
``tr_i / d_i`` (runtime estimate over deadline), with any residual capacity
distributed equally among the jobs present.

Two share disciplines are supported:

- ``ShareMode.STATIC`` (Libra, Libra+$): the share committed at admission,
  computed from the runtime *estimate*, is held until the job actually
  finishes.
- ``ShareMode.DYNAMIC`` (LibraRiskD): the share is re-derived from the
  *estimated remaining* work over the time left to the deadline, so capacity
  released by jobs running ahead of their estimates is reusable, and a job
  revealed to be under-estimated (consumed work ≥ estimated work, still
  running) is flagged as a *deadline-delay risk* on its nodes.

A parallel job occupies one share slot on each of ``procs`` nodes and
progresses gang-style at the minimum of its per-node rates.  Progress is
integrated between events.  In static mode rates only change at admissions
and completions, so the piecewise integration is exact; in dynamic mode the
required rates drift between events and the integration is a
piecewise-constant approximation refreshed at every event.

Rates come from per-node summaries (:meth:`TimeSharedCluster._summarize`).
Static-mode summaries are cached per node and recomputed only after the
node's job set changes; dynamic-mode required rates are computed once per
simulated instant.  Every node total is builtin ``sum`` over the node's
``node_jobs`` set in set order, exactly as a full recomputation sums it, so
the cached values are the same floats on every Python version (from 3.12
``sum`` of floats is compensated: a running ``+=`` total or a numpy sum
would not be).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.perf.registry import PERF
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, Priority
from repro.workload.job import Job

#: share floor for a dynamic-mode job past its estimate (keeps it runnable).
MIN_DYNAMIC_SHARE = 1e-3
#: numerical slack on the Σ share ≤ 1 admission test.
SHARE_EPS = 1e-9
#: remaining work below this counts as finished.
WORK_EPS = 1e-6


class ShareMode(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass
class TSJobState:
    """Run state of one admitted job."""

    job: Job
    nodes: tuple[int, ...]
    share: float  # committed (static) share per node
    start_time: float
    remaining_work: float  # seconds of dedicated-CPU work left (actual)
    consumed: float = 0.0  # seconds of work done so far
    rate: float = 0.0
    completion: Optional[EventHandle] = field(repr=False, default=None)

    @property
    def past_estimate(self) -> bool:
        """True once the job has consumed its estimated work but not finished
        — the under-estimation signal LibraRiskD keys on."""
        return self.consumed >= self.job.estimate - WORK_EPS and self.remaining_work > WORK_EPS

    def required_rate(self, now: float) -> float:
        """Average rate needed from ``now`` to still meet the deadline,
        based on the *estimated* remaining work."""
        est_remaining = max(self.job.estimate - self.consumed, 0.0)
        window = self.job.absolute_deadline - now
        if window <= 0.0:
            return 1.0
        return min(est_remaining / window, 1.0)


class TimeSharedCluster:
    """Deadline-proportional processor-sharing machine."""

    def __init__(
        self,
        sim: Simulator,
        total_procs: int = 128,
        mode: ShareMode = ShareMode.STATIC,
    ) -> None:
        if total_procs < 1:
            raise ValueError("cluster needs at least one processor")
        self.sim = sim
        self.total_procs = int(total_procs)
        self.mode = mode
        self.committed: list[float] = [0.0] * self.total_procs
        self.node_jobs: list[set[int]] = [set() for _ in range(self.total_procs)]
        self._states: dict[int, TSJobState] = {}
        self._last_update = sim.now
        #: nodes currently failed (fault injection); excluded from admission.
        self._down: set[int] = set()
        #: nodes decommissioned for good (elastic capacity); ids stay stable.
        self._retired: set[int] = set()
        #: committed (static) share of every running job.
        self._shares: dict[int, float] = {}
        # Static mode: per-node share total, residual bonus and
        # over-commitment (see _summarize), valid while the node's job set
        # is unchanged; nodes whose set changed since the last refresh wait
        # in _stale.
        self._totals: list[float] = [0.0] * self.total_procs
        self._bonus: list[float] = [math.inf] * self.total_procs
        self._over: list[float] = [0.0] * self.total_procs
        self._stale: set[int] = set()
        # Dynamic mode: every job's required rate at the instant _req_at.
        # Progress only moves when the clock does, so the values hold for
        # the whole instant; admit overwrites the entry of the job it starts.
        self._req: dict[int, float] = {}
        self._req_at: Optional[float] = None

    # -- admission helpers -------------------------------------------------
    def node_share_load(self, node: int) -> float:
        """Current admission load of a node: committed static shares, or the
        sum of required rates in dynamic mode."""
        if self.mode is ShareMode.STATIC:
            return self.committed[node]
        self._sync_progress()
        return sum(map(self._required_rates().__getitem__, self.node_jobs[node]))

    def node_has_risk(self, node: int) -> bool:
        """Dynamic mode: any job on the node already past its estimate."""
        self._sync_progress()
        return any(self._states[j].past_estimate for j in self.node_jobs[node])

    def feasible_nodes(
        self, share: float, exclude_risky: bool = False
    ) -> list[int]:
        """Nodes able to take an additional ``share``, best-fit first.

        Best fit (paper §5.2): nodes with the least processor time left
        after placing the job are preferred, saturating each node.
        """
        self._sync_progress()
        node_jobs = self.node_jobs
        if self.mode is ShareMode.STATIC:
            totals, required = self._static_totals(), None
        else:
            totals, required = None, self._required_rates().__getitem__
        risky = (
            {jid for jid, s in self._states.items() if s.past_estimate}
            if exclude_risky
            else frozenset()
        )
        unavailable = self._down | self._retired
        limit = 1.0 + SHARE_EPS
        candidates = []
        for node, node_set in enumerate(node_jobs):
            if node in unavailable:
                continue
            if exclude_risky and not risky.isdisjoint(node_set):
                continue
            load = totals[node] if required is None else sum(map(required, node_set))
            if load + share <= limit:
                candidates.append((1.0 - load - share, node))
        candidates.sort()
        return [node for _, node in candidates]

    def admit(
        self,
        job: Job,
        share: float,
        nodes: Sequence[int],
        on_finish: Callable[[Job, float], None],
    ) -> TSJobState:
        """Commit ``share`` on ``nodes`` and start ``job`` immediately."""
        if len(nodes) != job.procs:
            raise ValueError(
                f"job {job.job_id} needs {job.procs} nodes, got {len(nodes)}"
            )
        if len(set(nodes)) != len(nodes):
            raise ValueError("node list contains duplicates")
        if not 0.0 < share <= 1.0 + SHARE_EPS:
            raise ValueError(f"share must be in (0, 1], got {share}")
        if job.job_id in self._states:
            raise ValueError(f"job {job.job_id} is already running")
        unavailable = (self._down | self._retired) if (self._down or self._retired) else ()
        if unavailable and not set(nodes).isdisjoint(unavailable):
            raise ValueError(
                f"cannot admit job {job.job_id} on failed/retired node(s) "
                f"{sorted(set(nodes) & set(unavailable))}"
            )
        self._sync_progress()
        state = TSJobState(
            job=job,
            nodes=tuple(nodes),
            share=float(share),
            start_time=self.sim.now,
            remaining_work=job.runtime,
        )
        self._states[job.job_id] = state
        self._shares[job.job_id] = state.share
        state._on_finish = on_finish  # type: ignore[attr-defined]
        if self._req_at == self.sim.now:
            # A job re-admitted after a failure keeps its id but not its
            # estimate: never reuse the instant's old entry.
            self._req[job.job_id] = state.required_rate(self._req_at)
        for node in nodes:
            self.committed[node] += share
            self.node_jobs[node].add(job.job_id)
        self._stale.update(nodes)
        if PERF.enabled:
            PERF.incr("cluster.time.jobs_admitted")
            PERF.observe("cluster.time.committed_share", share)
        self._reschedule(touched_nodes=state.nodes)
        return state

    # -- execution ---------------------------------------------------------
    def _sync_progress(self) -> None:
        """Integrate work done since the last rate change."""
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0.0:
            return
        for state in self._states.values():
            done = state.rate * dt
            state.consumed += done
            left = state.remaining_work - done
            state.remaining_work = 0.0 if left < 0.0 else left
        self._last_update = now

    def _required_rates(self) -> dict[int, float]:
        """Every job's :meth:`TSJobState.required_rate` now, computed once
        per simulated instant.  Callers sync progress first."""
        now = self.sim.now
        if self._req_at != now:
            self._req = {jid: s.required_rate(now) for jid, s in self._states.items()}
            self._req_at = now
        return self._req

    @staticmethod
    def _summarize(
        node_sets: Iterable[tuple[int, set[int]]],
        shares: dict[int, float],
        totals: list[float],
        bonus: list[float],
        over: list[float],
    ) -> None:
        """Fill the per-node summaries of ``(node, job set)`` pairs.

        ``totals[node]`` is the node's share total; a job gets
        ``min(share + bonus[node], 1)`` on the node, or ``share /
        over[node]`` once the node is over-committed (``over[node] > 0``).
        """
        share_of = shares.__getitem__
        limit = 1.0 + SHARE_EPS
        for node, node_set in node_sets:
            total = sum(map(share_of, node_set))
            totals[node] = total
            if not node_set:
                bonus[node], over[node] = math.inf, 0.0
            elif total <= limit:
                spare = 1.0 - total
                bonus[node] = (0.0 if spare < 0.0 else spare) / len(node_set)
                over[node] = 0.0
            else:
                bonus[node], over[node] = math.inf, total

    def _static_totals(self) -> list[float]:
        """Per-node static share totals, first refreshing the summaries of
        the nodes whose job set changed.  A static share never changes
        after admission, so an untouched node's cached total is the sum a
        recomputation over the same set, in the same order, would give."""
        stale = self._stale
        if stale:
            node_jobs = self.node_jobs
            self._summarize(
                ((node, node_jobs[node]) for node in stale),
                self._shares, self._totals, self._bonus, self._over,
            )
            stale.clear()
        return self._totals

    def _dynamic_summaries(self) -> tuple[dict[int, float], list[float], list[float]]:
        """Dynamic-mode shares ``max(required rate, MIN_DYNAMIC_SHARE)`` of
        every job at the current instant, and the node summaries they give."""
        required = self._required_rates()
        shares = {}
        for jid in self._states:
            r = required[jid]
            shares[jid] = MIN_DYNAMIC_SHARE if r < MIN_DYNAMIC_SHARE else r
        n = len(self.node_jobs)
        bonus = [math.inf] * n
        over = [0.0] * n
        self._summarize(enumerate(self.node_jobs), shares, [0.0] * n, bonus, over)
        return shares, bonus, over

    def _reschedule(self, touched_nodes: Sequence[int]) -> None:
        """Recompute rates and (re)schedule completions.

        In static mode only jobs holding a share slot on a touched node are
        recomputed: a static job's rate is a function of the share totals
        on its own nodes, so an admit/complete/failure can only move the
        rates of its node-mates.  Everyone else keeps their pending
        completion event — in a large cluster that turns the per-event
        O(jobs) cancel/reschedule churn into O(co-located jobs).

        Dynamic mode always recomputes everything: required rates drift
        with the clock, so no job's rate is provably unchanged.

        A job's rate is the minimum of its per-node rates (see
        :meth:`_summarize`), taken as ``min(share + min bonus, 1)`` and
        ``share / max over`` across its nodes: ``min`` and ``max`` are
        exact and rounded addition and division are monotone, so this is
        the same float as the minimum of the per-node rates.
        """
        if PERF.enabled:
            PERF.incr("cluster.time.reschedules")
            PERF.observe("cluster.time.active_jobs", len(self._states))
        affected: Optional[set[int]]
        if self.mode is ShareMode.STATIC:
            affected = set()
            for node in touched_nodes:
                affected |= self.node_jobs[node]
            if not affected:
                return
            self._static_totals()
            shares, bonus, over = self._shares, self._bonus, self._over
        else:
            affected = None  # everyone
            shares, bonus, over = self._dynamic_summaries()
        bonus_of, over_of = bonus.__getitem__, over.__getitem__
        schedule, complete, priority = self.sim.schedule, self._complete, Priority.COMPLETION
        # Iterate the state dict (admission order) rather than the affected
        # set so completion events are re-issued in the same deterministic
        # order a full reschedule would use.
        for state in self._states.values():
            jid = state.job.job_id
            if affected is not None and jid not in affected:
                continue
            share = shares[jid]
            nodes = state.nodes
            rate = share + min(map(bonus_of, nodes))
            if rate > 1.0:
                rate = 1.0
            worst = max(map(over_of, nodes))
            if worst and share / worst < rate:
                rate = share / worst
            state.rate = rate
            if state.completion is not None:
                state.completion.cancel()
            if rate <= 0.0:  # pragma: no cover - MIN_DYNAMIC_SHARE forbids
                raise RuntimeError(f"job {jid} starved (rate 0)")
            state.completion = schedule(
                state.remaining_work / rate, complete, state, priority=priority
            )

    def _complete(self, state: TSJobState) -> None:
        self._sync_progress()
        # Authoritative: rate changes always cancel and reschedule the
        # completion, so snap the float residual rather than rescheduling a
        # sub-resolution eta.
        state.consumed += state.remaining_work
        state.remaining_work = 0.0
        del self._states[state.job.job_id]
        del self._shares[state.job.job_id]
        for node in state.nodes:
            self.committed[node] -= state.share
            if abs(self.committed[node]) < SHARE_EPS:
                self.committed[node] = 0.0
            self.node_jobs[node].discard(state.job.job_id)
        self._stale.update(state.nodes)
        state.completion = None
        if PERF.enabled:
            PERF.incr("cluster.time.jobs_completed")
        self._reschedule(touched_nodes=state.nodes)
        state._on_finish(state.job, self.sim.now)  # type: ignore[attr-defined]

    def committed_seconds_in_window(self, node: int, window: float) -> float:
        """Processor-seconds of ``node`` committed to current jobs within the
        next ``window`` seconds (Libra+$'s RESMax − RESFree).

        Each job's share occupies the node only until its own deadline —
        a reservation expiring early in the window leaves the remainder
        free for the job being priced.
        """
        self._sync_progress()
        now = self.sim.now
        return sum(
            self._states[j].share
            * max(0.0, min(self._states[j].job.absolute_deadline - now, window))
            for j in self.node_jobs[node]
        )

    # -- fault injection -----------------------------------------------------
    def enable_node_tracking(self) -> None:
        """No-op: the time-shared cluster always tracks per-node placement.

        Present so the fault injector can call one uniform method on any
        cluster type.
        """

    def fail_node(self, node_id: int) -> list[tuple[Job, float]]:
        """Take ``node_id`` down; kill every job with a share slot on it.

        Returns ``(job, progress)`` pairs, where ``progress`` is the
        dedicated-CPU seconds of work the job had completed.  Shares the
        victims held on *other* nodes are released and the surviving jobs'
        rates are recomputed.
        """
        self._check_node_id(node_id)
        if node_id in self._down:
            raise ValueError(f"node {node_id} is already down")
        self._sync_progress()
        self._down.add(node_id)
        victims = [self._states[jid] for jid in sorted(self.node_jobs[node_id])]
        killed: list[tuple[Job, float]] = []
        for state in victims:
            if state.completion is not None:
                state.completion.cancel()
            del self._states[state.job.job_id]
            del self._shares[state.job.job_id]
            for node in state.nodes:
                self.committed[node] -= state.share
                if abs(self.committed[node]) < SHARE_EPS:
                    self.committed[node] = 0.0
                self.node_jobs[node].discard(state.job.job_id)
            self._stale.update(state.nodes)
            progress = min(max(state.consumed, 0.0), state.job.runtime)
            killed.append((state.job, progress))
        if PERF.enabled and killed:
            PERF.incr("cluster.time.jobs_failed", len(killed))
        touched: set[int] = set()
        for state in victims:
            touched.update(state.nodes)
        self._reschedule(touched_nodes=sorted(touched))
        return killed

    def repair_node(self, node_id: int) -> None:
        """Bring a failed node back; it becomes admissible again."""
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is decommissioned")
        if node_id not in self._down:
            raise ValueError(f"node {node_id} is not down")
        self._down.discard(node_id)

    def down_nodes(self) -> frozenset[int]:
        return frozenset(self._down)

    def _check_node_id(self, node_id: int) -> None:
        # Node ids are stable for life: the valid range is everything ever
        # created — retirement shrinks capacity, not the id space.
        if not 0 <= node_id < len(self.committed):
            raise ValueError(f"no such node: {node_id}")
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is decommissioned")

    # -- elastic capacity -----------------------------------------------------
    def commission_node(self) -> int:
        """Add a node to the machine; returns its (fresh, stable) id."""
        node_id = len(self.committed)
        self.committed.append(0.0)
        self.node_jobs.append(set())
        self._totals.append(0.0)
        self._bonus.append(math.inf)
        self._over.append(0.0)
        self.total_procs += 1
        if PERF.enabled:
            PERF.incr("cluster.time.nodes_commissioned")
        return node_id

    def decommission_node(self, node_id: int) -> list[tuple[Job, float]]:
        """Retire ``node_id`` for good; returns the jobs it killed.

        A failure that never repairs: jobs with a share slot on the node
        are terminated exactly as :meth:`fail_node` terminates them, and
        capacity shrinks by one.
        """
        killed = self.fail_node(node_id)
        self._down.discard(node_id)
        self._retired.add(node_id)
        self.total_procs -= 1
        if PERF.enabled:
            PERF.incr("cluster.time.nodes_decommissioned")
        return killed

    # -- introspection -------------------------------------------------------
    def active_jobs(self) -> list[TSJobState]:
        return list(self._states.values())

    def is_running(self, job_id: int) -> bool:
        return job_id in self._states

    def state_of(self, job_id: int) -> TSJobState:
        return self._states[job_id]

    def total_committed(self) -> float:
        return sum(self.committed)

    def utilization(self) -> float:
        """Fraction of total capacity currently committed."""
        return self.total_committed() / self.total_procs if self.total_procs else 0.0
