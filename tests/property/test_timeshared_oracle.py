"""Differential oracle for the time-shared cluster's incremental rates.

:class:`ReferenceCluster` recomputes every node total and required rate on
every call, with no cache and a per-node loop over every job: its rate,
feasibility and load methods are the straightforward full recomputation,
kept here as the reference.  Random admit / complete
/ fail / repair / commission / decommission sequences drive a real and a
reference cluster in lockstep; after every operation each job's rate,
progress and completion event, and every admission query, must be
bit-identical (``==``, never ``approx``).
"""

from typing import Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.timeshared import (
    MIN_DYNAMIC_SHARE,
    SHARE_EPS,
    ShareMode,
    TimeSharedCluster,
)
from repro.sim import Simulator
from repro.sim.events import Priority
from repro.workload.job import Job


class ReferenceCluster(TimeSharedCluster):
    """Full recomputation of every node total on every call."""

    def node_share_load(self, node: int) -> float:
        if self.mode is ShareMode.STATIC:
            return self.committed[node]
        self._sync_progress()
        now = self.sim.now
        return sum(self._states[j].required_rate(now) for j in self.node_jobs[node])

    def feasible_nodes(self, share: float, exclude_risky: bool = False) -> list[int]:
        self._sync_progress()
        now = self.sim.now
        if self.mode is ShareMode.STATIC:
            loads = {jid: s.share for jid, s in self._states.items()}
        else:
            loads = {jid: s.required_rate(now) for jid, s in self._states.items()}
        risky = (
            {jid for jid, s in self._states.items() if s.past_estimate}
            if exclude_risky
            else frozenset()
        )
        candidates = []
        for node in range(len(self.committed)):
            if node in self._down or node in self._retired:
                continue
            node_set = self.node_jobs[node]
            if exclude_risky and not risky.isdisjoint(node_set):
                continue
            load = sum(loads[j] for j in node_set)
            if load + share <= 1.0 + SHARE_EPS:
                candidates.append((1.0 - load - share, node))
        candidates.sort()
        return [node for _, node in candidates]

    def _sync_progress(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0.0:
            return
        for state in self._states.values():
            done = state.rate * dt
            state.consumed += done
            state.remaining_work = max(state.remaining_work - done, 0.0)
        self._last_update = now

    def _rates_snapshot(self) -> dict[int, float]:
        now = self.sim.now
        if self.mode is ShareMode.STATIC:
            shares = {jid: s.share for jid, s in self._states.items()}
        else:
            shares = {
                jid: max(s.required_rate(now), MIN_DYNAMIC_SHARE)
                for jid, s in self._states.items()
            }
        rates = {jid: 1.0 for jid in self._states}
        for node_set in self.node_jobs:
            k = len(node_set)
            if k == 0:
                continue
            total = sum(shares[j] for j in node_set)
            if total <= 1.0 + SHARE_EPS:
                bonus = max(1.0 - total, 0.0) / k
                for j in node_set:
                    rates[j] = min(rates[j], min(shares[j] + bonus, 1.0))
            else:
                for j in node_set:
                    rates[j] = min(rates[j], shares[j] / total)
        return rates

    def _reschedule(self, touched_nodes: Optional[Sequence[int]] = None) -> None:
        states = self._states
        if touched_nodes is None or self.mode is not ShareMode.STATIC:
            affected = None
        else:
            affected = set()
            for node in touched_nodes:
                affected |= self.node_jobs[node]
            if not affected:
                return
        if affected is None:
            rates = self._rates_snapshot()
        else:
            rates = self._static_rates_for(affected)
        for state in states.values():
            jid = state.job.job_id
            if affected is not None and jid not in affected:
                continue
            state.rate = rates[jid]
            if state.completion is not None:
                state.completion.cancel()
            eta = state.remaining_work / state.rate
            state.completion = self.sim.schedule(
                eta, self._complete, state, priority=Priority.COMPLETION
            )

    def _static_rates_for(self, job_ids: set[int]) -> dict[int, float]:
        states = self._states
        node_jobs = self.node_jobs
        node_cache: dict[int, tuple[float, int]] = {}
        rates: dict[int, float] = {}
        for jid in job_ids:
            state = states[jid]
            share = state.share
            rate = 1.0
            for node in state.nodes:
                cached = node_cache.get(node)
                if cached is None:
                    members = node_jobs[node]
                    total = sum(states[j].share for j in members)
                    cached = node_cache[node] = (total, len(members))
                total, k = cached
                if total <= 1.0 + SHARE_EPS:
                    bonus = max(1.0 - total, 0.0) / k
                    r = min(share + bonus, 1.0)
                else:
                    r = share / total
                if r < rate:
                    rate = r
            rates[jid] = rate
        return rates


#: shares that fill a node exactly, or nearly, next to arbitrary ones.
SHARES = st.one_of(
    st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 0.5, 0.6, 0.7, 1.0]),
    st.floats(0.01, 1.0),
)
QUERY_SHARES = (0.05, 0.3, 0.5, 1.0)


def _job(job_id: int, now: float, procs: int, runtime: float, estimate: float,
         deadline: float) -> Job:
    return Job(job_id=job_id, submit_time=now, runtime=runtime, procs=procs,
               estimate=estimate, deadline=deadline)


class Lockstep:
    """A real cluster and a reference cluster fed the same operations."""

    def __init__(self, procs: int, mode: ShareMode) -> None:
        self.sims = [Simulator(), Simulator()]
        self.clusters = [
            TimeSharedCluster(self.sims[0], procs, mode=mode),
            ReferenceCluster(self.sims[1], procs, mode=mode),
        ]
        self.finished: list[list[tuple[int, float]]] = [[], []]
        self.next_id = 1

    @property
    def real(self) -> TimeSharedCluster:
        return self.clusters[0]

    def now(self) -> float:
        return self.sims[0].now

    def usable(self) -> list[int]:
        cluster = self.real
        gone = cluster.down_nodes() | cluster._retired
        return [n for n in range(len(cluster.committed)) if n not in gone]

    def run_until(self, t: float) -> None:
        for sim in self.sims:
            sim.run(until=t)

    def admit(self, job: Job, share: float, nodes: list[int]) -> None:
        for cluster, done in zip(self.clusters, self.finished):
            cluster.admit(job.clone(), share, nodes,
                          lambda j, t, done=done: done.append((j.job_id, t)))

    def each(self, method: str, *args):
        results = [getattr(cluster, method)(*args) for cluster in self.clusters]
        assert results[0] == results[1], (method, args, results)
        return results[0]

    def check(self) -> None:
        real, ref = self.clusters
        assert self.sims[0].now == self.sims[1].now
        assert self.sims[0].events_scheduled == self.sims[1].events_scheduled
        assert self.finished[0] == self.finished[1]
        assert real.node_jobs == ref.node_jobs
        assert [s.job.job_id for s in real.active_jobs()] == [
            s.job.job_id for s in ref.active_jobs()
        ]
        for mine, theirs in zip(real.active_jobs(), ref.active_jobs()):
            assert mine.rate == theirs.rate
            assert mine.remaining_work == theirs.remaining_work
            assert mine.consumed == theirs.consumed
            assert mine.completion.time == theirs.completion.time
            assert mine.completion.seq == theirs.completion.seq
        for share in QUERY_SHARES:
            for exclude_risky in (False, True):
                self.each("feasible_nodes", share, exclude_risky)
        for node in self.usable():
            self.each("node_share_load", node)


OPS = st.sampled_from(
    ["admit", "admit", "admit", "advance", "complete", "complete",
     "fail", "repair", "readmit", "commission", "decommission"]
)


def _admit_new(lock: Lockstep, data) -> None:
    usable = lock.usable()
    if not usable:
        return
    procs = data.draw(st.integers(1, len(usable)), label="procs")
    nodes = data.draw(st.permutations(usable), label="nodes")[:procs]
    share = data.draw(SHARES, label="share")
    runtime = data.draw(st.floats(1.0, 500.0), label="runtime")
    estimate = runtime * data.draw(st.sampled_from([0.5, 0.9, 1.0, 1.5, 3.0]), label="est")
    deadline = data.draw(st.floats(1.0, 2_000.0), label="deadline")
    job = _job(lock.next_id, lock.now(), procs, runtime, estimate, deadline)
    lock.next_id += 1
    lock.admit(job, share, nodes)


def _fail_and_readmit(lock: Lockstep, data) -> None:
    """A node failure whose victims restart at once under the same ids,
    with a smaller estimate (checkpoint recovery)."""
    usable = lock.usable()
    if not usable:
        return
    node = data.draw(st.sampled_from(usable), label="fail node")
    killed = lock.each("fail_node", node)
    for job, progress in killed:
        usable = lock.usable()
        if len(usable) < job.procs:
            continue
        nodes = data.draw(st.permutations(usable), label="renodes")[: job.procs]
        retry = job.clone()
        retry.runtime = max(job.runtime - progress, 1.0)
        retry.estimate = max(job.estimate - progress, 1.0)
        lock.admit(retry, data.draw(SHARES, label="reshare"), nodes)


def _step(lock: Lockstep, op: str, data) -> None:
    cluster = lock.real
    if op == "admit":
        _admit_new(lock, data)
    elif op == "advance":
        lock.run_until(lock.now() + data.draw(st.floats(0.0, 300.0), label="dt"))
    elif op == "complete":
        t = lock.sims[0].peek()
        if t is not None:
            lock.run_until(t)  # every completion due at t fires
    elif op == "fail":
        usable = lock.usable()
        if usable:
            lock.each("fail_node", data.draw(st.sampled_from(usable), label="node"))
    elif op == "repair":
        down = sorted(cluster.down_nodes())
        if down:
            lock.each("repair_node", data.draw(st.sampled_from(down), label="node"))
    elif op == "readmit":
        _fail_and_readmit(lock, data)
    elif op == "commission":
        lock.each("commission_node")
    elif op == "decommission":
        usable = lock.usable()
        if len(usable) > 1:
            lock.each("decommission_node", data.draw(st.sampled_from(usable), label="node"))


@given(
    st.integers(1, 5),
    st.sampled_from([ShareMode.STATIC, ShareMode.DYNAMIC]),
    st.lists(OPS, min_size=1, max_size=40),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_incremental_rates_match_full_recompute(procs, mode, ops, data):
    lock = Lockstep(procs, mode)
    for op in ops:
        _step(lock, op, data)
        lock.check()
    # Drain: every remaining completion fires identically.
    for sim in lock.sims:
        sim.run()
    lock.check()
    assert lock.finished[0] == lock.finished[1]
