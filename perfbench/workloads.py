"""The benchmark's workloads.

Each workload is one caller running its simulations back to back, in
one process, with no process pool (a closed loop with one client).  Its
set-up, :meth:`Workload.prepare`, builds from the seed a list of *items*;
one timed *pass* runs one item.  A pass's results become checkable
*outputs*: a mapping from an operation id (one simulation, one market run,
or the grid's assembled analysis) to a JSON-ready value.

Every simulation uses the bid-based model on 128 processors.  The cost of
one simulation swings with its workload draw, so every workload draws
several sub-seeds, ``seed * sub_seeds + i``, one item each, and the
benchmark reports the median over items of each item's mean pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.objectives import OBJECTIVES
from repro.core.ranking import rank_policies
from repro.economy.models import make_model
from repro.experiments.marketsweep import (
    default_market_config,
    mtbf_market_scenario,
    run_market_sweep,
)
from repro.experiments.report import format_table, summarize_figure, summarize_plot
from repro.experiments.runner import build_workload, run_grid
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.experiments.tables import table_ii, table_iii, table_iv
from repro.policies import BID_POLICIES, make_policy
from repro.service.provider import CommercialComputingService

MODEL = "bid"
TOTAL_PROCS = 128
#: the FULL-tier scenarios of Table VI.
GRID_SCENARIOS = ("job mix", "workload", "deadline ratio", "budget ratio")


def _finite(*values: float) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


#: rounding slack on the percentage bounds: 100 * sum(utility) / sum(budget)
#: can land one ulp above 100 when every budget is earned.
PERCENT_SLACK = 1e-9


def objectives_valid(obj: dict) -> bool:
    """Range invariants of one run's four objectives (Eqs. 1-4)."""
    top = 100.0 + PERCENT_SLACK
    return (
        _finite(*obj.values())
        and obj["wait"] >= 0.0
        and 0.0 <= obj["SLA"] <= top
        and 0.0 <= obj["reliability"] <= top
        and obj["profitability"] <= top
    )


def fault_stats_valid(stats: dict) -> bool:
    return (
        stats["failures"] >= stats["repairs"] >= 0
        and stats["jobs_killed"] >= 0
        and 0.0 < stats["observed_availability"] <= 1.0
    )


@dataclass
class Item:
    """What one timed pass runs."""

    op_ids: list[str]
    #: simulated jobs a pass resolves (market: jobs placed).
    jobs: int
    data: dict[str, Any] = field(default_factory=dict)


@dataclass
class State:
    """What set-up hands the timed passes."""

    seed: int
    items: list[Item] = field(default_factory=list)
    scratch: Optional[Path] = None


class Workload:
    """Base class: a named set of inputs and the pass that runs them."""

    name: str = ""

    def __init__(self, **sizes) -> None:
        self.sizes = sizes

    def prepare(self, seed: int, scratch: Path) -> State:
        raise NotImplementedError

    def pass_inputs(self, item: Item) -> Any:
        """Fresh inputs for one pass, built before its clock starts."""
        return None

    def run_pass(self, item: Item, inputs: Any) -> dict[str, Any]:
        """One timed pass: a raw result, or the exception it raised, per key."""
        raise NotImplementedError

    def finish_pass(self, item: Item, inputs: Any) -> None:
        """Release what :meth:`pass_inputs` made, after the outputs are read."""

    def outputs(self, item: Item, raw: dict[str, Any]) -> dict[str, Any]:
        """Checkable outputs of a pass (ops that raised are left out)."""
        raise NotImplementedError

    def valid(self, op_id: str, value: Any) -> bool:
        """Invariants every correct output satisfies, at any seed."""
        raise NotImplementedError

    def cleanup(self, state: State) -> None:
        if state.scratch is not None:
            shutil.rmtree(state.scratch, ignore_errors=True)


def _attempt(fn: Callable[[], Any]) -> Any:
    try:
        return fn()
    except Exception as exc:  # a failed operation, counted by the caller
        return exc


class SingleRuns(Workload):
    """Single simulations: one item per sub-seed, one run per policy.

    With an ``mtbf`` size, nodes fail independently (MTTR 10 min) and
    killed jobs resume from their last checkpoint.
    """

    policies: tuple[str, ...] = ()

    def prepare(self, seed: int, scratch: Path) -> State:
        state = State(seed=seed)
        n_jobs, sub_seeds = self.sizes["n_jobs"], self.sizes["sub_seeds"]
        for sub in range(seed * sub_seeds, (seed + 1) * sub_seeds):
            config = ExperimentConfig(n_jobs=n_jobs, total_procs=TOTAL_PROCS, seed=sub)
            if "mtbf" in self.sizes:
                config = config.with_values(
                    fault_mtbf=self.sizes["mtbf"], fault_mttr=600.0,
                    fault_recovery="checkpoint")
            jobs = build_workload(config)
            state.items.append(Item(
                op_ids=[f"{policy}|seed={sub}" for policy in self.policies],
                jobs=len(jobs) * len(self.policies),
                data={"config": config, "jobs": jobs},
            ))
        return state

    def pass_inputs(self, item: Item) -> list[list]:
        # Policies mutate the jobs they run (checkpoint recovery rewrites
        # runtimes), so every run simulates fresh copies.
        return [[job.clone() for job in item.data["jobs"]] for _ in self.policies]

    def run_pass(self, item: Item, inputs: list[list]) -> dict[str, Any]:
        config = item.data["config"]
        return {
            op_id: _attempt(lambda: self._simulate(config, policy, jobs))
            for op_id, policy, jobs in zip(item.op_ids, self.policies, inputs)
        }

    @staticmethod
    def _simulate(config: ExperimentConfig, policy: str, jobs: list):
        service = CommercialComputingService(
            make_policy(policy),
            make_model(MODEL),
            total_procs=config.total_procs,
            fault_config=config.faults if config.faults.enabled else None,
            fault_seed=config.seed,
        )
        result = service.run(jobs)
        return result.objectives(), result.fault_stats

    def outputs(self, item: Item, raw: dict[str, Any]) -> dict[str, Any]:
        out = {}
        for op_id, value in raw.items():
            if isinstance(value, Exception):
                continue
            objectives, fault_stats = value
            out[op_id] = {"objectives": objectives.as_dict()}
            if fault_stats is not None:
                out[op_id]["fault_stats"] = fault_stats
        return out

    def valid(self, op_id: str, value: Any) -> bool:
        if not objectives_valid(value["objectives"]):
            return False
        if "mtbf" in self.sizes:
            return "fault_stats" in value and fault_stats_valid(value["fault_stats"])
        return "fault_stats" not in value


class BackfillFaults(SingleRuns):
    name = "backfill_faults"
    policies = ("FCFS-BF", "EDF-BF")


class LibraTimeshared(SingleRuns):
    name = "libra_timeshared"
    policies = ("Libra", "LibraRiskD")


class Table6Grid(Workload):
    """Cold serial Table VI grids, one per sub-seed, reduced and rendered."""

    name = "table6_grid"

    def prepare(self, seed: int, scratch: Path) -> State:
        state = State(seed=seed, scratch=scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        scenarios = [scenario_by_name(name) for name in GRID_SCENARIOS]
        n_jobs, sub_seeds = self.sizes["n_jobs"], self.sizes["sub_seeds"]
        for sub in range(seed * sub_seeds, (seed + 1) * sub_seeds):
            base = ExperimentConfig(n_jobs=n_jobs, total_procs=TOTAL_PROCS, seed=sub)
            set_a = base.for_set("A")
            build_workload(set_a)
            configs, jobs = {}, 0
            for scenario in scenarios:
                for value, config in zip(scenario.values, scenario.configs(set_a)):
                    for policy in BID_POLICIES:
                        if (config, policy) in configs.values():
                            continue  # the default config recurs in every scenario
                        op_id = f"{policy}|{scenario.name}={value:g}|seed={sub}"
                        configs[op_id] = (config, policy)
                        jobs += config.n_jobs
            state.items.append(Item(
                op_ids=[*configs, f"analysis|seed={sub}"], jobs=jobs,
                data={"base": base, "scenarios": scenarios, "configs": configs,
                      "stores": scratch},
            ))
        return state

    def pass_inputs(self, item: Item) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=item.data["stores"])

    def run_pass(self, item: Item, store_dir: str) -> dict[str, Any]:
        def analyse():
            store = RunStore(store_dir)
            grid = run_grid(BID_POLICIES, MODEL, item.data["base"], "A",
                            item.data["scenarios"], store)
            plot = grid.integrated_plot(OBJECTIVES)
            ranking = [r.policy for r in rank_policies(plot)]
            text = "\n\n".join([
                summarize_plot(plot, include_ascii=True),
                format_table(table_ii(plot), title="Table II"),
                format_table(table_iii(plot), title="Table III"),
                format_table(table_iv(plot), title="Table IV"),
                summarize_figure(
                    {o.value: grid.separate_plot(o) for o in OBJECTIVES},
                    include_ascii=True,
                ),
            ])
            return store, ranking, text

        return {"grid": _attempt(analyse)}

    def finish_pass(self, item: Item, store_dir: str) -> None:
        shutil.rmtree(store_dir, ignore_errors=True)

    def outputs(self, item: Item, raw: dict[str, Any]) -> dict[str, Any]:
        value = raw["grid"]
        if isinstance(value, Exception):
            return {}
        store, ranking, text = value
        out = {}
        for op_id, (config, policy) in item.data["configs"].items():
            objectives = store.get(config, policy, MODEL)
            if objectives is not None:
                out[op_id] = {"objectives": objectives.as_dict()}
        out[item.op_ids[-1]] = {
            "ranking": ranking,
            "text_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        return out

    def valid(self, op_id: str, value: Any) -> bool:
        if op_id.startswith("analysis|"):
            return sorted(value["ranking"]) == sorted(BID_POLICIES)
        return objectives_valid(value["objectives"])


class MarketSweep(Workload):
    """``run_market_sweep`` over the default MTBF levels, cohort backend."""

    name = "market_sweep"

    def prepare(self, seed: int, scratch: Path) -> State:
        # Each market run generates its job stream from its config's seed,
        # inside the timed pass; set-up only builds the configs.
        state = State(seed=seed)
        levels = mtbf_market_scenario().levels
        sub_seeds = self.sizes["sub_seeds"]
        for sub in range(seed * sub_seeds, (seed + 1) * sub_seeds):
            config = default_market_config(
                n_users=self.sizes["n_users"], n_jobs=self.sizes["n_jobs"], seed=sub
            )
            state.items.append(Item(
                op_ids=[f"mtbf={level}|seed={sub}" for level in levels],
                jobs=config.n_jobs * len(levels), data={"config": config},
            ))
        return state

    def run_pass(self, item: Item, inputs: None) -> dict[str, Any]:
        def sweep():
            result = run_market_sweep(item.data["config"])
            return result, result.table()

        return {"sweep": _attempt(sweep)}

    def outputs(self, item: Item, raw: dict[str, Any]) -> dict[str, Any]:
        value = raw["sweep"]
        if isinstance(value, Exception):
            return {}
        result, _table = value
        seed = item.data["config"].seed
        out: dict[str, dict] = {}
        for row in result.rows:
            out.setdefault(f"mtbf={row.level}|seed={seed}", {})[row.provider] = {
                "final_share": row.final_share,
                "revenue": row.revenue,
                "loyal_users": row.loyal_users,
                "violated": row.violated,
                "rejected": row.rejected,
            }
        return out

    def valid(self, op_id: str, value: Any) -> bool:
        shares = [p["final_share"] for p in value.values()]
        return (
            _finite(*shares)
            and all(0.0 <= s <= 1.0 for s in shares)
            and abs(sum(shares) - 1.0) < 1e-9
        )


#: every workload at its benchmark size, by name.
WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Table6Grid(n_jobs=40, sub_seeds=5),
        BackfillFaults(n_jobs=500, sub_seeds=12, mtbf=86_400.0),
        LibraTimeshared(n_jobs=250, sub_seeds=7),
        MarketSweep(n_users=50_000, n_jobs=25_000, sub_seeds=4),
    )
}


def digest(value: Any) -> str:
    """Digest of one operation's output; floats keep every digit."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digests(outputs: dict[str, Any]) -> dict[str, str]:
    return {op_id: digest(value) for op_id, value in outputs.items()}


def failures(workload: Workload, item: Item, outputs: dict,
             reference: Optional[dict]) -> dict[str, str]:
    """The failed operations of one pass of ``item``, with the reason.

    An operation fails when it raised (its output is missing), breaks an
    invariant, or differs from the reference digest: the pinned one for a
    pinned seed, otherwise the item's first pass in the same run.
    """
    failed = {}
    for op_id in item.op_ids:
        value = outputs.get(op_id)
        if value is None:
            failed[op_id] = "no output"
        elif not workload.valid(op_id, value):
            failed[op_id] = f"invariant broken: {value}"
        elif reference is not None and reference.get(op_id) != digest(value):
            failed[op_id] = f"digest {digest(value)} != {reference.get(op_id)}: {value}"
    return failed

