"""MTBF sweep: dependability as a risk factor (availability vs risk).

The paper evaluates its policies on a failure-free SDSC SP2; this
experiment asks how each policy's risk profile degrades when nodes fail.
One knob — the per-node MTBF — is swept over six levels exactly like a
Table VI scenario (the virtual ``fault_mtbf`` field of
:meth:`~repro.experiments.scenarios.ExperimentConfig.with_values` makes
fault knobs first-class scenario knobs), every other fault parameter held
fixed.  Each level's steady-state availability ``MTBF / (MTBF + MTTR)``
labels the row, so the output reads as an availability-vs-risk table: raw
objectives per level plus the separate and integrated risk reduction
(Eqs. 5–6) over the sweep.

Each sweep is one scenario × policies plan of
:class:`~repro.experiments.runstore.RunKey` units run through
:func:`~repro.experiments.pipeline.execute_plan` and reduced by
:func:`~repro.experiments.pipeline.reduce_scenario`, so its runs are
content-addressed in the run store like any other run — a faulty run's
identity includes the full ``FaultConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.integrated import IntegratedRisk, integrated_risk
from repro.core.objectives import OBJECTIVES, Objective, ObjectiveSet
from repro.core.separate import SeparateRisk
from repro.experiments.errors import GridExecutionError
from repro.experiments.pipeline import execute_plan, reduce_scenario
from repro.experiments.runner import RunCache
from repro.experiments.runstore import RunKey, RunStore
from repro.experiments.scenarios import ExperimentConfig, Scenario

#: default per-node MTBF levels (seconds): 6 h … 8 days.  The span brackets
#: the regimes reported for commodity clusters (Schroeder & Gibson, DSN'06):
#: the low end makes failures a first-order effect on a week-long trace,
#: the high end approaches the failure-free baseline.
FAULT_MTBF_LEVELS: tuple[float, ...] = (
    21_600.0,
    43_200.0,
    86_400.0,
    172_800.0,
    345_600.0,
    691_200.0,
)


def mtbf_scenario(values: Sequence[float] = FAULT_MTBF_LEVELS) -> Scenario:
    """The MTBF sweep as a :class:`Scenario` (usable anywhere one is)."""
    return Scenario("MTBF", "fault_mtbf", tuple(float(v) for v in values))


#: default cascade-probability levels for the correlated sweep: 0 is the
#: independent-failures baseline (domain outages only), 1 means every
#: failure drags down its whole neighbourhood.
CASCADE_PROB_LEVELS: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 1.0)


def cascade_scenario(values: Sequence[float] = CASCADE_PROB_LEVELS) -> Scenario:
    """The cascade-probability sweep as a :class:`Scenario`."""
    return Scenario("cascade", "fault_cascade_prob", tuple(float(v) for v in values))


def _sweep(
    scenario: Scenario,
    fault_base: ExperimentConfig,
    policies: Sequence[str],
    model_name: str,
    cache: Optional[RunStore],
    wait_method: str,
):
    """Run one fault scenario for every policy and reduce it to risk.

    Returns ``(cells, separate, integrated)``: ``(config, policy,
    objectives)`` per run in policy-major order, the separate risk per
    objective per policy, and its equal-weight integration per policy.
    """
    cache = cache if cache is not None else RunCache()
    configs = scenario.configs(fault_base)
    plan = [RunKey(config, policy, model_name) for policy in policies for config in configs]
    execution = execute_plan(plan, cache)
    if execution.failed:
        journal = cache.failures()
        raise GridExecutionError([journal[digest] for digest in execution.failed])
    runs = [[cache.get(config, policy, model_name) for config in configs] for policy in policies]
    separate = reduce_scenario(runs, policies, wait_method)
    integrated = {
        policy: integrated_risk({o: separate[o][policy] for o in OBJECTIVES})
        for policy in policies
    }
    cells = [
        (config, policy, objectives)
        for policy, policy_runs in zip(policies, runs)
        for config, objectives in zip(configs, policy_runs)
    ]
    return cells, separate, integrated


def _integrated_lines(
    policies: Sequence[str], integrated: dict[str, IntegratedRisk]
) -> list[str]:
    """The sweep tables' footer: each policy's integrated risk."""
    lines = [
        "",
        f"{'policy':<14} {'performance':>12} {'volatility':>11}   "
        "(integrated risk over the sweep, equal weights)",
    ]
    for policy in policies:
        risk = integrated[policy]
        lines.append(f"{policy:<14} {risk.performance:>12.4f} {risk.volatility:>11.4f}")
    return lines


@dataclass(frozen=True)
class FaultSweepRow:
    """Raw objectives of one policy at one MTBF level."""

    mtbf: float
    availability: float
    policy: str
    objectives: ObjectiveSet


@dataclass
class FaultSweepResult:
    """Everything one MTBF sweep produces."""

    model: str
    recovery: str
    mttr: float
    policies: tuple[str, ...]
    mtbfs: tuple[float, ...]
    rows: list[FaultSweepRow]
    #: separate risk per objective per policy, reduced over the MTBF axis.
    separate: dict[Objective, dict[str, SeparateRisk]]
    #: equal-weight integration of all four objectives per policy.
    integrated: dict[str, IntegratedRisk]

    def table(self) -> str:
        """The availability-vs-risk table, ready to print."""
        lines = [
            f"MTBF sweep — model={self.model} recovery={self.recovery} "
            f"MTTR={self.mttr / 3600:g}h",
            "",
            f"{'MTBF':>8} {'avail':>7} {'policy':<14} "
            f"{'wait':>8} {'sla':>8} {'reliab':>8} {'profit':>10}",
        ]
        for row in self.rows:
            o = row.objectives
            lines.append(
                f"{row.mtbf / 3600:>7.4g}h {row.availability:>7.4f} "
                f"{row.policy:<14} {o.wait:>8.3f} {o.sla:>8.3f} "
                f"{o.reliability:>8.3f} {o.profitability:>10.1f}"
            )
        return "\n".join(lines + _integrated_lines(self.policies, self.integrated))


def run_fault_sweep(
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    mtbfs: Sequence[float] = FAULT_MTBF_LEVELS,
    mttr: float = 3_600.0,
    recovery: str = "resubmit",
    fault_model: str = "exponential",
    cache: Optional[RunStore] = None,
    wait_method: str = "grid-max",
) -> FaultSweepResult:
    """Sweep per-node MTBF and reduce the results to risk metrics.

    Every policy sees the identical workload *and* identical failure
    history at each level (both derive from ``base.seed``), preserving the
    paper's controlled-comparison discipline under faults.
    """
    fault_base = base.with_values(
        fault_enabled=True,
        fault_model=fault_model,
        fault_mttr=float(mttr),
        fault_recovery=recovery,
    )
    cells, separate, integrated = _sweep(
        mtbf_scenario(mtbfs), fault_base, policies, model_name, cache, wait_method
    )
    rows = [
        FaultSweepRow(config.faults.mtbf, config.faults.availability, policy, objectives)
        for config, policy, objectives in cells
    ]
    return FaultSweepResult(
        model=model_name,
        recovery=recovery,
        mttr=float(mttr),
        policies=tuple(policies),
        mtbfs=tuple(float(v) for v in mtbfs),
        rows=rows,
        separate=separate,
        integrated=integrated,
    )


# -- correlated availability vs risk ------------------------------------------


@dataclass(frozen=True)
class CorrelatedSweepRow:
    """Raw objectives of one policy at one cascade-probability level."""

    cascade_prob: float
    policy: str
    objectives: ObjectiveSet


@dataclass
class CorrelatedSweepResult:
    """Everything one correlated-availability-vs-risk sweep produces."""

    model: str
    recovery: str
    domain_size: int
    domain_mtbf: float
    domain_mttr: float
    policies: tuple[str, ...]
    cascade_probs: tuple[float, ...]
    rows: list[CorrelatedSweepRow]
    separate: dict[Objective, dict[str, SeparateRisk]]
    integrated: dict[str, IntegratedRisk]

    def table(self) -> str:
        """The correlation-vs-risk table, ready to print."""
        lines = [
            f"Correlated-fault sweep — model={self.model} "
            f"recovery={self.recovery} racks of {self.domain_size} "
            f"rack-MTBF={self.domain_mtbf / 3600:g}h "
            f"rack-MTTR={self.domain_mttr / 3600:g}h",
            "",
            f"{'cascade':>8} {'policy':<14} "
            f"{'wait':>8} {'sla':>8} {'reliab':>8} {'profit':>10}",
        ]
        for row in self.rows:
            o = row.objectives
            lines.append(
                f"{row.cascade_prob:>8.2f} {row.policy:<14} "
                f"{o.wait:>8.3f} {o.sla:>8.3f} "
                f"{o.reliability:>8.3f} {o.profitability:>10.1f}"
            )
        return "\n".join(lines + _integrated_lines(self.policies, self.integrated))


def run_correlated_sweep(
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    cascade_probs: Sequence[float] = CASCADE_PROB_LEVELS,
    domain_size: int = 8,
    domain_mtbf: float = 86_400.0,
    domain_mttr: float = 3_600.0,
    cascade_delay: float = 30.0,
    mtbf: float = 345_600.0,
    mttr: float = 3_600.0,
    recovery: str = "resubmit",
    cache: Optional[RunStore] = None,
    wait_method: str = "grid-max",
) -> CorrelatedSweepResult:
    """Sweep the cascade probability over a rack-structured machine.

    Level 0 is the independent baseline (per-node failures plus
    uncorrelated rack outages); rising levels correlate the failure mass
    into whole-neighbourhood events at the *same* long-run downtime per
    source, so the table isolates what correlation alone does to each
    policy's risk profile.  Every policy sees the identical workload and
    failure history at each level (both derive from ``base.seed``).
    """
    fault_base = base.with_values(
        fault_enabled=True,
        fault_mtbf=float(mtbf),
        fault_mttr=float(mttr),
        fault_recovery=recovery,
        fault_domain_size=int(domain_size),
        fault_domain_mtbf=float(domain_mtbf),
        fault_domain_mttr=float(domain_mttr),
        fault_cascade_delay=float(cascade_delay),
    )
    cells, separate, integrated = _sweep(
        cascade_scenario(cascade_probs), fault_base, policies, model_name, cache,
        wait_method,
    )
    rows = [
        CorrelatedSweepRow(config.faults.cascade_prob, policy, objectives)
        for config, policy, objectives in cells
    ]
    return CorrelatedSweepResult(
        model=model_name,
        recovery=recovery,
        domain_size=int(domain_size),
        domain_mtbf=float(domain_mtbf),
        domain_mttr=float(domain_mttr),
        policies=tuple(policies),
        cascade_probs=tuple(float(v) for v in cascade_probs),
        rows=rows,
        separate=separate,
        integrated=integrated,
    )
