"""Golden digests of the time-shared policies on the paths the benchmark
does not run.

Libra (bid), Libra+$ (commodity: its quotes read
``committed_seconds_in_window``) and LibraRiskD (bid) each run under three
setups: fault-free, independent MTBF failures with checkpoint recovery
(killed jobs re-admitted under the same id with a smaller estimate), and
a scripted rack outage plus elastic commission/decommission.  Each case
pins the sha256 of its objectives and fault statistics, so any change to
the time-shared cluster's floats, event order or admission decisions
shows up here.
"""

import hashlib
import json

import pytest

from repro.economy.models import make_model
from repro.experiments.runner import build_workload
from repro.experiments.scenarios import ExperimentConfig
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService

#: trace estimates (inaccuracy 100 %): under-estimates reveal LibraRiskD's
#: deadline-delay risk, over-estimates exercise the dynamic share release.
BASE = ExperimentConfig(n_jobs=120, total_procs=32, seed=3, inaccuracy_pct=100.0)

SETUPS = {
    "fault-free": BASE,
    "mtbf-checkpoint": BASE.with_values(
        fault_mtbf=30_000.0, fault_mttr=600.0, fault_recovery="checkpoint",
    ),
    "rack-elastic": BASE.with_values(
        fault_mtbf=1e12,
        fault_recovery="checkpoint",
        fault_domain_size=8,
        fault_domain_schedule=((15_000.0, "rack1", 3_000.0), (30_000.0, "rack2", 1_500.0)),
        fault_elastic_model="scripted",
        fault_elastic_schedule=((5_000.0, 4), (25_000.0, -2), (40_000.0, -1)),
    ),
}

POLICIES = (("Libra", "bid"), ("Libra+$", "commodity"), ("LibraRiskD", "bid"))

#: decimals kept before hashing.  From Python 3.12 builtin ``sum`` of floats
#: is compensated, so sums over many jobs (the objectives) can differ in the
#: last bits between the interpreters CI runs.  A changed admission,
#: completion or failure outcome still moves a digest.
DECIMALS = 6

#: measured with the full-recompute cluster (ReferenceCluster in
#: tests/property/test_timeshared_oracle.py).  sha256 of the rounded JSON.
GOLDEN = {
    "Libra|fault-free": "27ab2f850f3218d50c645e96f2b5ee1f3b9da3aea5447be124fb8ce5c9cb8d30",
    "Libra|mtbf-checkpoint": "530dba1b8b6ab0f44bc7d9e626394cccf87160f8355e2c16529c5e97b9034902",
    "Libra|rack-elastic": "94b90633885f02a60f811aad3518b5d97361c34a1d37e35b820a2133bc4f5485",
    "Libra+$|fault-free": "d524d1bf400ade78092ad60484d0a1de3ff21f0854c11ea2df2b5284e8ea2d13",
    "Libra+$|mtbf-checkpoint": "22364ddb42dec8f2de0a491ad90132f5c96b80af2a9a598405d548cb4ef467a5",
    "Libra+$|rack-elastic": "c0c7d822ee79dc8aad5c0e505171183e24b43e396c256bc24f0d33a0811737ce",
    "LibraRiskD|fault-free": "27919deb4347bc4ee003a212335872bd30799b7d6e5bea19e665a2f62bc29210",
    "LibraRiskD|mtbf-checkpoint": (
        "57c14d09c5d4c120670ffe3d3284033a61928ccb90d79c5ea2092640fa834e39"
    ),
    "LibraRiskD|rack-elastic": "e3c9cc6b196245c49af7bc870db3e6c6892d08e6e96f9c6c10f01ebe49f83ad1",
}


def _rounded(value):
    if isinstance(value, float):
        return round(value, DECIMALS)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return value


def case_digest(policy: str, model: str, setup: str) -> str:
    config = SETUPS[setup]
    service = CommercialComputingService(
        make_policy(policy),
        make_model(model),
        total_procs=config.total_procs,
        fault_config=config.faults if config.faults.enabled else None,
        fault_seed=config.seed,
    )
    result = service.run(build_workload(config))
    doc = {"objectives": result.objectives().as_dict(), "fault_stats": result.fault_stats}
    text = json.dumps(_rounded(doc), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("setup", list(SETUPS))
@pytest.mark.parametrize("policy,model", POLICIES)
def test_timeshared_golden_digest(policy, model, setup):
    assert case_digest(policy, model, setup) == GOLDEN[f"{policy}|{setup}"]
