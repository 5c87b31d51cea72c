"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``.

They run the workloads at toy sizes; the benchmark sizes live in
``workloads.WORKLOADS``.
"""

from __future__ import annotations

import copy
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads, tracer = run.load_program()

from repro.sim.engine import Simulator  # noqa: E402

SMALL = {
    "table6_grid": lambda: workloads.Table6Grid(n_jobs=12, sub_seeds=1),
    "backfill_faults": lambda: workloads.BackfillFaults(
        n_jobs=60, sub_seeds=2, mtbf=14_400.0),
    "libra_timeshared": lambda: workloads.LibraTimeshared(n_jobs=60, sub_seeds=1),
    "market_sweep": lambda: workloads.MarketSweep(n_users=300, n_jobs=400, sub_seeds=1),
}


@pytest.fixture
def prepared(tmp_path):
    states = []

    def make(name, seed=0):
        workload = SMALL[name]()
        state = workload.prepare(seed, tmp_path / f"{name}-{seed}")
        states.append((workload, state))
        return workload, state

    yield make
    for workload, state in states:
        workload.cleanup(state)


def _traced(workload, state):
    tr = tracer.Tracer()
    passes = run.run_cycle(workload, state.items, run.HostClock(), tr)
    return tr, passes


def test_definitions_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert set(SMALL) == set(workloads.WORKLOADS)


def test_host_clock_scales_by_the_mean_probe(monkeypatch):
    probes = iter([[0.012, 0.024], [0.009], [0.006, 0.009, 0.012]])
    monkeypatch.setattr(run, "probe_host", lambda budget=0.0: next(probes))
    clock = run.HostClock()
    for _ in range(2):
        _wall, result = clock.time(lambda: "done")
    assert result == "done"
    assert clock.scale() == pytest.approx(run.REFERENCE_PROBE_S / 0.012)


def test_probe_fills_its_budget():
    assert len(run.probe_host()) == run.PROBE_TRIES
    tries = run.probe_host(budget=0.2)
    assert sum(tries) >= 0.2 and len(tries) > run.PROBE_TRIES


def test_pins_cover_every_operation_of_the_default_seed(tmp_path):
    pins = json.loads(run.PINS.read_text())
    for name, workload in workloads.WORKLOADS.items():
        state = workload.prepare(0, tmp_path / name)
        try:
            op_ids = [op_id for item in state.items for op_id in item.op_ids]
            assert sorted(pins[name]["0"]) == sorted(op_ids)
        finally:
            workload.cleanup(state)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_changes_the_generated_workload(prepared, name):
    def fingerprint(state):
        out = []
        for item in state.items:
            data = item.data
            if "jobs" in data:
                out.append([(j.submit_time, j.runtime, j.procs, j.deadline)
                            for j in data["jobs"]])
            elif "config" in data:
                from repro.market.stream import market_job_stream

                config = data["config"]
                out.append([(j.submit_time, j.runtime, j.procs) for j in
                            market_job_stream(config.n_jobs, seed=config.seed)])
            else:
                out.append([c.seed for c, _ in data["configs"].values()])
        return out

    _, first = prepared(name, seed=0)
    _, again = prepared(name, seed=0)
    _, other = prepared(name, seed=1)
    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(first) != fingerprint(other)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_perturbed_result_is_a_failed_operation(prepared, name):
    workload, state = prepared(name)
    item = state.items[0]
    ((_wall, outputs, errors),) = run.run_cycle(workload, [item], run.HostClock())
    assert not errors
    reference = workloads.digests(outputs)
    assert not workloads.failures(workload, item, outputs, reference)

    op_id = item.op_ids[0]
    perturbed = copy.deepcopy(outputs)
    value = perturbed[op_id]
    if "objectives" in value:
        value["objectives"]["profitability"] += 1e-9
    else:
        provider = next(iter(value))
        value[provider]["revenue"] += 1e-9
    assert list(workloads.failures(workload, item, perturbed, reference)) == [op_id]

    missing = {k: v for k, v in outputs.items() if k != op_id}
    assert list(workloads.failures(workload, item, missing, reference)) == [op_id]


def test_raising_operation_is_a_failed_operation(prepared, monkeypatch):
    workload, state = prepared("libra_timeshared")
    item = state.items[0]

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.SingleRuns, "_simulate", staticmethod(broken))
    ((_wall, outputs, errors),) = run.run_cycle(workload, [item], run.HostClock())
    assert len(errors) == len(item.op_ids)
    assert len(workloads.failures(workload, item, outputs, None)) == len(item.op_ids)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_sum_to_traced_wall(prepared, name):
    workload, state = prepared(name)
    tr, passes = _traced(workload, state)
    wall = sum(timed.wall for timed in passes)
    total = sum(tr.self_s) + tr.gc.seconds
    # A collector pause can run finalizers that open spans; those count twice.
    assert total <= wall * 1.001
    assert total == pytest.approx(wall, rel=0.05)
    assert all(s >= 0.0 for s in tr.self_s)


def test_calibrated_wrapper_cost_comes_out_of_self_times(prepared):
    workload, state = prepared("backfill_faults")
    tr = tracer.Tracer()
    tr.calibrate(calls=2000, rounds=2)
    assert all(cost > 0.0 for cost in tr.costs.values())
    run.run_cycle(workload, state.items, run.HostClock(), tr)
    raw = tr.layer_self_s()
    corrected = tr.corrected_self_s()
    charged = tr.overhead_by_layer()
    assert 0.0 < tr.overhead_s() < sum(raw.values())
    for i, layer in enumerate(tracer.LAYERS):
        assert corrected[layer] == pytest.approx(max(0.0, raw[layer] - charged[i]))
    # The policies quote their own queue: calls inside one layer are the
    # bulk of the wrapper cost, and they are charged to that layer.
    policies = tracer.LAYERS.index("policies")
    assert tr.passes[policies] > tr.spans[policies]
    assert corrected["policies"] < raw["policies"]
    # Doubling the costs doubles what is taken out.
    doubled = tr.corrected_self_s(cost_scale=2.0)
    for i, layer in enumerate(tracer.LAYERS):
        assert doubled[layer] == pytest.approx(max(0.0, raw[layer] - 2 * charged[i]))


def test_traced_run_is_bit_identical_and_counts_repeat(prepared):
    workload, state = prepared("backfill_faults")
    untraced = run.run_cycle(workload, state.items, run.HostClock())
    first, traced = _traced(workload, state)
    second, _ = _traced(workload, state)
    for plain, with_tracer in zip(untraced, traced):
        assert plain.outputs == with_tracer.outputs
    assert first.counts["sim.events"] > 0
    assert first.counts == second.counts
    stats = [out["fault_stats"] for timed in traced for out in timed.outputs.values()]
    assert first.counts["faults.failures"] == sum(s["failures"] for s in stats)
    assert first.counts["faults.jobs_killed"] == sum(s["jobs_killed"] for s in stats)
    self_s = first.layer_self_s()
    assert self_s["policies"] > 0.0 and self_s["faults"] > 0.0
    assert self_s["market"] == 0.0


def test_market_counts_every_placed_job(prepared):
    workload, state = prepared("market_sweep")
    tr, _ = _traced(workload, state)
    assert tr.counts["market.jobs"] == state.items[0].jobs
    assert tr.counts["runstore.puts"] == len(state.items[0].op_ids)


def test_tracer_uninstall_restores_the_program(prepared):
    schedule, build = Simulator.schedule, workloads.build_workload
    collectors = list(gc.callbacks)
    tr = tracer.Tracer()
    tr.install(extra_modules=(workloads,))
    try:
        assert tr.gc in gc.callbacks
        assert tracer.is_traced(Simulator.schedule)
        assert tracer.is_traced(workloads.build_workload)
        with pytest.raises(RuntimeError):
            run.assert_untraced(workloads, tracer)
    finally:
        tr.uninstall()
    assert Simulator.schedule is schedule
    assert workloads.build_workload is build
    assert gc.callbacks == collectors
    run.assert_untraced(workloads, tracer)


def test_spans_file_round_trips(prepared, tmp_path):
    workload, state = prepared("libra_timeshared")
    tr, _ = _traced(workload, state)
    path = tr.write(tmp_path / "t.spans", {"workload": workload.name})
    with open(path, "rb") as spans:
        header = json.loads(spans.readline())
        body = spans.read()
    assert header["spans"] == len(tr.start) == sum(tr.spans)
    assert len(body) == header["spans"] * (4 + 4 + 8 + 8)
    assert header["layers"] == list(tracer.LAYERS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table6_grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
