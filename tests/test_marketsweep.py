"""Market sweeps through the RunStore: dedupe, checkpoint, resume, shard,
and the shared executor's failure journal."""

import json

import pytest

from repro import perf
from repro.experiments import marketsweep
from repro.experiments.marketsweep import (
    MARKET_RUN_FORMAT,
    MarketConfig,
    MarketScenario,
    admission_market_scenario,
    assemble_market_sweep,
    default_market_config,
    market_plan,
    market_run_key,
    mtbf_market_scenario,
    run_market_config,
    run_market_sweep,
)
from repro.experiments.pipeline import ExecutionPolicy, execute_plan
from repro.experiments.runstore import RunStore, StoreError


def small_config(**overrides):
    params = {"n_users": 50, "n_jobs": 120}
    params.update(overrides)
    return default_market_config(**params)


# -- config & addressing -------------------------------------------------------

def test_market_config_validation():
    with pytest.raises(ValueError):
        MarketConfig(providers=())
    with pytest.raises(TypeError):
        MarketConfig(providers=("not-a-spec",))
    with pytest.raises(ValueError):
        default_market_config(n_users=0)
    with pytest.raises(ValueError):
        default_market_config(n_jobs=-1)


def test_market_config_roundtrip():
    config = small_config(seed=7)
    assert MarketConfig.from_dict(config.to_dict()) == config
    with pytest.raises(StoreError):
        MarketConfig.from_dict({**config.to_dict(), "bogus": 1})


def test_market_run_key_is_content_addressed():
    a = small_config()
    assert market_run_key(a) == market_run_key(small_config())
    assert market_run_key(a) != market_run_key(small_config(seed=1))
    assert market_run_key(a) != market_run_key(a.with_risky(mtbf=3600.0))


def test_market_run_key_ignores_backend():
    # The parity contract makes the result backend-invariant, so both
    # backends must address the same document.
    from dataclasses import replace

    a = small_config()
    assert market_run_key(a) == market_run_key(replace(a, backend="agents"))


def test_scenario_validation():
    with pytest.raises(ValueError):
        MarketScenario("x", "not-a-knob", (1.0,))
    with pytest.raises(ValueError):
        MarketScenario("x", "mtbf", ())


def test_scenario_varies_only_the_risky_provider():
    base = small_config()
    configs = admission_market_scenario().configs(base)
    assert [c.providers[0].admission for c in configs] == ["greedy", "deadline"]
    assert all(c.providers[1] == base.providers[1] for c in configs)


# -- document layer ------------------------------------------------------------

def test_document_layer_roundtrip(tmp_path):
    store = RunStore(tmp_path)
    config = small_config()
    digest = market_run_key(config)
    assert store.get_document(digest, MARKET_RUN_FORMAT) is None
    doc = run_market_config(config)
    store.put_document(digest, doc)
    # A fresh store reads it back from disk, format-checked.
    again = RunStore(tmp_path).get_document(digest, MARKET_RUN_FORMAT)
    assert again is not None
    assert again["providers"] == doc["providers"]
    assert again["key"] == digest
    # The wrong format marker is a miss, not a crash.
    assert RunStore(tmp_path).get_document(digest, "repro-run") is None


def test_document_requires_format_marker(tmp_path):
    store = RunStore(tmp_path)
    with pytest.raises(StoreError):
        store.put_document("ab" * 32, {"providers": {}})


def test_corrupt_document_is_quarantined(tmp_path):
    store = RunStore(tmp_path)
    config = small_config()
    digest = market_run_key(config)
    store.put_document(digest, run_market_config(config))
    path = store.document_path(digest)
    path.write_text("{truncated")
    fresh = RunStore(tmp_path)
    assert fresh.get_document(digest, MARKET_RUN_FORMAT) is None
    assert not path.exists()
    assert list((tmp_path / "quarantine").iterdir())


def test_documents_and_runs_share_a_cache_dir(tmp_path):
    # Market documents must not leak into the ObjectiveSet-run digests.
    store = RunStore(tmp_path)
    config = small_config()
    digest = market_run_key(config)
    store.put_document(digest, run_market_config(config))
    assert store.document_digests() == {digest}
    assert store.disk_digests() == set()


# -- plan → execute → assemble -------------------------------------------------

def test_execute_deduplicates_plan(tmp_path):
    store = RunStore(tmp_path)
    base = small_config()
    plan = market_plan(mtbf_market_scenario((None, 3600.0)), base)
    execution = execute_plan(plan + plan, store)
    assert execution.accesses == 4
    assert execution.misses == 2
    assert execution.hits == 2
    assert execution.executed == 2
    assert execution.complete


def test_sweep_counts_pipeline_cache_traffic_not_runner(tmp_path):
    # Store accesses of a market sweep are the executor's, not the grid
    # runner's: a market sweep must not read as grid cache traffic.
    with perf.capture() as registry:
        run_market_sweep(
            small_config(), scenario=mtbf_market_scenario((None, 3600.0)),
            store=RunStore(tmp_path),
        )
    counters = registry.counters
    assert counters["pipeline.cache_misses"] == 2
    assert counters.get("pipeline.cache_hits", 0) == 0
    assert not any(name.startswith("runner.cache_") for name in counters)


def test_sweep_resume_is_bit_identical(tmp_path):
    base = small_config()
    first = run_market_sweep(base, store=RunStore(tmp_path))
    assert first.execution.executed == len(first.scenario.levels)
    resumed = run_market_sweep(base, store=RunStore(tmp_path))
    assert resumed.execution.executed == 0
    assert resumed.execution.hits == len(first.scenario.levels)
    assert resumed.rows == first.rows
    assert resumed.table() == first.table()


def test_sharded_sweep_partitions_and_assembles(tmp_path):
    base = small_config()
    scenario = mtbf_market_scenario()
    plan = market_plan(scenario, base)
    shards = [
        execute_plan(plan, RunStore(tmp_path), shard=(i, 2))
        for i in range(2)
    ]
    assert sum(s.executed for s in shards) == len(plan)
    assert all(s.executed + s.deferred == s.misses for s in shards)
    # Any process sharing the cache dir can assemble the full result.
    merged = run_market_sweep(base, scenario=scenario, store=RunStore(tmp_path))
    assert merged.execution.executed == 0
    assert merged.complete
    reference = run_market_sweep(base, scenario=scenario)
    assert merged.rows == reference.rows


def test_shard_validation(tmp_path):
    with pytest.raises(ValueError):
        execute_plan([small_config()], RunStore(tmp_path), shard=(2, 2))


def test_incomplete_assembly_is_flagged(tmp_path):
    # Deterministic partial store: only the first level's document exists
    # (as if a peer shard owning the second level had not finished yet).
    base = small_config()
    scenario = mtbf_market_scenario((None, 3600.0))
    store = RunStore(tmp_path)
    first = scenario.configs(base)[0]
    store.put_document(market_run_key(first), run_market_config(first))
    result = assemble_market_sweep(store, scenario, base)
    assert not result.complete
    assert len(result.rows) == len(base.providers)
    assert "incomplete" in result.table()


def test_failed_level_is_journaled_and_a_rerun_fills_it(tmp_path, monkeypatch):
    base = small_config()
    scenario = mtbf_market_scenario((None, 3600.0))
    poisoned = scenario.configs(base)[1]
    real = run_market_config

    def failing(config):
        if config == poisoned:
            raise RuntimeError("market blew up")
        return real(config)

    monkeypatch.setattr(marketsweep, "run_market_config", failing)
    monkeypatch.setattr(ExecutionPolicy, "backoff_delay", lambda self, d, a: 0.0)
    failed = run_market_sweep(base, scenario=scenario, store=RunStore(tmp_path))
    digest = market_run_key(poisoned)
    assert failed.execution.failed == (digest,)
    assert not failed.complete
    assert "incomplete" in failed.table()
    [line] = (tmp_path / "failures.jsonl").read_text().splitlines()
    record = json.loads(line)
    assert record["digest"] == digest
    assert (record["policy"], record["model"]) == ("risky", MARKET_RUN_FORMAT)
    assert "market blew up" in record["message"]
    assert record["attempts"] == 3  # first try + the default two retries
    assert set(RunStore(tmp_path).failures()) == {digest}

    monkeypatch.undo()
    rerun = run_market_sweep(base, scenario=scenario, store=RunStore(tmp_path))
    assert rerun.execution.executed == 1
    assert rerun.complete
    assert rerun.rows == run_market_sweep(base, scenario=scenario).rows
    # The journal stays append-only; the document resolves the failure.
    assert RunStore(tmp_path).failures() == {}


# -- the §3 claim --------------------------------------------------------------

def test_unreliable_provider_loses_the_market(tmp_path):
    """Falling MTBF must cost the risky provider share, loyalty, revenue."""
    result = run_market_sweep(
        small_config(n_users=200, n_jobs=400),
        scenario=mtbf_market_scenario((None, 3600.0)),
        store=RunStore(tmp_path),
    )
    risky = {row.level: row for row in result.rows if row.provider == "risky"}
    assert risky[3600.0].final_share < risky[None].final_share
    assert risky[3600.0].loyal_users < risky[None].loyal_users
    assert risky[3600.0].revenue < risky[None].revenue
    assert risky[3600.0].violated > risky[None].violated
    # The document on disk is plain JSON a human can read.
    digest = market_run_key(small_config(n_users=200, n_jobs=400))
    text = RunStore(tmp_path).document_path(digest).read_text()
    assert json.loads(text)["format"] == MARKET_RUN_FORMAT
