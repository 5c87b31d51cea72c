"""Benchmark of the risk-analysis simulator, one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload table6_grid --seed 0 --seconds 25 --trace 0

A workload's set-up yields a list of items, and a pass runs one item.
``--trace 0`` cycles through the items, one untraced pass at a time, until
``--seconds`` have passed and every item ran ``MIN_REPEATS`` times, and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced
reference cycle and one traced cycle over the first ``TRACE_ITEMS``
items, and reports the per-layer metrics (see ``tracer.py``).  The
outputs of every pass are checked against ``expected.json`` when it pins
the seed, otherwise against the run's first pass, and always against
range invariants.

Every reported time is rescaled to a reference host speed.  The host
this benchmark runs on is shared, and its speed moves by a third or more
from one minute to the next.  So a fixed pure-Python probe, independent
of the program, is timed after every timed region, and the run's host
seconds are multiplied by ``REFERENCE_PROBE_S`` over the run's mean
probe.  The host seconds and probes go to stderr.

Progress goes to stderr.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space inside the checkout: per-run stores and written spans.
SCRATCH = ROOT / ".perfbench_out"
PINS = BENCH_DIR / "expected.json"

#: set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 9
#: timed passes of every item per run, at the least.
MIN_REPEATS = 2
#: items a traced run covers (tracing slows a faulty backfill run ~5x).
TRACE_ITEMS = 1
#: untraced-and-traced rounds per traced run, at the least.
TRACE_ROUNDS = 3
#: seconds the host-speed probe takes at the reference speed (about its
#: mean on the 2-core benchmark host).
REFERENCE_PROBE_S = 0.008
#: tries of the probe after every timed region: at least ``PROBE_TRIES``,
#: and more until they took ``share`` of the region's time (a set-up is
#: short, so its own probes take as long as it does).
PROBE_TRIES = 3
PROBE_SHARE = 0.1
SETUP_PROBE_SHARE = 1.0

END_TO_END = (
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Layers:
    """One traced round's per-layer results, in host seconds.

    The traced cycle minus the untraced one, less the extra collector time
    the tracer's garbage caused, is what the wrappers cost.  The tracer's
    calibration splits that cost over the layers; ``cost_fit`` is the
    measured cost over the calibrated one, and each layer's self time has
    its calibrated cost times ``cost_fit`` taken out.  Shares divide by the
    untraced cycle.
    """

    def __init__(self, tracer, traced: list[Pass], untraced: list[Pass],
                 untraced_gc: float) -> None:
        self.traced = sum(timed.wall for timed in traced)
        self.untraced = sum(timed.wall for timed in untraced)
        measured = self.traced - self.untraced - (tracer.gc.seconds - untraced_gc)
        calibrated = tracer.overhead_s()
        self.cost_fit = max(0.0, measured / calibrated) if calibrated else 1.0
        self.self_s = tracer.corrected_self_s(self.cost_fit)
        self.gc_s = untraced_gc
        self.spans = tracer.layer_spans()
        self.counts = tracer.counts

    def share(self, layer: str) -> float:
        return self.self_s[layer] / self.untraced

    def quotes_per_start(self) -> float:
        starts = self.counts["service.starts"]
        return self.counts["policies.quotes"] / starts if starts else 0.0


def _self(layer):
    return (f"{layer}.self_s", "s", lambda t: t.self_s[layer])


def _share(layer):
    return (f"{layer}.share", "fraction", lambda t: t.share(layer))


def _count(name, key=None):
    return (name, "count", lambda t: t.counts[key or name])


PER_LAYER = (
    _self("cluster"), _share("cluster"),
    ("cluster.calls", "count", lambda t: t.spans["cluster"]),
    _self("policies"), _share("policies"), _count("policies.quotes"),
    ("policies.quotes_per_start", "ratio", Layers.quotes_per_start),
    _count("policies.rejections"),
    _self("economy"),
    ("economy.calls", "count", lambda t: t.spans["economy"]),
    _self("faults"), _share("faults"),
    _count("faults.failures"), _count("faults.jobs_killed"),
    _self("service"), _count("service.transitions"),
    _self("sim"), _share("sim"), _count("sim.events"),
    _self("workload"), _share("workload"),
    _self("market"), _share("market"), _count("market.jobs"),
    _self("core"), _self("report"),
    _self("runstore"), _count("runstore.puts"), _count("runstore.hits"),
    _self("pipeline"),
    ("gc.self_s", "s", lambda t: t.gc_s),
    ("tracing.overhead_x", "ratio", lambda t: t.traced / t.untraced),
    ("tracing.cost_fit", "ratio", lambda t: t.cost_fit),
)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the program from this checkout's ``src`` and the benchmark."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no program sources at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not {package}")
    import tracer
    import workloads

    return workloads, tracer


def reimport_program():
    """Import ``workloads``, and through it the program's modules, afresh.

    Third-party modules such as numpy stay loaded, so this times what the
    program's own modules cost to import, and every memo they hold starts
    empty.  Call only after :func:`load_program`.
    """
    for name in list(sys.modules):
        if name in ("repro", "workloads") or name.startswith("repro."):
            del sys.modules[name]
    return importlib.import_module("workloads")


# -- host speed -----------------------------------------------------------------
class _Link:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_link) -> None:
        self.key, self.value, self.next = key, value, next_link


def _probe_work() -> float:
    """Fixed pure-Python work: heap, dict, attribute and float operations."""
    heap, seen, head, total = [], {}, None, 0.0
    for i in range(6000):
        key = (i * 7919) % 1009
        heapq.heappush(heap, (key * 0.5, i))
        seen[key] = seen.get(key, 0) + 1
        head = _Link(key, i * 1.5, head)
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    while head is not None:
        total += head.value
        head = head.next
    return total + len(seen)


def probe_host(budget: float = 0.0) -> list[float]:
    """Host seconds of ``PROBE_TRIES`` or more tries of the fixed probe,
    as many as fit in ``budget`` seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        tries = []
        spent = 0.0
        while len(tries) < PROBE_TRIES or spent < budget:
            began = time.perf_counter()
            _probe_work()
            tries.append(time.perf_counter() - began)
            spent += tries[-1]
    finally:
        if enabled:
            gc.enable()
    return tries


class HostClock:
    """Times regions in host seconds, and probes the host after each one.

    The host's speed flips between a fast and a slow mode within
    milliseconds (the probe reads one or the other), and a pass runs at
    the mix of the two.  One probe is too short to tell that mix and would
    add its own noise to the pass; the mean of a run's probes tells the
    mix of the host phase the run fell in.
    """

    def __init__(self, share: float = PROBE_SHARE) -> None:
        self.share = share
        self.probes = probe_host()

    def time(self, fn):
        """``(host seconds, result)`` of ``fn()``."""
        began = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - began
        self.probes.extend(probe_host(self.share * wall))
        return wall, result

    def scale(self) -> float:
        """Reference seconds per host second, over the probes so far."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)


# -- passes ---------------------------------------------------------------------
class Pass(NamedTuple):
    wall: float
    outputs: dict[str, Any]
    errors: list[Exception]


def assert_untraced(workloads, tracer) -> None:
    """Refuse to time a pass while any tracer wrapper is installed."""
    from repro.sim.engine import Simulator

    probes = (Simulator.schedule, Simulator.schedule_at, Simulator.run,
              workloads.run_grid, workloads.build_workload)
    if any(tracer.is_traced(fn) for fn in probes):
        raise RuntimeError("a tracer wrapper is installed in an untraced pass")


def run_cycle(workload, items, clock: HostClock, hook=None) -> list[Pass]:
    """One timed pass per item.

    ``hook`` (a tracer, or a garbage-collector meter) is installed around
    each pass only.  Inputs are built for the whole cycle first, and the
    collector runs before each pass, so the timed region holds the pass
    and nothing else.
    """
    inputs = [workload.pass_inputs(item) for item in items]
    timed = []
    for item, item_inputs in zip(items, inputs):
        gc.collect()
        if hook is not None:
            hook.install(extra_modules=(sys.modules["workloads"],))
        try:
            timed.append(clock.time(lambda: workload.run_pass(item, item_inputs)))
        finally:
            if hook is not None:
                hook.uninstall()
    passes = []
    for item, item_inputs, (wall, raw) in zip(items, inputs, timed):
        outputs = workload.outputs(item, raw)
        workload.finish_pass(item, item_inputs)
        errors = [value for value in raw.values() if isinstance(value, Exception)]
        for exc in errors:
            log("operation raised:\n" + "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)))
        passes.append(Pass(wall, outputs, errors))
    return passes


class Checker:
    """Counts operations and failures against one reference.

    The reference is the pinned digests when the seed is pinned; otherwise
    the digest of each operation's first output in this run.
    """

    def __init__(self, workloads, workload, pinned) -> None:
        self.workloads = workloads
        self.workload = workload
        self.pinned = pinned is not None
        self.reference = dict(pinned or {})
        self.attempted = 0
        self.failed = 0

    def __call__(self, item, outputs) -> None:
        if not self.pinned:
            for op_id, value in self.workloads.digests(outputs).items():
                self.reference.setdefault(op_id, value)
        self.attempted += len(item.op_ids)
        failed = self.workloads.failures(self.workload, item, outputs, self.reference)
        for op_id, reason in failed.items():
            log(f"FAILED {op_id}: {reason}")
        self.failed += len(failed)


def set_up(args, scratch: Path, repeats: int):
    """Import the program and build the inputs ``repeats`` times.

    Returns the last repetition's modules, workload and state, and the
    median repetition in reference seconds, rescaled by the set-up's own
    probes.  Each repetition pays what a fresh process pays after the
    interpreter and numpy are loaded.
    """
    clock = HostClock(SETUP_PROBE_SHARE)
    timings, workload, state = [], None, None
    for _ in range(repeats):
        if state is not None:
            workload.cleanup(state)

        def once():
            began = time.perf_counter()
            workloads = reimport_program()
            imported = time.perf_counter() - began
            chosen = workloads.WORKLOADS[args.workload]
            return workloads, chosen, chosen.prepare(args.seed, scratch), imported

        wall, (workloads, workload, state, imported) = clock.time(once)
        timings.append((wall, imported))
    wall, imported = sorted(timings)[len(timings) // 2]
    log(f"set-up, median of {repeats}: host {wall:.4f} s (program imports "
        f"{imported:.4f} s, inputs {wall - imported:.4f} s), x {clock.scale():.3f} "
        "reference s per host s; all [host, imports]: "
        + json.dumps([[round(t, 4) for t in timing] for timing in timings]))
    return workloads, workload, state, wall * clock.scale()


def timed_run(args, workloads, tracer, workload, state, checker, clock, setup_s):
    """Untraced passes, round-robin over the items, for ``args.seconds``.

    Every item runs at least ``MIN_REPEATS`` times.  An item's time is the
    mean of its passes, and ``wall_s`` is the median over items, so one
    costly draw does not move it.  Times are rescaled by the probes of the
    timed passes.
    """
    items = state.items
    host = [[] for _ in items]
    started = time.perf_counter()
    passes = 0
    while (passes < MIN_REPEATS * len(items)
           or time.perf_counter() - started < args.seconds):
        index = passes % len(items)
        assert_untraced(workloads, tracer)
        (timed,) = run_cycle(workload, [items[index]], clock)
        checker(items[index], timed.outputs)
        host[index].append(timed.wall)
        passes += 1
    scale = clock.scale()
    log(f"{passes} passes over {len(items)} items in "
        f"{time.perf_counter() - started:.1f} s; host seconds per pass: "
        + json.dumps([[round(w, 4) for w in walls] for walls in host]))
    log(f"{len(clock.probes)} probes, host ms: mean {statistics.fmean(clock.probes) * 1e3:.3f}, "
        "quartiles " + json.dumps([round(q * 1e3, 3) for q in statistics.quantiles(clock.probes)]))
    per_item = [statistics.fmean(walls) * scale for walls in host]
    values = {
        "wall_s": statistics.median(per_item),
        "jobs_per_s": statistics.median(
            item.jobs / wall for item, wall in zip(items, per_item)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    log(f"wall_s {values['wall_s'] / scale:.4f} host s, x {scale:.3f} reference s per host s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(args, workloads, tracer_module, workload, state, checker, clock):
    """Rounds of one untraced and one traced cycle, for ``args.seconds``.

    There are at least ``TRACE_ROUNDS`` rounds; each metric is the (low)
    median over rounds, and times are rescaled by the probes of the run.
    Counts repeat exactly from round to round.
    """
    items = state.items[:TRACE_ITEMS]
    results = []
    started = time.perf_counter()
    while len(results) < TRACE_ROUNDS or time.perf_counter() - started < args.seconds:
        assert_untraced(workloads, tracer_module)
        collector = tracer_module.GcMeter()
        untraced = run_cycle(workload, items, clock, collector)
        tracer = tracer_module.Tracer()
        clock.time(tracer.calibrate)
        traced = run_cycle(workload, items, clock, tracer)
        assert_untraced(workloads, tracer_module)
        # Tracing must not change what the program computes.
        for item, timed in zip(items, untraced + traced):
            checker(item, timed.outputs)
        layers = Layers(tracer, traced, untraced, collector.seconds)
        results.append({name: value(layers) for name, _, value in PER_LAYER})
        log(f"round {len(results)}, host seconds: untraced cycle "
            f"{sum(t.wall for t in untraced):.3f} (collector {collector.seconds:.3f}), "
            f"traced cycle {sum(t.wall for t in traced):.3f} (collector "
            f"{tracer.gc.seconds:.3f}, wrappers {tracer.overhead_s():.3f} as calibrated: "
            + json.dumps({k: round(v * 1e9, 1) for k, v in tracer.costs.items()})
            + f" ns, fit {layers.cost_fit:.2f}); corrected self seconds per layer: "
            + json.dumps({k: round(v, 4) for k, v in layers.self_s.items() if v}))
    scale = clock.scale()
    log(f"x {scale:.3f} reference s per host s")
    spans = tracer.write(
        SCRATCH / f"trace-{workload.name}-seed{args.seed}.spans",
        {"workload": workload.name, "seed": args.seed,
         "wall_s": sum(t.wall for t in traced)},
    )
    log(f"{len(tracer.start)} spans of the last round written to {spans}")
    for name, unit, _ in PER_LAYER:
        if unit == "count" and len({r[name] for r in results}) > 1:
            log(f"{name} differs between rounds: {[r[name] for r in results]}")
    return {
        name: {"value": statistics.median_low(r[name] for r in results)
               * (scale if unit == "s" else 1), "unit": unit}
        for name, unit, _ in PER_LAYER
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, _ = load_program()
    except ImportError as exc:
        log(f"cannot load the program: {exc}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    pinned = None
    if PINS.is_file():
        pinned = json.loads(PINS.read_text()).get(args.workload, {}).get(str(args.seed))
    log(f"{args.workload} seed {args.seed}: outputs checked against "
        + ("pinned values" if pinned is not None else "the first pass"))

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    workload = state = None
    try:
        workloads, workload, state, setup_s = set_up(
            args, scratch, 1 if args.trace else SETUP_REPEATS)
        import tracer

        checker = Checker(workloads, workload, pinned)
        clock = HostClock()
        if args.trace:
            metrics = traced_run(
                args, workloads, tracer, workload, state, checker, clock)
        else:
            metrics = timed_run(
                args, workloads, tracer, workload, state, checker, clock, setup_s)
    finally:
        if state is not None:
            workload.cleanup(state)
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
