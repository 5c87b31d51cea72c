"""Layer tracer for the benchmark's traced run.

The tracer attributes host time to the program's layers from outside: it
replaces each layer's public functions and public methods with wrappers
that open a span when a call crosses into the layer from another one.
It also wraps the callbacks that cross a boundary at run time:

- every callback handed to ``Simulator.schedule`` / ``schedule_at``
  becomes a span of the layer whose module defines it when the engine
  dispatches it (and counts as one simulated event);
- every ``on_*`` callback argument (``on_finish`` into a cluster) becomes
  a span of its defining layer when the callee invokes it.

A layer's self time is the time inside its spans minus the time covered
by the spans they caused.  The layers are single-threaded, so nothing
waits on another layer and self times partition the traced wall time.

Most of a traced run's time is the wrappers' own: every call of a wrapped
function pays for one, also a call inside its own layer, and that cost
lands in the caller's self time.  :meth:`Tracer.calibrate` times wrapped
no-op calls of each kind before the run, the wrappers tally the kinds
they pay per layer charged, and :meth:`Tracer.corrected_self_s` takes the
tallies times the calibrated costs out of each layer's self time.
Collector pauses (:class:`GcMeter`) are kept out of every layer.

Spans live in flat in-memory arrays while the run lasts and are written
once, by :meth:`Tracer.write`, after it ends.  Only the first
``MAX_SPANS`` are kept (a faulty backfill run opens millions of tiny
economy and cluster spans); self times and counts cover every span.

Nothing is installed until :meth:`Tracer.install` runs, and
:meth:`Tracer.uninstall` restores every original object.
"""

from __future__ import annotations

import array
import enum
import gc
import functools
import inspect
import json
import math
import sys
import time
import types
from pathlib import Path
from typing import Callable, Optional

#: module prefix → layer; the first matching prefix wins.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.experiments.runstore", "runstore"),
    ("repro.experiments.store", "runstore"),
    ("repro.experiments.tables", "report"),
    ("repro.experiments.figures", "report"),
    ("repro.experiments.report", "report"),
    ("repro.experiments", "pipeline"),
    ("repro.sim", "sim"),
    ("repro.workload", "workload"),
    ("repro.cluster", "cluster"),
    ("repro.economy", "economy"),
    ("repro.policies", "policies"),
    ("repro.service", "service"),
    ("repro.faults", "faults"),
    ("repro.market", "market"),
    ("repro.core", "core"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES))

#: parameters whose callable argument is a callback into the caller's layer.
CALLBACK_PARAMS = ("fn", "on_finish")

#: boundary counts, recorded by the wrappers of the functions named in
#: :func:`_counter_for`.
COUNT_NAMES = (
    "sim.events",
    "policies.quotes",
    "policies.rejections",
    "service.starts",
    "service.transitions",
    "faults.failures",
    "faults.jobs_killed",
    "market.jobs",
    "runstore.puts",
    "runstore.hits",
)

_ENGINE_SCHEDULERS = ("Simulator.schedule", "Simulator.schedule_at")

#: spans kept for :meth:`Tracer.write`; self times and counts cover all.
MAX_SPANS = 1_000_000


def layer_of_module(name: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or ``None`` outside the program."""
    if not name:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return None


def _callable_module(fn) -> Optional[str]:
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__module__", None)


def _counter_for(qualname: str, layer: str) -> Optional[Callable]:
    """The count a call to ``qualname`` records, as ``f(counts, args, kwargs, result)``."""
    method = qualname.rpartition(".")[2]
    if layer == "policies" and method == "expected_cost":
        def quote(counts, args, kwargs, result):
            counts["policies.quotes"] += 1
        return quote
    if qualname == "Policy.on_node_failure":
        def failure(counts, args, kwargs, result):
            kills = kwargs["kills"] if "kills" in kwargs else args[2]
            counts["faults.failures"] += 1
            counts["faults.jobs_killed"] += len(kills)
        return failure
    if qualname.startswith("CommercialComputingService.notify_"):
        extra = {
            "notify_started": "service.starts",
            "notify_rejected": "policies.rejections",
        }.get(method)

        def transition(counts, args, kwargs, result):
            counts["service.transitions"] += 1
            if extra is not None:
                counts[extra] += 1
        return transition
    if qualname == "SyntheticProvider.submit":
        def placed(counts, args, kwargs, result):
            counts["market.jobs"] += 1
        return placed
    if qualname in ("RunStore.put", "RunStore.put_document"):
        def put(counts, args, kwargs, result):
            counts["runstore.puts"] += 1
        return put
    if qualname in ("RunStore.get", "RunStore.get_document"):
        def hit(counts, args, kwargs, result):
            if result is not None:
                counts["runstore.hits"] += 1
        return hit
    return None


def _callback_slots(fn) -> tuple[tuple[int, str], ...]:
    """Positions (counting ``self``) and names of callback parameters."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return ()
    return tuple((i, p) for i, p in enumerate(params) if p in CALLBACK_PARAMS)


#: tally slot of costs paid outside every span (the benchmark's own code).
ROOT = len(LAYERS)

#: the wrappers' own costs per occurrence, measured by :meth:`Tracer.calibrate`:
#: a call that stays in the caller's layer, the part of a span's bookkeeping
#: inside and outside its clock, wrapping callback arguments, and a count.
COSTS = ("pass", "span_inner", "span_outer", "slot", "count")


def _count_event(counts, args, kwargs, result):
    counts["sim.events"] += 1


class GcMeter:
    """Host seconds the cyclic garbage collector pauses while installed.

    A pause inside a span counts as time its children cover, so it is no
    layer's self time.  The tracer's own garbage makes collections more
    frequent in a traced run, and this keeps them out of the layers.
    """

    def __init__(self, stack: Optional[list] = None) -> None:
        self.seconds = 0.0
        self._stack = stack if stack is not None else []
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
            return
        pause = time.perf_counter() - self._began
        self.seconds += pause
        if self._stack:
            self._stack[-1][3] += pause

    def install(self, extra_modules: tuple = ()) -> None:
        gc.callbacks.append(self)

    def uninstall(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)


class Tracer:
    """Spans and counts of one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.self_s = [0.0] * len(LAYERS)
        self.spans = [0] * len(LAYERS)
        # Tallies of the wrappers' own work, per layer charged (ROOT last):
        # calls that stayed in the layer, spans it opened, calls whose
        # callback arguments it had wrapped, counts it recorded.
        self.passes = [0] * (ROOT + 1)
        self.children = [0] * (ROOT + 1)
        self.slotted = [0] * (ROOT + 1)
        self.counted = [0] * (ROOT + 1)
        self.costs = dict.fromkeys(COSTS, 0.0)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, appended at entry: (layer << 20 | name id),
        # the enclosing span's index (-1 for a root), start and end time.
        self.meta = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        # Open spans: [layer id, span index, start, time covered by children].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.gc = GcMeter(self._stack)

    # -- spans --------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _enter(self, layer_id: int, name_id: int) -> None:
        stack = self._stack
        index = len(self.start)
        if index < MAX_SPANS:
            self.meta.append(layer_id << 20 | name_id)
            self.parent.append(stack[-1][1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        else:
            index = -1
        self.children[stack[-1][0] if stack else ROOT] += 1
        stack.append([layer_id, index, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        now = time.perf_counter()
        layer_id, index, began, children = self._stack.pop()
        if index >= 0:
            self.start[index] = began
            self.end[index] = now
        duration = now - began
        self.self_s[layer_id] += duration - children
        self.spans[layer_id] += 1
        if self._stack:
            self._stack[-1][3] += duration

    # -- wrappers -------------------------------------------------------------
    def _traced_callback(self, fn, events: bool):
        layer = layer_of_module(_callable_module(fn))
        counter = _count_event if events else None
        if layer is None:
            if not events:
                return fn
            stack, counts, counted = self._stack, self.counts, self.counted

            def callback(*args, **kwargs):
                counted[stack[-1][0] if stack else ROOT] += 1
                counts["sim.events"] += 1
                return fn(*args, **kwargs)

            return callback
        name_id = self._name_id(getattr(fn, "__qualname__", repr(fn)))
        return self._make(fn, LAYERS.index(layer), name_id, counter)

    def _make(self, fn, layer_id: int, name_id: int, counter=None, slots=(),
              events: bool = False):
        """A wrapper of ``fn`` that opens a span when called from another layer.

        ``counter`` runs after every call; ``slots`` name the callback
        arguments to wrap, as events of the engine when ``events`` is set.
        """
        stack, enter, leave, counts = self._stack, self._enter, self._exit, self.counts
        passes, slotted, counted = self.passes, self.slotted, self.counted
        traced_callback = self._traced_callback

        def traced(*args, **kwargs):
            if slots:
                slotted[stack[-1][0] if stack else ROOT] += 1
                args = list(args)
                for position, name in slots:
                    if name in kwargs:
                        kwargs[name] = traced_callback(kwargs[name], events)
                    elif position < len(args) and callable(args[position]):
                        args[position] = traced_callback(args[position], events)
            if stack and stack[-1][0] == layer_id:
                passes[layer_id] += 1
                result = fn(*args, **kwargs)
            else:
                enter(layer_id, name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
            if counter is not None:
                counted[stack[-1][0] if stack else ROOT] += 1
                counter(counts, args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def _wrap(self, fn, layer: str):
        layer_id = LAYERS.index(layer)
        qualname = fn.__qualname__
        name_id = self._name_id(qualname)
        stack, enter, leave, passes = self._stack, self._enter, self._exit, self.passes

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if stack and stack[-1][0] == layer_id:
                        passes[layer_id] += 1
                        item = next(inner, _DONE)
                    else:
                        enter(layer_id, name_id)
                        try:
                            item = next(inner, _DONE)
                        finally:
                            leave()
                    if item is _DONE:
                        return
                    yield item

            traced_generator.__perfbench_traced__ = True
            return traced_generator

        counter = _counter_for(qualname, layer)
        if counter is not None and "." in qualname:
            # A method overridden in a subclass that calls ``super()`` runs
            # two wrappers per logical call; count only the most derived.
            method, count = qualname.rpartition(".")[2], counter

            def counter(counts, args, kwargs, result):
                if args and getattr(type(args[0]), method, None) is traced:
                    count(counts, args, kwargs, result)

        traced = functools.wraps(fn)(self._make(
            fn, layer_id, name_id, counter, _callback_slots(fn),
            qualname in _ENGINE_SCHEDULERS))
        return traced

    # -- calibration ----------------------------------------------------------
    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> None:
        """Measure the wrappers' own cost, which the results then take out.

        Each cost is the quickest of ``rounds`` measurements of ``calls``
        calls, since host noise only ever adds time.
        """
        best = dict.fromkeys(COSTS, math.inf)
        for _ in range(rounds):
            for name, cost in _measure_costs(calls).items():
                best[name] = min(best[name], cost)
        self.costs = {name: max(0.0, cost) for name, cost in best.items()}

    def overhead_by_layer(self, cost_scale: float = 1.0) -> list[float]:
        """Calibrated wrapper seconds charged to each layer, then to ROOT,
        with every cost multiplied by ``cost_scale``."""
        c = {name: cost * cost_scale for name, cost in self.costs.items()}
        charged = [
            self.passes[i] * c["pass"] + self.children[i] * c["span_outer"]
            + self.slotted[i] * c["slot"] + self.counted[i] * c["count"]
            for i in range(ROOT + 1)
        ]
        for i, spans in enumerate(self.spans):
            charged[i] += spans * c["span_inner"]
        return charged

    def overhead_s(self) -> float:
        """Calibrated wrapper seconds inside the traced wall time."""
        return sum(self.overhead_by_layer())

    def corrected_self_s(self, cost_scale: float = 1.0) -> dict[str, float]:
        """Self seconds per layer, less its calibrated wrapper cost with
        every cost multiplied by ``cost_scale``."""
        return {
            layer: max(0.0, self_s - overhead)
            for layer, self_s, overhead in zip(
                LAYERS, self.self_s, self.overhead_by_layer(cost_scale))
        }

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, raw, staticmethod(self._wrap(raw.__func__, layer)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, raw, classmethod(self._wrap(raw.__func__, layer)))
            elif isinstance(raw, types.FunctionType) and not getattr(
                raw, "__isabstractmethod__", False
            ):
                self._patch(cls, attr, raw, self._wrap(raw, layer))

    def install(self, extra_modules: tuple = ()) -> None:
        """Wrap every loaded layer module's public functions and methods.

        Module-level functions are re-pointed wherever a ``repro`` module
        (or one of ``extra_modules``) imported them by name.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            (name, module) for name, module in list(sys.modules.items())
            if module is not None and layer_of_module(name) is not None
        ]
        functions: dict = {}
        for name, module in modules:
            layer = layer_of_module(name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, (BaseException, enum.Enum)):
                        self._wrap_class(obj, layer)
                elif isinstance(obj, types.FunctionType):
                    functions[obj] = self._wrap(obj, layer)
        holders = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        holders.extend(extra_modules)
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in functions:
                    self._patch(module, attr, obj, functions[obj])
        # Collect what installing made, so the collector pauses the meter
        # sees are the traced run's.
        gc.collect()
        self.gc.install()

    def uninstall(self) -> None:
        """Restore every object :meth:`install` replaced."""
        self.gc.uninstall()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        return dict(zip(LAYERS, self.self_s))

    def layer_spans(self) -> dict[str, int]:
        return dict(zip(LAYERS, self.spans))

    def write(self, path: Path, header: dict) -> Path:
        """Write the spans as one JSON header line plus packed arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc.update(
            layers=list(LAYERS),
            names=self.names,
            spans=len(self.start),
            total_spans=sum(self.spans),
            arrays=[["meta", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        )
        with open(path, "wb") as out:
            out.write(json.dumps(doc).encode("utf-8") + b"\n")
            for values in (self.meta, self.parent, self.start, self.end):
                values.tofile(out)
        return path


_DONE = object()


class _Target:
    """What :func:`_measure_costs` calls, plain and wrapped."""

    def plain(self, value):
        return value

    def plain_with_callback(self, value, fn):
        return value


def _measure_costs(calls: int) -> dict[str, float]:
    """One measurement of each of :data:`COSTS`, in seconds."""
    probe = Tracer()
    target = _Target()
    caller, callee = 0, 1
    callback = lambda: None  # noqa: E731 -- a callback from inside the program
    callback.__module__ = "repro.sim.engine"

    def per_call(method, *args) -> float:
        began = time.perf_counter()
        for _ in range(calls):
            method(*args)
        return (time.perf_counter() - began) / calls

    began = time.perf_counter()
    for _ in range(calls):
        pass
    loop = (time.perf_counter() - began) / calls
    plain = per_call(target.plain, 1)
    plain_with_callback = per_call(target.plain_with_callback, 1, callback)

    def counted(self, value):
        return value

    counted.__qualname__ = "RunStore.put"
    _Target.passing = probe._make(_Target.plain, caller, 0)
    _Target.spanning = probe._make(_Target.plain, callee, 0)
    _Target.put = probe._wrap(counted, LAYERS[caller])
    _Target.scheduling = probe._make(
        _Target.plain_with_callback, caller, 0, slots=((2, "fn"),), events=True)
    probe._stack.append([caller, -1, 0.0, 0.0])
    try:
        passing = per_call(target.passing, 1) - plain
        spanning = per_call(target.spanning, 1) - plain
        inner = probe.self_s[callee] / calls - (plain - loop)
        counting = per_call(target.put, 1) - plain - passing
        slot = per_call(target.scheduling, 1, callback) - plain_with_callback - passing
    finally:
        for attr in ("passing", "spanning", "put", "scheduling"):
            delattr(_Target, attr)
    return {"pass": passing, "span_inner": inner, "span_outer": spanning - inner,
            "slot": slot, "count": counting}


def is_traced(fn) -> bool:
    """True when ``fn`` is one of the tracer's wrappers."""
    return bool(getattr(fn, "__perfbench_traced__", False))
