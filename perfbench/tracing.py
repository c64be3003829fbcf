"""Span tracing installed from outside the program.

The benchmark never edits ``src/``: :func:`install` replaces public
functions and methods of the imported ``repro`` modules with wrappers
that open one span per call.  A span records its layer, start, end and
parent span.  Calls that nest inside a span of the same layer fold into
it, so a layer's call count is the number of times control entered the
layer from outside, and its self time is its spans' duration minus the
part covered by child spans of other layers.

Spans stay in memory (compact arrays) until :meth:`Tracer.write`.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

#: Layer names, in report order.  ``engine`` is the root of a serving
#: pass (``Deployment.run``), ``figures`` the root of a paper pass.
LAYERS = ("engine", "figures", "deploy", "events", "batcher", "pricer",
          "selector", "costmodel", "pruning", "ledger", "scheduling",
          "metrics", "summarise", "router")


class Tracer:
    """Collects spans and per-layer call counts and self times."""

    def __init__(self) -> None:
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.reset()

    def reset(self) -> None:
        """Drop every span and counter (one traced pass starts)."""
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.counters: dict[str, float] = {}
        # Requests resident per ledger object (keyed by id: a pass's
        # ledgers die with it, so ids are only unique within a pass).
        self.residents: dict[int, set] = {}
        self.span_layer = array("b")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # Open spans: layer id, span index, child nanoseconds so far.
        self._layers = [-1]
        self._spans = [-1]
        self._child = [0]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, layer: str, fn, after=None, on_error=None,
             nested_hooks: bool = False):
        """A wrapper of ``fn`` that records a ``layer`` span per call.

        ``after(args, result)`` runs inside the span after a normal
        return, ``on_error(args, exc)`` after an exception (which is
        re-raised).  Calls folded into an enclosing span of the same
        layer run the hooks only when ``nested_hooks`` is set.
        """
        lid = self.layer_id[layer]
        clock = time.perf_counter_ns
        t = self

        def traced(*args, **kwargs):
            if t._layers[-1] == lid:
                if not nested_hooks:
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(args, exc)
                    raise
                if after is not None:
                    after(args, result)
                return result
            index = len(t.span_layer)
            t.span_layer.append(lid)
            t.span_parent.append(t._spans[-1])
            t.span_end.append(0)
            t._layers.append(lid)
            t._spans.append(index)
            t._child.append(0)
            start = clock()
            t.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            except Exception as exc:
                if on_error is not None:
                    on_error(args, exc)
                raise
            finally:
                end = clock()
                t.span_end[index] = end
                t._layers.pop()
                t._spans.pop()
                duration = end - start
                t.self_ns[lid] += duration - t._child.pop()
                t._child[-1] += duration
                t.calls[lid] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write(self, path: Path) -> None:
        """Write the spans as one tab-separated line each:
        ``index layer parent start_ns end_ns`` (parent -1 = root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("index\tlayer\tparent\tstart_ns\tend_ns\n")
            for i, lid in enumerate(self.span_layer):
                out.write(f"{i}\t{LAYERS[lid]}\t{self.span_parent[i]}\t"
                          f"{self.span_start[i]}\t{self.span_end[i]}\n")

    def layer_self_s(self) -> dict[str, float]:
        return {name: self.self_ns[i] / 1e9 for i, name in enumerate(LAYERS)}

    def layer_calls(self) -> dict[str, int]:
        return {name: self.calls[i] for i, name in enumerate(LAYERS)}


# ----------------------------------------------------------------------
# Patching helpers
# ----------------------------------------------------------------------
def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


def patch_function(tracer: Tracer, module, name: str, layer: str,
                   **hooks) -> None:
    """Replace ``module.name`` everywhere a ``repro`` module bound it
    (``from x import name`` copies the reference)."""
    original = getattr(module, name)
    traced = tracer.wrap(layer, original, **hooks)
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, traced)


def patch_public_functions(tracer: Tracer, module, layer: str) -> None:
    """Wrap every public function ``module`` itself defines."""
    for name, value in list(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            patch_function(tracer, module, name, layer)


def _family(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in out:
            out.append(klass)
            todo.extend(klass.__subclasses__())
    return out


def patch_method(tracer: Tracer, cls, name: str, layer: str,
                 exclude: tuple = (), **hooks) -> None:
    """Wrap ``name`` on ``cls`` and every subclass defining its own
    (properties wrap their getter)."""
    for klass in _family(cls):
        if klass in exclude:
            continue
        value = klass.__dict__.get(name)
        if inspect.isfunction(value):
            setattr(klass, name, tracer.wrap(layer, value, **hooks))
        elif isinstance(value, property) and value.fget is not None:
            setattr(klass, name, property(
                tracer.wrap(layer, value.fget, **hooks), value.fset,
                value.fdel, value.__doc__))


def public_members(cls) -> list[str]:
    """Public methods and properties defined on ``cls`` or a subclass."""
    names: list[str] = []
    for klass in _family(cls):
        for name, value in klass.__dict__.items():
            if (not name.startswith("_") and name not in names
                    and (inspect.isfunction(value)
                         or isinstance(value, property))):
                names.append(name)
    return names


# ----------------------------------------------------------------------
# The layer map
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the public calls into each layer of the imported program.

    Must run after the final import of ``repro`` in this process; the
    wrappers live on those module and class objects.
    """
    import importlib

    def mod(name):
        return importlib.import_module(name)

    api = mod("repro.api.deployment")
    events = mod("repro.serve.events")
    batcher = mod("repro.serve.batcher")
    costs = mod("repro.serve.costs")
    selector = mod("repro.registry.selector")
    memory = mod("repro.moe.memory_model")
    scheduling = mod("repro.serve.scheduling")
    metrics = mod("repro.serve.metrics")
    routers = mod("repro.serve.disagg.routers")
    engine = mod("repro.serve.engine")
    disagg = mod("repro.serve.disagg.engine")
    layers = mod("repro.moe.layers")
    kbase = mod("repro.kernels.base")
    pruning = mod("repro.pruning")

    # deploy: stack construction, also inside Deployment.run.
    for name in ("build_context", "build_batcher", "build_trace", "build",
                 "build_pool_context", "build_pool_batcher",
                 "build_engine"):
        patch_method(tracer, api.Deployment, name, "deploy")
    patch_method(tracer, api.Deployment, "run", "engine")
    patch_method(tracer, engine.ServingEngine, "run", "engine")
    patch_method(tracer, disagg.DisaggServingEngine, "run", "engine")

    # The engine's event handlers run inside the calendar's dispatch;
    # wrapping them at registration keeps their work in the engine
    # layer, so events.self_s is the calendar's own cost.
    on = events.EventManager.__dict__["on"]

    def on_traced(self, kind, handler):
        return on(self, kind, tracer.wrap("engine", handler))

    events.EventManager.on = on_traced

    # events: the calendar.  Dispatches are counted where events leave
    # the queue (pop, a due event) or are emitted directly.
    def count_due(args, result):
        if result is not None:
            tracer.count("events.dispatched")

    def count_one(args, result):
        tracer.count("events.dispatched")

    for name in ("dispatch_due", "advance"):
        patch_method(tracer, events.EventManager, name, "events")
    patch_method(tracer, events.EventManager, "emit", "events",
                 after=count_one, nested_hooks=True)
    patch_method(tracer, events.EventQueue, "pop", "events",
                 after=count_one, nested_hooks=True)
    patch_method(tracer, events.EventQueue, "due", "events",
                 after=count_due, nested_hooks=True)

    # batcher: count the plans that became steps and their tokens.
    def count_plan(args, plan):
        if not plan.empty:
            tracer.count("batcher.steps_planned")
            tracer.count("batcher.step_tokens", plan.total_tokens)

    patch_method(tracer, batcher.Batcher, "plan_step", "batcher",
                 after=count_plan)

    # pricer: a call that reached no cost-model function hit its memos.
    costmodel_id = tracer.layer_id["costmodel"]
    price_marks: list[int] = []

    def price_start(fn):
        def start(*args, **kwargs):
            price_marks.append(tracer.calls[costmodel_id])
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.calls[costmodel_id] == price_marks.pop():
                    tracer.count("pricer.memo_hits")
        return start

    price = costs.StepPricer.__dict__["price"]
    costs.StepPricer.price = tracer.wrap("pricer", price_start(price))
    patch_method(tracer, costs.StepPricer, "decode_proj", "pricer")

    # selector: the auto engine's dispatch (its cost() is selection
    # plus the winner's cost model, which nests as a child span).
    for name in ("select", "validate_choice", "compatible_engines",
                 "cost", "segment_kernel"):
        patch_method(tracer, selector.AutoEngine, name, "selector")

    # costmodel: the public cost functions of models, moe and kernels
    # (formats and hw run beneath them).
    for name in ("repro.models.attention", "repro.models.decoder",
                 "repro.models.full_model", "repro.models.runner",
                 "repro.moe.scheduler", "repro.kernels.tiling",
                 "repro.kernels.layout", "repro.kernels.fusion",
                 "repro.kernels.stationary", "repro.kernels.packing",
                 "repro.kernels.autotuner"):
        patch_public_functions(tracer, mod(name), "costmodel")
    for name in ("footprint", "max_batch_size"):
        patch_function(tracer, memory, name, "costmodel")
    patch_method(tracer, layers.MoEEngine, "cost", "costmodel",
                 exclude=(selector.AutoEngine,))
    patch_method(tracer, kbase.MatmulKernel, "cost", "costmodel")

    # pruning: the package's public entry points.
    for name in pruning.__all__:
        if inspect.isfunction(getattr(pruning, name)):
            patch_function(tracer, pruning, name, "pruning")

    # ledger: every public method and property of both ledger kinds.
    def admitted(args, result):
        live = tracer.residents.setdefault(id(args[0]), set())
        live.add(args[1])
        peak = tracer.counters.get("ledger.peak_residents", 0)
        if len(live) > peak:
            tracer.counters["ledger.peak_residents"] = len(live)

    def released(args, result):
        tracer.residents.get(id(args[0]), set()).discard(args[1])

    def grown(args, result):
        tracer.count("ledger.grows")

    def grow_failed(args, exc):
        tracer.count("ledger.grows")
        tracer.count("ledger.grow_fails")

    for cls in (memory.MemoryLedger, memory.DeviceLedgers):
        for name in public_members(cls):
            hooks = {"admit": {"after": admitted},
                     "release": {"after": released},
                     "grow": {"after": grown, "on_error": grow_failed},
                     }.get(name, {})
            patch_method(tracer, cls, name, "ledger", **hooks)

    # scheduling: victim choice, queue order and the admission gate.
    def gate_result(args, admitted_now):
        if not admitted_now:
            tracer.count("gate.deferrals")

    def victim(args, result):
        tracer.count("scheduling.victim_calls")

    patch_method(tracer, scheduling.SchedulingPolicy, "queue_key",
                 "scheduling")
    patch_method(tracer, scheduling.SchedulingPolicy, "victim_key",
                 "scheduling", after=victim)
    patch_method(tracer, scheduling.AdmissionGate, "try_admit",
                 "scheduling", after=gate_result)
    for name in ("admissible", "next_admit_s"):
        patch_method(tracer, scheduling.AdmissionGate, name, "scheduling")

    # metrics: per-step observation, and the end-of-run summary.
    def observed(args, result):
        tracer.count("metrics.observe_calls")

    patch_method(tracer, metrics.MetricsCollector, "observe", "metrics",
                 after=observed)
    for name in ("finish", "preempt", "reject"):
        patch_method(tracer, metrics.MetricsCollector, name, "metrics")
    patch_function(tracer, metrics, "summarise", "summarise")

    # router: pool selection of the disaggregated engine.
    patch_method(tracer, routers.RouterPolicy, "select", "router")
