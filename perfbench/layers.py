"""Host-time tracing of the program's layers, from outside the program.

:class:`LayerTracer` wraps public entry points of each layer and the
engine's process-resume step, records one host-time span per call or
step, and reads the counts of each layer from the program's own ledgers
(``plane.conservation()``, ``Environment.event_count``,
``injector.injected``, ...).  It patches classes for the lifetime of one
traced repetition and restores them in :meth:`LayerTracer.uninstall`;
untraced repetitions never install it.

Self time: a span's duration minus the part of it its child spans cover.
Every process step is a span of the layer whose generator the engine
resumes (the innermost generator of a ``yield from`` chain, by source
file); a synchronous entry-point call is a span of its own layer nested
in whatever called it.  ``sim.self_s`` is then the engine loop plus the
processes defined under ``repro/sim``.

Spans stay in compact arrays and are written at the end as JSONL in the
shape ``repro telemetry summary`` loads (one span object per line).
"""

from __future__ import annotations

import json
import os
import time
import types
from array import array
from collections import Counter, defaultdict
from contextlib import AbstractContextManager

#: (module, class, attribute, span name, layer) of every entry point
#: timed and counted.  ``loadstorm_sweep.synthesize`` is patched apart.
ENTRY_POINTS = (
    ("repro.capacity.admission", "AdmissionController", "admit",
     "capacity.admit", "capacity"),
    ("repro.capacity.admission", "AdmissionController", "queue_depth",
     "capacity.queue_depth", "capacity"),
    ("repro.shard.plane", "ShardedControlPlane", "request_grant",
     "shard.request_grant", "shard"),
    ("repro.shard.plane", "ShardedControlPlane", "request_release",
     "shard.request_release", "shard"),
    ("repro.shard.plane", "ShardedControlPlane", "request_revoke",
     "shard.request_revoke", "shard"),
    ("repro.rfaas.manager", "ResourceManager", "lease",
     "rfaas.lease", "rfaas.lease"),
    ("repro.rfaas.client", "RFaaSClient", "invoke_detailed",
     "rfaas.invoke", "rfaas.invoke"),
    ("repro.controlplane.ha", "ReplicatedResourceManager", "lease",
     "controlplane.lease", "controlplane"),
    ("repro.controlplane.ha", "ReplicatedResourceManager", "release_lease",
     "controlplane.release_lease", "controlplane"),
    ("repro.memservice.paging", "RemotePager", "touch",
     "memservice.touch", "memservice"),
    ("repro.interference.model", "InterferenceModel", "slowdowns",
     "interference.slowdowns", "interference"),
    ("repro.telemetry.metrics", "Gauge", "set",
     "telemetry.gauge_set", "telemetry"),
    ("repro.telemetry.tracer", "Tracer", "span",
     "telemetry.span", "telemetry"),
    ("repro.telemetry.tracer", "Tracer", "instant",
     "telemetry.instant", "telemetry"),
    ("repro.telemetry.tracer", "Tracer", "finish",
     "telemetry.finish", "telemetry"),
)

#: Classes whose instances are kept, so their ledgers can be read.
LEDGERS = (
    ("repro.sim.engine", "Environment"),
    ("repro.shard.plane", "ShardedControlPlane"),
    ("repro.capacity.admission", "AdmissionController"),
    ("repro.network.transport", "NetworkFabric"),
    ("repro.faults.injector", "Injector"),
    ("repro.controlplane.ha", "ReplicatedResourceManager"),
)

#: Source files under ``repro/rfaas/`` on the invocation path.
_INVOKE_FILES = ("client.py", "executor.py")

#: Self-time layers reported as ``<layer>.self_s``.
SELF_LAYERS = ("sim", "capacity", "shard", "network", "telemetry",
               "controlplane", "memservice", "interference")


def layer_of_file(path: str) -> str:
    """``.../repro/shard/batch.py`` -> ``shard``; files outside ``repro``
    (the benchmark, the standard library) -> ``other``."""
    marker = os.sep + "repro" + os.sep
    cut = path.rfind(marker)
    if cut < 0:
        return "other"
    parts = path[cut + len(marker):].split(os.sep)
    if len(parts) == 1:
        return parts[0].removesuffix(".py")
    if parts[0] == "rfaas":
        return "rfaas.invoke" if parts[-1] in _INVOKE_FILES else "rfaas"
    return parts[0]


class _TimedContext:
    """A context manager whose enter and exit are spans of one layer."""

    __slots__ = ("_tracer", "_inner", "_name_ix", "_layer")

    def __init__(self, tracer, inner, name_ix: int, layer: str):
        self._tracer = tracer
        self._inner = inner
        self._name_ix = name_ix
        self._layer = layer

    def __enter__(self):
        return self._tracer._timed(self._name_ix, self._layer,
                                   self._inner.__enter__, (), {})

    def __exit__(self, *exc_info):
        return self._tracer._timed(self._name_ix, self._layer,
                                   self._inner.__exit__, exc_info, {})


class LayerTracer:
    """Spans, calls and errors per layer entry point; see the module doc."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.instances: defaultdict = defaultdict(list)
        self.arrivals = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of_name: list[str] = []
        # One entry per closed span: id, parent id, name index, start, end.
        self._ids = array("q")
        self._parents = array("q")
        self._name_ix = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._next_id = 1
        # Open spans: [span id, child seconds].
        self._stack: list[list] = []
        self._file_layers: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------
    def _name_index(self, name: str, layer: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self._names)
            self._names.append(name)
            self._layer_of_name.append(layer)
        return index

    def _timed(self, name_ix: int, layer: str, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            if stack:
                parent = stack[-1]
                parent[1] += duration
                self._parents.append(parent[0])
            else:
                self._parents.append(0)
            self._ids.append(span_id)
            self._name_ix.append(name_ix)
            self._starts.append(start)
            self._ends.append(end)

    def _timed_generator(self, gen, name_ix: int, layer: str):
        """Delegate to ``gen``, one span per resumption."""
        value = None
        error = None
        while True:
            try:
                if error is not None:
                    item = self._timed(name_ix, layer, gen.throw, (error,), {})
                else:
                    item = self._timed(name_ix, layer, gen.send, (value,), {})
            except StopIteration as stop:
                return stop.value
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into ``gen`` next loop
                value, error = None, exc

    def _step_layer(self, process) -> str:
        gen = process._generator
        inner = gen.gi_yieldfrom
        while isinstance(inner, types.GeneratorType):
            gen = inner
            inner = gen.gi_yieldfrom
        path = gen.gi_code.co_filename
        layer = self._file_layers.get(path)
        if layer is None:
            layer = self._file_layers[path] = layer_of_file(path)
        return layer

    # -- patching ---------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _entry_wrapper(self, original, name: str, layer: str):
        tracer = self
        name_ix = self._name_index(name, layer)
        calls = self.calls
        errors = self.errors

        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                result = tracer._timed(name_ix, layer, original, args, kwargs)
            except Exception:
                errors[name] += 1
                raise
            if isinstance(result, types.GeneratorType):
                return tracer._timed_generator(result, name_ix, layer)
            if isinstance(result, AbstractContextManager):
                return _TimedContext(tracer, result, name_ix, layer)
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        from repro.sim.engine import Environment, Process

        for module_name, cls_name, attr, name, layer in ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._entry_wrapper(original, name, layer))
        self._patch_synthesize()

        for module_name, cls_name in LEDGERS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "__init__", self._keeping(cls.__init__, cls_name))

        tracer = self
        resume = Process.__dict__["_resume_event"]
        step_names: dict[str, int] = {}

        def resume_event(process, event):
            layer = tracer._step_layer(process)
            name_ix = step_names.get(layer)
            if name_ix is None:
                name_ix = step_names[layer] = tracer._name_index(
                    f"{layer}.step", layer)
            return tracer._timed(name_ix, layer, resume, (process, event), {})

        self._patch(Process, "_resume_event", resume_event)
        run_ix = self._name_index("sim.run", "sim")
        env_run = Environment.__dict__["run"]

        def run(env, until=None):
            return tracer._timed(run_ix, "sim", env_run, (env, until), {})

        self._patch(Environment, "run", run)

    def _patch_synthesize(self) -> None:
        """``synthesize`` as the load storm calls it, keeping trace lengths."""
        import repro.experiments.loadstorm_sweep as loadstorm

        inner = self._entry_wrapper(loadstorm.synthesize,
                                    "loadgen.synthesize", "loadgen")

        def synthesize(spec):
            trace = inner(spec)
            self.arrivals += len(trace)
            return trace

        self._patch(loadstorm, "synthesize", synthesize)

    def _keeping(self, init, cls_name: str):
        kept = self.instances[cls_name]

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            kept.append(obj)

        return __init__

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """The per-layer figures of one traced repetition."""
        from repro.telemetry import telemetry_of

        envs = self.instances["Environment"]
        planes = self.instances["ShardedControlPlane"]
        admissions = self.instances["AdmissionController"]
        fabrics = self.instances["NetworkFabric"]
        injectors = self.instances["Injector"]
        controlplanes = self.instances["ReplicatedResourceManager"]
        events = sum(env.event_count for env in envs)

        ledgers = [plane.conservation() for plane in planes]
        submitted = sum(ledger["ops_submitted"] for ledger in ledgers)
        applied = sum(ledger["ops_applied"] for ledger in ledgers)

        telemetries = {id(t): t for t in map(telemetry_of, envs) if t.enabled}
        gauge_points = 0
        program_spans = 0
        retries = 0
        for telemetry in telemetries.values():
            program_spans += len(telemetry.spans)
            for metric in telemetry.metrics:
                if metric.kind == "gauge":
                    gauge_points += len(metric.series)
                elif metric.name == "repro_faults_retries_total":
                    retries += int(metric.value)
        # ``rfaas.self_s`` covers every file under ``repro/rfaas``.
        rfaas_self = sum(s for layer, s in self.self_s.items()
                         if layer.startswith("rfaas"))
        metrics = {
            "sim.events": events,
            "capacity.admit.calls": self.calls["capacity.admit"],
            "capacity.admit.rejected": sum(a.rejected for a in admissions),
            "capacity.queue_depth.calls": self.calls["capacity.queue_depth"],
            "shard.ops_submitted": (self.calls["shard.request_grant"]
                                    + self.calls["shard.request_release"]
                                    + self.calls["shard.request_revoke"]),
            "shard.ops_failed": sum(ledger["ops_failed"] for ledger in ledgers),
            "shard.useful_ratio": applied / submitted if submitted else 0.0,
            "shard.batches": sum(s.batcher.batches
                                 for plane in planes for s in plane.shards),
            "rfaas.lease.calls": self.calls["rfaas.lease"],
            "rfaas.lease.denied": self.errors["rfaas.lease"],
            "rfaas.lease.self_s": self.self_s["rfaas.lease"],
            "rfaas.invoke.calls": self.calls["rfaas.invoke"],
            "rfaas.invoke.retries": retries,
            "rfaas.invoke.self_s": self.self_s["rfaas.invoke"],
            "rfaas.self_s": rfaas_self,
            "network.transfers": sum(f.stats.messages for f in fabrics),
            "network.bytes": sum(f.stats.bytes for f in fabrics),
            "telemetry.gauge_set.calls": self.calls["telemetry.gauge_set"],
            "telemetry.gauge_points": gauge_points,
            "telemetry.spans": program_spans,
            "loadgen.arrivals": self.arrivals,
            "loadgen.synthesize_s": self.self_s["loadgen"],
            "controlplane.log_records": sum(len(c.commit_log)
                                            for c in controlplanes),
            "memservice.touch.calls": self.calls["memservice.touch"],
            "interference.slowdowns.calls":
                self.calls["interference.slowdowns"],
            "faults.injected": sum(len(i.injected) for i in injectors),
            "faults.skipped": sum(len(i.skipped) for i in injectors),
            "trace.spans": len(self._ids),
        }
        for layer in SELF_LAYERS:
            metrics[f"{layer}.self_s"] = self.self_s[layer]
        metrics["other.self_s"] = sum(
            s for layer, s in self.self_s.items()
            if layer not in SELF_LAYERS and not layer.startswith("rfaas")
            and layer != "loadgen")
        return metrics

    def write_spans(self, path: str) -> int:
        """Write every span as JSONL; returns the number written."""
        names = [json.dumps(n) for n in self._names]
        tracks = [json.dumps(layer) for layer in self._layer_of_name]
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, ix, start, end in zip(
                    self._ids, self._parents, self._name_ix,
                    self._starts, self._ends):
                fh.write(
                    f'{{"attrs": {{}}, "end": {end!r}, "name": {names[ix]}, '
                    f'"parent_id": {parent or "null"}, "span_id": {span_id}, '
                    f'"start": {start!r}, "track": {tracks[ix]}}}\n')
        return len(self._ids)
