"""Per-layer wall-time attribution for the traced run.

Spans are recorded from this file only: the program is not changed.
:class:`LayerTracer` replaces the entry points of each layer — public
functions and the methods other layers call — with timing wrappers, and
restores the originals on :meth:`LayerTracer.uninstall`. A function bound
into another module with ``from ... import`` is replaced in every
``repro`` module that holds it, so callers that look the name up in
their own module globals reach the wrapper too.

Three kinds of span cover the whole of ``Engine.run``:

* explicit spans around the layer entry points listed in
  :data:`ENTRY_POINTS`;
* a span around every generator resume (``Process._step``), charged to
  the layer of the module the generator was defined in — worker loops
  to the executor, update procedures to the controller, election loops
  to ``ha``;
* a span around every scheduled callback whose owner lives outside the
  engine, charged to the layer of the callback's module.

A layer's self time is its span time minus the time of the spans
nested inside it; builtins and unwrapped helpers therefore count for
the layer that called them. The ``engine`` layer is the remainder under
``Engine.run``: the event loop, the calendar queue and the process and
timer machinery. Time in modules that belong to no named layer (the
network substrate in ``repro.net``, cluster glue) is reported as
unattributed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, in report order.
LAYERS = ("engine", "codec", "packets", "io_layer", "executor", "switch",
          "controller", "store", "ha", "acker", "replication", "ledger",
          "app")

#: Module (prefix) -> layer. The longest matching prefix wins.
MODULE_LAYERS = {
    "repro.sim.engine": "engine",
    "repro.sim.queues": "engine",
    "repro.sim.costs": "engine",
    "repro.sim.rng": "engine",
    "repro.streaming.serialize": "codec",
    "repro.core.packets": "packets",
    "repro.core.io_layer": "io_layer",
    "repro.streaming.executor": "executor",
    "repro.streaming.grouping": "executor",
    "repro.streaming.transport": "executor",
    "repro.streaming.topology": "executor",
    "repro.streaming.tuples": "executor",
    "repro.core.framework_layer": "executor",
    "repro.sdn.switch": "switch",
    "repro.sdn.flow": "switch",
    "repro.sdn.group": "switch",
    "repro.sdn.controller": "controller",
    "repro.sdn.openflow": "controller",
    "repro.core.controller": "controller",
    "repro.core.update": "controller",
    "repro.core.apps": "controller",
    "repro.core.topology_manager": "controller",
    "repro.core.rules": "controller",
    "repro.core.control": "controller",
    "repro.coordination": "store",
    "repro.sdn.ha": "ha",
    "repro.streaming.acker": "acker",
    "repro.streaming.replay": "acker",
    "repro.streaming.checkpoint": "acker",
    "repro.streaming.replication": "replication",
    "repro.sim.audit": "ledger",
    "repro.sim.metrics": "ledger",
    "repro.sim.trace": "ledger",
    "repro.core.audit": "ledger",
    "repro.core.tracing": "ledger",
    "repro.workloads": "app",
}

#: Reported for time in modules no named layer owns.
OTHER = "other"


@functools.lru_cache(maxsize=256)
def layer_of_module(module: Optional[str]) -> str:
    best = ""
    layer = OTHER
    if module:
        for prefix, name in MODULE_LAYERS.items():
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > len(best):
                best, layer = prefix, name
    return layer


#: Entry points wrapped explicitly: (layer, module, owner, attributes).
#: ``owner`` is a class name in ``module``, or ``None`` for module-level
#: functions.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("engine", "repro.sim.engine", "Engine", ("run",)),
    ("codec", "repro.streaming.serialize", None,
     ("encode_tuple", "encode_tuple_scalar", "encode_train",
      "encode_train_uniform", "encode_values", "decode_tuple",
      "peek_trace_id")),
    ("packets", "repro.core.packets", None,
     ("pack_tuples", "pack_tuples_spans", "unpack_payload")),
    ("packets", "repro.core.packets", "Reassembler", ("feed", "drain")),
    ("io_layer", "repro.core.io_layer", "TyphoonTransport",
     ("send", "send_many", "send_interleaved", "send_broadcast",
      "send_broadcast_interleaved", "send_offloaded", "send_to_controller",
      "flush", "_on_frame")),
    ("io_layer", "repro.core.io_layer", "HostFabric",
     ("receive_from_tunnel", "_tunnel_sink")),
    ("executor", "repro.streaming.executor", "WorkerExecutor",
     ("deliver",)),
    ("executor", "repro.streaming.executor", "_Collector",
     ("emit", "emit_many", "emit_direct", "ack", "fail")),
    ("executor", "repro.streaming.grouping", "Router", ("route",)),
    ("executor", "repro.streaming.transport", None, ("delivery_bytes",)),
    ("switch", "repro.sdn.switch", "SoftwareSwitch",
     ("inject", "inject_train", "handle_message", "handle_message_from")),
    ("switch", "repro.sdn.flow", "FlowTable", ("lookup_cached",)),
    ("controller", "repro.sdn.controller", "SdnController",
     ("send", "_receive")),
    ("controller", "repro.core.controller", "TyphoonControllerApp",
     ("sync_topology", "on_port_status", "on_packet_in", "send_control")),
    ("controller", "repro.core.topology_manager", "DynamicTopologyManager",
     ("set_parallelism",)),
    ("store", "repro.coordination.store", "Coordinator",
     ("exists", "create", "set", "ensure", "get", "get_data", "children",
      "delete", "start_session", "expire_session", "watch_data",
      "watch_children", "_fire_data", "_fire_children")),
    ("acker", "repro.streaming.acker", "AckerBolt", ("execute",)),
    ("acker", "repro.streaming.replay", "ReplayBuffer",
     ("register_root", "on_complete", "on_failed", "take_due",
      "reschedule_open")),
    ("replication", "repro.streaming.replication", "ReplicaGroup",
     ("stamp_input", "fetch_input", "join", "note_applied", "log_output",
      "mark_sent", "reemit_due", "save_state", "trim", "admit", "commit")),
    ("replication", "repro.streaming.executor", "WorkerExecutor",
     ("_replica_delivery", "_dedup_delivery", "_replication_tick",
      "_replication_reemit")),
    ("ledger", "repro.sim.audit", "DeliveryLedger",
     ("record_sent", "record_injected", "record_replicated",
      "record_delivered", "record_controller_delivered", "record_drop",
      "record_frame_drop", "record_frame_replicated",
      "record_frame_injected", "record_frame_controller_delivered",
      "record_frame_controller_dropped")),
    ("ledger", "repro.sim.metrics", "RateMeter", ("mark",)),
    ("ledger", "repro.sim.metrics", "Distribution", ("record",)),
)

#: User-component hooks wrapped on every workload component class.
APP_HOOKS = ("open", "next_tuple", "next_tuple_batch", "execute",
             "execute_batch", "on_signal", "ack", "fail")

#: Calls counted as codec encodes / decodes.
ENCODERS = ("encode_tuple", "encode_tuple_scalar", "encode_train",
            "encode_train_uniform", "encode_values")
DECODERS = ("decode_tuple",)

#: TyphoonTransport send methods and the tuples each call adds to the
#: transport's own ``tuples_sent`` counter, given the call's arguments.
_SEND_COUNTS: Dict[str, Callable] = {
    "send": lambda args: len(args[1]) if args[1] else 0,
    "send_many": lambda args: len(args[0]),
    "send_interleaved": lambda args: len(args[0]),
    "send_broadcast": lambda args: 1,
    "send_broadcast_interleaved": lambda args: len(args[0]),
    "send_offloaded": lambda args: 1,
    "send_to_controller": lambda args: 1,
}


class LayerTracer:
    """Install timing wrappers, accumulate per-layer self time and call
    counts, and restore the program on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.encoded_bytes = 0
        self.sent_tuples = 0
        self.watch_fires = 0
        #: FlowMods sent while :attr:`in_update` holds.
        self.update_flow_mods = 0
        #: True while a Fig. 6 update process is running; the runner
        #: points it at the traced workload.
        self.in_update: Callable[[], bool] = lambda: False
        self.packet_ins = 0
        #: Transports seen sending or receiving while recording, with
        #: their counters at first sight (before the call).
        self.transports: Dict[object, Tuple[int, ...]] = {}
        self.recording = False
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._code_layers: Dict[object, str] = {}
        self._send_depth = 0

    # -- accounting ----------------------------------------------------------

    def begin(self) -> None:
        """Start recording: drop everything accumulated so far."""
        self.self_time.clear()
        self.calls.clear()
        self.encoded_bytes = 0
        self.sent_tuples = 0
        self.watch_fires = 0
        self.update_flow_mods = 0
        self.packet_ins = 0
        self.transports.clear()
        self.recording = True

    def end(self) -> None:
        self.recording = False

    def _see_transport(self, transport) -> None:
        if self.recording and transport not in self.transports:
            self.transports[transport] = _transport_counters(transport)

    def transport_delta(self) -> Dict[str, int]:
        """Counter increments of every transport seen while recording."""
        total = [0] * len(TRANSPORT_COUNTERS)
        for transport, first in self.transports.items():
            now = _transport_counters(transport)
            for index, value in enumerate(now):
                total[index] += value - first[index]
        return dict(zip(TRANSPORT_COUNTERS, total))

    def _timed(self, layer: str, fn, key: str,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None):
        """Wrap ``fn`` in a ``layer`` span counted under ``key``;
        ``before(args)`` and ``after(result)`` observe the call."""
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(wrapper)

    def _span(self, layer: str, fn, args) -> None:
        """Run one scheduled callback inside a ``layer`` span."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_time[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> "LayerTracer":
        import importlib

        from repro.sdn.openflow import FlowMod, PacketIn

        self._flow_mod, self._packet_in = FlowMod, PacketIn
        for layer, module_name, owner_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else None
            for attr in attrs:
                key = "%s.%s" % (owner_name or module_name.rsplit(".", 1)[1],
                                 attr)
                hooks = self._hooks(key)
                if owner is None:
                    original = getattr(module, attr)
                    wrapper = self._timed(layer, original, key, **hooks)
                    self._rebind_everywhere(original, wrapper)
                else:
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._timed(
                        layer, original, key, **hooks))
        self._install_transport_observers()
        self._install_app_hooks()
        self._install_dispatch()
        return self

    def _hooks(self, key: str) -> Dict[str, Callable]:
        """Observers for the entry points whose arguments or results
        feed a count."""
        if key in ("serialize." + name for name in ENCODERS):
            return {"after": self._count_encoded}
        return {
            "SdnController.send": {"before": self._count_flow_mod},
            "SdnController._receive": {"before": self._count_packet_in},
            "Coordinator._fire_data": {"before": self._count_data_watchers},
            "Coordinator._fire_children":
                {"before": self._count_child_watchers},
        }.get(key, {})

    def _count_flow_mod(self, args) -> None:
        if isinstance(args[2], self._flow_mod) and self.in_update():
            self.update_flow_mods += 1

    def _count_packet_in(self, args) -> None:
        if isinstance(args[1], self._packet_in):
            self.packet_ins += 1

    def _count_encoded(self, result) -> None:
        # encode_train* return None for a batch they decline to encode.
        if result is not None:
            data = result[0] if isinstance(result, tuple) else result
            self.encoded_bytes += len(data)

    def _count_data_watchers(self, args) -> None:
        store, path = args[0], args[1]
        self.watch_fires += len(store._data_watches.get(path) or ())

    def _count_child_watchers(self, args) -> None:
        store, path = args[0], args[1]
        self.watch_fires += len(store._child_watches.get(path) or ())

    def _install_transport_observers(self) -> None:
        """Note every transport that sends or receives while recording,
        and count the tuples each outermost send hands to its transport
        (the cross-check against ``tuples_sent``)."""
        from repro.core.io_layer import TyphoonTransport

        for attr, count in _SEND_COUNTS.items():
            self._patch(TyphoonTransport, attr, self._observing(
                TyphoonTransport.__dict__[attr], count))
        self._patch(TyphoonTransport, "_on_frame", self._observing(
            TyphoonTransport.__dict__["_on_frame"], None))

    def _observing(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def observed(transport, *args, **kwargs):
            tracer._see_transport(transport)
            if count is None:
                return fn(transport, *args, **kwargs)
            if tracer._send_depth == 0 and not transport.closed:
                tracer.sent_tuples += count(args)
            tracer._send_depth += 1
            try:
                return fn(transport, *args, **kwargs)
            finally:
                tracer._send_depth -= 1

        return observed

    def _install_app_hooks(self) -> None:
        import repro.workloads as workloads
        from repro.streaming.topology import Bolt, Spout

        seen = set()
        for name in dir(workloads):
            cls = getattr(workloads, name)
            if not isinstance(cls, type) or cls in seen \
                    or not issubclass(cls, (Spout, Bolt)):
                continue
            seen.add(cls)
            for hook in APP_HOOKS:
                original = cls.__dict__.get(hook)
                if callable(original):
                    self._patch(cls, hook, self._timed(
                        "app", original, "%s.%s" % (cls.__name__, hook)))

    def _install_dispatch(self) -> None:
        from repro.sim.engine import Engine, Process

        tracer = self
        step = Process.__dict__["_step"]
        code_layers = self._code_layers

        @functools.wraps(step)
        def traced_step(process, value, exc):
            generator = process._generator
            code = getattr(generator, "gi_code", None)
            layer = code_layers.get(code)
            if layer is None:
                frame = getattr(generator, "gi_frame", None)
                module = frame.f_globals.get("__name__") if frame else None
                layer = code_layers[code] = layer_of_module(module)
            tracer._span(layer, step, (process, value, exc))

        self._patch(Process, "_step", traced_step)

        push = Engine.__dict__["_push_entry"]
        span = self._span

        @functools.wraps(push)
        def traced_push(engine, when, fn, args):
            layer = _callback_layer(fn)
            if layer != "engine":
                fn, args = functools.partial(span, layer, fn, args), ()
            return push(engine, when, fn, args)

        self._patch(Engine, "_push_entry", traced_push)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------------

    def layer_self_seconds(self) -> Dict[str, float]:
        return {layer: self.self_time.get(layer, 0.0) for layer in LAYERS}

    def unattributed_seconds(self) -> float:
        return self.self_time.get(OTHER, 0.0)

    def total_seconds(self) -> float:
        return sum(self.self_time.values())

    def count(self, *keys: str) -> int:
        return sum(self.calls.get(key, 0) for key in keys)


#: Transport counters the tracer follows per transport object.
TRANSPORT_COUNTERS = ("tuples_sent", "frames_sent", "fused_flushes",
                      "fused_tuples")


def _transport_counters(transport) -> Tuple[int, ...]:
    return tuple(getattr(transport, name, 0) for name in TRANSPORT_COUNTERS)


def _callback_layer(fn) -> str:
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return layer_of_module(type(owner).__module__)
    inner = getattr(fn, "func", None)  # functools.partial
    if inner is not None:
        return _callback_layer(inner)
    return layer_of_module(getattr(fn, "__module__", None))


# -- per-run counters and the per-layer report ----------------------------------


def snapshot(run) -> Dict[str, float]:
    """The program's own deterministic counters for one run."""
    from repro.streaming.replay import REPLAY_SERVICE

    cluster = run.cluster
    stats = run.engine.stats()
    switches = cluster.fabric.switches()
    ledger = cluster.ledger
    replay = cluster.services[REPLAY_SERVICE].totals()
    replication = cluster.replication.totals()
    ha = cluster.ha
    return {
        "tuples": run.processed(),
        "events": stats["events_executed"],
        "heap_ops": stats["heap_pushes"] + stats["heap_pops"],
        "lookups": sum(s.cache_hits + s.cache_misses for s in switches),
        "cache_hits": sum(s.cache_hits for s in switches),
        "switch_frames": sum(s.packets_forwarded for s in switches),
        "switch_drops": sum(s.packets_dropped for s in switches),
        "replicated": sum(ledger.replicated.values()),
        "ledger_sent": sum(ledger.sent.values()),
        "roots": replay["registered"],
        "replays": replay["replays"],
        "exhausted": replay["exhausted"],
        "sequenced": replication["inputs"],
        "dedup_drops": replication["duplicates_collapsed"],
        "repairs": replication["repairs"],
        "elections": (sum(r.promotions for r in ha.replicas)
                      if ha is not None else 0),
        "anti_entropy": (sum(f["stale_deleted"] + f["repaired"]
                             for f in ha.failovers)
                         if ha is not None else 0),
        "updates": len(getattr(run, "updates", ())),
    }


def delta(before: Dict[str, float], after: Dict[str, float]
          ) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, counts: Dict[str, float],
                  plain_counts: Dict[str, float], model: Dict[str, float],
                  traced_wall: float, plain_wall: float, speed: float
                  ) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics (name -> (value, unit)) and the cross-check
    mismatches between the tracer's call counts and the program's own
    counters.

    ``traced_wall`` and ``plain_wall`` are the traced and untraced
    windows' wall time at reference speed; ``speed`` converts the traced
    run's raw self times to reference speed the same way."""
    tuples = counts["tuples"]
    self_s = tracer.layer_self_seconds()
    transports = tracer.transport_delta()

    def us_per_tuple(layer: str) -> float:
        return _ratio(self_s[layer] / speed * 1e6, tuples)

    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    per_tuple = "us/tuple"
    put("engine.self_us_per_tuple", us_per_tuple("engine"), per_tuple)
    put("engine.events_per_tuple", _ratio(counts["events"], tuples),
        "events/tuple")
    put("engine.heap_ops_per_event",
        _ratio(counts["heap_ops"], counts["events"]), "ops/event")
    put("codec.self_us_per_tuple", us_per_tuple("codec"), per_tuple)
    put("codec.encode_calls_per_tuple",
        _ratio(tracer.count(*("serialize." + name for name in ENCODERS)),
               tuples), "calls/tuple")
    put("codec.decode_calls_per_tuple",
        _ratio(tracer.count(*("serialize." + name for name in DECODERS)),
               tuples), "calls/tuple")
    put("codec.bytes_per_tuple", _ratio(tracer.encoded_bytes, tuples),
        "B/tuple")
    put("packets.self_us_per_tuple", us_per_tuple("packets"), per_tuple)
    put("packets.frames_per_tuple",
        _ratio(transports["frames_sent"], tuples), "frames/tuple")
    put("io_layer.self_us_per_tuple", us_per_tuple("io_layer"), per_tuple)
    put("io_layer.fast_path_fraction",
        _ratio(transports["fused_tuples"], transports["tuples_sent"]),
        "fraction")
    put("io_layer.avg_train_tuples",
        _ratio(transports["fused_tuples"], transports["fused_flushes"]),
        "tuples/train")
    put("executor.self_us_per_tuple", us_per_tuple("executor"), per_tuple)
    put("executor.deliveries_per_tuple",
        _ratio(tracer.count("WorkerExecutor.deliver"), tuples),
        "deliveries/tuple")
    put("switch.self_us_per_tuple", us_per_tuple("switch"), per_tuple)
    put("switch.frames_per_tuple", _ratio(counts["switch_frames"], tuples),
        "frames/tuple")
    put("switch.cache_hit_rate",
        _ratio(counts["cache_hits"], counts["lookups"]), "fraction")
    put("switch.replicated_copies", counts["replicated"], "count")
    put("switch.drops", counts["switch_drops"], "count")
    put("controller.self_us_per_tuple", us_per_tuple("controller"),
        per_tuple)
    put("controller.messages_sent", tracer.count("SdnController.send"),
        "count")
    put("controller.flow_mods_per_update",
        _ratio(tracer.update_flow_mods, counts["updates"]),
        "flowmods/update")
    put("controller.packet_ins", tracer.packet_ins, "count")
    put("controller.reconfig_ms", model.get("reconfig_ms", 0.0), "ms")
    put("controller.stale_rules_before_failover",
        model.get("stale_rules_before_failover", 0), "count")
    put("store.ops", tracer.count(*("Coordinator." + op
                                    for op in STORE_OPS)), "count")
    put("store.watch_fires", tracer.watch_fires, "count")
    put("store.self_us_per_tuple", us_per_tuple("store"), per_tuple)
    put("ha.elections", counts["elections"], "count")
    put("ha.anti_entropy_flow_mods", counts["anti_entropy"], "count")
    put("ha.failover_blackout_ms", model.get("failover_blackout_ms", 0.0),
        "ms")
    put("acker.self_us_per_tuple", us_per_tuple("acker"), per_tuple)
    put("acker.acks_per_root",
        _ratio(tracer.count("AckerBolt.execute"), counts["roots"]),
        "acks/root")
    put("acker.complete_latency_p50_ms",
        model.get("complete_latency_p50_ms", 0.0), "ms")
    put("acker.complete_latency_p99_ms",
        model.get("complete_latency_p99_ms", 0.0), "ms")
    put("acker.latency_samples", model.get("latency_samples", 0), "count")
    put("replay.replayed_roots", counts["replays"], "count")
    put("replay.exhausted_roots", counts["exhausted"], "count")
    put("replication.self_us_per_tuple", us_per_tuple("replication"),
        per_tuple)
    put("replication.sequenced", counts["sequenced"], "count")
    put("replication.dedup_drops", counts["dedup_drops"], "count")
    put("replication.repairs", counts["repairs"], "count")
    put("ledger.self_us_per_tuple", us_per_tuple("ledger"), per_tuple)
    put("ledger.failed_ratio", model.get("failed_ratio", 0.0), "fraction")
    put("app.self_us_per_tuple", us_per_tuple("app"), per_tuple)
    put("trace.overhead_ratio", _ratio(traced_wall, plain_wall), "ratio")
    put("trace.unattributed_share",
        _ratio(tracer.unattributed_seconds(), tracer.total_seconds()),
        "fraction")

    mismatches = []
    checks = (
        ("FlowTable.lookup_cached calls vs switch cache_hits+cache_misses",
         tracer.count("FlowTable.lookup_cached"), counts["lookups"]),
        ("traced vs untraced Engine events_executed",
         counts["events"], plain_counts["events"]),
        ("traced vs untraced tuples processed",
         counts["tuples"], plain_counts["tuples"]),
        ("wrapped send arguments vs transport tuples_sent",
         tracer.sent_tuples, transports["tuples_sent"]),
        ("transport tuples_sent vs ledger sent",
         transports["tuples_sent"], counts["ledger_sent"]),
    )
    for label, seen, expected in checks:
        if seen != expected:
            mismatches.append("%s: %d != %d" % (label, seen, expected))
    put("trace.crosscheck_mismatches", len(mismatches), "count")
    return out, mismatches


#: Public coordination-store operations counted as ``store.ops``.
STORE_OPS = ("exists", "create", "set", "ensure", "get", "get_data",
             "children", "delete", "start_session", "expire_session",
             "watch_data", "watch_children")
