"""Focused unit tests for the worker executor (framework layer)."""

import random

import pytest

from repro.core import TyphoonCluster

from repro.sim import DEFAULT_COSTS, Engine, MetricsRegistry
from repro.sim.rng import SeedFactory
from repro.streaming import (
    Delivery,
    Grouping,
    LogicalNode,
    SHUFFLE,
    StreamTuple,
    Router,
    Transport,
    TopologyConfig,
    WorkerAssignment,
    WorkerExecutor,
    signal_tuple,
)
from repro.streaming.executor import OutOfMemoryError
from repro.streaming.topology import BOLT, SPOUT, Bolt, Spout, TopologyBuilder
from repro.streaming.tuples import CONTROL_STREAM


class FakeTransport(Transport):
    """Records sends; charges a fixed cost per call."""

    def __init__(self, cost=1e-6):
        self.cost = cost
        self.sent = []
        self.broadcasts = []
        self.flushes = 0
        self.closed = False
        self.batch_size = 100

    def send(self, stream_tuple, dst_worker_ids):
        self.sent.append((stream_tuple, list(dst_worker_ids)))
        return self.cost

    def send_broadcast(self, stream_tuple, dst_worker_ids):
        self.broadcasts.append((stream_tuple, list(dst_worker_ids)))
        return self.cost

    def send_offloaded(self, stream_tuple, edge_key, dst_worker_ids):
        return self.send(stream_tuple, dst_worker_ids[:1])

    def flush(self):
        self.flushes += 1
        return 0.0

    def set_batch_size(self, batch_size):
        self.batch_size = batch_size

    def close(self):
        self.closed = True


def build_executor(engine, component, kind=BOLT, config=None, routers=None,
                   control_handler=None, node_kwargs=None):
    node = LogicalNode("comp", kind, lambda: component,
                       **(node_kwargs or {}))
    transport = FakeTransport()
    executor = WorkerExecutor(
        engine=engine,
        costs=DEFAULT_COSTS,
        assignment=WorkerAssignment(worker_id=1, component="comp",
                                    task_index=0, hostname="h"),
        node=node,
        config=config or TopologyConfig(),
        transport=transport,
        routers=routers if routers is not None else {
            ("down", 0): Router(Grouping(SHUFFLE), [2, 3]),
        },
        metrics=MetricsRegistry(engine),
        rng=SeedFactory(1).rng("w"),
        topology_id="t",
        control_handler=control_handler,
    )
    return executor, transport


class Echo(Bolt):
    def execute(self, stream_tuple, collector):
        collector.emit(stream_tuple.values)


class Exploding(Bolt):
    def execute(self, stream_tuple, collector):
        raise RuntimeError("kaboom")


def test_bolt_processes_and_routes(engine):
    executor, transport = build_executor(engine, Echo())
    executor.start()
    executor.deliver(Delivery([StreamTuple(("a",)), StreamTuple(("b",))],
                              cost=1e-6))
    engine.run(until=1.0)
    assert executor.stats.processed == 2
    assert executor.stats.emitted == 2
    assert [dsts for _t, dsts in transport.sent] == [[2], [3]]  # shuffle


def test_bolt_crash_invokes_on_crash(engine):
    executor, transport = build_executor(engine, Exploding())
    crashes = []
    executor.on_crash = lambda ex, err: crashes.append(err)
    executor.start()
    executor.deliver(Delivery([StreamTuple(("x",))], cost=0))
    engine.run(until=1.0)
    assert len(crashes) == 1
    assert not executor.alive
    assert transport.closed
    assert executor.stats.crashes == 1


def test_crash_stops_processing_rest_of_batch(engine):
    class ExplodeOnSecond(Bolt):
        def __init__(self):
            self.seen = 0

        def execute(self, stream_tuple, collector):
            self.seen += 1
            if self.seen == 2:
                raise RuntimeError("second")

    bolt = ExplodeOnSecond()
    executor, _ = build_executor(engine, bolt)
    executor.on_crash = lambda ex, err: None
    executor.start()
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(5)], cost=0))
    engine.run(until=1.0)
    assert bolt.seen == 2  # tuples after the crash were not processed


def test_signal_tuples_reach_on_signal(engine):
    class Stateful(Bolt):
        def __init__(self):
            self.flushed = 0

        def execute(self, stream_tuple, collector):
            pass

        def on_signal(self, signal, collector):
            self.flushed += 1

    bolt = Stateful()
    executor, _ = build_executor(engine, bolt)
    executor.start()
    executor.deliver(Delivery([signal_tuple()], cost=0))
    engine.run(until=1.0)
    assert bolt.flushed == 1
    assert executor.stats.signals == 1
    assert executor.stats.processed == 0  # signals aren't data


def test_control_handler_hook(engine):
    seen = []

    def handler(executor, stream_tuple):
        seen.append(stream_tuple.values)
        return 0.0

    executor, _ = build_executor(engine, Echo(), control_handler=handler)
    executor.start()
    executor.deliver(Delivery(
        [StreamTuple(("ROUTING", 0, {}), stream=CONTROL_STREAM)], cost=0))
    engine.run(until=1.0)
    assert seen == [("ROUTING", 0, {})]
    assert executor.stats.control_tuples == 1


def test_control_without_handler_is_counted_and_ignored(engine):
    executor, _ = build_executor(engine, Echo())
    executor.start()
    executor.deliver(Delivery(
        [StreamTuple(("X", 0, {}), stream=CONTROL_STREAM)], cost=0))
    engine.run(until=1.0)
    assert executor.stats.control_tuples == 1
    assert executor.alive


def test_spout_respects_rate_limit(engine):
    class FastSpout(Spout):
        def next_tuple(self, collector):
            collector.emit(("t",))

    config = TopologyConfig(max_spout_rate=1000, batch_size=10)
    executor, transport = build_executor(engine, FastSpout(), kind=SPOUT,
                                         config=config)
    executor.start()
    engine.run(until=5.0)
    assert executor.stats.emitted == pytest.approx(5000, rel=0.05)


def test_spout_deactivation_blocks_emission(engine):
    class FastSpout(Spout):
        def next_tuple(self, collector):
            collector.emit(("t",))

    config = TopologyConfig(max_spout_rate=1000)
    executor, _ = build_executor(engine, FastSpout(), kind=SPOUT,
                                 config=config)
    executor.active = False
    executor.start()
    engine.run(until=2.0)
    assert executor.stats.emitted == 0


def test_drain_kill_processes_backlog(engine):
    executor, transport = build_executor(engine, Echo())
    executor.start()
    engine.run(until=0.1)
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(10)], cost=0))
    executor.kill(drain=True)
    engine.run(until=1.0)
    assert executor.stats.processed == 10
    assert not executor.alive
    assert transport.closed


def test_hard_kill_discards_backlog(engine):
    executor, _ = build_executor(engine, Echo())
    executor.start()
    engine.run(until=0.1)
    # First delivery is consumed immediately; the second sits in the
    # input queue and must be discarded by a hard kill.
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(10)],
                              cost=10.0))
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(10)],
                              cost=0.0))
    executor.kill(drain=False)
    engine.run(until=20.0)
    assert not executor.alive
    assert executor.stats.processed == 10  # second delivery dropped


def test_oom_monitor_kills_over_limit(engine):
    config = TopologyConfig(enable_oom=True)
    costs = DEFAULT_COSTS.scaled(worker_memory_limit_bytes=1000,
                                 app_compute_per_tuple=1.0)  # slow worker
    node = LogicalNode("comp", BOLT, Echo)
    executor = WorkerExecutor(
        engine=engine, costs=costs,
        assignment=WorkerAssignment(1, "comp", 0, "h"),
        node=node, config=config, transport=FakeTransport(),
        routers={}, metrics=MetricsRegistry(engine),
        rng=SeedFactory(1).rng("w"), topology_id="t",
    )
    errors = []
    executor.on_crash = lambda ex, err: errors.append(err)
    executor.start()
    big = StreamTuple(("x" * 500,))
    for _ in range(10):
        executor.deliver(Delivery([big], cost=0))
    engine.run(until=5.0)
    assert errors and isinstance(errors[0], OutOfMemoryError)
    assert not executor.alive


def test_deliver_rejected_after_death(engine):
    executor, _ = build_executor(engine, Echo())
    executor.start()
    engine.run(until=0.1)
    executor.kill()
    engine.run(until=0.2)
    assert executor.deliver(Delivery([StreamTuple(("x",))], cost=0)) is False


def test_collector_charge_adds_cost(engine):
    class Expensive(Bolt):
        def execute(self, stream_tuple, collector):
            collector.charge(0.5)

    executor, _ = build_executor(engine, Expensive())
    executor.start()
    engine.run(until=0.01)
    executor.deliver(Delivery([StreamTuple(("x",))], cost=0))
    executor.deliver(Delivery([StreamTuple(("y",))], cost=0))
    # The first tuple's 0.5 s charge delays the second delivery.
    engine.run(until=0.45)
    assert executor.stats.processed == 1
    engine.run(until=0.60)
    assert executor.stats.processed == 2


def test_charge_negative_rejected(engine):
    executor, _ = build_executor(engine, Echo())
    with pytest.raises(ValueError):
        executor.collector.charge(-1.0)


# -- spout loop: multi-emission calls on the deferred single-hop lane -----


class TailSplitSpout(Spout):
    """Each call emits 0-3 tuples on the default stream, sometimes
    followed by a stream-2 tuple, a direct emission (once ``direct_to``
    is set) or a ``charge()``."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seq = 0
        self.direct_to = None

    def _next(self, tag):
        self.seq += 1
        return (self.seq, tag * self.rng.randint(1, 12))

    def next_tuple(self, collector):
        rng = self.rng
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            collector.emit(self._next("a"))
        extra = rng.random()
        if extra < 0.1:
            collector.emit(self._next("s"), stream=2)
        elif extra < 0.2 and self.direct_to is not None:
            collector.emit_direct(self.direct_to, self._next("d"))
        elif extra < 0.3:
            collector.charge(3e-6)


class RecordingBolt(Bolt):
    def __init__(self):
        self.seen = []

    def execute(self, stream_tuple, collector):
        self.seen.append((stream_tuple.stream, stream_tuple.values))


def _run_tail_split(seed, broadcast):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=seed)
    builder = TopologyBuilder("tail", TopologyConfig(batch_size=16,
                                                     max_spout_rate=3000))
    builder.set_spout("src", lambda: TailSplitSpout(seed), 1)
    if broadcast:
        builder.set_bolt("sink", RecordingBolt, 2).all_grouping("src")
    else:
        builder.set_bolt("sink", RecordingBolt, 1).shuffle_grouping("src")
    builder.set_bolt("side", RecordingBolt, 1).shuffle_grouping("src",
                                                                stream=2)
    cluster.submit(builder.build())
    engine.run(until=3.0)  # deployment
    src = cluster.executors_for("tail", "src")[0]
    sinks = cluster.executors_for("tail", "sink")
    side = cluster.executors_for("tail", "side")[0]
    src.component.direct_to = sinks[0].worker_id
    engine.run(until=5.0)
    return {
        "sinks": [sink.component.seen for sink in sinks],
        "side": side.component.seen,
        "emitted": src.stats.emitted,
        "meter": dict(src.emitted_meter._buckets),
        "transport": (src.transport.tuples_sent, src.transport.frames_sent),
        "ledger": (dict(cluster.ledger.sent), dict(cluster.ledger.delivered),
                   dict(cluster.ledger.drops)),
    }


@pytest.mark.parametrize("broadcast", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_spout_multi_emission_calls_equal_per_tuple_dispatch(monkeypatch,
                                                             seed, broadcast):
    """Calls that emit several default-stream tuples on the deferred
    single-hop (or broadcast) lane split them off and route them ahead
    of the call's other emissions: the same run with the lane disabled
    must agree on everything observable."""
    deferred = _run_tail_split(seed, broadcast)
    with monkeypatch.context() as patch:
        # No single-hop or broadcast lane: every call is routed per tuple.
        patch.setattr(WorkerExecutor, "_single_hop_router",
                      staticmethod(lambda edges: None))
        patch.setattr(WorkerExecutor, "_single_broadcast_router",
                      staticmethod(lambda edges: None))
        per_tuple = _run_tail_split(seed, broadcast)
    assert deferred == per_tuple
    assert min(len(seen) for seen in deferred["sinks"]) > 1000
    assert deferred["side"]
