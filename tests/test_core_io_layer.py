"""Unit tests for the Typhoon I/O layer and fabric."""

import pytest

from repro.core.io_layer import HostFabric, TyphoonFabric, TyphoonTransport
from repro.net import BROADCAST, Cluster, EthernetFrame, TYPHOON_ETHERTYPE, WorkerAddress
from repro.sdn import ADD, FlowMod, Match, Output, SetTunnelDst
from repro.sim import DEFAULT_COSTS, Engine
from repro.sim.audit import DeliveryLedger
from repro.streaming import StreamTuple


@pytest.fixture
def fabric(engine):
    return TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(2))


def make_transport(engine, fabric, worker_id, host="host-0", batch=10):
    transport = TyphoonTransport(engine, DEFAULT_COSTS, worker_id, app_id=1,
                                 host_fabric=fabric.host(host),
                                 batch_size=batch)
    received = []
    transport.deliver = lambda delivery: received.append(delivery) or True
    transport.attach()
    return transport, received


def install_unicast(fabric, host, src_port, src_id, dst_id, dst_port):
    switch = fabric.host(host).switch
    switch.handle_message(FlowMod(ADD, Match(
        in_port=src_port, dl_src=WorkerAddress(1, src_id),
        dl_dst=WorkerAddress(1, dst_id), ether_type=TYPHOON_ETHERTYPE,
    ), (Output(dst_port),)))


def test_fabric_builds_full_tunnel_mesh(engine):
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(3))
    for name, host in fabric.hosts.items():
        assert set(host.tunnels) == {other for other in fabric.hosts
                                     if other != name}
    assert len(fabric.switches()) == 3


def test_local_send_and_receive_roundtrip(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=2)
    receiver, received = make_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    cost = sender.send(StreamTuple(("hello", 1)), [2])
    cost += sender.send(StreamTuple(("world", 2)), [2])  # fills batch of 2
    assert cost > 0
    engine.run(until=0.05)
    assert len(received) == 1
    tuples = received[0].tuples
    assert [t.values for t in tuples] == [("hello", 1), ("world", 2)]
    assert received[0].cost > 0


def test_remote_send_via_tunnel(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, host="host-0", batch=1)
    receiver, received = make_transport(engine, fabric, 2, host="host-1")
    switch0 = fabric.host("host-0").switch
    switch0.handle_message(FlowMod(ADD, Match(
        in_port=sender.port_no, dl_src=WorkerAddress(1, 1),
        dl_dst=WorkerAddress(1, 2), ether_type=TYPHOON_ETHERTYPE,
    ), (SetTunnelDst("host-1"), Output(fabric.host("host-0").tunnel_port))))
    switch1 = fabric.host("host-1").switch
    switch1.handle_message(FlowMod(ADD, Match(
        in_port=fabric.host("host-1").tunnel_port,
        dl_src=WorkerAddress(1, 1), dl_dst=WorkerAddress(1, 2),
    ), (Output(receiver.port_no),)))
    engine.run(until=0.01)
    sender.send(StreamTuple(("remote",)), [2])
    engine.run(until=0.05)
    assert len(received) == 1
    assert received[0].tuples[0].values == ("remote",)
    assert fabric.host("host-0").tunnels["host-1"].total_bytes > 0


def test_serialize_once_for_multiple_destinations(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=100)
    sender.send(StreamTuple(("multi",)), [2, 3, 4])
    assert sender.serializations == 1
    assert sender.tuples_sent == 3  # one buffered copy per destination


def test_broadcast_uses_broadcast_address(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1)
    receivers = []
    for worker_id in (2, 3):
        _transport, received = make_transport(engine, fabric, worker_id)
        receivers.append(received)
    switch = fabric.host("host-0").switch
    ports = [switch.port_by_name("w2").number,
             switch.port_by_name("w3").number]
    switch.handle_message(FlowMod(ADD, Match(
        in_port=sender.port_no, dl_dst=BROADCAST,
        ether_type=TYPHOON_ETHERTYPE,
    ), tuple(Output(p) for p in ports)))
    engine.run(until=0.01)
    sender.send_broadcast(StreamTuple(("fanout",)), [2, 3])
    engine.run(until=0.05)
    assert sender.serializations == 1
    assert all(len(received) == 1 for received in receivers)


def test_large_tuple_segmentation_end_to_end(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1)
    receiver, received = make_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    payload = "y" * 30000  # far beyond the MTU
    sender.send(StreamTuple((payload,)), [2])
    assert sender.frames_sent > 1  # fragmented
    engine.run(until=0.05)
    assert len(received) == 1
    assert received[0].tuples[0].values == (payload,)


def test_flush_sends_partial_batches(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    receiver, received = make_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    sender.send(StreamTuple(("partial",)), [2])
    assert sender.frames_sent == 0  # buffered
    cost = sender.flush()
    assert cost > 0
    assert sender.frames_sent == 1
    engine.run(until=0.05)
    assert len(received) == 1


def test_close_removes_port_and_drops_sends(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1)
    port = sender.port_no
    sender.close()
    assert port not in fabric.host("host-0").switch.ports
    assert sender.send(StreamTuple(("late",)), [2]) == 0.0
    sender.close()  # idempotent


def test_send_to_controller_flushes_immediately(engine, fabric):
    events = []
    fabric.host("host-0").switch.connect_controller(events.append)
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    from repro.core import rules
    match, actions = rules.worker_to_controller(sender.port_no)
    fabric.host("host-0").switch.handle_message(
        FlowMod(ADD, match, actions, priority=rules.PRIORITY_CONTROL))
    engine.run(until=0.01)
    sender.send_to_controller(StreamTuple(("stats", 1)))
    engine.run(until=0.05)
    packet_ins = [e for e in events if type(e).__name__ == "PacketIn"]
    assert len(packet_ins) == 1


def test_tunnel_to_unknown_peer_counts_drop(engine, fabric):
    host = fabric.host("host-0")
    frame = EthernetFrame(WorkerAddress(1, 2), WorkerAddress(1, 1),
                          TYPHOON_ETHERTYPE, b"x")
    host._tunnel_sink(frame, None)
    host._tunnel_sink(frame, "no-such-host")
    assert host.tunnel_drops == 2


def test_set_batch_size_floor(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1)
    sender.set_batch_size(0)
    assert sender.batch_size == 1
    sender.set_batch_size(64)
    assert sender.batch_size == 64


def _fragment_frames(src, dst, data, mtu=1500):
    from repro.core.packets import pack_tuples

    payloads, _ = pack_tuples([data], mtu)
    assert len(payloads) > 1
    return [EthernetFrame(dst=dst, src=src, ethertype=TYPHOON_ETHERTYPE,
                          payload=payload) for payload in payloads]


def test_cross_topology_fragments_do_not_collide(engine, fabric):
    """Same worker id, same frag ids, *different applications*: the
    reassembler must keep the two streams apart (it is keyed by
    (app_id, worker_id), not worker id alone)."""
    from repro.streaming.serialize import encode_tuple

    receiver, received = make_transport(engine, fabric, 9)
    data_a = encode_tuple(StreamTuple(("a" * 4000,)))
    data_b = encode_tuple(StreamTuple(("b" * 4000,)))
    frames_a = _fragment_frames(WorkerAddress(1, 5), receiver.address, data_a)
    frames_b = _fragment_frames(WorkerAddress(2, 5), receiver.address, data_b)
    # Interleave fragment-for-fragment: identical frag_id=0 on both.
    for frame_a, frame_b in zip(frames_a, frames_b):
        receiver._on_frame(frame_a, None)
        receiver._on_frame(frame_b, None)
    assert len(received) == 2
    values = sorted(d.tuples[0].values[0][0] for d in received)
    assert values == ["a", "b"]
    assert receiver._reassembler.dropped == 0


def test_reassembly_eviction_is_counted_in_ledger(engine):
    from repro.sim.audit import R_REASSEMBLY_EVICTED
    from repro.streaming.serialize import encode_tuple

    ledger = DeliveryLedger()
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1),
                           ledger=ledger)
    receiver, received = make_transport(engine, fabric, 9)
    receiver._reassembler.max_pending = 2
    # Three concurrent partial tuples from three different apps: starting
    # the third must evict only the oldest (app 1), not wipe the table.
    heads = {}
    for app_id in (1, 2, 3):
        data = encode_tuple(StreamTuple(("z" * 4000, app_id)))
        heads[app_id] = _fragment_frames(WorkerAddress(app_id, 5),
                                         receiver.address, data)
    for app_id in (1, 2, 3):
        receiver._on_frame(heads[app_id][0], None)
    assert receiver._reassembler.evictions == 1
    assert receiver._reassembler.pending_count == 2
    assert ledger.drops == {(1, "reassembly", R_REASSEMBLY_EVICTED): 1}
    # The survivors still complete.
    for app_id in (2, 3):
        for frame in heads[app_id][1:]:
            receiver._on_frame(frame, None)
    assert len(received) == 2
    assert receiver.pending_reassembly == 0


def test_offloaded_round_robin_is_fair_per_edge(engine, fabric):
    """Two offloaded edges sharing one transport must each see an even
    round robin — a shared counter would skew both distributions."""
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    destinations = [2, 3]
    picks = {"edge-a": [], "edge-b": []}
    original_send = sender.send

    def spy(stream_tuple, dst_worker_ids):
        spy.last = list(dst_worker_ids)
        return original_send(stream_tuple, dst_worker_ids)

    sender.send = spy
    for i in range(4):
        # Interleave the two edges the way a worker feeding two
        # downstream components would.
        sender.send_offloaded(StreamTuple(("t", i)), "edge-a", destinations)
        picks["edge-a"].append(spy.last[0])
        sender.send_offloaded(StreamTuple(("t", i)), "edge-b", destinations)
        picks["edge-b"].append(spy.last[0])
    assert picks["edge-a"] == [2, 3, 2, 3]
    assert picks["edge-b"] == [2, 3, 2, 3]


def test_detached_live_transport_holds_buffer(engine, fabric):
    """A live transport that is (temporarily) not attached to a switch
    port must *hold* buffered tuples for the retry after re-attach —
    only a closed transport may discard."""
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    receiver, received = make_transport(engine, fabric, 2)
    sender.send(StreamTuple(("early",)), [2])
    # Detach (fault/migration window) without closing.
    sender.switch.remove_port(sender.port_no)
    sender.port_no = None
    assert sender.flush() == 0.0
    assert sender.pending_tuples() == 1
    assert sender.dropped_after_close == 0
    # Re-attach: the held batch goes out on the next flush.
    sender.attach()
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    assert sender.flush() > 0
    engine.run(until=0.05)
    assert len(received) == 1
    assert received[0].tuples[0].values == ("early",)


def test_close_drains_buffers_and_reassembly_into_ledger(engine):
    from repro.sim.audit import R_AFTER_CLOSE, R_PENDING_AT_CLOSE
    from repro.streaming.serialize import encode_tuple

    ledger = DeliveryLedger()
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1),
                           ledger=ledger)
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    sender.send(StreamTuple(("stuck",)), [2])
    data = encode_tuple(StreamTuple(("w" * 4000,)))
    head = _fragment_frames(WorkerAddress(2, 7), sender.address, data)[0]
    sender._on_frame(head, None)
    assert sender.pending_reassembly == 1
    sender.close()
    assert sender.dropped_after_close == 1
    assert sender.pending_tuples() == 0
    assert sender.pending_reassembly == 0
    assert ledger.drops == {
        (1, "transport", R_AFTER_CLOSE): 1,
        (2, "reassembly", R_PENDING_AT_CLOSE): 1,
    }


# -- batched senders vs the per-tuple loop ----------------------------------

def _record_frames(switch):
    """Replace the switch's ingress with a recorder: ``{in_port: [(dst,
    payload), ...]}`` in injection order, nothing forwarded."""
    log = {}

    def inject(in_port, frame):
        log.setdefault(in_port, []).append((frame.dst, frame.payload))
        return True

    def inject_train(in_port, frames):
        for frame in frames:
            inject(in_port, frame)

    switch.inject = inject
    switch.inject_train = inject_train
    return log


def _twins(engine, batch):
    """Two transports on one fabric, each with its own ledger, whose
    injected frames are recorded per port."""
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1))
    log = _record_frames(fabric.host("host-0").switch)
    twins = []
    for worker_id in (1, 2):
        transport = TyphoonTransport(
            engine, DEFAULT_COSTS, worker_id, app_id=1,
            host_fabric=fabric.host("host-0"), batch_size=batch,
            ledger=DeliveryLedger())
        transport.attach()
        twins.append(transport)
    return twins, log


def _train(seed, n, stamped):
    """A seeded batch of tuples on one (stream, source) envelope. Values
    mix every scalar type with occasional containers and over-MTU
    strings; ``stamped`` anchors, traces or sequences some tuples."""
    import random

    from repro.streaming.tuples import Anchor

    rng = random.Random(seed)
    out = []
    for i in range(n):
        values = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.randrange(9)
            if kind == 0:
                values.append(rng.randint(-2 ** 40, 2 ** 40))
            elif kind == 1:
                values.append(rng.random())
            elif kind == 2:
                values.append("w" * rng.randint(0, 12))
            elif kind == 3:
                values.append(bytes(rng.randrange(256)
                                    for _ in range(rng.randint(0, 6))))
            elif kind == 4:
                values.append(rng.random() < 0.5)
            elif kind == 5:
                values.append(None)
            elif kind == 6:
                values.append(rng.randint(0, 1000))
            elif kind == 7 and rng.random() < 0.3:
                values.append([rng.randint(0, 9), "x"])
            elif rng.random() < 0.05:
                values.append("big" * 700)
        stream_tuple = StreamTuple(tuple(values), stream=3,
                                   source_component="spout", source_worker=7)
        if stamped and rng.random() < 0.5:
            stamp = rng.randrange(3)
            if stamp == 0:
                stream_tuple.anchor = Anchor(rng.randrange(1 << 32), i)
            elif stamp == 1:
                stream_tuple.trace_id = rng.randrange(1 << 32)
            else:
                stream_tuple.seq = (1, i)
        out.append(stream_tuple)
    return out


def _uniform_ok(tuples):
    return all(t.anchor is None and t.trace_id is None and t.seq is None
               for t in tuples)


_BATCHED_CASES = [
    (method, pre_cost, stamped, setup, seed)
    for method in ("send_many", "send_interleaved",
                   "send_broadcast_interleaved")
    for pre_cost in (0.0, 3.7e-6)
    if not (method == "send_many" and pre_cost)
    for stamped in (False, True)
    for setup in ("empty", "prefilled", "shrunk", "closed")
    for seed in (0, 1)
]


@pytest.mark.parametrize("method,pre_cost,stamped,setup,seed",
                         _BATCHED_CASES)
def test_batched_senders_match_per_tuple_loop(engine, method, pre_cost,
                                              stamped, setup, seed):
    """Each batched sender returns the same float as the per-tuple loop
    it replays and leaves the same frames, buffers and counters."""
    (batched, reference), log = _twins(engine, batch=10)
    bcast = method == "send_broadcast_interleaved"
    dst = BROADCAST if bcast else 5
    for transport in (batched, reference):
        if setup in ("prefilled", "shrunk"):
            for stream_tuple in _train(seed + 100, 7, False):
                if bcast:
                    transport.send_broadcast(stream_tuple, [5, 6])
                else:
                    transport.send(stream_tuple, [dst])
        if setup == "shrunk":
            transport.set_batch_size(3)
        elif setup == "closed":
            transport.close()
    start = 0.0 if method == "send_many" else 0.25
    for n in (1, 23, 4):
        for uniform in (False, True):
            tuples = _train(seed * 10 + n + 50 * uniform, n, stamped)
            twin = _train(seed * 10 + n + 50 * uniform, n, stamped)
            if uniform and (method == "send_many" or not _uniform_ok(tuples)):
                continue
            if method == "send_many":
                got = batched.send_many(tuples, dst)
            elif bcast:
                got = batched.send_broadcast_interleaved(
                    tuples, [5, 6], pre_cost, start, uniform=uniform)
            else:
                got = batched.send_interleaved(tuples, dst, pre_cost, start,
                                               uniform=uniform)
            want = start
            for stream_tuple in twin:
                want += pre_cost
                if bcast:
                    want += reference.send_broadcast(stream_tuple, [5, 6])
                else:
                    want += reference.send(stream_tuple, [dst])
            assert got == want
    assert batched.pending_tuples() == reference.pending_tuples()
    assert batched.flush() == reference.flush()
    assert batched.tuples_sent == reference.tuples_sent
    assert batched.serializations == reference.serializations
    assert batched.frames_sent == reference.frames_sent
    assert batched.ledger.sent == reference.ledger.sent
    assert batched.ledger.drops == reference.ledger.drops
    if setup == "closed":
        assert batched.tuples_sent == 0 and not log
    else:
        assert batched.tuples_sent > 0
        assert log[batched.port_no] == log[reference.port_no]
        assert {frame_dst for frame_dst, _ in log[batched.port_no]} == {
            WorkerAddress(1, 5) if not bcast else BROADCAST}


@pytest.mark.parametrize("values,fast", [
    (("word", 3, 2.5, b"\x00", True, None), True),
    (("word", [1, 2]), False),
    (({"k": 1},), False),
])
def test_offloaded_select_path_enqueues_to_select_address(engine, values,
                                                          fast):
    """An edge with a select address is serialized once and buffered for
    the switch's select group: the cost is serialize + enqueue, and the
    flushed frame addresses the group and carries the encoded tuple."""
    from repro.core.rules import select_address
    from repro.core.packets import unpack_payload
    from repro.streaming.serialize import encode_tuple, serialize_cost

    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1))
    sender, _ = make_transport(engine, fabric, 1, batch=100)
    edge = ("count", 0)
    address = select_address(1, "count", 0)
    sender.select_addresses[edge] = address
    stream_tuple = StreamTuple(values, source_worker=1)
    encoded = encode_tuple(stream_tuple)
    frames = []
    fabric.host("host-0").switch.inject = (
        lambda in_port, frame: frames.append(frame) or True)
    cost = sender.send_offloaded(stream_tuple, edge, [2, 3])
    assert cost == (serialize_cost(DEFAULT_COSTS, len(encoded))
                    + DEFAULT_COSTS.typhoon_enqueue_per_tuple)
    assert sender.serializations == 1 and sender.tuples_sent == 1
    assert sender.pending_tuples() == 1
    sender.flush()
    assert len(frames) == 1
    assert frames[0].dst == address
    assert unpack_payload(frames[0].payload) == [encoded]
    assert (frames[0].tuples is not None) is fast


# -- fast-lane delivery of generic-flush frames -----------------------------------

def _recording_transport(engine, fabric, worker_id, host="host-0",
                         on_delivery=None):
    """A receiver whose frames and deliveries are logged in pairs.
    ``on_delivery`` runs on each delivery after it is logged."""
    transport = TyphoonTransport(engine, DEFAULT_COSTS, worker_id, app_id=1,
                                 host_fabric=fabric.host(host),
                                 batch_size=10)
    log = []
    deliveries = []

    def deliver(delivery):
        deliveries.append(delivery)
        if on_delivery is not None:
            on_delivery(delivery)
        return True

    transport.deliver = deliver
    on_frame = transport._on_frame

    def record(frame, tun_dst):
        before = len(deliveries)
        on_frame(frame, tun_dst)
        log.append((frame, deliveries[before:]))

    transport._on_frame = record
    transport.attach()
    return transport, log


def _decode_lane_reference(frame):
    """What the receive path delivers for ``frame`` with its annotation
    stripped: the payload bytes are decoded for real."""
    import dataclasses

    engine = Engine()
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1))
    reference = TyphoonTransport(engine, DEFAULT_COSTS, 99, app_id=1,
                                 host_fabric=fabric.host("host-0"),
                                 batch_size=10)
    got = []
    reference.deliver = lambda delivery: got.append(delivery) or True
    reference._on_frame(dataclasses.replace(frame, tuples=None), None)
    assert len(got) == 1
    return got[0]


def _check_fast_lane(log, sent, annotated):
    """Each delivery equals the decode lane's: fresh tuples with a blank
    ``source_component``, a bit-equal cost (base receive cost plus one
    deserialize term per record, in record order) and an equal
    store-sizer charge."""
    from repro.core.packets import MULTI_HEAD_SIZE, record_bounds, multi_count
    from repro.streaming.transport import Delivery, delivery_bytes

    costs = DEFAULT_COSTS
    delivered = []
    for frame, deliveries in log:
        assert (frame.tuples is not None) is annotated
        assert len(deliveries) == 1
        delivery = deliveries[0]
        reference = _decode_lane_reference(frame)
        assert [t.values for t in delivery.tuples] \
            == [t.values for t in reference.tuples]
        count = multi_count(frame.payload)
        bounds = record_bounds(frame.payload, MULTI_HEAD_SIZE, count)
        want = (costs.ring_op_per_packet + costs.depacketize_per_packet
                + len(frame) * costs.depacketize_per_byte
                + costs.jni_call_overhead)
        for i in range(count):
            rlen = bounds[i + 1] - bounds[i] - 4
            want += costs.deserialize_per_tuple \
                + rlen * costs.deserialize_per_byte
        assert delivery.cost == want == reference.cost
        # The generic flush never learns the window's stream id, so a
        # fast-lane delivery leaves it unset; the decode lane reports it.
        assert delivery.stream == (None if annotated else reference.stream)
        nbytes = delivery_bytes(delivery)
        assert delivery.nbytes == nbytes == reference.nbytes
        assert nbytes == delivery_bytes(Delivery(tuples=list(
            reference.tuples)))
        for stream_tuple in delivery.tuples:
            assert stream_tuple.source_component == ""
            assert all(stream_tuple is not s for s in sent)
        delivered.extend(delivery.tuples)
    assert len({id(t) for t in delivered}) == len(delivered)
    return delivered


_FAST_VALUES = [("w", 1, 2.5, b"\x00", True, None), ("longer word", -7),
                (), ("é" * 30, 2 ** 40)]


def test_per_tuple_sends_ride_fast_lane_to_one_local_worker(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=len(_FAST_VALUES))
    receiver, log = _recording_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    sent = [StreamTuple(values, stream=4, source_component="spout",
                        source_worker=1) for values in _FAST_VALUES]
    for stream_tuple in sent:
        sender.send(stream_tuple, [2])
    engine.run(until=0.05)
    delivered = _check_fast_lane(log, sent, annotated=True)
    assert [t.values for t in delivered] == [t.values for t in sent]
    assert all(t.source_component == "spout" for t in sent)


def test_replicated_broadcast_frame_clones_for_each_local_worker(engine,
                                                                 fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=len(_FAST_VALUES))
    logs = []
    for worker_id in (2, 3):
        _receiver, log = _recording_transport(engine, fabric, worker_id)
        logs.append(log)
    switch = fabric.host("host-0").switch
    switch.handle_message(FlowMod(ADD, Match(
        in_port=sender.port_no, dl_dst=BROADCAST,
        ether_type=TYPHOON_ETHERTYPE,
    ), tuple(Output(switch.port_by_name(name).number)
             for name in ("w2", "w3"))))
    engine.run(until=0.01)
    sent = [StreamTuple(values, stream=4, source_component="spout",
                        source_worker=1) for values in _FAST_VALUES]
    for stream_tuple in sent:
        sender.send_broadcast(stream_tuple, [2, 3])
    engine.run(until=0.05)
    first = _check_fast_lane(logs[0], sent, annotated=True)
    second = _check_fast_lane(logs[1], sent, annotated=True)
    assert [t.values for t in first] == [t.values for t in second] \
        == [t.values for t in sent]
    assert all(a is not b for a in first for b in second)


def test_window_with_container_record_takes_decode_lane(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=3)
    receiver, log = _recording_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    sent = [StreamTuple(("a", 1), stream=4, source_worker=1),
            StreamTuple(("b", [1, "x"]), stream=4, source_worker=1),
            StreamTuple(("c", 3), stream=4, source_worker=1)]
    for stream_tuple in sent:
        sender.send(stream_tuple, [2])
    engine.run(until=0.05)
    delivered = _check_fast_lane(log, sent, annotated=False)
    assert [t.values for t in delivered] \
        == [("a", 1), ("b", [1, "x"]), ("c", 3)]


# -- tunnel frames: one decode per receiving host --------------------------------

def _remote_broadcast(engine, fabric, batch, on_delivery=None):
    """A host-0 sender whose broadcast frames cross the tunnel to
    host-1, where the switch replicates them to workers 2 and 3."""
    sender, _ = make_transport(engine, fabric, 1, batch=batch)
    receivers = []
    logs = []
    for worker_id in (2, 3):
        receiver, log = _recording_transport(engine, fabric, worker_id,
                                             host="host-1",
                                             on_delivery=on_delivery)
        receivers.append(receiver)
        logs.append(log)
    host0 = fabric.host("host-0")
    host0.switch.handle_message(FlowMod(ADD, Match(
        in_port=sender.port_no, dl_dst=BROADCAST,
        ether_type=TYPHOON_ETHERTYPE,
    ), (SetTunnelDst("host-1"), Output(host0.tunnel_port))))
    host1 = fabric.host("host-1")
    host1.switch.handle_message(FlowMod(ADD, Match(
        in_port=host1.tunnel_port, dl_dst=BROADCAST,
    ), tuple(Output(host1.switch.port_by_name(name).number)
             for name in ("w2", "w3"))))
    engine.run(until=0.01)
    return sender, receivers, logs


def _count_calls(monkeypatch, name):
    """Count calls to ``repro.core.io_layer.<name>``."""
    import repro.core.io_layer as io_layer

    calls = []
    real = getattr(io_layer, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(io_layer, name, counted)
    return calls


def test_tunnel_train_is_decoded_once_for_every_remote_replica(
        engine, fabric, monkeypatch):
    decodes = _count_calls(monkeypatch, "decode_train")
    batches = []

    def reorder_first(delivery):
        # The first receiver reorders and trims its batch list; the
        # second must still get every record in order.
        batches.append(list(delivery.tuples))
        if len(batches) == 1:
            delivery.tuples.reverse()
            delivery.tuples.pop()

    sender, receivers, logs = _remote_broadcast(engine, fabric,
                                                batch=len(_FAST_VALUES),
                                                on_delivery=reorder_first)
    sent = [StreamTuple(values, stream=4, source_component="spout",
                        source_worker=1) for values in _FAST_VALUES]
    sender.send_broadcast_interleaved(sent, [2, 3], 0.0, 0.0, uniform=True)
    engine.run(until=0.05)
    assert [len(log) for log in logs] == [1, 1]
    assert len(decodes) == len(logs[0])
    assert fabric.host("host-1").tunnel_trains_in == 1
    assert sum(r.train_decodes for r in receivers) == 1
    for log, batch in zip(logs, batches):
        ((frame, (delivery,)),) = log
        reference = _decode_lane_reference(frame)
        assert [t.values for t in batch] \
            == [t.values for t in reference.tuples] \
            == [t.values for t in sent]
        assert delivery.cost == reference.cost
        assert delivery.nbytes == reference.nbytes
        assert delivery.stream == reference.stream == 4
        for stream_tuple in batch:
            assert stream_tuple.source_component == ""
            assert all(stream_tuple is not s for s in sent)
    delivered = batches[0] + batches[1]
    assert len({id(t) for t in delivered}) == len(delivered)


def test_tunnel_replicas_never_alias_containers(engine, fabric):
    delivered = []
    objects = []

    def mutate_first(delivery):
        # Snapshot what this receiver got, then let the first one
        # scribble over its containers and its batch list.
        delivered.append([t.values for t in delivery.tuples])
        objects.append(list(delivery.tuples))
        if len(delivered) == 1:
            delivery.tuples[0].values[1].append("mutated")
            delivery.tuples[0].values[2]["k"] = "mutated"
            delivery.tuples.reverse()
            delivery.tuples.pop()

    sender, _receivers, logs = _remote_broadcast(engine, fabric, batch=2,
                                                 on_delivery=mutate_first)
    sent = [StreamTuple(("a", [1, "x"], {"k": 2}), stream=4, source_worker=1),
            StreamTuple(("b", 3), stream=4, source_worker=1)]
    sender.send_broadcast_interleaved(sent, [2, 3], 0.0, 0.0)
    engine.run(until=0.05)
    assert len(delivered) == 2
    ((frame, _),) = logs[0]
    reference = _decode_lane_reference(frame)
    assert [t.values for t in reference.tuples] \
        == [("a", [1, "x"], {"k": 2}), ("b", 3)]
    assert delivered[1] == [t.values for t in reference.tuples]
    first, second = objects
    assert first[0].values[1] is not second[0].values[1]
    assert first[0].values[2] is not second[0].values[2]
    ((_frame, (second,)),) = logs[1]
    assert second.cost == reference.cost
    assert second.nbytes == reference.nbytes


def test_traced_tuples_over_tunnel_checkpoint_at_each_replica(engine):
    from repro.sim.trace import H_DESERIALIZE, H_WIRE, Tracer
    from repro.streaming.serialize import encode_tuple

    tracer = Tracer(engine, sample_every=1)
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(2),
                           tracer=tracer)
    sender, _receivers, logs = _remote_broadcast(engine, fabric, batch=2)
    sent = [StreamTuple(("t", i), stream=4, source_worker=1)
            for i in range(2)]
    for stream_tuple in sent:
        assert tracer.maybe_trace(stream_tuple) is not None
    sender.send_broadcast_interleaved(sent, [2, 3], 0.0, 0.0)
    engine.run(until=0.05)
    assert [len(log) for log in logs] == [1, 1]
    costs = DEFAULT_COSTS
    for stream_tuple in sent:
        rlen = len(encode_tuple(stream_tuple))
        want = costs.deserialize_per_tuple + rlen * costs.deserialize_per_byte
        trace = tracer.traces[stream_tuple.trace_id]
        for branch in (2, 3):
            hops = [(e.hop, e.cost) for e in trace.branch_events(branch)
                    if e.hop in (H_WIRE, H_DESERIALIZE)]
            assert hops == [(H_WIRE, 0.0), (H_DESERIALIZE, want)]


def test_over_mtu_tuple_over_tunnel_reassembles_at_each_replica(
        engine, fabric, monkeypatch):
    decodes = _count_calls(monkeypatch, "decode_tuple")
    train_decodes = _count_calls(monkeypatch, "decode_train")
    sender, _receivers, logs = _remote_broadcast(engine, fabric, batch=1)
    payload = "y" * 30000   # far beyond the MTU
    sender.send_broadcast(StreamTuple((payload,), source_worker=1), [2, 3])
    assert sender.frames_sent > 1
    engine.run(until=0.05)
    assert len(decodes) == 2
    assert train_decodes == []
    for log in logs:
        deliveries = [d for _frame, ds in log for d in ds]
        assert len(deliveries) == 1
        assert deliveries[0].tuples[0].values == (payload,)
