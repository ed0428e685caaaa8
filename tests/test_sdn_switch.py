"""Unit tests for the software SDN switch."""

import pytest

from repro.net import BROADCAST, TYPHOON_ETHERTYPE, EthernetFrame, WorkerAddress
from repro.sdn import (
    ADD,
    DELETE,
    FlowMod,
    FlowStatsRequest,
    GROUP_ALL,
    GroupMod,
    Match,
    Meter,
    MeterMod,
    Output,
    PacketOut,
    PortStatsRequest,
    PortStatus,
    SetDlDst,
    SetTunnelDst,
    SoftwareSwitch,
    GroupAction,
    Bucket,
    OFPP_CONTROLLER,
    OFPP_TABLE,
)
from repro.sim import DEFAULT_COSTS, Engine
from repro.sim.audit import DeliveryLedger


def make_switch(engine):
    return SoftwareSwitch(engine, DEFAULT_COSTS, dpid="sw0")


def typhoon_frame(src, dst, payload=b"data"):
    return EthernetFrame(dst=dst, src=src, ethertype=TYPHOON_ETHERTYPE,
                         payload=payload)


def test_port_add_and_deliver():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2))
    assert switch.inject(p_in, frame)
    engine.run(until=0.02)
    assert received == [frame]
    assert switch.packets_forwarded == 1


def test_table_miss_drops():
    engine = Engine()
    switch = make_switch(engine)
    p_in = switch.add_port("w1", lambda f, t: None)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2))
    assert not switch.inject(p_in, frame)
    assert switch.table_misses == 1


def test_flow_mod_delete():
    engine = Engine()
    switch = make_switch(engine)
    p1 = switch.add_port("w1", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p1), (Output(p1),)))
    engine.run(until=0.01)
    assert len(switch.flows) == 1
    switch.handle_message(FlowMod(DELETE, Match(in_port=p1)))
    engine.run(until=0.02)
    assert len(switch.flows) == 0


def test_broadcast_replication_to_multiple_ports():
    engine = Engine()
    switch = make_switch(engine)
    outs = {2: [], 3: [], 4: []}
    p_in = switch.add_port("w1", lambda f, t: None)
    ports = [switch.add_port("w%d" % i,
                             (lambda i: lambda f, t: outs[i].append(f))(i))
             for i in (2, 3, 4)]
    switch.handle_message(FlowMod(
        ADD, Match(in_port=p_in, dl_dst=BROADCAST),
        tuple(Output(p) for p in ports)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), BROADCAST)
    switch.inject(p_in, frame)
    engine.run(until=0.02)
    assert all(len(received) == 1 for received in outs.values())


def test_set_tunnel_dst_passes_metadata():
    engine = Engine()
    switch = make_switch(engine)
    seen = []
    p_in = switch.add_port("w1", lambda f, t: None)
    tunnel = switch.add_port("tunnel", lambda f, t: seen.append((f, t)),
                             kind="tunnel")
    switch.handle_message(FlowMod(
        ADD, Match(in_port=p_in),
        (SetTunnelDst("peer-host"), Output(tunnel))))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    assert seen[0][1] == "peer-host"


def test_set_dl_dst_rewrites_destination():
    engine = Engine()
    switch = make_switch(engine)
    seen = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: seen.append(f))
    switch.handle_message(FlowMod(
        ADD, Match(in_port=p_in),
        (SetDlDst(WorkerAddress(1, 99)), Output(p_out))))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    assert seen[0].dst == WorkerAddress(1, 99)


def test_group_action_select_rewrite():
    engine = Engine()
    switch = make_switch(engine)
    seen = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p2 = switch.add_port("w2", lambda f, t: seen.append(("w2", f.dst)))
    p3 = switch.add_port("w3", lambda f, t: seen.append(("w3", f.dst)))
    switch.handle_message(GroupMod(ADD, 1, "select", (
        Bucket((SetDlDst(WorkerAddress(1, 2)), Output(p2))),
        Bucket((SetDlDst(WorkerAddress(1, 3)), Output(p3))),
    )))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in),
                                  (GroupAction(1),)))
    engine.run(until=0.01)
    for _ in range(4):
        switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1),
                                          WorkerAddress(1, 0xE0000000)))
    engine.run(until=0.02)
    names = [name for name, _dst in seen]
    assert names.count("w2") == 2
    assert names.count("w3") == 2
    # Destination addresses were rewritten to the real workers.
    assert all(dst in (WorkerAddress(1, 2), WorkerAddress(1, 3))
               for _n, dst in seen)


def test_output_to_controller_packet_in():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in),
                                  (Output(OFPP_CONTROLLER),)))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.05)
    packet_ins = [e for e in events if type(e).__name__ == "PacketIn"]
    assert len(packet_ins) == 1
    assert packet_ins[0].in_port == p_in


def test_packet_out_with_table_resubmit():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_out = switch.add_port("w1", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(
        ADD, Match(in_port=OFPP_CONTROLLER), (Output(p_out),)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 1))
    switch.handle_message(PacketOut(frame, (Output(OFPP_TABLE),),
                                    in_port=OFPP_CONTROLLER))
    engine.run(until=0.02)
    assert received == [frame]


def test_port_status_events_reach_controller():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    port = switch.add_port("w5", lambda f, t: None)
    switch.remove_port(port)
    engine.run(until=1.0)
    status = [e for e in events if isinstance(e, PortStatus)]
    assert [s.reason for s in status] == ["add", "delete"]
    assert all(s.port_name == "w5" for s in status)


def test_output_to_removed_port_drops():
    engine = Engine()
    switch = make_switch(engine)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    switch.remove_port(p_out)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    assert switch.packets_dropped == 1


def test_backlog_overflow_drops():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2),
                          payload=b"x" * 8000)
    # Inject far more than the switch can forward instantaneously.
    injected = sum(switch.inject(p_in, frame) for _ in range(100000))
    assert switch.packets_dropped > 0
    assert injected < 100000


def test_flow_and_port_stats_replies():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    switch.handle_message(FlowStatsRequest(Match()))
    switch.handle_message(PortStatsRequest())
    engine.run(until=0.05)
    flow_replies = [e for e in events if type(e).__name__ == "FlowStatsReply"]
    port_replies = [e for e in events if type(e).__name__ == "PortStatsReply"]
    assert flow_replies[0].entries[0].packets == 1
    stats_by_name = {e.port_name: e for e in port_replies[0].entries}
    assert stats_by_name["w1"].rx_packets == 1
    assert stats_by_name["w2"].tx_packets == 1


def test_idle_timeout_sweeper_emits_flow_removed():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_in),),
                                  idle_timeout=2.0))
    engine.run(until=5.0)
    removed = [e for e in events if type(e).__name__ == "FlowRemoved"]
    assert len(removed) == 1
    assert removed[0].reason == "idle_timeout"
    assert len(switch.flows) == 0


# -- multi-frame flushes: inject_train versus frame-by-frame inject -------


def _plain(switch, ports):
    switch.handle_message(FlowMod(ADD, Match(in_port=ports["in"]),
                                  (Output(ports["a"]),)))


def _tunnel(switch, ports):
    switch.handle_message(FlowMod(ADD, Match(in_port=ports["in"]),
                                  (SetTunnelDst("h2"), Output(ports["tun"]))))


def _two_outputs(switch, ports):
    switch.handle_message(FlowMod(ADD, Match(in_port=ports["in"]),
                                  (Output(ports["a"]), Output(ports["b"]))))


def _group(switch, ports):
    switch.handle_message(GroupMod(ADD, 7, GROUP_ALL, (
        Bucket((Output(ports["a"]),)), Bucket((Output(ports["b"]),)))))
    switch.handle_message(FlowMod(ADD, Match(in_port=ports["in"]),
                                  (GroupAction(7),)))


def _metered(switch, ports):
    switch.handle_message(MeterMod(ADD, 3, rate_bytes_per_sec=1e6,
                                   burst_bytes=2000,
                                   max_queue_seconds=0.0005))
    switch.handle_message(FlowMod(ADD, Match(in_port=ports["in"]),
                                  (Meter(3), Output(ports["a"]))))


def _table_miss(switch, ports):
    pass


def _port_down(switch, ports):
    _two_outputs(switch, ports)
    switch.remove_port(ports["b"])


def _switch_down(switch, ports):
    _plain(switch, ports)
    switch.crash()


TRAIN_CASES = {
    "plain": _plain,
    "tunnel": _tunnel,
    "two-outputs": _two_outputs,
    "backlog-overflow": _plain,
    "group": _group,
    "meter": _metered,
    "table-miss": _table_miss,
    "port-down": _port_down,
    "switch-down": _switch_down,
}


def _run_flush(case, as_train):
    """Forward one 40-frame, same-headed flush through a fresh switch
    with ``case``'s rules, as one ``inject_train`` call or frame by
    frame; return everything the two ways must agree on."""
    engine = Engine()
    # One tuple per 100 payload bytes, so ledger totals see every frame.
    ledger = DeliveryLedger(inspector=lambda f: (1, len(f.payload) // 100))
    switch = SoftwareSwitch(engine, DEFAULT_COSTS, dpid="sw0", ledger=ledger)
    delivered = []

    def sink(name):
        return lambda f, tun: delivered.append(
            (engine.now, name, f.payload, tun))

    ports = {"in": switch.add_port("in", lambda f, t: None)}
    for name in ("a", "b"):
        ports[name] = switch.add_port(name, sink(name))
    ports["tun"] = switch.add_port("tun", sink("tun"), kind="tunnel")
    engine.run(until=0.01)
    # Rules, groups and meters land after the install latency.
    engine.schedule(0.0, TRAIN_CASES[case], switch, ports)
    engine.run(until=0.02)
    src, dst = WorkerAddress(1, 1), WorkerAddress(1, 2)
    frames = [typhoon_frame(src, dst, payload=b"%04d" % i + b"x" * 996)
              for i in range(40)]
    if case == "backlog-overflow":
        # Nearly full forwarding backlog: the flush overflows part-way.
        switch._busy_until = (engine.now
                              + SoftwareSwitch.MAX_BACKLOG_SECONDS - 10e-6)
    if as_train:
        switch.inject_train(ports["in"], frames)
    else:
        for frame in frames:
            switch.inject(ports["in"], frame)
    busy_until = switch._busy_until
    engine.run(until=1.0)
    return {
        "delivered": delivered,
        "busy_until": busy_until,
        "ports": {p.name: (p.rx_packets, p.rx_bytes, p.tx_packets,
                           p.tx_bytes, p.tx_dropped)
                  for p in switch.ports.values()},
        "flows": [(e.packets, e.bytes) for e in switch.flows],
        "forwarded": switch.packets_forwarded,
        "dropped": switch.packets_dropped,
        "misses": (switch.table_misses, switch.group_misses,
                   switch.meter_drops),
        "ledger": (ledger.replicated, ledger.drops, ledger.injected,
                   ledger.controller_delivered),
        "lookups": switch.cache_hits + switch.cache_misses,
    }


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_inject_train_equals_per_frame_inject(case):
    train = _run_flush(case, as_train=True)
    per_frame = _run_flush(case, as_train=False)
    del train["lookups"], per_frame["lookups"]
    assert train == per_frame
    if case in ("plain", "tunnel", "two-outputs", "group", "meter"):
        assert train["delivered"]
    if case == "backlog-overflow":
        assert 0 < train["forwarded"] < 40


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_inject_train_looks_up_each_frame(case):
    """A multi-frame flush costs one megaflow lookup per frame that
    reaches the table, as frame-by-frame forwarding does."""
    train = _run_flush(case, as_train=True)
    assert train["lookups"] == _run_flush(case, as_train=False)["lookups"]
