"""Hop-by-hop tracing: sampling, wire format, span trees, hook chain.

Covers the tracer's determinism contract (1-in-N sampling by counter,
bit-identical reports for a fixed seed), the trace-id wire extension of
the Fig. 5 tuple format, the full Fig. 8 forwarding hook chain (executor
-> serialize -> batch -> switch -> tunnel -> wire -> reassembly ->
deserialize -> queue -> execute), span-tree invariants (property-based
and on real traces), the zero-cost-when-disabled guarantee, control
tuple mirroring and trace terminations under injected faults.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.audit import quiesce
from repro.core.rest import RestApi
from repro.core.runtime import TyphoonCluster
from repro.core.tracing import run_forwarding_trace, trace_snapshot
from repro.net.addresses import BROADCAST, CONTROLLER_ADDRESS, WorkerAddress
from repro.net.ethernet import DEFAULT_MTU
from repro.sim import Engine
from repro.sim.metrics import MetricsRegistry
from repro.sim.trace import (
    H_BATCH,
    H_CONTROL,
    H_DESERIALIZE,
    H_DROP,
    H_EXECUTE,
    H_QUEUE,
    H_REASSEMBLY,
    H_SERIALIZE,
    H_SWITCH,
    H_TUNNEL_RX,
    H_TUNNEL_TX,
    H_WIRE,
    KIND_CONTROL,
    KIND_DATA,
    Tracer,
    address_branch,
)
from repro.streaming import TopologyBuilder, TopologyConfig
from repro.streaming.serialize import decode_tuple, encode_tuple, peek_trace_id
from repro.streaming.tuples import StreamTuple
from tests.conftest import CountingSpout, RecordingBolt


def fresh_tuple(seq=0):
    return StreamTuple(("payload", seq))


# -- sampling ----------------------------------------------------------------


def test_sampling_is_one_in_n_by_counter():
    tracer = Tracer(Engine(), sample_every=3)
    ids = [tracer.maybe_trace(fresh_tuple(i)) for i in range(9)]
    assert ids == [None, None, 3, None, None, 6, None, None, 9]
    assert sorted(tracer.traces) == [3, 6, 9]


def test_disabled_tracer_is_inert():
    tracer = Tracer(Engine())          # sample_every defaults to 0
    assert not tracer.enabled
    for i in range(10):
        assert tracer.maybe_trace(fresh_tuple(i)) is None
    # The candidate counter is untouched, so later enabling starts fresh
    # and two runs that only differ in when tracing was switched on
    # still sample the same tuples.
    assert tracer._counter == 0
    assert not tracer.traces and tracer.span_events == 0
    tracer.event(17, H_WIRE)           # unknown ids are silently ignored
    assert tracer.span_events == 0


def test_already_sampled_tuple_keeps_its_id():
    tracer = Tracer(Engine(), sample_every=1)
    stream_tuple = fresh_tuple()
    first = tracer.maybe_trace(stream_tuple)
    assert first == stream_tuple.trace_id == 1
    assert tracer.maybe_trace(stream_tuple) == first
    assert len(tracer.traces) == 1


def test_configure_rejects_negative_rate():
    tracer = Tracer(Engine())
    with pytest.raises(ValueError):
        tracer.configure(-1)
    tracer.configure(5)
    assert tracer.enabled and tracer.sample_every == 5


def test_max_traces_overflow_guard():
    tracer = Tracer(Engine(), sample_every=1, max_traces=2)
    assert tracer.maybe_trace(fresh_tuple(0)) == 1
    assert tracer.maybe_trace(fresh_tuple(1)) == 2
    assert tracer.maybe_trace(fresh_tuple(2)) is None
    assert tracer.overflow_traces == 1
    assert len(tracer.traces) == 2


# -- wire format -------------------------------------------------------------


def test_trace_id_round_trips_on_the_wire():
    stream_tuple = StreamTuple(("a", 1), stream=0, source_worker=4)
    plain = encode_tuple(stream_tuple)
    stream_tuple.trace_id = 0xDEADBEEF
    traced = encode_tuple(stream_tuple)
    assert len(traced) == len(plain) + 8      # one trailing !Q field
    assert peek_trace_id(plain) is None
    assert peek_trace_id(traced) == 0xDEADBEEF
    decoded = decode_tuple(traced)
    assert decoded.trace_id == 0xDEADBEEF
    assert decoded.values == ("a", 1)
    assert decode_tuple(plain).trace_id is None


def test_peek_trace_id_tolerates_truncation():
    stream_tuple = fresh_tuple()
    stream_tuple.trace_id = 99
    data = encode_tuple(stream_tuple)
    for cut in range(0, min(len(data), 16)):
        assert peek_trace_id(data[:cut]) in (None, 99)
    assert peek_trace_id(b"") is None


# -- trace bookkeeping -------------------------------------------------------


def build_linear_trace(hops, finish_at, cost=0.5):
    """One sampled tuple checkpointed at the given (hop, t) points."""
    engine = Engine()
    metrics = MetricsRegistry(engine)
    tracer = Tracer(engine, metrics=metrics, sample_every=1)
    stream_tuple = fresh_tuple()
    trace_id = tracer.maybe_trace(stream_tuple)
    for hop, t in hops:
        engine.schedule(t, lambda h=hop, at=t: tracer.event(
            trace_id, h, t=at))
    engine.schedule(finish_at, lambda: tracer.finish_delivery(
        trace_id, branch=5, cost=cost))
    engine.run()
    return tracer, metrics, tracer.traces[trace_id]


def test_finish_delivery_records_exact_segment_sum():
    hops = [(H_SERIALIZE, 1.0), (H_SWITCH, 1.5), (H_WIRE, 2.25)]
    tracer, metrics, trace = build_linear_trace(hops, finish_at=3.0)
    e2e = trace.delivered_branches[5]
    walls = [wall for _hop, wall, _cost, _event in trace.segments(5)]
    assert e2e == math.fsum(walls)
    assert trace.events[-1].t == 3.5            # terminal sits at now+cost
    assert metrics.distribution("trace.e2e").samples() == [e2e]
    assert metrics.distribution("trace.e2e.data").samples() == [e2e]
    assert trace.finished and not trace.open


def test_finish_drop_marks_trace_finished():
    engine = Engine()
    tracer = Tracer(engine, sample_every=1)
    trace_id = tracer.maybe_trace(fresh_tuple())
    tracer.finish_drop(trace_id, "channel", "link-loss", branch=3)
    trace = tracer.traces[trace_id]
    assert trace.drops == [("channel", "link-loss")]
    assert trace.finished
    report = tracer.report()
    assert report.dropped == 1 and report.delivered == 0
    assert report.drop_reasons == {("channel", "link-loss"): 1}


def test_branch_timeline_truncates_at_terminal_hop():
    engine = Engine()
    tracer = Tracer(engine, sample_every=1)
    trace_id = tracer.maybe_trace(fresh_tuple())
    tracer.event(trace_id, H_SWITCH, t=1.0)                   # trunk
    tracer.event(trace_id, H_EXECUTE, t=2.0, branch=1)        # branch 1 done
    tracer.event(trace_id, H_TUNNEL_TX, t=3.0)                # trunk, copy 2
    tracer.event(trace_id, H_EXECUTE, t=4.0, branch=2)
    one = [e.hop for e in tracer.traces[trace_id].branch_events(1)]
    two = [e.hop for e in tracer.traces[trace_id].branch_events(2)]
    assert one == ["emit", H_SWITCH, H_EXECUTE]               # no tunnel-tx
    assert two == ["emit", H_SWITCH, H_TUNNEL_TX, H_EXECUTE]
    walls_one = math.fsum(w for _h, w, _c, _e in
                          tracer.traces[trace_id].segments(1))
    assert walls_one == 2.0


def test_address_branch_classification():
    assert address_branch(WorkerAddress(7, 42)) == 42
    assert address_branch(BROADCAST) is None
    assert address_branch(CONTROLLER_ADDRESS) is None
    assert address_branch(WorkerAddress(7, 0xE0000001)) is None   # virtual
    assert address_branch(None) is None


# -- span-tree invariants (property-based) -----------------------------------

MIDDLE_HOPS = [H_SERIALIZE, H_BATCH, H_SWITCH, H_TUNNEL_TX, H_TUNNEL_RX,
               H_WIRE, H_DESERIALIZE, H_QUEUE]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(MIDDLE_HOPS),
                          st.floats(min_value=0.0, max_value=5.0),
                          st.sampled_from([None, 1, 2])),
                max_size=25),
       st.lists(st.sampled_from([1, 2]), max_size=2, unique=True))
def test_span_tree_invariants(steps, finish_branches):
    engine = Engine()
    tracer = Tracer(engine, sample_every=1)
    trace_id = tracer.maybe_trace(fresh_tuple())
    now = 0.0
    for hop, delta, branch in steps:
        now += delta
        tracer.event(trace_id, hop, t=now, branch=branch)
    for branch in finish_branches:
        now += 1.0
        tracer.event(trace_id, H_EXECUTE, t=now, branch=branch)
    spans = tracer.traces[trace_id].spans()
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1
    for span in spans:
        # Every span is a well-formed interval ...
        assert span.start <= span.end
        if span.parent_id is None:
            continue
        # ... contained in its parent's interval, under an earlier id.
        parent = by_id[span.parent_id]
        assert span.parent_id < span.span_id
        assert parent.start <= span.start
        assert span.end <= parent.end


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(MIDDLE_HOPS),
                          st.floats(min_value=0.0, max_value=5.0)),
                max_size=25))
def test_branch_segments_telescope(steps):
    """Per-branch e2e is the fsum of that branch's segment walls."""
    engine = Engine()
    metrics = MetricsRegistry(engine)
    tracer = Tracer(engine, metrics=metrics, sample_every=1)
    trace_id = tracer.maybe_trace(fresh_tuple())
    now = 0.0
    for hop, delta in steps:
        now += delta
        tracer.event(trace_id, hop, t=now)
    tracer.event(trace_id, H_EXECUTE, t=now, branch=1)
    trace = tracer.traces[trace_id]
    # Hand-mark the delivery the way finish_delivery does.
    e2e = math.fsum(w for _h, w, _c, _e in trace.segments(1))
    trace.delivered_branches[1] = e2e
    report = tracer.report()
    assert report.e2e_values() == [e2e]
    assert report.e2e_sum == e2e


# -- the Fig. 8 forwarding hook chain ---------------------------------------

RUN_ARGS = dict(seed=0, sample_every=7, rate=50_000.0, duration=0.3,
                hosts=2)

#: Checkpoints a forwarded tuple crosses, in causal order.
CROSS_HOST_PATH = ["emit", H_SERIALIZE, H_BATCH, H_SWITCH, H_TUNNEL_TX,
                   H_TUNNEL_RX, H_SWITCH, H_WIRE, H_DESERIALIZE, H_QUEUE,
                   H_EXECUTE]
SAME_HOST_PATH = ["emit", H_SERIALIZE, H_BATCH, H_SWITCH, H_WIRE,
                  H_DESERIALIZE, H_QUEUE, H_EXECUTE]


@pytest.fixture(scope="module")
def traced_run():
    return run_forwarding_trace(**RUN_ARGS)


def test_forwarding_run_samples_and_terminates(traced_run):
    report, tracer, _cluster = traced_run
    assert report.sampled > 100
    assert report.open == 0                 # quiesced: nothing in flight
    assert report.dropped == 0
    assert report.delivered == report.sampled
    assert tracer.overflow_traces == 0


def test_every_trace_walks_the_forwarding_path(traced_run):
    _report, tracer, cluster = traced_run
    assignments = cluster.record("fwd").physical.assignments
    for trace in tracer.traces.values():
        if trace.kind != KIND_DATA:
            continue
        src_host = assignments[trace.meta["worker"]].hostname
        for branch in trace.delivered_branches:
            dst_host = assignments[branch].hostname
            hops = [e.hop for e in trace.branch_events(branch)]
            expected = (SAME_HOST_PATH if src_host == dst_host
                        else CROSS_HOST_PATH)
            assert hops == expected


def test_switch_hops_match_installed_route(traced_run):
    """The dpid sequence of a trace's switch-match checkpoints is the
    route the controller installed: the emitter's host switch, then
    (cross-host only) the receiver's host switch."""
    _report, tracer, cluster = traced_run
    assignments = cluster.record("fwd").physical.assignments
    dpid_of = {hostname: cluster.fabric.host(hostname).switch.dpid
               for hostname in cluster.fabric.hosts}
    for trace in tracer.traces.values():
        if trace.kind != KIND_DATA:
            continue
        src_host = assignments[trace.meta["worker"]].hostname
        for branch in trace.delivered_branches:
            dst_host = assignments[branch].hostname
            dpids = [e.meta["dpid"] for e in trace.branch_events(branch)
                     if e.hop == H_SWITCH]
            expected = [dpid_of[src_host]]
            if dst_host != src_host:
                expected.append(dpid_of[dst_host])
            assert dpids == expected


def test_hop_sum_identity_is_exact(traced_run):
    """Acceptance criterion: per-hop breakdown sums equal the e2e
    latency the metrics registry recorded — exactly, not approximately."""
    report, tracer, cluster = traced_run
    dist = cluster.metrics.distribution("trace.e2e")
    # Per tuple: re-summing a branch's hop segments reproduces the
    # recorded latency bit-for-bit.
    for trace in tracer.traces.values():
        for branch, e2e in trace.delivered_branches.items():
            walls = [w for _h, w, _c, _e in trace.segments(branch)]
            assert math.fsum(walls) == e2e
    # Aggregate: same sample multiset, same fsum totals.
    assert sorted(report.e2e_values()) == sorted(dist.samples())
    assert report.e2e_sum == dist.total()
    assert len(dist) == report.delivered


def test_span_invariants_hold_on_real_traces(traced_run):
    _report, tracer, _cluster = traced_run
    spans = tracer.spans()
    assert spans
    by_id = {}
    for span in spans:
        assert span.start <= span.end
        if span.parent_id is None:
            by_id = {span.span_id: span}      # new trace root
            continue
        parent = by_id[span.parent_id]
        assert parent.start <= span.start and span.end <= parent.end
        by_id[span.span_id] = span


def test_rest_trace_endpoint(traced_run):
    report, _tracer, cluster = traced_run
    status, body = RestApi(cluster).handle("GET", "/trace")
    assert status == 200
    assert body["enabled"] is True
    assert body["sampled"] == report.sampled
    assert body["hops"] and body["critical_path"]
    assert body == trace_snapshot(cluster)


def test_report_is_byte_identical_for_fixed_seed(traced_run):
    report, _tracer, _cluster = traced_run
    again, _tracer2, _cluster2 = run_forwarding_trace(**RUN_ARGS)
    assert again.render() == report.render()
    assert again.to_dict() == report.to_dict()


def test_traced_over_mtu_tuple_records_both_tunnel_hops():
    """A sampled tuple larger than the MTU crosses the tunnel as
    fragments; the head fragment carries its trace id, so the frame
    inspector must find it and both tunnel checkpoints get recorded."""
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    cluster.tracer.configure(1)
    builder = TopologyBuilder("big", TopologyConfig(
        batch_size=1, max_spout_rate=50, acking=False))
    payload = "x" * (2 * DEFAULT_MTU)
    builder.set_spout("source", lambda: CountingSpout(4, payload=payload), 1)
    builder.set_bolt("sink", RecordingBolt, 2).shuffle_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=3.0)
    quiesce(cluster, settle=1.0)

    assignments = cluster.record("big").physical.assignments
    crossed = 0
    for trace in cluster.tracer.traces.values():
        if trace.kind != KIND_DATA:
            continue
        src_host = assignments[trace.meta["worker"]].hostname
        for branch in trace.delivered_branches:
            if assignments[branch].hostname == src_host:
                continue
            hops = [e.hop for e in trace.branch_events(branch)]
            assert H_TUNNEL_TX in hops and H_TUNNEL_RX in hops, hops
            assert hops.index(H_TUNNEL_TX) < hops.index(H_TUNNEL_RX) \
                < hops.index(H_REASSEMBLY)
            crossed += 1
    assert crossed


# -- zero cost when disabled -------------------------------------------------


def test_disabled_tracing_runs_no_hook_code(monkeypatch):
    """With sampling off, no layer may reach *any* recording method:
    every hook site is guarded, so a disabled tracer costs an attribute
    read, not a call."""
    def boom(*_args, **_kwargs):
        raise AssertionError("tracer hook fired while disabled")

    for name in ("maybe_trace", "event", "finish_delivery", "finish_drop",
                 "frame_ids", "frame_event", "frame_drop"):
        monkeypatch.setattr(Tracer, name, boom)
    report, tracer, _cluster = run_forwarding_trace(
        seed=0, sample_every=0, rate=20_000.0, duration=0.1, hosts=2)
    assert tracer.span_events == 0
    assert not tracer.traces
    assert report.sampled == 0


def test_disabled_tracing_leaves_wire_format_unchanged():
    stream_tuple = fresh_tuple()
    tracer = Tracer(Engine())              # disabled
    assert tracer.maybe_trace(stream_tuple) is None
    assert stream_tuple.trace_id is None
    assert peek_trace_id(encode_tuple(stream_tuple)) is None


# -- control tuples ----------------------------------------------------------


def test_control_tuples_are_traced(traced_with_faults):
    _cluster, tracer, _ledger_drops = traced_with_faults
    control = [t for t in tracer.traces.values() if t.kind == KIND_CONTROL]
    assert control
    for trace in control:
        terminal = [e for e in trace.events
                    if e.hop in (H_CONTROL, H_DROP)]
        assert terminal                     # applied (or died accounted)
    applied = [t for t in control if t.delivered_branches]
    assert applied
    for trace in applied:
        assert any(e.hop == H_CONTROL for e in trace.events)


# -- traces under injected faults (chaos satellite) --------------------------


@pytest.fixture(scope="module")
def traced_with_faults():
    """Forwarding run (acking off) with a seeded link-loss window;
    sampling 1:1 so every lost tuple carries a trace."""
    from repro.core.audit import quiesce
    from repro.core.runtime import TyphoonCluster
    from repro.sim.faults import set_link_loss
    from repro.streaming.topology import TopologyConfig
    from repro.workloads.wordcount import forwarding_topology

    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    cluster.tracer.configure(1)
    config = TopologyConfig(batch_size=50, max_spout_rate=20_000.0,
                            acking=False)
    cluster.submit(forwarding_topology("fwd", config))
    engine.run(until=2.1)
    set_link_loss(cluster, "host-0", "host-1", 0.3, random.Random(7))
    engine.run(until=2.5)
    set_link_loss(cluster, "host-0", "host-1", 0.0)
    quiesce(cluster, settle=1.0)
    return cluster, cluster.tracer, dict(cluster.ledger.drops_by_reason())


def test_lost_tuples_terminate_with_ledger_reason(traced_with_faults):
    cluster, tracer, ledger_drops = traced_with_faults
    dropped = [t for t in tracer.traces.values() if t.drops]
    assert dropped, "link loss must kill some sampled tuples"
    traced_drops = Counter(reason for trace in dropped
                           for reason in trace.drops)
    # Every traced termination names a (layer, reason) the ledger also
    # charged, and never more of them than the ledger counted.
    for key, count in traced_drops.items():
        assert key in ledger_drops
        assert count <= ledger_drops[key]
    # Sampling is 1:1 and the only loss site is the tunnel, so the trace
    # and ledger agree exactly here.
    assert traced_drops[("channel", "link-loss")] == \
        ledger_drops[("channel", "link-loss")]
    for trace in dropped:
        assert trace.finished
        drop_event = next(e for e in trace.events if e.hop == H_DROP)
        assert (drop_event.meta["layer"],
                drop_event.meta["reason"]) in ledger_drops


def test_faulted_run_still_satisfies_hop_sum_identity(traced_with_faults):
    cluster, tracer, _ledger_drops = traced_with_faults
    report = tracer.report()
    dist = cluster.metrics.distribution("trace.e2e")
    assert report.open == 0
    assert sorted(report.e2e_values()) == sorted(dist.samples())
    assert report.e2e_sum == dist.total()
    assert report.delivered > 0 and report.dropped > 0
