"""Replicated control plane: election, fencing, failover, fail-safe
switches.

The unit half drives :class:`HAControlPlane` against bare switches: the
lowest election sequence wins, generations only move forward, stale
masters are fenced by the switch (not trusted to stand down), and a
blackout buffers control events bounded with ledger-attributed overflow.
The integration half runs the full Typhoon runtime with ``ha_replicas``
and checks warm takeover, zero rule divergence after failover, and the
single-controller path staying byte-identical (no HA => no channels, no
HA invariants, 404 on GET /ha).
"""

import pytest

from repro.coordination import Coordinator
from repro.core import TyphoonCluster
from repro.core.apps import FaultDetector
from repro.core.rest import RestApi
from repro.core.rules import PRIORITY_CONTROL, worker_to_controller
from repro.net import TYPHOON_ETHERTYPE, EthernetFrame, WorkerAddress
from repro.sdn import (
    OFPP_CONTROLLER,
    ROLE_MASTER,
    ROLE_SLAVE,
    ControllerApp,
    FlowMod,
    HAControlPlane,
    Match,
    NetworkHypervisor,
    Output,
    SoftwareSwitch,
    ADD,
)
from repro.sdn.ha import ELECTION_PATH, GENERATION_PATH
from repro.sim import DEFAULT_COSTS, Engine
from repro.sim.audit import DeliveryLedger, LAYER_SWITCH, R_CONTROL_BACKLOG
from repro.sim.faults import (
    kill_worker_at,
    set_controller_replica_down,
    set_store_partition,
    set_switch_down,
)
from repro.streaming import TopologyConfig
from repro.workloads import DEDUP_SERVICE, DedupRegistry, chaos_topology


def make_plane(engine, replicas=3, switches=1, ledger=None):
    coordinator = Coordinator(engine, DEFAULT_COSTS)
    plane = HAControlPlane(engine, DEFAULT_COSTS, coordinator,
                           ledger=ledger, replicas=replicas)
    fabric = [SoftwareSwitch(engine, DEFAULT_COSTS, dpid="sw%d" % i)
              for i in range(switches)]
    if ledger is not None:
        for switch in fabric:
            switch.ledger = ledger
    plane.attach_switches(fabric)
    plane.start()
    return plane, fabric


def typhoon_frame(payload=b"x"):
    return EthernetFrame(dst=WorkerAddress(1, 2), src=WorkerAddress(1, 1),
                         ethertype=TYPHOON_ETHERTYPE, payload=payload)


class PacketInRecorder(ControllerApp):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_packet_in(self, message):
        self.seen.append(message)


def flows_matching(switch, match):
    return [entry for entry in switch.flows if entry.match == match]


# -- election ---------------------------------------------------------------


def test_initial_election_lowest_sequence_wins():
    engine = Engine()
    plane, (switch,) = make_plane(engine)
    engine.run(until=0.5)
    assert plane.leader_name == "controller-0"
    assert plane.generation == 1
    assert plane.leader.role == ROLE_MASTER
    assert [r.role for r in plane.replicas[1:]] == [ROLE_SLAVE, ROLE_SLAVE]
    assert switch.master_controller == "controller-0"
    assert switch.master_generation == 1
    # No failover record for the initial election.
    assert plane.failovers == []


def test_replicated_plane_needs_two_replicas():
    engine = Engine()
    coordinator = Coordinator(engine, DEFAULT_COSTS)
    with pytest.raises(ValueError):
        HAControlPlane(engine, DEFAULT_COSTS, coordinator, replicas=1)


def test_election_members_are_sequence_ordered():
    engine = Engine()
    plane, _ = make_plane(engine)
    engine.run(until=0.5)
    members = plane.election_members()
    assert [m["owner"] for m in members] == [
        "controller-0", "controller-1", "controller-2"]
    assert [m["member"] for m in members] == sorted(
        m["member"] for m in members)


# -- failover + generations -------------------------------------------------


def test_leader_kill_promotes_successor_with_higher_generation():
    engine = Engine()
    plane, (switch,) = make_plane(engine)
    engine.run(until=0.5)
    plane.replica("controller-0").fail()
    engine.run(until=3.0)
    assert plane.leader_name == "controller-1"
    assert plane.generation == 2
    assert switch.master_controller == "controller-1"
    assert switch.master_generation == 2
    record = plane.failovers[-1]
    assert record["previous"] == "controller-0"
    assert record["reconciled_at"] is not None
    assert 0.0 < record["blackout_ms"] <= plane.blackout_budget * 1000.0
    # The restarted ex-leader rejoins as a standby, not a master.
    plane.replica("controller-0").recover()
    engine.run(until=5.0)
    assert plane.leader_name == "controller-1"
    assert plane.replica("controller-0").role == ROLE_SLAVE


def test_generation_counter_is_monotonic_across_failovers():
    engine = Engine()
    plane, _ = make_plane(engine)
    engine.run(until=0.5)
    seen = [plane.generation]
    for victim in ("controller-0", "controller-1"):
        plane.replica(victim).fail()
        engine.run(until=engine.now + 2.5)
        seen.append(plane.generation)
        plane.replica(victim).recover()
        engine.run(until=engine.now + 1.0)
    assert seen == [1, 2, 3]
    data, _version = plane.coordinator.get(GENERATION_PATH)
    assert data == plane.generation


def test_blackout_is_deterministic_for_a_fixed_schedule():
    def run_once():
        engine = Engine()
        plane, _ = make_plane(engine)
        engine.run(until=0.5)
        plane.replica("controller-0").fail()
        engine.run(until=4.0)
        return plane.failovers[-1]["blackout_ms"]

    first, second = run_once(), run_once()
    assert first == second
    assert first > 0.0


# -- split-brain fencing -----------------------------------------------------


def test_slave_mutations_are_fenced_by_the_switch():
    engine = Engine()
    plane, (switch,) = make_plane(engine)
    engine.run(until=0.5)
    standby = plane.replica("controller-2")
    probe = Match(in_port=199)
    standby.sdn.install_flow(switch.dpid, probe, (), priority=1)
    engine.run(until=1.0)
    assert flows_matching(switch, probe) == []
    assert switch.stale_master_rejections >= 1
    assert standby.fenced >= 1


def test_partitioned_stale_master_is_fenced_and_demoted():
    engine = Engine()
    plane, (switch,) = make_plane(engine)
    engine.run(until=0.5)
    old = plane.leader
    old.store_reachable = False
    engine.run(until=3.0)
    # Session expired, a successor took over with a higher generation.
    assert plane.leader_name != old.name
    assert plane.generation == 2
    # The stale master still thinks it leads; the switch must say no.
    assert old.role == ROLE_MASTER
    probe = Match(in_port=198)
    old.sdn.install_flow(switch.dpid, probe, (), priority=1)
    engine.run(until=4.0)
    assert flows_matching(switch, probe) == []
    assert old.fenced >= 1
    assert old.role == ROLE_SLAVE  # the stale RoleReply deposed it
    old.store_reachable = True
    engine.run(until=6.0)
    assert plane.leader_name != old.name  # rejoined behind the new leader


# -- fail-safe switch blackout (bounded pending buffer) ----------------------


def test_blackout_buffers_events_and_flushes_to_next_master():
    engine = Engine()
    plane, (switch,) = make_plane(engine)
    plane.register_app_factory(PacketInRecorder)
    p_in = switch.add_port("w1", lambda f, t: None)
    engine.run(until=0.5)
    switch.handle_message_from(
        plane.leader_name,
        FlowMod(ADD, Match(in_port=p_in), (Output(OFPP_CONTROLLER),)))
    engine.run(until=1.0)
    plane.replica("controller-0").fail()
    # Blackout: no live master. The data plane still accepts frames and
    # buffers the PacketIns instead of dropping them.
    assert switch.inject(p_in, typhoon_frame())
    assert switch.stats()["pending_controller"] == 1
    engine.run(until=4.0)
    # Promotion flushed the buffer to the new master.
    assert switch.stats()["pending_controller"] == 0
    assert switch.stats()["pending_high_water"] == 1
    new_leader = plane.leader
    assert new_leader.name == "controller-1"
    assert len(new_leader.sdn.app("recorder").seen) == 1
    # The dead ex-leader never saw the buffered event.
    assert plane.replica("controller-0").sdn.app("recorder").seen == []


def test_pending_buffer_bound_attributes_overflow_to_the_ledger():
    engine = Engine()
    scope = 7
    ledger = DeliveryLedger(inspector=lambda frame: (scope, 1))
    plane, (switch,) = make_plane(engine, ledger=ledger)
    p_in = switch.add_port("w1", lambda f, t: None)
    engine.run(until=0.5)
    switch.handle_message_from(
        plane.leader_name,
        FlowMod(ADD, Match(in_port=p_in), (Output(OFPP_CONTROLLER),)))
    engine.run(until=1.0)
    for replica in plane.replicas:
        replica.fail()  # total control-plane outage: nobody to promote
    switch.max_pending_controller = 4
    for index in range(7):
        ledger.record_sent(scope)
        switch.inject(p_in, typhoon_frame(b"p%d" % index))
    engine.run(until=2.0)
    stats = switch.stats()
    assert stats["pending_controller"] == 4
    assert stats["pending_high_water"] == 4
    assert stats["pending_overflow_dropped"] == 3
    assert ledger.drops[(scope, LAYER_SWITCH, R_CONTROL_BACKLOG)] == 3
    # Buffered PacketIns count controller-delivered; overflow counts
    # dropped — nothing unattributed.
    assert (ledger.controller_delivered[scope] + ledger.total_drops()
            == ledger.total_sent())


# -- warm takeover + reconciliation (full runtime) ---------------------------


def start_ha_cluster(replicas=3, rate=800.0, warmup=4.0):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=3, seed=0,
                             ha_replicas=replicas)
    cluster.register_app_factory(lambda: FaultDetector(cluster))
    cluster.services[DEDUP_SERVICE] = DedupRegistry()
    config = TopologyConfig(batch_size=50, max_spout_rate=rate)
    cluster.submit(chaos_topology("chaos", config))
    engine.run(until=warmup)
    return engine, cluster


def test_failover_restores_state_and_leaves_zero_divergence():
    engine, cluster = start_ha_cluster()
    ha = cluster.ha
    old_app = cluster.app
    assert old_app.port_map  # the leader learned the network
    set_controller_replica_down(cluster, ha.leader_name, True)
    engine.run(until=8.0)
    assert ha.leader_name == "controller-1"
    new_app = cluster.app
    assert new_app is not old_app
    # Warm takeover: the standby restored the published bookkeeping
    # instead of cold-starting.
    assert new_app.port_map == old_app.port_map
    assert sorted(new_app.managed) == sorted(old_app.managed)
    assert ha.rule_divergence()["total"] == 0
    summary = ha.blackout_summary()
    assert summary["failovers"] == 1
    assert summary["unreconciled"] == 0
    assert 0.0 < summary["max_blackout_ms"] <= summary["budget_ms"]


def test_worker_death_retires_its_controller_tap():
    """PORT_DELETE removes the worker-to-controller tap PORT_ADD
    installed: the dead worker's old port keeps no tap rule, the
    restarted worker's new port has one, and the tables still equal
    the leader's desired state."""
    engine, cluster = start_ha_cluster()
    (dpid, worker_id), old_port = max(cluster.app.port_map.items())
    kill_worker_at(cluster, worker_id, engine.now)
    engine.run(until=8.0)
    new_port = cluster.app.port_map[(dpid, worker_id)]
    assert new_port != old_port   # the restart attached a fresh port
    switch = cluster.sdn.switches[dpid]
    old_tap, _actions = worker_to_controller(old_port)
    new_tap, _actions = worker_to_controller(new_port)
    assert flows_matching(switch, old_tap) == []
    assert [entry.priority for entry in flows_matching(switch, new_tap)] \
        == [PRIORITY_CONTROL]
    assert cluster.ha.rule_divergence()["total"] == 0


def test_store_partition_failover_via_fault_helpers():
    engine, cluster = start_ha_cluster()
    ha = cluster.ha
    victim = ha.leader_name
    set_store_partition(cluster, victim, True)
    engine.run(until=8.0)
    assert ha.leader_name != victim
    set_store_partition(cluster, victim, False)
    engine.run(until=10.0)
    assert ha.rule_divergence()["total"] == 0
    assert cluster.coordinator.session_active(victim)


def test_ha_snapshot_and_rest_surface():
    engine, cluster = start_ha_cluster()
    snapshot = cluster.ha.snapshot()
    assert snapshot["leader"] == "controller-0"
    assert snapshot["generation"] == 1
    assert len(snapshot["replicas"]) == 3
    assert snapshot["rule_divergence"]["total"] == 0
    assert snapshot["store"]["sessions"] == 3
    api = RestApi(cluster)
    status, body = api.handle("GET", "/ha")
    assert status == 200
    assert body["leader"] == "controller-0"


# -- guardrails --------------------------------------------------------------


def test_ha_excludes_resource_aware_scheduling():
    engine = Engine()
    with pytest.raises(ValueError):
        TyphoonCluster(engine, num_hosts=3, seed=0, ha_replicas=3,
                       resource_aware=True)


def test_ha_cluster_rejects_register_app():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=3, seed=0, ha_replicas=3)
    with pytest.raises(ValueError):
        cluster.register_app(FaultDetector(cluster))


def test_hypervisor_rejects_ha_managed_switch():
    engine = Engine()
    plane, (switch,) = make_plane(engine)
    hypervisor = NetworkHypervisor(engine, DEFAULT_COSTS)
    with pytest.raises(ValueError):
        hypervisor.connect_switch(switch)


def test_single_controller_path_is_untouched_without_ha():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=3, seed=0)
    assert cluster.ha is None
    cluster.register_app(FaultDetector(cluster))  # legacy API still works
    for switch in cluster.fabric.switches():
        assert switch.channels() == ()
    api = RestApi(cluster)
    status, body = api.handle("GET", "/ha")
    assert status == 404
    # The election never touched the coordination store.
    assert not cluster.coordinator.exists(ELECTION_PATH)


# -- switch-reconnect storms during an active update -------------------------


def test_reconnect_storm_during_update_leaves_no_rule_leaks():
    """Two back-to-back switch crash/reconnect cycles while a Fig. 6
    scale-up is mid-flight: the controller's shadow bookkeeping must end
    exactly equal to the desired rule set — no double-install, no
    desired-state leaks from the torn-down tables."""
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=3, seed=0)
    cluster.register_app(FaultDetector(cluster))
    cluster.services[DEDUP_SERVICE] = DedupRegistry()
    config = TopologyConfig(batch_size=50, max_spout_rate=600.0)
    cluster.submit(chaos_topology("chaos", config, relays=2, sinks=2))
    engine.run(until=3.0)

    storm_host = "host-1"

    def bounce(round_index):
        set_switch_down(cluster, storm_host, True)
        engine.schedule(0.05, set_switch_down, cluster, storm_host, False)
        if round_index == 0:
            # Second bounce lands right as the first reconnect re-sync
            # is still installing rules.
            engine.schedule(0.15, bounce, 1)

    seen_phases = []

    def on_phase(topology_id, op, phase):
        seen_phases.append(phase)
        if phase == "rules" and op == "scale_up":
            bounce(0)

    cluster.update_phase_listeners.append(on_phase)
    cluster.set_parallelism("chaos", "relay", 3)
    engine.run(until=12.0)

    assert "rules" in seen_phases
    app = cluster.app
    desired = app.desired_rules("chaos")
    installed = app._installed["chaos"]
    assert set(installed) == set(desired)
    # Every desired rule is present exactly once on the live tables.
    for (dpid, match), (priority, actions) in desired.items():
        switch = cluster.sdn.switches[dpid]
        entries = [e for e in switch.flows if e.match == match]
        assert len(entries) == 1, (dpid, match)
        assert entries[0].priority == priority
        assert tuple(entries[0].actions) == tuple(actions)
