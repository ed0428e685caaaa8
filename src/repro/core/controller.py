"""The Typhoon SDN controller (§3.4).

Implemented as the core control-plane application on the generic
:class:`~repro.sdn.controller.SdnController`. Faithful to the paper, it
is **stateless about stream applications**: logical and physical
topologies are always read from the central coordinator (Table 1); the
only local state is the data-plane view it learns from the switches
themselves (which worker port lives where, via PortStatus events) and
bookkeeping of the rules it has installed.

Responsibilities:

* generate and install the Table 3 flow rules for each managed topology
  (data unicast local/remote, one-to-many broadcast, ack paths,
  worker-to-controller);
* inject control tuples into workers via PacketOut (Table 2);
* collect application-layer worker statistics via METRIC_REQ/RESP
  (PacketIn), exposing them to other control-plane apps — the
  cross-layer information §4 builds on;
* for topologies that opt into ``reliable_control``, guarantee control
  tuple delivery: each tuple carries a sequence number, workers return
  CONTROL_ACK receipts, and unacked sequences are retried with
  exponential backoff until a retry budget is spent — so routing
  reconfigurations survive control-channel loss and delay faults.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..coordination.schema import GlobalState
from ..net.addresses import CONTROLLER_ADDRESS, TYPHOON_ETHERTYPE, WorkerAddress
from ..net.ethernet import DEFAULT_MTU, EthernetFrame
from ..sdn.controller import ControllerApp
from ..sdn.flow import (
    Action,
    GroupAction,
    Match,
    Meter,
    OFPP_CONTROLLER,
    Output,
    SetTunnelDst,
)
from ..sdn.group import GROUP_ALL, Bucket
from ..sdn.openflow import (
    DELETE,
    GroupMod,
    PORT_ADD,
    PORT_DELETE,
    PacketIn,
    PacketOut,
    PortStatus,
)
from ..sim.engine import Event
from ..streaming.acker import ACKER_COMPONENT
from ..streaming.physical import PhysicalTopology
from ..sim.trace import KIND_CONTROL
from ..streaming.serialize import decode_train, encode_tuple
from ..streaming.topology import ALL, SDN_SELECT, LogicalTopology
from ..streaming.tuples import CONTROL_STREAM
from . import control as ct
from . import rules as rule_templates
from .io_layer import TyphoonFabric
from .packets import MULTI_HEAD_SIZE, multi_count, pack_tuples

#: (dpid, match) uniquely identifies an installed rule for diffing.
_RuleKey = Tuple[str, Match]
_RuleValue = Tuple[int, Tuple[Action, ...]]
#: (dpid, group_id) identifies an installed group-table entry.
_GroupKey = Tuple[str, int]
_GroupValue = Tuple[str, Tuple[Bucket, ...]]

#: Group ids for replicated-broadcast fan-out: a private range keyed by
#: the sending worker id (load-balancer select groups use select_address
#: values, which carry the 0x8000 app-prefix bit — no collision).
_REPLICA_GROUP_BASE = 0x60000000


def replica_group_id(src_worker: int) -> int:
    return _REPLICA_GROUP_BASE | src_worker


class _PendingControl:
    """One reliable control tuple awaiting its CONTROL_ACK."""

    __slots__ = ("topology_id", "worker_id", "message", "attempts", "delay")

    def __init__(self, topology_id: str, worker_id: int,
                 message: "ct.ControlTuple", delay: float):
        self.topology_id = topology_id
        self.worker_id = worker_id
        self.message = message
        self.attempts = 1
        self.delay = delay


def _worker_of_port(port_name: str) -> Optional[int]:
    if port_name.startswith("w") and port_name[1:].isdigit():
        return int(port_name[1:])
    return None


class TyphoonControllerApp(ControllerApp):
    """Core Typhoon logic on the SDN control plane."""

    name = "typhoon-core"

    def __init__(self, state: GlobalState, fabric: TyphoonFabric):
        super().__init__()
        self.state = state
        self.fabric = fabric
        self.port_map: Dict[Tuple[str, int], int] = {}
        self.worker_host: Dict[int, str] = {}
        self.managed: Set[str] = set()
        self._installed: Dict[str, Dict[_RuleKey, _RuleValue]] = {}
        self._installed_groups: Dict[str, Dict[_GroupKey, _GroupValue]] = {}
        self.expected_removals: Set[int] = set()
        self.port_delete_listeners: List[Callable[[str, int], None]] = []
        self.port_add_listeners: List[Callable[[str, int], None]] = []
        self.latest_metrics: Dict[int, Dict[str, int]] = {}
        self._pending_metrics: Dict[int, Tuple[Event, Dict[int, dict], Set[int]]] = {}
        self._request_ids = itertools.count(1)
        self.rules_installed = 0
        self.rules_removed = 0
        self.groups_installed = 0
        self.groups_removed = 0
        self.control_tuples_sent = 0
        #: Reliable control channel (topologies with ``reliable_control``).
        self.reliable_topologies: Set[str] = set()
        self._control_seq = itertools.count(1)
        self._control_outstanding: Dict[int, _PendingControl] = {}
        self.control_retry_timeout = 0.25   # first retry check (seconds)
        self.control_backoff_factor = 2.0
        self.control_retry_max = 2.0        # backoff ceiling (seconds)
        self.control_retry_budget = 8       # total attempts per tuple
        self.control_acked = 0
        self.control_retries = 0
        self.control_exhausted = 0
        self.control_duplicate_acks = 0
        #: Spout workers that have been sent ACTIVATE (§3.2 step v gate:
        #: sources stay throttled until the data plane is programmed).
        self._spouts_activated: Set[int] = set()
        #: Optional bandwidth-allocation policy (duck-typed: exposes
        #: ``meter_for(app_id, src_worker, dst_worker, src_dpid,
        #: dst_dpid) -> Optional[int]``). When set, remote sender rules
        #: pass frames through the returned switch meter so inter-host
        #: flows are rate-policed. ``None`` (the default) leaves every
        #: rule byte-identical to the unmetered layout.
        self.bandwidth_policy = None

    # -- topology management -------------------------------------------------

    def manage(self, topology_id: str) -> None:
        """Start managing a topology's data-plane rules."""
        self.managed.add(topology_id)
        self._installed.setdefault(topology_id, {})
        logical = self.state.read_logical(topology_id)
        if logical is not None and getattr(logical.config,
                                           "reliable_control", False):
            self.reliable_topologies.add(topology_id)
        self.sync_topology(topology_id)

    def unmanage(self, topology_id: str) -> None:
        self.managed.discard(topology_id)
        self.reliable_topologies.discard(topology_id)
        for seq in [s for s, p in self._control_outstanding.items()
                    if p.topology_id == topology_id]:
            del self._control_outstanding[seq]
        installed = self._installed.pop(topology_id, {})
        for (dpid, match), (priority, _actions) in installed.items():
            if self.controller and dpid in self.controller.switches:
                self.controller.delete_flows(dpid, match, strict=True,
                                             priority=priority)
                self.rules_removed += 1
        groups = self._installed_groups.pop(topology_id, {})
        for (dpid, group_id), (group_type, _buckets) in groups.items():
            if self.controller and dpid in self.controller.switches:
                self.controller.send(dpid, GroupMod(DELETE, group_id,
                                                    group_type, ()))
                self.groups_removed += 1

    def sync_topology(self, topology_id: str) -> None:
        """Reconcile installed rules with the coordinator's global state."""
        if topology_id not in self.managed or self.controller is None:
            return
        logical = self.state.read_logical(topology_id)
        physical = self.state.read_physical(topology_id)
        if logical is None or physical is None:
            return
        desired_groups: Dict[_GroupKey, _GroupValue] = {}
        desired = self._compute_rules(logical, physical, desired_groups)
        # Group entries go down before the flows that reference them:
        # controller messages to one switch share the install latency and
        # apply FIFO, so a GroupAction never dangles on a managed path.
        installed_groups = self._installed_groups.setdefault(topology_id, {})
        for key, value in desired_groups.items():
            previous = installed_groups.get(key)
            if previous == value:
                continue
            dpid, group_id = key
            group_type, buckets = value
            self.controller.install_group(dpid, group_id, group_type,
                                          buckets,
                                          modify=previous is not None)
            installed_groups[key] = value
            self.groups_installed += 1
        installed = self._installed.setdefault(topology_id, {})
        for key, value in desired.items():
            if installed.get(key) == value:
                continue
            dpid, match = key
            priority, actions = value
            self.controller.install_flow(dpid, match, actions,
                                         priority=priority)
            installed[key] = value
            self.rules_installed += 1
        for key in [k for k in installed if k not in desired]:
            dpid, match = key
            priority, _actions = installed[key]
            if dpid in self.controller.switches:
                self.controller.delete_flows(dpid, match, strict=True,
                                             priority=priority)
                self.rules_removed += 1
            del installed[key]
        # Stale groups go after the flow deletes (mirror of the install
        # ordering: nothing references a group when it disappears).
        for key in [k for k in installed_groups if k not in desired_groups]:
            dpid, group_id = key
            group_type, _buckets = installed_groups[key]
            if dpid in self.controller.switches:
                self.controller.send(dpid, GroupMod(DELETE, group_id,
                                                    group_type, ()))
                self.groups_removed += 1
            del installed_groups[key]
        self._maybe_activate_spouts(topology_id, logical, physical)

    def _maybe_activate_spouts(self, topology_id: str,
                               logical: LogicalTopology,
                               physical: PhysicalTopology) -> None:
        """Unthrottle sources once the whole topology is wired up.

        Typhoon workers deploy in a deactivated state; the controller
        sends ACTIVATE control tuples (Table 2) once every worker's port
        is attached and the Table 3 rules are installed — the paper's
        step (v), "data tuple communication"."""
        if any(wid not in self.worker_host for wid in physical.assignments):
            return
        spout_ids = [
            wid for spout in logical.spouts()
            for wid in physical.worker_ids_for(spout.name)
        ]
        delay = (self.controller.costs.flow_install_latency
                 + self.controller.costs.openflow_rtt)
        for worker_id in spout_ids:
            if worker_id in self._spouts_activated:
                continue
            self._spouts_activated.add(worker_id)
            self.controller.engine.schedule(
                delay, self.send_control, topology_id, worker_id,
                ct.activate())

    # -- rule generation (Table 3) ----------------------------------------------

    def _port_of(self, worker_id: int) -> Optional[Tuple[str, int]]:
        dpid = self.worker_host.get(worker_id)
        if dpid is None:
            return None
        port = self.port_map.get((dpid, worker_id))
        if port is None:
            return None
        return dpid, port

    def _compute_rules(self, logical: LogicalTopology,
                       physical: PhysicalTopology,
                       groups_out: Optional[Dict[_GroupKey, _GroupValue]] = None,
                       ) -> Dict[_RuleKey, _RuleValue]:
        app_id = physical.app_id
        desired: Dict[_RuleKey, _RuleValue] = {}

        def add(dpid: str, match: Match, actions: Sequence[Action],
                priority: int) -> None:
            desired[(dpid, match)] = (priority, tuple(actions))

        unicast_pairs: Set[Tuple[int, int]] = set()
        broadcast_targets: Dict[str, Set[int]] = {}
        #: Broadcast sources feeding a replicated component: their fan-out
        #: moves from an action list to a GROUP_ALL group-table entry
        #: (GroupMod), the switch-assisted replication the design rides on.
        replicated_broadcasts: Set[str] = set()

        for edge in logical.edges:
            src_ids = physical.worker_ids_for(edge.src)
            dst_ids = physical.worker_ids_for(edge.dst)
            if edge.grouping.kind == ALL:
                broadcast_targets.setdefault(edge.src, set()).update(dst_ids)
                if getattr(logical.nodes[edge.dst], "replicas", 1) > 1:
                    # The one_to_many match is per source port, so a src
                    # broadcasting to any replicated dst uses the group
                    # path for its whole broadcast set.
                    replicated_broadcasts.add(edge.src)
            else:
                # SDN_SELECT edges also get unicast rules: they serve as
                # the fallback path until the load balancer app installs
                # its select group.
                for src_id in src_ids:
                    for dst_id in dst_ids:
                        unicast_pairs.add((src_id, dst_id))

        if logical.config.acking and ACKER_COMPONENT in logical.nodes:
            acker_ids = physical.worker_ids_for(ACKER_COMPONENT)
            spout_ids = [
                wid for spout in logical.spouts()
                for wid in physical.worker_ids_for(spout.name)
            ]
            for assignment in physical.assignments.values():
                if assignment.component == ACKER_COMPONENT:
                    continue
                for acker_id in acker_ids:
                    unicast_pairs.add((assignment.worker_id, acker_id))
            for acker_id in acker_ids:
                for spout_id in spout_ids:
                    unicast_pairs.add((acker_id, spout_id))

        for src_id, dst_id in sorted(unicast_pairs):
            src_loc = self._port_of(src_id)
            dst_loc = self._port_of(dst_id)
            if src_loc is None or dst_loc is None:
                continue
            src_dpid, src_port = src_loc
            dst_dpid, dst_port = dst_loc
            if src_dpid == dst_dpid:
                match, actions = rule_templates.local_transfer(
                    app_id, src_id, src_port, dst_id, dst_port)
                add(src_dpid, match, actions, rule_templates.PRIORITY_UNICAST)
            else:
                tunnel_out = self.fabric.host(src_dpid).tunnel_port
                match, actions = rule_templates.remote_transfer_sender(
                    app_id, src_id, src_port, dst_id, dst_dpid, tunnel_out)
                if self.bandwidth_policy is not None:
                    meter_id = self.bandwidth_policy.meter_for(
                        app_id, src_id, dst_id, src_dpid, dst_dpid)
                    if meter_id is not None:
                        actions = (Meter(meter_id),) + tuple(actions)
                add(src_dpid, match, actions, rule_templates.PRIORITY_UNICAST)
                tunnel_in = self.fabric.host(dst_dpid).tunnel_port
                match, actions = rule_templates.remote_transfer_receiver(
                    app_id, src_id, dst_id, tunnel_in, dst_port)
                add(dst_dpid, match, actions, rule_templates.PRIORITY_UNICAST)

        for src_component, targets in sorted(broadcast_targets.items()):
            for src_id in physical.worker_ids_for(src_component):
                src_loc = self._port_of(src_id)
                if src_loc is None:
                    continue
                src_dpid, src_port = src_loc
                local_ports: List[int] = []
                remote_hosts: Set[str] = set()
                remote_ports: Dict[str, List[int]] = {}
                for dst_id in sorted(targets):
                    dst_loc = self._port_of(dst_id)
                    if dst_loc is None:
                        continue
                    dst_dpid, dst_port = dst_loc
                    if dst_dpid == src_dpid:
                        local_ports.append(dst_port)
                    else:
                        remote_hosts.add(dst_dpid)
                        remote_ports.setdefault(dst_dpid, []).append(dst_port)
                tunnel_port = self.fabric.host(src_dpid).tunnel_port
                match, actions = rule_templates.one_to_many(
                    src_port, local_ports, sorted(remote_hosts),
                    tunnel_port)
                if (src_component in replicated_broadcasts
                        and groups_out is not None
                        and (local_ports or remote_hosts)):
                    group_id = replica_group_id(src_id)
                    buckets = [Bucket((Output(port),))
                               for port in local_ports]
                    for host in sorted(remote_hosts):
                        buckets.append(Bucket((
                            SetTunnelDst(host), Output(tunnel_port))))
                    groups_out[(src_dpid, group_id)] = (
                        GROUP_ALL, tuple(buckets))
                    actions = (GroupAction(group_id),)
                add(src_dpid, match, actions, rule_templates.PRIORITY_BROADCAST)
                for dst_dpid, ports in sorted(remote_ports.items()):
                    match, actions = rule_templates.one_to_many_receiver(
                        app_id, src_id, self.fabric.host(dst_dpid).tunnel_port,
                        sorted(ports))
                    add(dst_dpid, match, actions,
                        rule_templates.PRIORITY_BROADCAST)
        return desired

    def desired_rules(self, topology_id: str) -> Dict[_RuleKey, _RuleValue]:
        """The Table 3 rule set the coordinator state currently implies.

        Public so auditors (the chaos invariant checker) can compare the
        controller's intent against actual switch flow tables."""
        logical = self.state.read_logical(topology_id)
        physical = self.state.read_physical(topology_id)
        if logical is None or physical is None:
            return {}
        # Pass a throwaway group table so replicated broadcasts come out
        # as GroupActions, matching what sync_topology installs.
        return self._compute_rules(logical, physical, {})

    def desired_groups(self, topology_id: str) -> Dict[_GroupKey, _GroupValue]:
        """The group-table entries the coordinator state implies."""
        logical = self.state.read_logical(topology_id)
        physical = self.state.read_physical(topology_id)
        if logical is None or physical is None:
            return {}
        groups: Dict[_GroupKey, _GroupValue] = {}
        self._compute_rules(logical, physical, groups)
        return groups

    # -- high availability (warm standby + anti-entropy) -------------------------

    def snapshot(self) -> Dict:
        """Everything a warm standby needs to take over: the learned
        data-plane view and the shadow rule/group bookkeeping. Copied a
        level deep so the leader mutating afterwards does not alias the
        published state."""
        return {
            "port_map": dict(self.port_map),
            "worker_host": dict(self.worker_host),
            "managed": sorted(self.managed),
            "reliable_topologies": sorted(self.reliable_topologies),
            "installed": {tid: dict(rules)
                          for tid, rules in self._installed.items()},
            "installed_groups": {tid: dict(groups)
                                 for tid, groups in
                                 self._installed_groups.items()},
            "spouts_activated": sorted(self._spouts_activated),
            "expected_removals": sorted(self.expected_removals),
        }

    def restore(self, state: Dict) -> None:
        self.port_map = dict(state["port_map"])
        self.worker_host = dict(state["worker_host"])
        self.managed = set(state["managed"])
        self.reliable_topologies = set(state["reliable_topologies"])
        self._installed = {tid: dict(rules)
                           for tid, rules in state["installed"].items()}
        self._installed_groups = {tid: dict(groups)
                                  for tid, groups in
                                  state["installed_groups"].items()}
        self._spouts_activated = set(state["spouts_activated"])
        self.expected_removals = set(state["expected_removals"])

    def desired_flows(self) -> Dict[_RuleKey, _RuleValue]:
        """Full intended rule set for the post-failover anti-entropy
        sweep: the Table 3 rules the coordinator state implies for every
        managed topology, plus the worker-to-controller taps for every
        known worker port."""
        desired: Dict[_RuleKey, _RuleValue] = {}
        for topology_id in sorted(self.managed):
            desired.update(self.desired_rules(topology_id))
        for dpid, worker_id in sorted(self.port_map):
            port_no = self.port_map[(dpid, worker_id)]
            match, actions = rule_templates.worker_to_controller(port_no)
            desired[(dpid, match)] = (rule_templates.PRIORITY_CONTROL,
                                      tuple(actions))
        return desired

    # -- data-plane discovery -----------------------------------------------------

    def on_switch_reconnect(self, dpid: str) -> None:
        """A switch restarted and lost its tables: forget what we thought
        was installed there, then re-sync every managed topology (the
        per-port syncs that follow the restart's PORT_ADDs fill in rules
        as worker locations are re-learned)."""
        for installed in self._installed.values():
            for key in [k for k in installed if k[0] == dpid]:
                del installed[key]
        for groups in self._installed_groups.values():
            for key in [k for k in groups if k[0] == dpid]:
                del groups[key]
        for topology_id in sorted(self.managed):
            self.sync_topology(topology_id)

    def on_port_status(self, message: PortStatus) -> None:
        worker_id = _worker_of_port(message.port_name)
        if worker_id is None:
            return
        if message.reason == PORT_ADD:
            self.port_map[(message.dpid, worker_id)] = message.port_no
            self.worker_host[worker_id] = message.dpid
            match, actions = rule_templates.worker_to_controller(message.port_no)
            self.controller.install_flow(
                message.dpid, match, actions,
                priority=rule_templates.PRIORITY_CONTROL)
            for topology_id in self._topologies_of(worker_id):
                self.sync_topology(topology_id)
            for listener in list(self.port_add_listeners):
                listener(message.dpid, worker_id)
        elif message.reason == PORT_DELETE:
            port_no = self.port_map.pop((message.dpid, worker_id), None)
            if port_no is not None:
                # Retire the worker-to-controller tap PORT_ADD installed.
                match, _actions = rule_templates.worker_to_controller(port_no)
                self.controller.delete_flows(
                    message.dpid, match, strict=True,
                    priority=rule_templates.PRIORITY_CONTROL)
            if self.worker_host.get(worker_id) == message.dpid:
                del self.worker_host[worker_id]
            # A restarted spout comes back deactivated and needs a fresh
            # ACTIVATE once its port reappears.
            self._spouts_activated.discard(worker_id)
            for listener in list(self.port_delete_listeners):
                listener(message.dpid, worker_id)

    def _topologies_of(self, worker_id: int) -> List[str]:
        out = []
        for topology_id in sorted(self.managed):
            physical = self.state.read_physical(topology_id)
            if physical is not None and worker_id in physical.assignments:
                out.append(topology_id)
        return out

    # -- control tuples (Table 2) ------------------------------------------------------

    def send_control(self, topology_id: str, worker_id: int,
                     message: ct.ControlTuple) -> bool:
        """Inject one control tuple into a worker via PacketOut.

        For topologies that enabled ``reliable_control`` the tuple is
        sequence-stamped and tracked until the worker's CONTROL_ACK
        arrives; lost or delayed deliveries are retried with backoff."""
        if topology_id in self.reliable_topologies:
            seq = next(self._control_seq)
            payload = dict(message.payload)
            payload[ct.SEQ_KEY] = seq
            tracked = ct.ControlTuple(message.ctype, payload,
                                      message.request_id)
            self._control_outstanding[seq] = _PendingControl(
                topology_id, worker_id, tracked,
                delay=self.control_retry_timeout)
            sent = self._transmit_control(topology_id, worker_id, tracked)
            self.controller.engine.schedule(
                self.control_retry_timeout, self._check_control_ack, seq)
            return sent
        return self._transmit_control(topology_id, worker_id, message)

    def _check_control_ack(self, seq: int) -> None:
        pending = self._control_outstanding.get(seq)
        if pending is None:
            return  # acked (or its topology was unmanaged)
        if (pending.topology_id not in self.managed
                or pending.attempts >= self.control_retry_budget):
            del self._control_outstanding[seq]
            if pending.topology_id in self.managed:
                self.control_exhausted += 1
            return
        pending.attempts += 1
        self.control_retries += 1
        pending.delay = min(pending.delay * self.control_backoff_factor,
                            self.control_retry_max)
        self._transmit_control(pending.topology_id, pending.worker_id,
                               pending.message)
        self.controller.engine.schedule(
            pending.delay, self._check_control_ack, seq)

    def _transmit_control(self, topology_id: str, worker_id: int,
                          message: ct.ControlTuple) -> bool:
        physical = self.state.read_physical(topology_id)
        if physical is None:
            return False
        location = self._port_of(worker_id)
        if location is None:
            return False
        dpid, port = location
        # Build the stream tuple before encoding so the tracer can sample
        # control traffic too — Fig. 6 update phases then show where a
        # reconfiguration stalls, hop by hop, like any data tuple.
        stream_tuple = message.to_stream_tuple()
        tracer = self.fabric.tracer
        if tracer is not None and tracer.enabled:
            tracer.maybe_trace(stream_tuple, kind=KIND_CONTROL,
                               ctype=message.ctype, topology=topology_id,
                               dst_worker=worker_id)
        payloads, _ = pack_tuples([encode_tuple(stream_tuple)], DEFAULT_MTU)
        frame = EthernetFrame(
            dst=WorkerAddress(physical.app_id, worker_id),
            src=CONTROLLER_ADDRESS,
            ethertype=TYPHOON_ETHERTYPE,
            payload=payloads[0],
        )
        self.controller.packet_out(dpid, PacketOut(
            frame=frame, actions=(Output(port),), in_port=OFPP_CONTROLLER,
        ))
        self.control_tuples_sent += 1
        return True

    def control_channel_stats(self) -> Dict[str, int]:
        """Reliable-control bookkeeping (chaos snapshot / dashboards)."""
        return {
            "reliable_topologies": len(self.reliable_topologies),
            "sent": self.control_tuples_sent,
            "acked": self.control_acked,
            "retries": self.control_retries,
            "exhausted": self.control_exhausted,
            "outstanding": len(self._control_outstanding),
            "duplicate_acks": self.control_duplicate_acks,
        }

    def update_routing(self, topology_id: str, worker_id: int,
                       updates: Sequence[ct.RoutingUpdate]) -> bool:
        return self.send_control(topology_id, worker_id,
                                 ct.routing_update(list(updates)))

    def send_signal(self, topology_id: str, worker_id: int,
                    kind: str = "flush") -> bool:
        return self.send_control(topology_id, worker_id, ct.signal(kind))

    def query_metrics(self, topology_id: str, worker_ids: Sequence[int],
                      timeout: float = 1.0) -> Event:
        """Request stats from workers; the event fires with
        ``{worker_id: stats}`` once all reply or the timeout passes."""
        request_id = next(self._request_ids)
        gate = self.controller.engine.event()
        expected = set(worker_ids)
        collected: Dict[int, dict] = {}
        self._pending_metrics[request_id] = (gate, collected, expected)
        for worker_id in worker_ids:
            self.send_control(topology_id, worker_id,
                              ct.metric_request(request_id))
        self.controller.engine.schedule(
            timeout, self._finish_metrics, request_id)
        return gate

    def _finish_metrics(self, request_id: int) -> None:
        pending = self._pending_metrics.pop(request_id, None)
        if pending is None:
            return
        gate, collected, _expected = pending
        if not gate.triggered:
            gate.succeed(dict(collected))

    # -- PacketIn: worker -> controller traffic ----------------------------------------

    def on_packet_in(self, message: PacketIn) -> None:
        if message.frame.ethertype != TYPHOON_ETHERTYPE:
            return
        payload = message.frame.payload
        count = multi_count(payload)
        if count is None:
            return  # control tuples are small; fragments unexpected
        tuples, _rlens, _est, _stream = decode_train(
            payload, MULTI_HEAD_SIZE, count)
        for stream_tuple in tuples:
            if stream_tuple.stream != CONTROL_STREAM:
                continue
            control = ct.ControlTuple.from_stream_tuple(stream_tuple)
            if control.ctype == ct.CONTROL_ACK:
                seq = control.payload.get("seq")
                if seq in self._control_outstanding:
                    del self._control_outstanding[seq]
                    self.control_acked += 1
                else:
                    # Receipt for a retry of an already-acked sequence.
                    self.control_duplicate_acks += 1
                continue
            if control.ctype != ct.METRIC_RESP:
                continue
            worker_id = control.payload["worker_id"]
            stats = control.payload["stats"]
            self.latest_metrics[worker_id] = stats
            pending = self._pending_metrics.get(control.request_id)
            if pending is None:
                continue
            gate, collected, expected = pending
            collected[worker_id] = stats
            if expected.issubset(collected):
                del self._pending_metrics[control.request_id]
                if not gate.triggered:
                    gate.succeed(dict(collected))
