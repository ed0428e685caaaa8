"""The benchmark's three workloads, built only from the public ``repro``
API, with their correctness checks.

Every workload follows the same life cycle:

* :meth:`Workload.start` builds a fresh cluster from the seed, submits
  the topologies and runs the simulation until the first tuple reaches
  a sink — the span ``setup_s`` times;
* the runner (``run.py``) advances virtual time in fixed windows
  (:attr:`Run.window`) from :attr:`Run.measure_from`, counting
  :meth:`Run.processed` tuples per window;
* :meth:`Run.finish` quiesces the cluster, runs the correctness checks
  and returns the modelled (virtual-time) metrics.

Virtual-time quantities depend only on the seed. Wall-clock quantities
are measured by the runner.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import Engine, FaultDetector, TopologyConfig, TyphoonCluster
from repro.bench.figures import FIG14_RATE
from repro.core.audit import verify_conservation
from repro.sim.faults import FaultPlan
from repro.streaming.replay import REPLAY_SERVICE
from repro.workloads import (
    DEDUP_SERVICE,
    DedupRegistry,
    broadcast_topology,
    forwarding_topology,
    replicated_topology,
    word_count_topology,
)

#: Virtual time after which every workload is deployed and in steady
#: state (deployment finishes near 2.0 s; the first sink tuple lands
#: just after).
STEADY_FROM = 2.5

#: Virtual seconds of quiesce settle (twice: once to drain emissions,
#: once after the final flush).
SETTLE = 2.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Outcome:
    """What :meth:`Run.finish` hands back to the runner."""

    checks: List[Check]
    attempted: int
    failed: int
    model: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


def seeded_payload(seed: int, tag: str) -> str:
    """A tuple payload drawn from the seed: 26-29 ASCII letters."""
    rng = random.Random("%s:%d" % (tag, seed))
    length = rng.randint(26, 29)
    return "".join(rng.choice(string.ascii_letters) for _ in range(length))


def first_tuple_deployed(engine: Engine, processed: Callable[[], int],
                         step: float = 0.01, limit: float = 30.0) -> None:
    """Advance in ``step`` virtual seconds until ``processed()`` is
    non-zero: the topology is deployed and a tuple reached a sink."""
    now = engine.now
    while processed() == 0:
        if now > limit:
            raise RuntimeError("no tuple reached a sink within %.1f "
                               "virtual seconds" % limit)
        now += step
        engine.run(until=now)


def processed_by(cluster, components: Dict[str, Optional[List[str]]]) -> int:
    """Tuples processed so far by the named components.

    ``components`` maps a topology id to the component names to count
    (``None``: every component except the spout ``source``). Counts come
    from the per-worker ``processed`` meters, which outlive worker
    restarts, so killed and retired workers keep their contribution.
    """
    total = 0
    for name, meter in cluster.metrics.meters.items():
        if not name.endswith(".processed"):
            continue
        topology_id, component, _rest = name.split(".", 2)
        if topology_id not in components:
            continue
        wanted = components[topology_id]
        if wanted is None:
            if component != "source":
                total += meter.total
        elif component in wanted:
            total += meter.total
    return total


class Run:
    """One built cluster of one workload."""

    #: Virtual seconds per timed window.
    window: float = 0.05
    #: Virtual time the timed windows start at.
    measure_from: float = STEADY_FROM
    #: Virtual end of the workload's schedule; ``None`` when the workload
    #: is a steady stream the runner may run for as long as it likes.
    horizon: Optional[float] = None
    #: Timed windows at the start of the measured phase whose tuple
    #: counts give ``model_tuples_per_s`` (steady-stream workloads).
    model_windows: int = 10
    #: Fig. 6 update processes requested and not yet done.
    updating: int = 0

    def __init__(self, engine: Engine, cluster) -> None:
        self.engine = engine
        self.cluster = cluster

    def processed(self) -> int:
        raise NotImplementedError

    def finish(self, window_tuples: List[int]) -> Outcome:
        raise NotImplementedError

    def model_rate(self, window_tuples: List[int]) -> float:
        """Modelled throughput: tuples per virtual second over the first
        :attr:`model_windows` windows (seed-determined)."""
        head = window_tuples[:self.model_windows]
        return sum(head) / (len(head) * self.window) if head else 0.0


class Workload:
    """A named workload; ``BENCHMARK.json`` and ``README.md`` say why
    each one was chosen."""

    name = ""
    #: True when the workload runs a fixed virtual-time schedule (to
    #: :attr:`Run.horizon`) instead of a steady stream.
    scheduled = False

    def start(self, seed: int) -> Run:
        raise NotImplementedError


# -- fwd-train ---------------------------------------------------------------


class FwdTrainRun(Run):
    window = 0.05
    measure_from = 2.2

    def __init__(self, engine, cluster, payload: str) -> None:
        super().__init__(engine, cluster)
        self.payload = payload

    def processed(self) -> int:
        return processed_by(self.cluster, {"fwd": ["sink"]})

    def finish(self, window_tuples: List[int]) -> Outcome:
        report = verify_conservation(self.cluster, settle=SETTLE,
                                     strict=False)
        source = self.cluster.executors_for("fwd", "source")[0]
        sink = self.cluster.executors_for("fwd", "sink")[0].component
        emitted = source.stats.emitted
        checks = [
            conservation_check(report),
            Check("sink-in-order", sink.out_of_order == 0,
                  "out_of_order=%d" % sink.out_of_order),
            Check("sink-received-all", sink.count == emitted,
                  "emitted=%d received=%d" % (emitted, sink.count)),
        ]
        return Outcome(checks=checks, attempted=emitted,
                       failed=max(0, emitted - sink.count),
                       model={"model_tuples_per_s":
                              self.model_rate(window_tuples)},
                       info={"payload_bytes": len(self.payload)})


class FwdTrain(Workload):
    name = "fwd-train"

    def start(self, seed: int) -> Run:
        engine = Engine()
        cluster = TyphoonCluster(engine, num_hosts=1, seed=seed)
        payload = seeded_payload(seed, self.name)
        cluster.submit(forwarding_topology(
            "fwd", TopologyConfig(batch_size=100), payload=payload))
        run = FwdTrainRun(engine, cluster, payload)
        first_tuple_deployed(engine, run.processed)
        return run


# -- bcast-remote --------------------------------------------------------------


BCAST_SINKS = 4


class BcastRemoteRun(Run):
    window = 0.01
    measure_from = 2.1

    def __init__(self, engine, cluster, payload: str) -> None:
        super().__init__(engine, cluster)
        self.payload = payload

    def processed(self) -> int:
        return processed_by(self.cluster, {"bc": ["sink"]})

    def finish(self, window_tuples: List[int]) -> Outcome:
        report = verify_conservation(self.cluster, settle=SETTLE,
                                     strict=False)
        source = self.cluster.executors_for("bc", "source")[0]
        sinks = self.cluster.executors_for("bc", "sink")
        counts = [executor.component.count for executor in sinks]
        emitted = source.stats.emitted
        source_host = source.assignment.hostname
        remote = sum(1 for executor in sinks
                     if executor.assignment.hostname != source_host)
        checks = [
            conservation_check(report),
            Check("sinks-equal-counts",
                  len(counts) == BCAST_SINKS and len(set(counts)) == 1,
                  "counts=%s" % counts),
            Check("sinks-received-all",
                  bool(counts) and min(counts) == emitted,
                  "emitted=%d min_received=%d"
                  % (emitted, min(counts) if counts else 0)),
            Check("sinks-over-tunnel", remote > 0,
                  "remote_sinks=%d of %d" % (remote, len(sinks))),
        ]
        return Outcome(checks=checks, attempted=emitted,
                       failed=max(0, emitted - min(counts or [0])),
                       model={"model_tuples_per_s":
                              self.model_rate(window_tuples)},
                       info={"payload_bytes": len(self.payload),
                             "remote_sinks": remote})


class BcastRemote(Workload):
    name = "bcast-remote"

    def start(self, seed: int) -> Run:
        engine = Engine()
        cluster = TyphoonCluster(engine, num_hosts=2, seed=seed)
        payload = seeded_payload(seed, self.name)
        cluster.submit(broadcast_topology(
            "bc", BCAST_SINKS, TopologyConfig(batch_size=100),
            payload=payload))
        run = BcastRemoteRun(engine, cluster, payload)
        first_tuple_deployed(engine, run.processed)
        return run


# -- acked-churn -----------------------------------------------------------------

#: The acked word count's traffic is the repository's word-count
#: reconfiguration scenario (``examples/wordcount_reconfig.py``): a
#: sentence rate equal to the reconfiguration figure's input rate
#: (``FIG14_RATE``, 4000 per virtual second, open loop: paced by
#: ``max_spout_rate``), 3 words per sentence as in Fig. 10, 2 splits and
#: 4 counts. Its words are Zipf-skewed with the quickstart's "mildly
#: skewed" exponent over ``word_count_topology``'s default vocabulary.
WC_SENTENCE_RATE = FIG14_RATE
WC_WORDS_PER_SENTENCE = 3
WC_SPLITS = 2
WC_COUNTS = 4
WC_VOCABULARY = 1000
WC_SKEW = 1.1
#: The replicated pipeline runs at ``run_chaos_exactly_once``'s default
#: rate and shape (1000 tuples per virtual second, 2 relays, 3 replicas).
REP_RATE = 1000.0
#: Fig. 6 ``set_parallelism`` requests on the word count's ``count``
#: node: (virtual time, new parallelism). Two scale-ups, then two
#: scale-downs back to the deployed parallelism.
UPDATES = ((4.0, 5), (8.0, 6), (10.4, 5), (11.0, 4))
#: Virtual time one ``split`` worker is killed (supervisor restarts it
#: about 1 s later). The kill and restart fall between the first two
#: updates, and the leader kill after the last, so no update process
#: overlaps the FlowMods of a restart or a failover.
KILL_SPLIT_AT = 6.3
#: Virtual time the leader controller replica is killed, and how long
#: it stays down.
KILL_LEADER_AT = 11.5
LEADER_DOWN_FOR = 2.0
#: Virtual end of the schedule.
CHURN_HORIZON = 15.0


class AckedChurnRun(Run):
    window = 0.05
    horizon = CHURN_HORIZON

    def __init__(self, engine, cluster, registry: DedupRegistry,
                 faults: bool) -> None:
        super().__init__(engine, cluster)
        self.registry = registry
        #: False for the fault-free reference run: updates only.
        self.faults = faults
        self.updates: List[Dict[str, object]] = []
        self.divergence_before_failover: Optional[int] = None
        self.plan = FaultPlan(cluster)

    def processed(self) -> int:
        return processed_by(self.cluster, {"wc": None, "rep": None})

    def arm(self) -> None:
        engine = self.engine
        for when, parallelism in UPDATES:
            engine.schedule(when - engine.now, self._request_update,
                            parallelism)
        engine.schedule(KILL_LEADER_AT - 0.1 - engine.now,
                        self._note_divergence)
        if self.faults:
            split = self.cluster.record("wc").physical.worker_ids_for(
                "split")[0]
            self.plan.kill_worker(split, KILL_SPLIT_AT)
            self.plan.kill_leader(KILL_LEADER_AT, LEADER_DOWN_FOR)
        self.plan.arm()

    def _request_update(self, parallelism: int) -> None:
        record: Dict[str, object] = {"parallelism": parallelism,
                                     "requested": self.engine.now,
                                     "done": None}
        process = self.cluster.set_parallelism("wc", "count", parallelism)
        record["process"] = process
        self.updating += 1

        def done(_event) -> None:
            record["done"] = self.engine.now
            self.updating -= 1

        process.add_callback(done)
        self.updates.append(record)

    def _note_divergence(self) -> None:
        self.divergence_before_failover = \
            self.cluster.ha.rule_divergence()["total"]

    def committed(self) -> Dict[int, tuple]:
        group = self.cluster.replication.group_of("rep", "rstate")
        return {seq: tuple(values) for seq, values in group.committed.items()}

    def reference_output(self) -> Dict[int, tuple]:
        """Run the whole schedule, quiesce, and return the replicated
        pipeline's committed output (used on a fault-free run)."""
        self.engine.run(until=self.horizon)
        verify_conservation(self.cluster, settle=SETTLE, strict=False)
        return self.committed()

    def finish(self, window_tuples: List[int],
               reference: Optional[Dict[int, tuple]] = None) -> Outcome:
        cluster = self.cluster
        report = verify_conservation(cluster, settle=SETTLE, strict=False)
        checks = [conservation_check(report)]

        update_ok = (len(self.updates) == len(UPDATES) and all(
            record["done"] is not None and not record["process"].failed
            for record in self.updates))
        checks.append(Check(
            "fig6-updates-succeed", update_ok,
            "updates=%s" % [(record["parallelism"],
                             record["done"] is not None,
                             bool(record["process"].failed))
                            for record in self.updates]))

        ha = cluster.ha
        divergence = ha.rule_divergence()
        checks.append(Check("ha-rule-divergence-zero",
                            divergence["total"] == 0,
                            "rule_divergence=%s" % divergence))
        blackout = ha.blackout_summary()
        checks.append(Check(
            "ha-failover-reconciled",
            blackout["failovers"] >= 1 and blackout["unreconciled"] == 0,
            "failovers=%d unreconciled=%d"
            % (blackout["failovers"], blackout["unreconciled"])))

        committed = self.committed()
        if reference is not None:
            checks.append(Check(
                "replicated-output-equals-fault-free",
                committed == reference,
                "committed=%d reference=%d" % (len(committed),
                                               len(reference))))

        replay = cluster.services[REPLAY_SERVICE].totals()
        allocated = sum(self.registry.allocated().values())
        missing = len(self.registry.missing_keys())
        attempted = replay["registered"] + allocated
        failed = replay["exhausted"] + replay["pending"] + missing

        source = cluster.executors_for("wc", "source")[0]
        latencies = source.latency_dist
        durations = [(record["done"] - record["requested"]) * 1000.0
                     for record in self.updates
                     if record["done"] is not None]
        blackouts = [record["blackout_ms"] for record in ha.failovers
                     if record["blackout_ms"] is not None]
        span = self.horizon - self.measure_from
        model = {
            "model_tuples_per_s": sum(window_tuples) / span,
            "complete_latency_p50_ms": latency_ms(latencies, 50),
            "complete_latency_p99_ms": latency_ms(latencies, 99),
            "latency_samples": len(latencies),
            "reconfig_ms": (sum(durations) / len(durations)
                            if durations else 0.0),
            "failover_blackout_ms": max(blackouts) if blackouts else 0.0,
            "failed_ratio": failed / attempted if attempted else 0.0,
            "replayed_roots": replay["replays"],
            "exhausted_roots": replay["exhausted"],
            "stale_rules_before_failover":
                self.divergence_before_failover or 0,
        }
        info = {
            "replay": replay,
            "replicated_committed": len(committed),
            "replicated_missing": missing,
            "updates": [{"parallelism": record["parallelism"],
                         "requested": record["requested"],
                         "done": record["done"]}
                        for record in self.updates],
            "failovers": list(ha.failovers),
            "faults_fired": list(self.plan.fired),
        }
        return Outcome(checks=checks, attempted=attempted, failed=failed,
                       model=model, info=info)


def latency_ms(distribution, q: float) -> float:
    return distribution.percentile(q) * 1000.0 if len(distribution) else 0.0


class AckedChurn(Workload):
    name = "acked-churn"
    scheduled = True

    def start(self, seed: int, faults: bool = True) -> AckedChurnRun:
        engine = Engine()
        cluster = TyphoonCluster(engine, num_hosts=3, seed=seed,
                                 ha_replicas=3)
        cluster.register_app_factory(lambda: FaultDetector(cluster))
        registry = DedupRegistry(at_least_once=False)
        cluster.services[DEDUP_SERVICE] = registry
        # Acking and replay as in the acked chaos run (``run_chaos``),
        # but rate-limited, not windowed, as in the Fig. 8(c)/(d)
        # latency run: no ``max_pending``, so the feed stays open loop.
        wordcount = TopologyConfig(
            batch_size=100, max_spout_rate=WC_SENTENCE_RATE,
            acking=True, num_ackers=1, tuple_timeout=2.0,
            replay_enabled=True, replay_max_retries=12,
            replay_backoff_base=0.25, replay_backoff_factor=2.0,
            replay_backoff_max=1.0)
        cluster.submit(word_count_topology(
            "wc", wordcount, splits=WC_SPLITS, counts=WC_COUNTS,
            vocabulary_size=WC_VOCABULARY, skew=WC_SKEW,
            words_per_sentence=WC_WORDS_PER_SENTENCE))
        cluster.submit(replicated_topology(
            "rep", TopologyConfig(batch_size=50, max_spout_rate=REP_RATE),
            relays=2, replicas=3))
        run = AckedChurnRun(engine, cluster, registry, faults)
        first_tuple_deployed(engine, run.processed)
        run.arm()
        return run


def conservation_check(report) -> Check:
    return Check("conservation", report.ok,
                 "sent=%d delivered=%d drops=%d unattributed=%d"
                 % (report.sent, report.delivered, report.drops,
                    report.unattributed))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (FwdTrain(), BcastRemote(), AckedChurn())
}
