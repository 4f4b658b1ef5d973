"""MapReduce-style execution over the distributed store.

This is the "traditional" path of Fig. 1: a job touches *every* partition
of its input table.  Each map task pays container startup + a full scan +
CPU over the partition; map outputs are shuffled (hash-partitioned by key)
to reducer nodes; reduce tasks aggregate; results return to the driver.

``map_fn`` and ``reduce_fn`` are real Python callables over the real data,
so results are exact; only the *costs* are simulated.
"""

from __future__ import annotations

import heapq
import zlib
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.common.accounting import CostMeter, CostReport
from repro.common.errors import PartitionLostError
from repro.common.validation import require
from repro.cluster.storage import DistributedStore, StoredTable
from repro.data.tabular import Table
from repro.engine.bdas import BDASStack
from repro.engine.pruning import SCAN, SKIP, SYNOPSIS, ScanPlan
from repro.engine.resources import ResourceManager
from repro.faults.policy import FailoverPolicy
from repro.obs.observer import NULL_OBSERVER, Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.colscan import ColumnScan

MapFn = Callable[[Table], Iterable[Tuple[Any, Any]]]
ReduceFn = Callable[[Any, List[Any]], Any]

_KV_OVERHEAD_BYTES = 16


def stable_hash(key: Any) -> int:
    """Deterministic key hash (Python's ``hash`` is salted per process)."""
    return zlib.crc32(repr(key).encode())


def estimate_payload_bytes(value: Any) -> int:
    """Serialized-size estimate for shuffle/result payloads."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, Table):
        return value.n_bytes
    if isinstance(value, (list, tuple)):
        return sum(estimate_payload_bytes(v) for v in value) + 8
    if isinstance(value, dict):
        return (
            sum(
                estimate_payload_bytes(k) + estimate_payload_bytes(v)
                for k, v in value.items()
            )
            + 8
        )
    if isinstance(value, (bytes, str)):
        return len(value)
    return 8  # scalar


class ScanExecutor:
    """Where a shared pass calls its kernel: here, one partition after another.

    The kernels are pure compute; every charge is replayed afterwards in
    partition order (DESIGN, "Why scans run inline").  This is an object
    rather than a loop because the end-to-end benchmark's tracer shadows
    ``run`` on the live ``session.executor`` to time the pass and count
    the partitions it read.
    """

    def run(self, payloads: List[Any], fn: Callable[[Any], Any]) -> List[Any]:
        """``fn`` of every payload, on the calling thread, in input order."""
        return [fn(payload) for payload in payloads]


class MapReduceEngine:
    """Hadoop/Spark-style engine: full fan-out map, shuffle, reduce."""

    def __init__(
        self,
        store: DistributedStore,
        resources: Optional[ResourceManager] = None,
        stack: Optional[BDASStack] = None,
        rates: Optional["CostRates"] = None,
        observer: Optional[Observer] = None,
        failover: Optional[FailoverPolicy] = None,
    ) -> None:
        self.store = store
        self.topology = store.topology
        self.resources = resources or ResourceManager(store.topology)
        self.stack = stack or BDASStack()
        self.rates = rates
        self.observer = observer or NULL_OBSERVER
        self.failover = failover or FailoverPolicy()
        self.executor = ScanExecutor()

    def attach_observer(self, observer: Observer) -> None:
        """Record traces/metrics/events for subsequent jobs on ``observer``."""
        self.observer = observer

    @contextmanager
    def _phase(self, obs: Observer, name: str, meter: CostMeter):
        """One engine phase: a trace span plus a flight-recorder note.

        The note carries the phase's *simulated* elapsed seconds (a
        meter delta), never host seconds, so profiles repeat byte for
        byte from run to run.
        """
        before = meter.elapsed_sec
        with obs.span(name, meter=meter, category="phase"):
            yield
        if obs.enabled:
            obs.profile_note(
                "phase", name=name, seconds=meter.elapsed_sec - before
            )

    def run(
        self,
        table_name: str,
        map_fn: MapFn,
        reduce_fn: ReduceFn,
        n_reducers: int = 0,
        driver_node: Optional[str] = None,
        meter: Optional[CostMeter] = None,
        plan: Optional[ScanPlan] = None,
        on_lost: str = "raise",
        lost: Optional[List[int]] = None,
        scan: Optional["ColumnScan"] = None,
    ) -> Tuple[Dict[Any, Any], CostReport]:
        """Execute one job; returns (results-by-key, cost report).

        ``plan`` (a zone-map :class:`~repro.engine.pruning.ScanPlan`)
        restricts the fan-out: skipped partitions are never read, never
        charged, and their nodes are never engaged; covered partitions
        emit their precomputed synopsis partials for the price of a
        metadata read.  Without a plan every partition is scanned.

        ``scan`` (a :class:`~repro.engine.colscan.ColumnScan`) enables
        column pruning on columnar-layout partitions: map tasks read only
        the scan's columns in encoded form (``map_fn`` then receives a
        :class:`~repro.cluster.columnar.ColumnarPartition` instead of a
        :class:`Table` and must handle both), and the meter charges the
        encoded bytes actually read.  Row-major partitions ignore it.

        With a fault injector attached to the store, scans run through
        the engine's :class:`~repro.faults.FailoverPolicy`.  A partition
        with no live replica raises :class:`PartitionLostError` when
        ``on_lost="raise"`` (the default); with ``on_lost="skip"`` the
        partition contributes nothing and its index is appended to the
        caller-supplied ``lost`` list (degrade-mode engines reconcile it).
        """
        require(on_lost in ("raise", "skip"), f"unknown on_lost {on_lost!r}")
        stored = self.store.table(table_name)
        require(len(stored.partitions) >= 1, "table has no partitions")
        if plan is not None:
            require(
                len(plan.actions) == len(stored.partitions),
                f"plan covers {len(plan.actions)} partitions, "
                f"table has {len(stored.partitions)}",
            )
        obs = self.observer
        if meter is None:
            watcher = obs if obs.enabled else None
            meter = (
                CostMeter(self.rates, observer=watcher)
                if self.rates
                else CostMeter(observer=watcher)
            )
        elif not obs.enabled and meter.observer is not None:
            obs = meter.observer  # caller-attached observer travels with the meter
        driver = driver_node or self.topology.pick_coordinator()
        reducers = self._reducer_nodes(stored, n_reducers)

        engaged = self._engaged_nodes(stored, reducers, plan)
        with obs.span(
            "mapreduce", meter=meter, category="job", table=table_name
        ):
            with self._phase(obs, "submit", meter):
                meter.advance(self.stack.charge_submission(meter, driver, engaged))

            with self._phase(obs, "map", meter):
                map_outputs, map_elapsed = self._map_phase(
                    stored,
                    map_fn,
                    meter,
                    obs,
                    plan=plan,
                    driver=driver,
                    on_lost=on_lost,
                    lost=lost,
                    scan=scan,
                )
                meter.advance(map_elapsed)

            with self._phase(obs, "shuffle", meter):
                grouped, ingest_bytes, shuffle_elapsed = self._shuffle_phase(
                    map_outputs, reducers, meter
                )
                meter.advance(shuffle_elapsed)

            with self._phase(obs, "reduce", meter):
                results, reduce_elapsed = self._reduce_phase(
                    grouped, reduce_fn, reducers, meter, obs, ingest_bytes
                )
                meter.advance(reduce_elapsed)

            with self._phase(obs, "collect", meter):
                meter.advance(self._collect_phase(results, reducers, driver, meter))
                meter.advance(self.stack.charge_result_return(meter, driver))
        return results, meter.freeze()

    def run_many(
        self,
        table_name: str,
        multi_map_fn: Callable[..., List[List[Tuple[Any, Any]]]],
        reduce_fns: List[ReduceFn],
        n_reducers: int = 0,
        driver_node: Optional[str] = None,
        plans: Optional[List[Optional[ScanPlan]]] = None,
        profile_targets: Optional[List[Any]] = None,
        scans: Optional[List[Optional["ColumnScan"]]] = None,
    ) -> List[Tuple[Dict[Any, Any], CostReport]]:
        """Execute many jobs over one table, sharing the real partition pass.

        ``multi_map_fn(partition)`` returns one pair-list per job, computed
        in a single pass over the partition's data; each job's simulated
        charges are then replayed with a fresh meter through exactly the
        phase sequence :meth:`run` uses, so job ``j``'s (results, report)
        is identical to ``run(table_name, map_fn_j, reduce_fns[j], ...)``.
        Only real wall-clock work is shared — the cost model still sees
        every job pay its own scan.

        With ``plans`` (one zone-map :class:`ScanPlan` per job, or None
        for scan-everything), a partition is read once iff *some* job in
        the wave scans it, and ``multi_map_fn(partition, active)`` is
        called with the indices of those jobs, returning their outputs
        only; skipped and synopsis-covered partitions never touch the
        real data.

        ``profile_targets`` (one query-like object per job, or None)
        routes each job's phase notes to that object's open flight
        record during the per-job charge replay.

        ``scans`` (one :class:`ColumnScan` or None per job) enables
        column pruning per job, exactly as :meth:`run`'s ``scan``.  A
        columnar partition's shared pass reads the *union* of the active
        jobs' scan columns (only when every active job pushed one down —
        a single row-path job forces the full row payload so its map
        function sees what it expects); each job's charge replay still
        pays for its own columns only.
        """
        stored = self.store.table(table_name)
        require(len(stored.partitions) >= 1, "table has no partitions")
        n_jobs = len(reduce_fns)
        if n_jobs == 0:
            return []
        if plans is not None:
            require(
                len(plans) == n_jobs,
                f"{len(plans)} plans for {n_jobs} jobs",
            )
        if profile_targets is not None:
            require(
                len(profile_targets) == n_jobs,
                f"{len(profile_targets)} profile targets for {n_jobs} jobs",
            )
        if scans is not None:
            require(
                len(scans) == n_jobs, f"{len(scans)} scans for {n_jobs} jobs"
            )
        faults = self.store.faults
        if faults is not None and faults.active:
            # Fault outcomes are drawn per read attempt from the injector's
            # seeded stream, so one shared pass cannot replay each job's
            # charges faithfully; under active faults every job runs its
            # own failure-aware pass (amortisation resumes when healthy).
            out = []
            for j in range(n_jobs):

                def job_map_fn(data, j=j):
                    if plans is not None:
                        return multi_map_fn(data, [j])[0]
                    return multi_map_fn(data)[j]

                target = (
                    profile_targets[j] if profile_targets is not None else None
                )
                with self.observer.profile_activate(target):
                    out.append(
                        self.run(
                            table_name,
                            job_map_fn,
                            reduce_fns[j],
                            n_reducers=n_reducers,
                            driver_node=driver_node,
                            plan=plans[j] if plans is not None else None,
                            scan=scans[j] if scans is not None else None,
                        )
                    )
            return out
        # Shared real pass: every job's map outputs from one read of each
        # partition, computed before any charging so the replay below can
        # interleave charges per job in sequential order.  Outputs are
        # indexed by partition position; entries a job never scans stay
        # None (its plan covers them from the synopsis or skips them).
        obs = self.observer
        n_parts = len(stored.partitions)
        outputs_per_job: List[List[Optional[List[Tuple[Any, Any]]]]] = [
            [None] * n_parts for _ in range(n_jobs)
        ]
        actives: Dict[int, List[int]] = {}
        payloads: List[Tuple[Any, Optional[List[int]]]] = []
        # The all-jobs column union recurs for every fully active
        # partition (the common case — unclustered data defeats the zone
        # maps job by job together); compute it once, not per partition.
        all_pushed = scans is not None and all(s is not None for s in scans)
        full_union: Optional[tuple] = None
        if all_pushed:
            merged: Dict[str, None] = {}
            for s in scans:
                merged.update(dict.fromkeys(s.columns))
            full_union = tuple(merged)
        for index, partition in enumerate(stored.partitions):
            if plans is None:
                active = list(range(n_jobs))
            else:
                active = [
                    j
                    for j in range(n_jobs)
                    if plans[j] is None or plans[j].actions[index] == SCAN
                ]
                if not active:
                    continue
            actives[index] = active
            # Column pruning for the shared pass: read the union of the
            # active jobs' scan columns iff every active job pushed one
            # down (a row-path job needs the full Table payload).  A
            # dirty partition (staged delta writes) is read through its
            # base+delta view: the encoded columns hold the base only.
            if (
                scans is not None
                and partition.columnar is not None
                and not partition.dirty
                and all(scans[j] is not None for j in active)
            ):
                if full_union is not None and len(active) == n_jobs:
                    columns = full_union
                else:
                    union: Dict[str, None] = {}
                    for j in active:
                        union.update(dict.fromkeys(scans[j].columns))
                    columns = tuple(union)
                data = partition.columnar.project(columns)
            else:
                data = partition.read_view()
            payloads.append((data, active if plans is not None else None))

        def shared_pass(payload):
            data, active = payload
            if active is None:
                return multi_map_fn(data)
            return multi_map_fn(data, active)

        per_part = self.executor.run(payloads, shared_pass)
        for (index, active), per_job in zip(actives.items(), per_part):
            require(
                len(per_job) == len(active),
                f"multi_map_fn returned {len(per_job)} outputs "
                f"for {len(active)} active jobs",
            )
            for j, pairs in zip(active, per_job):
                outputs_per_job[j][index] = list(pairs)
        out: List[Tuple[Dict[Any, Any], CostReport]] = []
        for j in range(n_jobs):
            plan = plans[j] if plans is not None else None
            watcher = obs if obs.enabled else None
            meter = (
                CostMeter(self.rates, observer=watcher)
                if self.rates
                else CostMeter(observer=watcher)
            )
            driver = driver_node or self.topology.pick_coordinator()
            reducers = self._reducer_nodes(stored, n_reducers)
            engaged = self._engaged_nodes(stored, reducers, plan)
            target = profile_targets[j] if profile_targets is not None else None
            with obs.profile_activate(target), obs.span(
                "mapreduce", meter=meter, category="job", table=table_name
            ):
                with self._phase(obs, "submit", meter):
                    meter.advance(
                        self.stack.charge_submission(meter, driver, engaged)
                    )
                with self._phase(obs, "map", meter):
                    map_outputs, map_elapsed = self._map_phase(
                        stored,
                        None,
                        meter,
                        obs,
                        precomputed=outputs_per_job[j],
                        plan=plan,
                        scan=scans[j] if scans is not None else None,
                    )
                    meter.advance(map_elapsed)
                with self._phase(obs, "shuffle", meter):
                    grouped, ingest_bytes, shuffle_elapsed = self._shuffle_phase(
                        map_outputs, reducers, meter
                    )
                    meter.advance(shuffle_elapsed)
                with self._phase(obs, "reduce", meter):
                    results, reduce_elapsed = self._reduce_phase(
                        grouped, reduce_fns[j], reducers, meter, obs, ingest_bytes
                    )
                    meter.advance(reduce_elapsed)
                with self._phase(obs, "collect", meter):
                    meter.advance(
                        self._collect_phase(results, reducers, driver, meter)
                    )
                    meter.advance(self.stack.charge_result_return(meter, driver))
            out.append((results, meter.freeze()))
        return out

    # Phases ----------------------------------------------------------------
    def _engaged_nodes(
        self,
        stored: StoredTable,
        reducers: List[str],
        plan: Optional[ScanPlan],
    ) -> set:
        """Nodes the job touches: mappers surviving the plan + reducers.

        Zone-map-skipped partitions drop out entirely — their nodes never
        see the job, which is the paper's "touch only the data that can
        matter" at the stack-submission layer too.  Under fault
        injection, a crashed primary is replaced by the partition's
        preferred live replica, and fully lost partitions engage nobody.
        """
        mappers = set()
        for index, partition in enumerate(stored.partitions):
            if plan is not None and plan.actions[index] == SKIP:
                continue
            node = self._mapper_node(partition)
            if node is not None:
                mappers.add(node)
        return mappers | set(reducers)

    def _mapper_node(self, partition) -> Optional[str]:
        """The node a map task over ``partition`` lands on (None if lost)."""
        faults = self.store.faults
        if faults is None or not faults.active:
            return partition.primary_node
        if not faults.is_down(partition.primary_node):
            return partition.primary_node
        live = [n for n in partition.replica_nodes if not faults.is_down(n)]
        if not live:
            return None
        return min(live, key=self.store.served_bytes)

    def _map_phase(
        self,
        stored: StoredTable,
        map_fn: Optional[MapFn],
        meter: CostMeter,
        obs: Observer = NULL_OBSERVER,
        precomputed: Optional[List[Optional[List[Tuple[Any, Any]]]]] = None,
        plan: Optional[ScanPlan] = None,
        driver: Optional[str] = None,
        on_lost: str = "raise",
        lost: Optional[List[int]] = None,
        scan: Optional["ColumnScan"] = None,
    ) -> Tuple[List[Tuple[str, List[Tuple[Any, Any]]]], float]:
        """Run one map task per partition; returns (per-node outputs, elapsed).

        With ``precomputed`` (pair-lists indexed by partition position,
        from a shared batch pass) the per-partition charges are identical
        but the map function is not re-run.  With ``plan``, skipped
        partitions charge nothing and synopsis-covered partitions charge
        only the metadata read while emitting the plan's partials.
        Under fault injection, scans fail over between replicas via
        :attr:`failover` (probes, retries, and hops charged to ``meter``)
        and a fully lost partition either raises or — with
        ``on_lost="skip"`` — is recorded in ``lost`` and skipped.
        """
        faults = self.store.faults
        faulty = faults is not None and faults.active
        node_tasks: Dict[str, List[float]] = defaultdict(list)
        outputs: List[Tuple[str, List[Tuple[Any, Any]]]] = []
        tracing = obs.enabled
        phase_start = obs.now if tracing else 0.0
        spans: List[Tuple[str, str, float, Dict[str, Any]]] = []
        for index, partition in enumerate(stored.partitions):
            action = SCAN if plan is None else plan.actions[index]
            if action == SKIP:
                continue
            node = partition.primary_node
            if action == SYNOPSIS:
                # The region server answers from block metadata: no task
                # container, no scan bytes — just a tiny statistics read.
                seconds = meter.charge_cpu(
                    node, plan.synopsis_bytes.get(index, 0)
                )
                pairs = list(plan.pairs[index])
                outputs.append((node, pairs))
                if tracing:
                    spans.append(
                        (
                            f"synopsis:{partition.partition_id}",
                            node,
                            seconds,
                            {"rows": 0, "bytes": 0},
                        )
                    )
                node_tasks[node].append(seconds)
                continue
            # Columnar fast path: with a pushed-down scan over a columnar
            # partition, the task reads only the scan's columns in encoded
            # form.  read_bytes — what the disk/CPU formulas and spans see
            # — is then the projected encoded footprint; otherwise it is
            # the partition's stored footprint (== row bytes for row
            # layout, so the historical charges are bit-identical).
            use_cols = scan is not None and partition.columnar is not None
            if faulty:
                try:
                    data, node, fault_seconds = self.failover.read_partition(
                        self.store,
                        partition,
                        meter,
                        requester=driver,
                        obs=obs,
                        columns=scan.columns if use_cols else None,
                    )
                except PartitionLostError:
                    if on_lost == "skip":
                        if lost is not None:
                            lost.append(index)
                        continue
                    raise
                read_bytes = data.encoded_bytes if use_cols else partition.stored_bytes
                seconds = meter.charge_task_startup(node)
                seconds += fault_seconds
                seconds += (
                    read_bytes
                    * self.store.read_slowdown(node)
                    / meter.rates.disk_bytes_per_sec
                )
            else:
                seconds = meter.charge_task_startup(node)
                if use_cols:
                    data = self.store.read_columns(partition, scan.columns, meter)
                else:
                    data = self.store.read_partition(partition, meter)
                read_bytes = data.encoded_bytes if use_cols else partition.stored_bytes
                seconds += read_bytes / meter.rates.disk_bytes_per_sec
            seconds += meter.charge_cpu(node, read_bytes)
            pairs = (
                precomputed[index] if precomputed is not None else list(map_fn(data))
            )
            outputs.append((node, pairs))
            if tracing:
                spans.append(
                    (
                        f"map:{partition.partition_id}",
                        node,
                        seconds,
                        {"rows": data.n_rows, "bytes": read_bytes},
                    )
                )
            node_tasks[node].append(seconds)
        if tracing:
            self._record_task_spans(obs, phase_start, spans)
        return outputs, self.resources.makespan_per_node(node_tasks)

    def _record_task_spans(
        self,
        obs: Observer,
        phase_start: float,
        tasks: List[Tuple[str, str, float, Dict[str, Any]]],
    ) -> None:
        """Lay per-node task spans out on slot tracks.

        Replays the same LPT-greedy schedule as
        :meth:`ResourceManager.makespan`, so the last task span ends
        exactly when the phase's simulated elapsed time says it does.
        """
        per_node: Dict[str, List[Tuple[str, float, Dict[str, Any]]]] = (
            defaultdict(list)
        )
        for name, node, seconds, extra in tasks:
            per_node[node].append((name, seconds, extra))
        for node, node_tasks in per_node.items():
            n_slots = min(self.resources.slots_per_node, len(node_tasks))
            slots = [(0.0, i) for i in range(n_slots)]
            for name, seconds, extra in sorted(
                node_tasks, key=lambda t: t[1], reverse=True
            ):
                busy_until, slot = heapq.heappop(slots)
                track = node if slot == 0 else f"{node}#{slot + 1}"
                obs.record_span(
                    name,
                    phase_start + busy_until,
                    seconds,
                    category="task",
                    track=track,
                    **extra,
                )
                heapq.heappush(slots, (busy_until + seconds, slot))

    def _shuffle_phase(
        self,
        map_outputs: List[Tuple[str, List[Tuple[Any, Any]]]],
        reducers: List[str],
        meter: CostMeter,
    ) -> Tuple[Dict[str, Dict[Any, List[Any]]], Dict[str, int], float]:
        """Hash-partition map outputs to reducer nodes.

        Returns (grouped data, per-reducer ingest bytes, elapsed).  The
        ingest-byte totals double as the reduce phase's input-byte
        accounting, so payload sizes are estimated once per emitted pair
        for the whole job.  ``stable_hash`` is memoized per key — map
        outputs repeat the same few keys across every partition.
        """
        grouped: Dict[str, Dict[Any, List[Any]]] = {r: defaultdict(list) for r in reducers}
        transfer_seconds: Dict[str, float] = defaultdict(float)
        ingest_bytes: Dict[str, int] = defaultdict(int)
        hash_memo: Dict[Any, int] = {}
        for src_node, pairs in map_outputs:
            by_reducer: Dict[str, int] = defaultdict(int)
            for key, value in pairs:
                key_hash = hash_memo.get(key)
                if key_hash is None:
                    key_hash = hash_memo[key] = stable_hash(key)
                reducer = reducers[key_hash % len(reducers)]
                grouped[reducer][key].append(value)
                by_reducer[reducer] += _KV_OVERHEAD_BYTES + estimate_payload_bytes(
                    value
                )
            for reducer, num_bytes in by_reducer.items():
                ingest_bytes[reducer] += num_bytes
                if reducer == src_node:
                    continue
                wan = self.topology.is_wan(src_node, reducer)
                transfer_seconds[src_node] += meter.charge_transfer(
                    src_node, reducer, num_bytes, wan=wan
                )
        send = max(transfer_seconds.values()) if transfer_seconds else 0.0
        # Each reducer's NIC serialises its incoming shuffle traffic.
        ingest = (
            max(ingest_bytes.values()) / meter.rates.lan_bytes_per_sec
            if ingest_bytes
            else 0.0
        )
        return grouped, dict(ingest_bytes), max(send, ingest)

    def _reduce_phase(
        self,
        grouped: Dict[str, Dict[Any, List[Any]]],
        reduce_fn: ReduceFn,
        reducers: List[str],
        meter: CostMeter,
        obs: Observer = NULL_OBSERVER,
        ingest_bytes: Optional[Dict[str, int]] = None,
    ) -> Tuple[Dict[Any, Any], float]:
        results: Dict[Any, Any] = {}
        node_tasks: Dict[str, List[float]] = defaultdict(list)
        tracing = obs.enabled
        phase_start = obs.now if tracing else 0.0
        spans: List[Tuple[str, str, float, Dict[str, Any]]] = []
        for reducer in reducers:
            seconds = meter.charge_task_startup(reducer)
            if ingest_bytes is not None:
                # The shuffle already summed this reducer's input payloads.
                in_bytes = ingest_bytes.get(reducer, 0)
            else:
                in_bytes = sum(
                    _KV_OVERHEAD_BYTES + estimate_payload_bytes(v)
                    for values in grouped[reducer].values()
                    for v in values
                )
            seconds += meter.charge_cpu(reducer, in_bytes)
            for key, values in grouped[reducer].items():
                results[key] = reduce_fn(key, values)
            if tracing:
                spans.append(
                    (
                        f"reduce:{reducer}",
                        reducer,
                        seconds,
                        {"keys": len(grouped[reducer]), "bytes": in_bytes},
                    )
                )
            node_tasks[reducer].append(seconds)
        if tracing:
            self._record_task_spans(obs, phase_start, spans)
        return results, self.resources.makespan_per_node(node_tasks)

    def _collect_phase(
        self,
        results: Dict[Any, Any],
        reducers: List[str],
        driver: str,
        meter: CostMeter,
    ) -> float:
        elapsed = 0.0
        result_bytes = sum(
            _KV_OVERHEAD_BYTES + estimate_payload_bytes(v) for v in results.values()
        )
        share = result_bytes // max(1, len(reducers))
        for reducer in reducers:
            if reducer == driver:
                continue
            wan = self.topology.is_wan(reducer, driver)
            elapsed = max(
                elapsed, meter.charge_transfer(reducer, driver, share, wan=wan)
            )
        return elapsed

    def _reducer_nodes(self, stored: StoredTable, n_reducers: int) -> List[str]:
        if n_reducers <= 0:
            n_reducers = max(1, len(stored.nodes) // 2)
        nodes = self.topology.node_ids
        return nodes[: min(n_reducers, len(nodes))]
