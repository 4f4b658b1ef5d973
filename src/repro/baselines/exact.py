"""The traditional exact path: every query is a full job over the BDAS.

This is Fig. 1 made executable.  Each analytical query becomes a MapReduce
job that scans *every* partition of the target table, computes per-partition
aggregate partials (or raw values for holistic aggregates), shuffles them to
a reducer and merges.  The answer is exact; the cost is what the paper
complains about: proportional to data size and node count, through all the
stack layers.

Zone-map pruning (on by default, ``pruning=False`` restores the seed
behaviour) intersects each query's bounding box with the stored table's
partition synopses before the fan-out: disjoint partitions are skipped,
fully covered range-selected partitions short-circuit decomposable
aggregates from synopsis statistics, and everything else scans.  Answers
are bit-identical either way — only the cost changes.

Under fault injection the engine reads through its
:class:`~repro.faults.FailoverPolicy` (retry, then replica failover).
When every replica of a needed partition is down, ``failure_mode``
decides the outcome: ``"fail"`` raises
:class:`~repro.common.errors.PartitionLostError`; ``"degrade"`` answers
from the survivors plus the lost partitions' zone-map synopses and
returns a :class:`~repro.faults.DegradedAnswer` carrying the exact
coverage fraction and deterministic error bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.accounting import CostReport
from repro.common.errors import StorageError
from repro.common.validation import require
from repro.cluster.storage import DistributedStore
from repro.data.tabular import Table
from repro.engine.bdas import BDASStack
from repro.engine.colscan import ColumnScan, scan_columns
from repro.engine.mapreduce import MapReduceEngine
from repro.engine.pruning import SCAN, SKIP, SYNOPSIS, ScanPlan, plan_scan, synopsis_partial
from repro.engine.resources import ResourceManager
from repro.engine.specs import BatchPartialSpec, QueryPartialSpec
from repro.faults.degraded import UnknownChunk, build_degraded_answer
from repro.faults.policy import FailoverPolicy
from repro.queries.query import AnalyticsQuery, Answer


class ExactEngine:
    """Exact analytical-query execution via MapReduce over the full table."""

    def __init__(
        self,
        store: DistributedStore,
        resources: Optional[ResourceManager] = None,
        stack: Optional[BDASStack] = None,
        rates=None,
        observer=None,
        pruning: bool = True,
        failure_mode: str = "fail",
        failover: Optional[FailoverPolicy] = None,
    ) -> None:
        require(
            failure_mode in ("fail", "degrade"),
            f"unknown failure_mode {failure_mode!r}",
        )
        self.store = store
        self.pruning = pruning
        self.failure_mode = failure_mode
        self._engine = MapReduceEngine(
            store,
            resources=resources,
            stack=stack,
            rates=rates,
            observer=observer,
            failover=failover,
        )

    @property
    def executor(self):
        """The object whose ``run`` makes ``execute_many``'s shared pass."""
        return self._engine.executor

    @property
    def observer(self):
        return self._engine.observer

    def attach_observer(self, observer) -> None:
        """Record traces/metrics for subsequent executions on ``observer``."""
        self._engine.attach_observer(observer)

    def plan_for(self, query: AnalyticsQuery) -> Optional[ScanPlan]:
        """Zone-map scan plan for one query, or None when pruning is off
        or the table's synopses are unavailable/misaligned."""
        if not self.pruning:
            return None
        try:
            synopses = self.store.synopses(query.table_name)
            stored = self.store.table(query.table_name)
        except StorageError:
            return None
        if len(synopses) != len(stored.partitions):
            return None
        plan = plan_scan(synopses, query.selection, query.aggregate, emit_key=0)
        return self._downgrade_dirty(stored, plan, query)

    @staticmethod
    def _downgrade_dirty(stored, plan: ScanPlan, query: AnalyticsQuery) -> ScanPlan:
        """Re-verify zone-map shortcuts against staged delta writes.

        Base synopses describe base images only, so for a dirty
        partition a SYNOPSIS short-circuit is never sound (pending
        deletes or delta rows change the partial) and a SKIP survives
        only if the delta memtable is *also* disjoint from the query box
        (tombstones alone cannot un-skip: deletes only remove rows).
        """
        lows = highs = None
        for index, partition in enumerate(stored.partitions):
            delta = partition.delta
            if delta is None or not delta.dirty:
                continue
            action = plan.actions[index]
            if action == SYNOPSIS:
                plan.actions[index] = SCAN
                plan.pairs.pop(index, None)
                plan.synopsis_bytes.pop(index, None)
            elif action == SKIP and delta.n_rows:
                if lows is None:
                    lows, highs = query.selection.box()
                delta_synopsis = delta.synopsis()
                if delta_synopsis is None or not delta_synopsis.disjoint(
                    query.selection.columns, lows, highs
                ):
                    plan.actions[index] = SCAN
        return plan

    def scan_for(self, query: AnalyticsQuery) -> Optional[ColumnScan]:
        """Column-pruned scan for one query, or None (read full rows).

        Pushdown engages only when every partition of the table carries a
        columnar layout and the query's selection/aggregate column sets
        are statically known (:func:`scan_columns`); anything else falls
        back to the bit-identical row path.
        """
        try:
            stored = self.store.table(query.table_name)
        except StorageError:
            return None
        if not stored.columnar:
            return None
        if any(p.dirty for p in stored.partitions):
            # Encoded images cover base rows only; staged delta writes
            # force the row path until the next compaction re-encodes.
            return None
        return scan_columns(query.selection, query.aggregate)

    def _note_plan(
        self,
        query: AnalyticsQuery,
        plan: Optional[ScanPlan],
        scan: Optional[ColumnScan] = None,
    ) -> None:
        obs = self._engine.observer
        if not obs.enabled:
            return
        if plan is not None:
            labels = {"table": query.table_name}
            obs.inc("prune_partitions_scanned_total", plan.n_scanned, **labels)
            obs.inc("prune_partitions_skipped_total", plan.n_skipped, **labels)
            obs.inc("prune_partitions_covered_total", plan.n_covered, **labels)
            obs.event(
                "pruning",
                table=query.table_name,
                aggregate=type(query.aggregate).__name__,
                scanned=plan.n_scanned,
                skipped=plan.n_skipped,
                covered=plan.n_covered,
            )
        self._profile_plan(query, plan, scan=scan)

    def _profile_plan(
        self,
        query: AnalyticsQuery,
        plan: Optional[ScanPlan],
        lost: Optional[Set[int]] = None,
        pruned: Optional[bool] = None,
        scan: Optional[ColumnScan] = None,
    ) -> None:
        """Fold the per-partition plan tree into the query's flight record.

        ``plan=None`` profiles as an unpruned scan-everything plan.
        ``lost`` (degrade mode) re-labels partitions the fault layer
        could not read — unless the synopsis recovered them exactly —
        so a profile's per-partition ``read_bytes`` always reconcile
        with what the CostMeter actually charged.
        """
        obs = self._engine.observer
        if not obs.enabled:
            return
        try:
            stored = self.store.table(query.table_name)
        except StorageError:
            return
        if plan is not None and len(plan.actions) != len(stored.partitions):
            return
        partitions = []
        for index, partition in enumerate(stored.partitions):
            action = SCAN if plan is None else plan.actions[index]
            if action == SYNOPSIS:
                read_bytes = int(plan.synopsis_bytes.get(index, 0))
            elif action == SCAN and (lost is None or index not in lost):
                if scan is not None and partition.columnar is not None:
                    # Column-pruned encoded scan: the projected columns'
                    # encoded bytes — exactly what read_columns charges.
                    read_bytes = int(partition.columnar.column_bytes(scan.columns))
                else:
                    read_bytes = int(partition.stored_bytes)
            else:
                read_bytes = 0
                if lost is not None and index in lost:
                    action = "lost"
            delta = getattr(partition, "delta", None)
            partitions.append(
                (
                    action,
                    int(partition.n_rows),
                    int(partition.n_bytes),
                    read_bytes,
                    int(partition.stored_bytes),
                    int(delta.n_rows) if delta is not None else 0,
                )
            )
        obs.profile_note(
            "plan",
            query=query,
            pruned=plan is not None if pruned is None else pruned,
            partitions=partitions,
        )

    def _job_fns(self, query: AnalyticsQuery):
        aggregate = query.aggregate

        # The map kernel is a picklable spec (one code object shared by
        # the serial, thread, and process paths — see repro.engine.specs
        # for the encoded/row dispatch it preserves verbatim).
        map_fn = QueryPartialSpec(query.selection, aggregate)

        def reduce_fn(key, partials):
            return aggregate.merge(partials)

        return map_fn, reduce_fn

    def execute(self, query: AnalyticsQuery) -> Tuple[Answer, CostReport]:
        """Run ``query`` exactly; returns (answer, cost report).

        Under active fault injection with ``failure_mode="degrade"``,
        partitions with no live replica are answered from their zone-map
        synopses where that is exact and otherwise bounded, yielding a
        :class:`~repro.faults.DegradedAnswer` instead of an exact value.
        With ``failure_mode="fail"`` (the default) a lost partition
        raises :class:`~repro.common.errors.PartitionLostError`.
        """
        faults = self.store.faults
        if faults is not None and faults.active and self.failure_mode == "degrade":
            return self._execute_degraded(query)
        map_fn, reduce_fn = self._job_fns(query)
        plan = self.plan_for(query)
        scan = self.scan_for(query)
        self._note_plan(query, plan, scan=scan)
        with self._engine.observer.profile_activate(query):
            results, report = self._engine.run(
                query.table_name,
                map_fn,
                reduce_fn,
                n_reducers=1,
                plan=plan,
                scan=scan,
            )
        # Every partition pruned -> no map output reached the reducer; the
        # merge of zero partials is the same neutral answer the unpruned
        # job assembles from its all-empty selections.
        answer = results[0] if 0 in results else query.aggregate.merge([])
        return answer, report

    def _aligned_synopses(self, stored) -> Optional[Sequence]:
        try:
            synopses = self.store.synopses(stored.name)
        except StorageError:
            return None
        if len(synopses) != len(stored.partitions):
            return None
        return synopses

    def _execute_degraded(self, query: AnalyticsQuery) -> Tuple[Answer, CostReport]:
        """Degrade-mode execution: survivors + synopses of the dead.

        Partitions whose every replica is down are reclassified before
        the fan-out: provably disjoint from the selection -> exact skip;
        fully covered by a box-exact selection with a decomposable
        aggregate -> the synopsis recovers the partial exactly;
        everything else -> skipped and accounted as an *unknown chunk*
        that widens the returned bounds.  Partitions lost mid-job (every
        replica exhausted its retries) are absorbed the same way.
        """
        aggregate = query.aggregate
        selection = query.selection
        faults = self.store.faults
        stored = self.store.table(query.table_name)
        synopses = self._aligned_synopses(stored)
        plan = self.plan_for(query)
        scan = self.scan_for(query)
        self._note_plan(query, plan, scan=scan)
        if plan is None:
            plan = ScanPlan.scan_everything(len(stored.partitions))

        lows, highs = selection.box()
        columns = selection.columns
        lost: Set[int] = set()
        unknown: Dict[int, UnknownChunk] = {}

        def absorb(index: int, statically: bool) -> None:
            """Reclassify one lost partition; exact where provable."""
            lost.add(index)
            synopsis = synopses[index] if synopses is not None else None
            if stored.partitions[index].dirty:
                # The base synopsis does not describe the staged delta
                # writes, so nothing about the lost partition is provable
                # — absorb it as a fully unknown chunk.
                synopsis = None
            if synopsis is not None:
                if synopsis.disjoint(columns, lows, highs):
                    # No selected row lives there: the skip is exact.
                    if statically:
                        plan.actions[index] = SKIP
                    return
                if (
                    statically
                    and selection.box_is_exact
                    and synopsis.covered_by(columns, lows, highs)
                ):
                    supported, partial = synopsis_partial(aggregate, synopsis)
                    if supported:
                        # Metadata recovers the partial bitwise.
                        plan.actions[index] = SYNOPSIS
                        plan.pairs[index] = [(0, partial)]
                        plan.synopsis_bytes[index] = synopsis.n_bytes
                        return
            if statically:
                plan.actions[index] = SKIP
            if synopsis is not None:
                unknown[index] = UnknownChunk.from_synopsis(synopsis)
            else:
                unknown[index] = UnknownChunk(
                    n_rows=stored.partitions[index].n_rows, stats={}
                )

        for index, partition in enumerate(stored.partitions):
            if plan.actions[index] != SCAN:
                continue  # the plan never touches this partition's data
            if all(faults.is_down(n) for n in partition.all_nodes):
                absorb(index, statically=True)

        map_fn, reduce_fn = self._job_fns(query)
        lost_mid_job: List[int] = []
        obs = self._engine.observer
        with obs.profile_activate(query):
            results, report = self._engine.run(
                query.table_name,
                map_fn,
                reduce_fn,
                n_reducers=1,
                plan=plan,
                on_lost="skip",
                lost=lost_mid_job,
                scan=scan,
            )
        for index in lost_mid_job:
            absorb(index, statically=False)
        # absorb() rewrote plan.actions for lost partitions; re-note so the
        # profile's per-partition tree reflects what was actually read.
        if lost:
            self._profile_plan(
                query, plan, lost=lost, pruned=self.pruning, scan=scan
            )
        value = results[0] if 0 in results else aggregate.merge([])
        if not lost:
            return value, report
        answer = build_degraded_answer(
            aggregate,
            selection,
            value,
            [unknown[i] for i in sorted(unknown)],
            lost_partitions=sorted(lost),
            unknown_partitions=sorted(unknown),
            total_rows=stored.n_rows,
        )
        if obs.enabled:
            obs.inc("fault_degraded_answers_total", table=stored.name)
            obs.event(
                "degraded_answer",
                table=stored.name,
                aggregate=type(aggregate).__name__,
                coverage=answer.coverage,
                bounded=answer.bounded,
                lost=list(answer.lost_partitions),
                unknown=list(answer.unknown_partitions),
            )
            obs.profile_note(
                "degraded",
                query=query,
                coverage=answer.coverage,
                lower=answer.lower,
                upper=answer.upper,
                bounded=answer.bounded,
                lost=list(answer.lost_partitions),
                unknown=list(answer.unknown_partitions),
            )
        return answer, report

    def execute_many(
        self, queries: Sequence[AnalyticsQuery]
    ) -> List[Tuple[Answer, CostReport]]:
        """Run many queries exactly as one shared-scan group per table.

        One real pass over each stored partition evaluates every query's
        selection mask and aggregate partial together (homogeneous range
        selections vectorize into one broadcast per column); the cost
        model still charges each query a full independent job, so query
        ``i``'s (answer, report) is identical to ``execute(queries[i])``.

        While faults are active the shared pass cannot replay each
        query's per-attempt fault draws, so the group falls back to
        sequential failure-aware :meth:`execute` calls.
        """
        faults = self.store.faults
        if faults is not None and faults.active:
            return [self.execute(query) for query in queries]
        out: List[Optional[Tuple[Answer, CostReport]]] = [None] * len(queries)
        by_table: Dict[str, List[int]] = {}
        for index, query in enumerate(queries):
            by_table.setdefault(query.table_name, []).append(index)
        for table_name, indices in by_table.items():
            group = [queries[i] for i in indices]
            selections = [q.selection for q in group]
            aggregates = [q.aggregate for q in group]
            plans = [self.plan_for(q) for q in group]
            scans: Optional[List[Optional[ColumnScan]]] = [
                self.scan_for(q) for q in group
            ]
            for query, plan, scan in zip(group, plans, scans):
                self._note_plan(query, plan, scan=scan)
            if all(p is None for p in plans):
                plans = None
            if all(s is None for s in scans):
                scans = None

            # The shared batch-pass kernel is a picklable spec holding
            # the group's selections/aggregates and their precomputed
            # column sets; its encoded/row dispatch (broadcast masks +
            # per-job late-materialized partials) is the historical
            # ``multi_map_fn`` closure verbatim — see
            # :class:`repro.engine.specs.BatchPartialSpec`.
            multi_map_fn = BatchPartialSpec(selections, aggregates)

            reduce_fns = [
                (lambda key, partials, agg=aggregate: agg.merge(partials))
                for aggregate in aggregates
            ]
            job_results = self._engine.run_many(
                table_name,
                multi_map_fn,
                reduce_fns,
                n_reducers=1,
                plans=plans,
                profile_targets=group,
                scans=scans,
            )
            for position, (index, (results, report)) in enumerate(
                zip(indices, job_results)
            ):
                answer = (
                    results[0]
                    if 0 in results
                    else aggregates[position].merge([])
                )
                out[index] = (answer, report)
        return out  # type: ignore[return-value]

    def ground_truth(self, query: AnalyticsQuery) -> Answer:
        """Answer without cost accounting (for evaluation harnesses)."""
        stored = self.store.table(query.table_name)
        partials = []
        for partition in stored.partitions:
            view = partition.read_view()
            mask = query.selection.mask(view)
            partials.append(query.aggregate.partial_from_mask(view, mask))
        return query.aggregate.merge(partials)
