"""Cost accounting for the simulated distributed substrate.

The paper's claims (Sec. II.A) are architectural: traditional processing
"accesses large numbers of data server nodes ... crunching and transferring
large volumes of data".  We therefore meter exactly those quantities and
derive simulated wall time and money cost from them through a
:class:`CostRates` model, instead of relying on the wall clock of the host
machine (which would measure Python, not the architecture).

Rates default to round numbers in the ballpark of 2018 commodity clusters:
disk scan ~100 MB/s, LAN ~1 GB/s effective, WAN ~50 MB/s with 50 ms RTT,
task startup ~50 ms (a container launch), one stack layer ~2 ms of
dispatch/serialisation per node involved.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable

from repro.common.validation import require_positive


@dataclass(frozen=True)
class CostRates:
    """Conversion rates from metered operations to seconds and dollars."""

    disk_bytes_per_sec: float = 100e6
    cpu_bytes_per_sec: float = 500e6
    lan_bytes_per_sec: float = 1e9
    wan_bytes_per_sec: float = 50e6
    lan_rtt_sec: float = 0.5e-3
    wan_rtt_sec: float = 50e-3
    task_startup_sec: float = 0.05
    layer_overhead_sec: float = 2e-3
    point_read_penalty: float = 10.0
    dollars_per_node_sec: float = 0.10 / 3600.0
    dollars_per_wan_gb: float = 0.08

    def __post_init__(self) -> None:
        for f in fields(self):
            require_positive(getattr(self, f.name), f.name)


@dataclass
class CostReport:
    """Immutable-ish snapshot of the resources one execution consumed.

    ``elapsed_sec`` is *critical-path* simulated time (parallel work on many
    nodes overlaps); ``node_sec`` is total occupancy (work summed over
    nodes), which drives the money cost.
    """

    elapsed_sec: float = 0.0
    node_sec: float = 0.0
    bytes_scanned: int = 0
    bytes_shipped_lan: int = 0
    bytes_shipped_wan: int = 0
    nodes_touched: int = 0
    tasks_launched: int = 0
    layers_crossed: int = 0
    rows_examined: int = 0
    messages: int = 0

    def dollars(self, rates: CostRates = CostRates()) -> float:
        """Money cost: node occupancy plus WAN egress."""
        return (
            self.node_sec * rates.dollars_per_node_sec
            + self.bytes_shipped_wan / 1e9 * rates.dollars_per_wan_gb
        )

    def merged_parallel(self, other: "CostReport") -> "CostReport":
        """Combine two reports for work that ran concurrently.

        Elapsed time is the max of the branches; all consumption totals add.
        """
        merged = self._added_totals(other)
        merged.elapsed_sec = max(self.elapsed_sec, other.elapsed_sec)
        return merged

    def merged_sequential(self, other: "CostReport") -> "CostReport":
        """Combine two reports for work that ran one after the other."""
        merged = self._added_totals(other)
        merged.elapsed_sec = self.elapsed_sec + other.elapsed_sec
        return merged

    def _added_totals(self, other: "CostReport") -> "CostReport":
        return CostReport(
            elapsed_sec=0.0,
            node_sec=self.node_sec + other.node_sec,
            bytes_scanned=self.bytes_scanned + other.bytes_scanned,
            bytes_shipped_lan=self.bytes_shipped_lan + other.bytes_shipped_lan,
            bytes_shipped_wan=self.bytes_shipped_wan + other.bytes_shipped_wan,
            nodes_touched=self.nodes_touched + other.nodes_touched,
            tasks_launched=self.tasks_launched + other.tasks_launched,
            layers_crossed=self.layers_crossed + other.layers_crossed,
            rows_examined=self.rows_examined + other.rows_examined,
            messages=self.messages + other.messages,
        )

    def copy(self) -> "CostReport":
        """An independent report with the same ten fields.

        Spelled out field by field: this runs once per served query, and
        ``as_dict`` reflection cost more than the charges it snapshots.
        """
        return CostReport(
            self.elapsed_sec,
            self.node_sec,
            self.bytes_scanned,
            self.bytes_shipped_lan,
            self.bytes_shipped_wan,
            self.nodes_touched,
            self.tasks_launched,
            self.layers_crossed,
            self.rows_examined,
            self.messages,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view, convenient for tabulation in benchmarks."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CostMeter:
    """Mutable accumulator used while simulating one execution.

    Engines create a meter, charge operations against it, then ``freeze`` it
    into a :class:`CostReport`.  The meter tracks the set of distinct nodes
    it has touched so ``nodes_touched`` counts unique nodes, matching the
    paper's "number of data server nodes accessed" notion.

    ``observer`` is an optional :class:`repro.obs.Observer`: when set, every
    charge is mirrored to ``observer.on_charge(kind, node, bytes, seconds)``
    and components downstream of the meter (the BDAS stack, engines) can
    reach the observer through :attr:`observer`.  The default ``None`` keeps
    the hot path to a single identity check — no allocations per charge.

    The meter is thread-safe: every charge mutates the report under one
    lock, so concurrent charging (the gateway's serve loop and its
    serving thread can share a meter) never loses or tears an update.
    Note that while the *totals* are safe under concurrency, float
    ``node_sec``/``elapsed_sec`` sums are only bit-reproducible when the
    charge order is — which is why the engines replay every charge in
    partition order on the calling thread.
    """

    def __init__(
        self, rates: CostRates = CostRates(), observer=None
    ) -> None:
        self.rates = rates
        self.observer = observer if (observer is not None and observer.enabled) else None
        self._report = CostReport()
        self._touched: set = set()
        self._lock = threading.Lock()

    @property
    def elapsed_sec(self) -> float:
        return self._report.elapsed_sec

    def charge_scan(self, node_id: str, num_bytes: int, rows: int = 0) -> float:
        """Charge a sequential disk scan of ``num_bytes`` on one node."""
        seconds = num_bytes / self.rates.disk_bytes_per_sec
        with self._lock:
            self._touched.add(node_id)
            self._report.bytes_scanned += num_bytes
            self._report.rows_examined += rows
            self._report.node_sec += seconds
        if self.observer is not None:
            self.observer.on_charge("scan", node_id, num_bytes, seconds)
        return seconds

    def charge_point_read(self, node_id: str, num_bytes: int, rows: int = 0) -> float:
        """Charge random (non-sequential) reads of ``num_bytes`` on one node.

        Point reads pay :attr:`CostRates.point_read_penalty` over the
        sequential scan rate — the reason full scans win once a selection
        covers most of a table (the P4 crossover).
        """
        seconds = (
            num_bytes * self.rates.point_read_penalty / self.rates.disk_bytes_per_sec
        )
        with self._lock:
            self._touched.add(node_id)
            self._report.bytes_scanned += num_bytes
            self._report.rows_examined += rows
            self._report.node_sec += seconds
        if self.observer is not None:
            self.observer.on_charge("point_read", node_id, num_bytes, seconds)
        return seconds

    def charge_cpu(self, node_id: str, num_bytes: int) -> float:
        """Charge CPU crunching of ``num_bytes`` on one node."""
        seconds = num_bytes / self.rates.cpu_bytes_per_sec
        with self._lock:
            self._touched.add(node_id)
            self._report.node_sec += seconds
        if self.observer is not None:
            self.observer.on_charge("cpu", node_id, num_bytes, seconds)
        return seconds

    def charge_transfer(
        self, src: str, dst: str, num_bytes: int, wan: bool = False
    ) -> float:
        """Charge a network transfer between two nodes; returns seconds."""
        if wan:
            seconds = self.rates.wan_rtt_sec + num_bytes / self.rates.wan_bytes_per_sec
        else:
            seconds = self.rates.lan_rtt_sec + num_bytes / self.rates.lan_bytes_per_sec
        with self._lock:
            if wan:
                self._report.bytes_shipped_wan += num_bytes
            else:
                self._report.bytes_shipped_lan += num_bytes
            self._touched.add(src)
            self._touched.add(dst)
            self._report.messages += 1
            self._report.node_sec += seconds
        if self.observer is not None:
            self.observer.on_charge(
                "transfer_wan" if wan else "transfer_lan", src, num_bytes, seconds
            )
        return seconds

    def charge_task_startup(self, node_id: str, count: int = 1) -> float:
        """Charge launching ``count`` task containers on one node."""
        seconds = count * self.rates.task_startup_sec
        with self._lock:
            self._touched.add(node_id)
            self._report.tasks_launched += count
            self._report.node_sec += seconds
        if self.observer is not None:
            self.observer.on_charge("task_startup", node_id, 0, seconds)
        return seconds

    def charge_layers(self, node_id: str, layers: int) -> float:
        """Charge crossing ``layers`` stack layers on one node."""
        seconds = layers * self.rates.layer_overhead_sec
        with self._lock:
            self._touched.add(node_id)
            self._report.layers_crossed += layers
            self._report.node_sec += seconds
        if self.observer is not None:
            self.observer.on_charge("layers", node_id, 0, seconds)
        return seconds

    def advance(self, seconds: float) -> None:
        """Advance critical-path (elapsed) time by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        with self._lock:
            self._report.elapsed_sec += seconds

    def freeze(self) -> CostReport:
        """Snapshot the meter into an independent :class:`CostReport`."""
        with self._lock:
            snapshot = self._report.copy()
            snapshot.nodes_touched = len(self._touched)
        return snapshot

    def _touch(self, node_id: str) -> None:
        with self._lock:
            self._touched.add(node_id)

    @staticmethod
    def total(reports: Iterable[CostReport], parallel: bool = False) -> CostReport:
        """Fold many reports into one, sequentially or in parallel."""
        result = CostReport()
        for report in reports:
            if parallel:
                result = result.merged_parallel(report)
            else:
                result = result.merged_sequential(report)
        return result
