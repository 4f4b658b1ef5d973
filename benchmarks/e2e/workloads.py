"""Seeded inputs for the end-to-end benchmark: tables and SQL text.

Everything the program under test receives is made here, from ``--seed``
with numpy only: one five-column table per workload and the statements
sent through the front door.  The *shape* of every input (hotspot
centres, mixture means, request mix, rates, sizes) is a constant of this
file; the seed draws the rows, the statement bounds and the arrival
gaps.  Two runs with one seed get byte-identical inputs, two seeds get
different samples of the same traffic, so a metric compares across
seeds.

Nothing here is derived from a measurement taken at run time: request
counts scale with the ``--seconds`` budget through the ``*_PER_SECOND``
constants below and with nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.data.tabular import Table

TABLE = "data"
COLUMNS = ("ts", "cat", "x0", "x1", "v")
USER_BYTES_PER_ROW = 8 * len(COLUMNS)  # five float64 values

# Column roles.  ``ts`` is arrival-ordered, so contiguous partitions get
# disjoint zone maps (prunable).  ``cat`` is uniform over 100 integers
# (dictionary-encodable, unprunable).  ``x1`` is smooth and uniform: the
# *hot* statements range over (cat, x1), where COUNT and AVG are near
# quadratic in the query vector and the agent's models predict them.
# ``x0`` is a lumpy mixture: statements ranging over it are *novel* —
# their answers defeat the quadratic models, so they reach the engine.
_X0_MEANS = np.array([8.0, 21.0, 37.0, 52.0, 69.0, 88.0])
_X0_SIGMAS = np.array([0.8, 2.5, 1.2, 3.5, 0.6, 2.0])
_X0_BACKGROUND = 0.25  # share of rows drawn uniformly over [0, 100]

#: Hot statements cluster around these (cat, x1) centres.
HOTSPOTS = np.array([[20.0, 25.0], [70.0, 40.0], [35.0, 65.0], [80.0, 80.0]])


@dataclass(frozen=True)
class Workload:
    """Frozen sizes of one workload; ``why`` is the reason it exists."""

    name: str
    why: str
    rows: int
    layout: str
    partitions_per_node: int
    ingest: bool
    ts_run: int  # consecutive rows sharing one ``ts`` value
    warm_requests: int  # per tenant, before the timed window
    freeze_after_warm: bool
    #: Closed loops (and ``open_mixed``'s capacity pass): operations
    #: issued per second of ``--seconds``.
    ops_per_second: float = 0.0
    #: Read-only closed loops: the oracle checks one answer in this many,
    #: and (where few are predicted) every predicted one besides.
    oracle_every: int = 12
    check_every_predicted: bool = False
    #: A second pass with ``gateway.attach_observer()`` on (traced runs).
    observer_pass: bool = False


N_NODES = 8

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot_closed",
            # >= 95 % of requests are answered from the cache or the
            # models, so SQL parse, core bookkeeping, the gateway
            # pass-through and (attached) obs are the whole request
            # while engine and cluster do nothing.
            why="repeated hot statements over a frozen agent: parse, "
            "cache, predictor and gateway pass-through are the whole "
            "request; engine and cluster stay idle",
            rows=200_000,
            layout="row",
            partitions_per_node=4,
            ingest=False,
            ts_run=1,
            warm_requests=6_000,
            freeze_after_warm=True,
            ops_per_second=6_000,
            oracle_every=100,  # everything is predicted here
            observer_pass=True,
        ),
        Workload(
            name="scan_closed",
            # >= 80 % of requests reach ExactEngine.execute, so plan /
            # prune -> encoded scan -> merge -> learn is the request and
            # core's hot path is a few percent of it.
            why="novel range statements over a 2M-row columnar table, "
            "learning on: plan/prune, encoded scan, merge and learn are "
            "the request; the cache and predictor barely matter",
            rows=2_000_000,
            layout="column",
            partitions_per_node=8,
            ingest=False,
            ts_run=100,
            warm_requests=300,  # x1 bands only; learning stays on
            freeze_after_warm=False,
            ops_per_second=300,
            check_every_predicted=True,  # one answer in ten
        ),
        Workload(
            name="mixed_rw",
            # Writes beside reads: a read gain bought with eager
            # re-encoding or heavier epoch closes shows as a write loss.
            why="appends, deletes and epoch closes interleaved with "
            "reads of fresh and of hot data: WAL, deltas, compaction "
            "and recovery work beside the read path",
            rows=500_000,
            layout="row",
            partitions_per_node=4,
            ingest=True,
            ts_run=1,
            warm_requests=1_500,
            freeze_after_warm=False,
            ops_per_second=850,
        ),
        Workload(
            name="open_mixed",
            # Only an arrival schedule builds a queue, so only here do
            # admission, DRR, the adaptive window, shared scans and
            # shedding do any work.
            why="Poisson arrivals from two tenants at fixed rates, below "
            "and far above capacity: queueing, batching, shedding and "
            "deadlines only exist under an arrival schedule",
            rows=1_000_000,
            layout="row",
            partitions_per_node=4,
            ingest=False,
            ts_run=1,
            warm_requests=1_500,
            freeze_after_warm=True,
            ops_per_second=400,  # the closed-loop capacity pass
            oracle_every=25,
        ),
    )
}

# hot_closed -----------------------------------------------------------------
#: Distinct hot statements; 8x the default 2 048-entry AnswerCache, so
#: Zipf draws hit the cache for the head and the predictor for the tail.
HOT_POOL = 16_384
HOT_ZIPF_EXPONENT = 1.0

# mixed_rw -------------------------------------------------------------------
RW_APPEND_ROWS = 512
RW_READS_PER_CYCLE = 8
RW_TAIL_READS_PER_CYCLE = 2  # 25 % exact-bound reads: p50 predicted, p99 exact
RW_DELETE_EVERY = 10  # cycles
RW_DELETE_ROWS = RW_APPEND_ROWS * RW_DELETE_EVERY  # keeps the table size level
RW_ADVANCE_SECONDS = 0.1  # simulated; epoch_seconds=1.0 -> a close per 10 cycles
RW_EPOCH_SECONDS = 1.0
RW_HOT_POOL = 512
#: Operations in one cycle: 1 append + 8 reads + 1 advance + 1/10 delete.
RW_OPS_PER_CYCLE = 1 + RW_READS_PER_CYCLE + 1 + 1.0 / RW_DELETE_EVERY

# open_mixed -----------------------------------------------------------------
OPEN_TENANTS = ("t0", "t1")
OPEN_DEADLINE_S = 0.100
OPEN_HOT_SHARE = 0.70
OPEN_HOT_POOL = 3_000
#: Phases as (name, offered req/s, share of ``--seconds``); a 1 s drain
#: precedes each.  The rates are absolute and frozen here, never derived
#: from a throughput measured at run time.  On the 2-core sizing host the
#: capacity pass reads 1 400-1 700 req/s, and an open loop is answered in
#: full up to 1 200-1 400 req/s.  ``steady`` offers 250 req/s: four in five
#: arrivals find the program idle, so the median request is one of them
#: (at 500 req/s half did, and p50 sat on the edge between the two
#: populations: 0.25-0.75 ms from run to run).  ``overload`` offers twice
#: what the loop can answer.
OPEN_PHASES = (
    ("steady", 250.0, 0.60),
    ("overload", 3_000.0, 0.08),
)
OPEN_DRAIN_S = 1.0


def workload_rng(seed: int, name: str, stream: str) -> np.random.Generator:
    """One independent generator per (seed, workload, purpose)."""
    key = [int(seed)] + [ord(c) for c in f"{name}/{stream}"]
    return np.random.default_rng(key)


# Tables ---------------------------------------------------------------------
def make_rows(
    rng: np.random.Generator, n: int, first_row: int, ts_run: int
) -> Table:
    """``n`` rows continuing the arrival order at row number ``first_row``."""
    index = np.arange(first_row, first_row + n, dtype=np.int64)
    ts = (index // ts_run).astype(float)
    cat = rng.integers(0, 100, n).astype(float)
    component = rng.integers(0, len(_X0_MEANS), n)
    lumpy = rng.normal(_X0_MEANS[component], _X0_SIGMAS[component])
    x0 = np.where(
        rng.random(n) < _X0_BACKGROUND, rng.uniform(0.0, 100.0, n), lumpy
    )
    x0 = np.clip(x0, 0.0, 100.0)
    x1 = rng.uniform(0.0, 100.0, n)
    v = (
        50.0
        + 0.3 * x1
        + 10.0 * np.sin(x1 / 15.0)
        + 0.2 * cat
        + 15.0 * np.sin(x0 / 3.0)
        + rng.normal(0.0, 5.0, n)
    )
    return Table(
        {"ts": ts, "cat": cat, "x0": x0, "x1": x1, "v": v}, name=TABLE
    )


def make_table(workload: Workload, seed: int, scale: float = 1.0) -> Table:
    rows = max(4_096, int(workload.rows * scale))
    rng = workload_rng(seed, workload.name, "table")
    return make_rows(rng, rows, 0, workload.ts_run)


# Statements -----------------------------------------------------------------
def _between(column: str, low: float, high: float) -> str:
    return f"{column} BETWEEN {low:.4f} AND {high:.4f}"


def hot_statement(rng: np.random.Generator, aggregate: str) -> str:
    """A range statement around one of the four (cat, x1) hotspots.

    ``cat`` holds integers, so its bounds snap to half-integers: the
    selected share is then exactly linear in the window's width, not a
    staircase the models would have to average over.
    """
    centre = HOTSPOTS[rng.integers(0, len(HOTSPOTS))] + rng.normal(0.0, 3.0, 2)
    half = rng.uniform(4.0, 10.0, 2)
    return (
        f"SELECT {aggregate} FROM {TABLE} WHERE "
        + _between(
            "cat",
            np.floor(centre[0] - half[0]) + 0.5,
            np.floor(centre[0] + half[0]) + 0.5,
        )
        + " AND "
        + _between("x1", centre[1] - half[1], centre[1] + half[1])
    )


def band_statement(rng: np.random.Generator, aggregate: str) -> str:
    """A one-column ``x1`` band around a hotspot.

    Its signature (table, aggregate, one predicate) is shared with no
    novel statement, so what the agent learns about it is not disturbed
    by the fallbacks around it.
    """
    centre = HOTSPOTS[rng.integers(0, len(HOTSPOTS))][1] + rng.normal(0.0, 3.0)
    half = rng.uniform(4.0, 10.0)
    return (
        f"SELECT {aggregate} FROM {TABLE} WHERE "
        + _between("x1", centre - half, centre + half)
    )


BAND_AGGREGATES = ("COUNT(*)", "SUM(v)", "AVG(v)")


def band_statements(rng: np.random.Generator, n: int) -> List[str]:
    return [band_statement(rng, BAND_AGGREGATES[i % 3]) for i in range(n)]


def hot_pool(rng: np.random.Generator, size: int) -> List[str]:
    """``size`` distinct hot statements, COUNT(*) and AVG(v) alternating."""
    return [
        hot_statement(rng, "COUNT(*)" if i % 2 == 0 else "AVG(v)")
        for i in range(size)
    ]


def zipf_draws(
    rng: np.random.Generator, pool: int, n: int, exponent: float
) -> np.ndarray:
    weights = 1.0 / np.arange(1, pool + 1) ** exponent
    return rng.choice(pool, size=n, p=weights / weights.sum())


def _lumpy_window(rng: np.random.Generator) -> Tuple[float, float]:
    """An ``x0`` window of log-uniform width: the novelty generator."""
    low = rng.uniform(0.0, 95.0)
    width = float(np.exp(rng.uniform(np.log(0.3), np.log(40.0))))
    return low, low + width


def scan_statements(
    rng: np.random.Generator, n: int, ts_max: float
) -> List[str]:
    """Novel ``ts`` windows, nine in ten; learnable bands, one in ten.

    The ``ts`` window covers 10-60 % of the arrival range (zone maps skip
    the rest) and is joined to an unprunable lumpy ``x0`` window, every
    other time also to a ``cat`` window (dictionary predicate).  These
    alternate COUNT(*) and SUM(v), whose answers over a lumpy window no
    model predicts; an AVG(v) over a wide one is nearly constant, and the
    agent came to predict 0.4-1.7 % of them, by the seed.  Every tenth
    statement is a one-column ``x1`` band (:func:`band_statement`,
    COUNT(*) / SUM(v) / AVG(v) in turn), which the agent has learnt in the
    warm-up and keeps predicting: ``dataless_share`` is 0.1 on every seed.
    """
    out = []
    for i in range(n):
        if i % 10 == 9:
            out.append(band_statement(rng, BAND_AGGREGATES[(i // 10) % 3]))
            continue
        aggregate = "COUNT(*)" if (i // 2) % 2 == 0 else "SUM(v)"
        share = rng.uniform(0.10, 0.60)
        low = rng.uniform(0.0, 1.0 - share) * ts_max
        where = _between("ts", low, low + share * ts_max)
        if i % 2 == 0:
            first = float(rng.integers(0, 100))
            where += " AND " + _between(
                "cat", first - 0.5, first + float(rng.integers(5, 40)) + 0.5
            )
        where += " AND " + _between("x0", *_lumpy_window(rng))
        out.append(f"SELECT {aggregate} FROM {TABLE} WHERE {where}")
    return out


def tail_statement(rng: np.random.Generator, tail_ts: float) -> str:
    """COUNT(*) over the freshly written ``ts`` tail and a lumpy window."""
    depth = float(rng.integers(2 * RW_APPEND_ROWS, 16 * RW_APPEND_ROWS))
    return (
        f"SELECT COUNT(*) FROM {TABLE} WHERE "
        + _between("ts", tail_ts - depth, tail_ts)
        + " AND "
        + _between("x0", *_lumpy_window(rng))
    )


def cold_statement(rng: np.random.Generator) -> str:
    """An exploratory statement over (cat, x0): falls back to a full scan."""
    first = float(rng.integers(0, 90))
    aggregate = "COUNT(*)" if rng.random() < 0.5 else "AVG(v)"
    return (
        f"SELECT {aggregate} FROM {TABLE} WHERE "
        + _between("cat", first, first + float(rng.integers(5, 40)))
        + " AND "
        + _between("x0", *_lumpy_window(rng))
    )


def poisson_offsets(
    rng: np.random.Generator, rate: float, seconds: float
) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process: ``rate * seconds`` requests."""
    n = max(1, int(round(rate * seconds)))
    return np.cumsum(rng.exponential(1.0 / rate, n))
