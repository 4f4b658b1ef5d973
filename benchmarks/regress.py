"""Benchmark regression sentinel over the repo-root BENCH_*.json files.

Every benchmark appends its measurements to a cumulative trajectory file
(``{"entries": [...]}``; see :func:`harness.record_cumulative_benchmark`).
This sentinel diffs the **newest** entry of each trajectory group against
the group's **prior history** and exits nonzero when a headline metric
regressed beyond tolerance — the cheap tripwire that keeps a perf loss
from landing silently in a committed trajectory.

Grouping: entries only compare like with like — same experiment and the
same scale knobs (rows, partitions, ...), so a reduced-scale CI smoke run
forms its own trajectory and never diffs against a full local run.

Baseline and tolerance: the baseline is the **median** of the prior
entries' headline values (robust to one lucky or unlucky historical
run), and the allowed delta is::

    allowed = max(rel_tolerance * |baseline|,
                  iqr_scale * max(prior IQR, newest entry's own IQR))

The relative term absorbs ambient machine noise; the IQR terms widen the
band for metrics whose history (or whose own repeated trials — the
recorders store median + IQR for exactly this reason) was noisy.  Groups
with fewer than ``min_prior`` prior entries are skipped: one data point
is not a trend.

Usage::

    python benchmarks/regress.py            # check repo-root BENCH files
    python benchmarks/regress.py --root DIR --tolerance 0.10 --iqr-scale 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: One headline measurement: (metric name, value, direction, own-iqr).
#: ``direction`` is "higher" (bigger is better) or "lower".
Headline = Tuple[str, float, str, float]

DEFAULT_REL_TOLERANCE = 0.10
DEFAULT_IQR_SCALE = 1.5
DEFAULT_MIN_PRIOR = 2


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q25, median, q75) with linear interpolation (matches trial_stats)."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)

    def quantile(q: float) -> float:
        if n == 1:
            return ordered[0]
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    return quantile(0.25), quantile(0.5), quantile(0.75)


def _median(values: Sequence[float]) -> float:
    return _quartiles(values)[1]


# Per-file headline extractors -----------------------------------------------
def _serving_headlines(entry: Dict[str, Any]) -> List[Headline]:
    out: List[Headline] = []
    for metric in ("batched_qps", "sequential_qps"):
        value = entry.get(metric)
        if isinstance(value, (int, float)):
            iqr = entry.get(f"{metric}_iqr")
            out.append(
                (
                    metric,
                    float(value),
                    "higher",
                    float(iqr) if isinstance(iqr, (int, float)) else 0.0,
                )
            )
    return out


def _serving_group(entry: Dict[str, Any]) -> Tuple:
    return (entry.get("experiment"), entry.get("rows"), entry.get("queries"))


def _pruning_headlines(entry: Dict[str, Any]) -> List[Headline]:
    sweep = entry.get("sweep") or []
    ratios = [
        row["bytes_ratio"]
        for row in sweep
        if isinstance(row, dict) and isinstance(row.get("bytes_ratio"), (int, float))
    ]
    if not ratios:
        return []
    return [("bytes_ratio_median", _median(ratios), "higher", 0.0)]


def _pruning_group(entry: Dict[str, Any]) -> Tuple:
    return (
        entry.get("experiment"),
        entry.get("n_rows"),
        entry.get("partitions"),
        entry.get("value_bytes"),
    )


def _faults_headlines(entry: Dict[str, Any]) -> List[Headline]:
    scenarios = entry.get("scenarios") or []
    values = [
        row["agent_availability"]
        for row in scenarios
        if isinstance(row, dict)
        and isinstance(row.get("agent_availability"), (int, float))
    ]
    if not values:
        return []
    return [("agent_availability_min", min(float(v) for v in values), "higher", 0.0)]


def _faults_group(entry: Dict[str, Any]) -> Tuple:
    return (
        entry.get("experiment"),
        entry.get("n_rows"),
        entry.get("n_nodes"),
        entry.get("n_queries"),
    )


def _obs_headlines(entry: Dict[str, Any]) -> List[Headline]:
    value = entry.get("detached_qps")
    if not isinstance(value, (int, float)):
        return []
    iqr = entry.get("detached_qps_iqr")
    return [
        (
            "detached_qps",
            float(value),
            "higher",
            float(iqr) if isinstance(iqr, (int, float)) else 0.0,
        )
    ]


def _obs_group(entry: Dict[str, Any]) -> Tuple:
    return (entry.get("experiment"), entry.get("rows"), entry.get("queries"))


def _columnar_headlines(entry: Dict[str, Any]) -> List[Headline]:
    out: List[Headline] = []
    sweep = entry.get("sweep") or []
    # Low-selectivity entries only, and only where the row layout read
    # anything at all: at selectivity 1.0 both layouts answer from the
    # synopsis (0 bytes each), which would drag a naive median to zero.
    ratios = [
        row["bytes_ratio"]
        for row in sweep
        if isinstance(row, dict)
        and isinstance(row.get("bytes_ratio"), (int, float))
        and isinstance(row.get("selectivity"), (int, float))
        and row["selectivity"] <= 0.10
        and row.get("row_bytes", 0) > 0
    ]
    if ratios:
        out.append(("bytes_ratio_low_sel_median", _median(ratios), "higher", 0.0))
    wall = entry.get("col_wall_sec_low_sel")
    if isinstance(wall, (int, float)):
        iqr = entry.get("col_wall_sec_low_sel_iqr")
        out.append(
            (
                "col_wall_sec_low_sel",
                float(wall),
                "lower",
                float(iqr) if isinstance(iqr, (int, float)) else 0.0,
            )
        )
    compression = entry.get("compression_ratio")
    if isinstance(compression, (int, float)):
        out.append(("compression_ratio", float(compression), "higher", 0.0))
    return out


def _columnar_group(entry: Dict[str, Any]) -> Tuple:
    return (
        entry.get("experiment"),
        entry.get("n_rows"),
        entry.get("partitions"),
        entry.get("value_bytes"),
    )


def _ingest_headlines(entry: Dict[str, Any]) -> List[Headline]:
    out: List[Headline] = []
    for row in entry.get("sweep") or []:
        if not isinstance(row, dict):
            continue
        value = row.get("write_rows_per_sec")
        if not isinstance(value, (int, float)):
            continue
        iqr = row.get("write_rows_per_sec_iqr")
        label = f"write_rows_per_sec_e{row.get('epoch_seconds')}"
        out.append(
            (
                label,
                float(value),
                "higher",
                float(iqr) if isinstance(iqr, (int, float)) else 0.0,
            )
        )
    ratio = entry.get("dirty_first_read_ratio")
    if isinstance(ratio, (int, float)):
        out.append(("dirty_first_read_ratio", float(ratio), "lower", 0.0))
    return out


def _ingest_group(entry: Dict[str, Any]) -> Tuple:
    # Keyed by every scale knob plus host core count: a reduced-scale CI
    # smoke run forms its own trajectory and never diffs a full run.
    return (
        entry.get("experiment"),
        entry.get("n_rows"),
        entry.get("partitions"),
        entry.get("epochs"),
        entry.get("batch_rows"),
        entry.get("reads_per_epoch"),
        entry.get("host_cpus"),
    )


def _gateway_headlines(entry: Dict[str, Any]) -> List[Headline]:
    out: List[Headline] = []
    goodput = entry.get("high_rate_goodput_qps")
    if isinstance(goodput, (int, float)):
        iqr = entry.get("high_rate_goodput_iqr")
        out.append(
            (
                "high_rate_goodput_qps",
                float(goodput),
                "higher",
                float(iqr) if isinstance(iqr, (int, float)) else 0.0,
            )
        )
    ratio = entry.get("passthrough_p50_ratio")
    if isinstance(ratio, (int, float)):
        out.append(("passthrough_p50_ratio", float(ratio), "lower", 0.0))
    closed = entry.get("closed_loop_p50_ratio")
    if isinstance(closed, (int, float)):
        out.append(("closed_loop_p50_ratio", float(closed), "lower", 0.0))
    return out


def _gateway_group(entry: Dict[str, Any]) -> Tuple:
    # Open-loop rates are calibrated to the recording host's direct
    # throughput, so the trajectory is keyed by scale and core count: a
    # reduced-scale CI smoke run never diffs against a full local run.
    return (
        entry.get("experiment"),
        entry.get("rows"),
        entry.get("requests"),
        entry.get("tenants"),
        entry.get("host_cpus"),
    )


#: filename -> (group key fn, headline extractor).
REGISTRY = {
    "BENCH_serving.json": (_serving_group, _serving_headlines),
    "BENCH_pruning.json": (_pruning_group, _pruning_headlines),
    "BENCH_faults.json": (_faults_group, _faults_headlines),
    "BENCH_obs.json": (_obs_group, _obs_headlines),
    "BENCH_columnar.json": (_columnar_group, _columnar_headlines),
    "BENCH_ingest.json": (_ingest_group, _ingest_headlines),
    "BENCH_serving_gateway.json": (_gateway_group, _gateway_headlines),
}


def load_entries(path: str) -> List[Dict[str, Any]]:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return []
    entries = payload.get("entries") if isinstance(payload, dict) else None
    return [e for e in entries or [] if isinstance(e, dict)]


def check_file(
    path: str,
    rel_tolerance: float = DEFAULT_REL_TOLERANCE,
    iqr_scale: float = DEFAULT_IQR_SCALE,
    min_prior: int = DEFAULT_MIN_PRIOR,
) -> Tuple[List[str], List[str]]:
    """Diff one trajectory file; returns (regressions, checked lines)."""
    name = os.path.basename(path)
    group_fn, headline_fn = REGISTRY[name]
    entries = load_entries(path)
    regressions: List[str] = []
    checked: List[str] = []
    groups: Dict[Tuple, List[Dict[str, Any]]] = {}
    for entry in entries:
        groups.setdefault(group_fn(entry), []).append(entry)
    for key, group in groups.items():
        newest = group[-1]
        prior = group[:-1]
        if len(prior) < min_prior:
            continue
        for metric, value, direction, own_iqr in headline_fn(newest):
            history = [
                (v, h_iqr)
                for p in prior
                for m, v, d, h_iqr in headline_fn(p)
                if m == metric and d == direction
            ]
            if len(history) < min_prior:
                continue
            values = [h[0] for h in history]
            q25, baseline, q75 = _quartiles(values)
            prior_iqr = q75 - q25
            allowed = max(
                rel_tolerance * abs(baseline),
                iqr_scale * max(prior_iqr, own_iqr),
            )
            if direction == "higher":
                regressed = value < baseline - allowed
            else:
                regressed = value > baseline + allowed
            line = (
                f"{name} {key}: {metric}={value:.6g} "
                f"baseline={baseline:.6g} allowed_delta={allowed:.6g} "
                f"n_prior={len(values)}"
            )
            checked.append(line)
            if regressed:
                regressions.append("REGRESSION " + line)
    return regressions, checked


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root",
        default=os.path.abspath(os.path.join(os.path.dirname(__file__), "..")),
        help="directory holding the BENCH_*.json trajectory files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_REL_TOLERANCE,
        help="relative headline tolerance (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--iqr-scale",
        type=float,
        default=DEFAULT_IQR_SCALE,
        help="IQR multiplier widening the tolerance band (default 1.5)",
    )
    parser.add_argument(
        "--min-prior",
        type=int,
        default=DEFAULT_MIN_PRIOR,
        help="prior entries a group needs before it is gated (default 2)",
    )
    args = parser.parse_args(argv)
    all_regressions: List[str] = []
    n_checked = 0
    for name in sorted(REGISTRY):
        path = os.path.join(args.root, name)
        if not os.path.exists(path):
            continue
        regressions, checked = check_file(
            path,
            rel_tolerance=args.tolerance,
            iqr_scale=args.iqr_scale,
            min_prior=args.min_prior,
        )
        n_checked += len(checked)
        for line in checked:
            print("checked:", line)
        all_regressions.extend(regressions)
    if all_regressions:
        print(f"\n{len(all_regressions)} benchmark regression(s):", file=sys.stderr)
        for line in all_regressions:
            print(" ", line, file=sys.stderr)
        return 1
    print(f"\nno regressions across {n_checked} headline comparison(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
