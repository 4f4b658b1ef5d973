"""Shared helpers for the experiment benchmarks.

Every experiment module (bench_eNN_*.py) runs under
``pytest benchmarks/ --benchmark-only``.  Besides the pytest-benchmark
timing table, each experiment writes its result table — the rows the
paper-style figures would plot — to ``benchmarks/results/<name>.txt``,
a machine-readable twin to ``benchmarks/results/<name>.json`` (so perf
trajectories can be assembled without re-parsing aligned-text tables),
and attaches headline numbers to ``benchmark.extra_info`` so they appear
in the benchmark JSON.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BENCH_SERVING_PATH = os.path.join(REPO_ROOT, "BENCH_serving.json")
BENCH_PRUNING_PATH = os.path.join(REPO_ROOT, "BENCH_pruning.json")
BENCH_FAULTS_PATH = os.path.join(REPO_ROOT, "BENCH_faults.json")
BENCH_OBS_PATH = os.path.join(REPO_ROOT, "BENCH_obs.json")
BENCH_COLUMNAR_PATH = os.path.join(REPO_ROOT, "BENCH_columnar.json")
BENCH_INGEST_PATH = os.path.join(REPO_ROOT, "BENCH_ingest.json")
BENCH_SERVING_GATEWAY_PATH = os.path.join(
    REPO_ROOT, "BENCH_serving_gateway.json"
)


def wallclock(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """(result, real seconds) of one call, via ``time.perf_counter``.

    The simulated cost model measures what the *modelled* cluster would
    spend; this measures what the benchmark process actually spent, which
    is the number the serving-throughput trajectory tracks.
    """
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def record_cumulative_benchmark(path: str, experiment: str, **fields: Any) -> str:
    """Append one measurement entry to a cumulative repo-root JSON file.

    The file keeps one entry per recorded run (``{"entries": [...]}``) so
    a metric's trajectory can be charted across commits.  Corrupt or
    foreign content is replaced rather than crashed on.  Returns ``path``.
    """
    payload: Dict[str, Any] = {"entries": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {"entries": []}
        if not isinstance(payload.get("entries"), list):
            payload = {"entries": []}
    entry: Dict[str, Any] = {
        "experiment": experiment,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # Wall-clock metrics only compare like with like when the
        # recording host's core count rides along (regress.py groups
        # the ingest and gateway trajectories by it).
        "host_cpus": os.cpu_count() or 1,
    }
    entry.update({key: _plain(value) for key, value in fields.items()})
    payload["entries"].append(entry)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def record_serving_benchmark(experiment: str, **fields: Any) -> str:
    """Append one wall-clock serving measurement to ``BENCH_serving.json``."""
    return record_cumulative_benchmark(BENCH_SERVING_PATH, experiment, **fields)


def record_pruning_benchmark(experiment: str, **fields: Any) -> str:
    """Append one zone-map pruning measurement to ``BENCH_pruning.json``."""
    return record_cumulative_benchmark(BENCH_PRUNING_PATH, experiment, **fields)


def record_faults_benchmark(experiment: str, **fields: Any) -> str:
    """Append one fault-injection measurement to ``BENCH_faults.json``."""
    return record_cumulative_benchmark(BENCH_FAULTS_PATH, experiment, **fields)


def record_obs_benchmark(experiment: str, **fields: Any) -> str:
    """Append one observability-overhead measurement to ``BENCH_obs.json``."""
    return record_cumulative_benchmark(BENCH_OBS_PATH, experiment, **fields)


def record_columnar_benchmark(experiment: str, **fields: Any) -> str:
    """Append one columnar-layout measurement to ``BENCH_columnar.json``."""
    return record_cumulative_benchmark(BENCH_COLUMNAR_PATH, experiment, **fields)


def record_ingest_benchmark(experiment: str, **fields: Any) -> str:
    """Append one streaming-ingestion measurement to ``BENCH_ingest.json``."""
    return record_cumulative_benchmark(BENCH_INGEST_PATH, experiment, **fields)


def record_serving_gateway_benchmark(experiment: str, **fields: Any) -> str:
    """Append one gateway open-loop measurement to ``BENCH_serving_gateway.json``."""
    return record_cumulative_benchmark(
        BENCH_SERVING_GATEWAY_PATH, experiment, **fields
    )


def trial_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Robust summary of repeated trials: median, IQR, quartiles, extremes.

    The recorders store the median (robust to one slow trial on a shared
    CI box) with the IQR as the spread, rather than a lone measurement —
    perf trajectories across commits then compare like with like.
    """
    values = sorted(float(s) for s in samples)
    n = len(values)
    if n == 0:
        return {"n": 0}

    def quantile(q: float) -> float:
        if n == 1:
            return values[0]
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    q25, q50, q75 = quantile(0.25), quantile(0.5), quantile(0.75)
    return {
        "n": n,
        "median": q50,
        "q25": q25,
        "q75": q75,
        "iqr": q75 - q25,
        "min": values[0],
        "max": values[-1],
    }


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def write_result(
    name: str,
    table: str,
    headers: Optional[Sequence[str]] = None,
    rows: Optional[Iterable[Sequence]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Write the human-readable table; mirror structured data as JSON.

    ``headers``/``rows`` (and/or ``extra``) also produce
    ``results/<name>.json`` with the same rows as plain values, so the
    perf trajectory across commits can be diffed mechanically.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(table)
    if headers is not None or rows is not None or extra is not None:
        payload: Dict[str, Any] = {"name": name}
        if headers is not None:
            payload["headers"] = list(headers)
        if rows is not None:
            payload["rows"] = [[_plain(cell) for cell in row] for row in rows]
        if extra is not None:
            payload["extra"] = {k: _plain(v) for k, v in extra.items()}
        json_path = os.path.join(RESULTS_DIR, f"{name}.json")
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print("\n" + table)
    return path


def metrics_snapshot(observer) -> Dict[str, float]:
    """Flat metrics dict from a ``StackObserver`` for ``benchmark.extra_info``.

    Returns ``{}`` for a null/absent observer so callers can attach
    unconditionally.
    """
    snapshot = getattr(observer, "snapshot", None)
    if observer is None or not getattr(observer, "enabled", False):
        return {}
    return snapshot() if callable(snapshot) else {}


def _plain(value: Any) -> Any:
    """JSON-safe plain value (numpy scalars -> python builtins)."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:
            pass
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)
