"""Error estimation for predicted answers (RT1.3).

"Develop error estimation techniques, in order to accompany predicted
answers with (accurate) error estimations so that the system (or analyst)
can choose to proceed with the predicted answer or to obtain an exact
answer by accessing the base data."

The estimator is *prequential* (test-then-train): when a training pair
arrives, the current model first predicts it, the absolute (relative)
residual is recorded, and only then does the pair update the model.  The
error estimate for a future query in the same quantum is a high quantile
of that quantum's recent residuals — a split-conformal-style guarantee
without distributional assumptions.  Residual windows are bounded, so the
estimator also adapts when drift makes old residuals unrepresentative.

The quantile of an unchanged window is an unchanged number, and serving
reads it on every prediction while only a learning step (``record``) or
a reset (``forget``) can move it — the same two events that bump the
predictor's per-quantum version.  :meth:`estimate` therefore keeps the
last quantile it computed per quantum and those two methods drop it, so
a frozen or quiet quantum reads a float; a recomputation reads a sorted
copy of the window (DESIGN §1, "What a quantum keeps").  Both are derived
state, rebuilt on load.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.common.validation import require, require_in_range


def _linear_quantile(ordered: List[float], n: int, q: float) -> float:
    """``np.quantile`` of a window of ``n`` whose non-NaN values are ``ordered``."""
    if len(ordered) < n:
        return float("nan")
    virtual = (n - 1) * q
    lower = int(virtual)  # floor: virtual >= 0
    gamma, below = virtual - lower, ordered[lower]
    above = ordered[min(lower + 1, n - 1)]  # numpy clips the upper index
    if gamma >= 0.5:  # numpy's _lerp, from the nearer neighbour
        return above - (above - below) * (1 - gamma)
    return below + (above - below) * gamma


class PrequentialErrorEstimator:
    """Per-quantum windows of prequential residuals with quantile readout."""

    def __init__(
        self,
        quantile: float = 0.9,
        window: int = 64,
        min_observations: int = 5,
        relative_floor: float = 1.0,
    ) -> None:
        require_in_range(quantile, "quantile", 0.5, 1.0)
        require(window >= 4, "window must be >= 4")
        require(min_observations >= 1, "min_observations must be >= 1")
        self.quantile = quantile
        self.window = window
        self.min_observations = min_observations
        self.relative_floor = relative_floor
        self._residuals: Dict[int, Deque[float]] = {}
        self._sorted: Dict[int, List[float]] = {}  # non-NaN, ascending
        self._estimates: Dict[int, float] = {}

    def __getstate__(self) -> dict:
        derived = ("_estimates", "_sorted")
        return {k: v for k, v in self.__dict__.items() if k not in derived}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._estimates, self._sorted = {}, {}
        for quantum_id, bucket in self._residuals.items():
            self._sorted[quantum_id] = sorted(r for r in bucket if r == r)

    def record(self, quantum_id: int, predicted, actual) -> float:
        """Record one prequential residual; returns the relative error."""
        pred = np.atleast_1d(np.asarray(predicted, dtype=float))
        act = np.atleast_1d(np.asarray(actual, dtype=float))
        denom = max(float(np.linalg.norm(act)), self.relative_floor)
        rel = float(np.linalg.norm(act - pred)) / denom
        bucket = self._residuals.setdefault(
            quantum_id, deque(maxlen=self.window)
        )
        ordered = self._sorted.setdefault(quantum_id, [])
        if len(bucket) == bucket.maxlen and bucket[0] == bucket[0]:
            del ordered[bisect_left(ordered, bucket[0])]
        bucket.append(rel)
        if rel == rel:
            insort(ordered, rel)
        self._estimates.pop(quantum_id, None)
        return rel

    def estimate(self, quantum_id: int) -> Optional[float]:
        """Estimated relative error for a new query in this quantum.

        Returns ``None`` while the quantum has too few residuals for the
        quantile to mean anything — callers must then treat the prediction
        as unreliable (the agent falls back to exact execution).
        """
        estimate = self._estimates.get(quantum_id)
        if estimate is None:
            bucket = self._residuals.get(quantum_id)
            if bucket is None or len(bucket) < self.min_observations:
                return None
            ordered = self._sorted[quantum_id]
            estimate = _linear_quantile(ordered, len(bucket), self.quantile)
            self._estimates[quantum_id] = estimate
        return estimate

    def n_observations(self, quantum_id: int) -> int:
        bucket = self._residuals.get(quantum_id)
        return len(bucket) if bucket else 0

    def recent_mean(self, quantum_id: int, last: int = 8) -> Optional[float]:
        """Mean of the most recent residuals (drift detection input)."""
        bucket = self._residuals.get(quantum_id)
        if not bucket:
            return None
        values = list(bucket)[-last:]
        return float(np.mean(values))

    def historical_mean(self, quantum_id: int) -> Optional[float]:
        bucket = self._residuals.get(quantum_id)
        if not bucket:
            return None
        return float(np.mean(bucket))

    def forget(self, quantum_id: int) -> None:
        """Drop a quantum's residual history (model was reset/purged)."""
        self._residuals.pop(quantum_id, None)
        self._sorted.pop(quantum_id, None)
        self._estimates.pop(quantum_id, None)

    def state_bytes(self) -> int:
        return sum(8 * len(bucket) for bucket in self._residuals.values())
