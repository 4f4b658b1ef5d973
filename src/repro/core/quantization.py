"""Query-space quantization (RT1.1, objective O1).

"Derive novel algorithms and models, to efficiently and scalably learn the
structure of the query space, identifying analysts' current interests."

The quantizer consumes query vectors (centre + extent encodings from
:mod:`repro.queries.selections`) and maintains a growing/adapting set of
*quanta* — centroids in query space — via online k-means.  Because raw
coordinates mix very different scales (a position in [0, 100] next to a
radius in [0, 10]), vectors are standardised with statistics estimated
from a warm-up buffer before the online phase begins.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.common.validation import require
from repro.ml.kmeans import OnlineKMeans
from repro.ml.scaling import StandardScaler


class QuerySpaceQuantizer:
    """Online vector quantizer over analyst query vectors.

    Parameters
    ----------
    n_quanta:
        Initial capacity: the first ``n_quanta`` sufficiently distinct
        queries seed the codebook.
    grow_threshold:
        Distance (in standardised units) beyond which a query spawns a new
        quantum instead of being absorbed, up to ``max_quanta``.  Roughly:
        1.0 means "more than one workload standard deviation from every
        known interest region".
    warmup:
        Number of queries buffered to estimate scaling statistics before
        the online codebook starts.
    decay:
        Forgetting factor for centroid counts; < 1.0 keeps centroids
        tracking drifting interest (RT1.4).
    """

    def __init__(
        self,
        n_quanta: int = 16,
        grow_threshold: float = 1.0,
        max_quanta: int = 64,
        warmup: int = 32,
        decay: float = 1.0,
    ) -> None:
        require(n_quanta >= 1, "n_quanta must be >= 1")
        require(max_quanta >= n_quanta, "max_quanta must be >= n_quanta")
        require(warmup >= 2, "warmup must be >= 2")
        require(grow_threshold > 0, "grow_threshold must be positive")
        self.warmup = warmup
        self._buffer: List[np.ndarray] = []
        self._scaler: Optional[StandardScaler] = None
        self._codebook = OnlineKMeans(
            n_clusters=n_quanta,
            grow_threshold=grow_threshold,
            max_clusters=max_quanta,
            decay=decay,
        )

    @property
    def is_warm(self) -> bool:
        return self._scaler is not None

    @property
    def n_quanta(self) -> int:
        """Number of quanta discovered so far (0 during warm-up)."""
        return self._codebook.n_active if self.is_warm else 0

    @property
    def centroids(self) -> np.ndarray:
        """Quantum centroids in the original (unscaled) query space."""
        if not self.is_warm:
            raise NotTrainedError("quantizer still warming up")
        return self._scaler.inverse_transform(self._codebook.cluster_centers_)

    def observe(self, vector) -> int:
        """Absorb one query vector; returns its quantum id.

        During warm-up, vectors are buffered and the returned id is the
        provisional assignment after the codebook is (re)seeded; warm-up
        completes automatically at the ``warmup``-th observation.
        """
        v = np.asarray(vector, dtype=float).ravel()
        if not self.is_warm:
            self._buffer.append(v)
            if len(self._buffer) >= self.warmup:
                self._finish_warmup()
                return self._codebook.assign(self._scale(v))
            return 0
        return self._codebook.partial_fit(self._scale(v))

    def assign(self, vector) -> int:
        """Quantum id of a vector without updating the codebook."""
        return self.assign_novelty(vector)[0]

    def assign_novelty(self, vector) -> Tuple[int, float]:
        """(quantum id, novelty) of a vector: one scaling, one search.

        ``(0, inf)`` during warm-up.
        """
        v = np.asarray(vector, dtype=float).ravel()
        if not self.is_warm:
            return 0, float("inf")
        return self._codebook.assign_distance(self._scale(v))

    def assign_batch(self, vectors) -> np.ndarray:
        """Quantum ids for ``n`` vectors without updating the codebook.

        Row ``i`` equals ``assign(vectors[i])`` exactly: scaling is
        elementwise and the batched distance matrix is row-stable.
        """
        x = np.atleast_2d(np.asarray(vectors, dtype=float))
        if not self.is_warm:
            return np.zeros(x.shape[0], dtype=int)
        return self._codebook.assign_batch(self._scaler.transform(x))

    def assign_novelty_batch(self, vectors) -> Tuple[np.ndarray, np.ndarray]:
        """(quantum ids, novelty distances) for ``n`` vectors in one pass.

        Scaling and assignment run once and feed both outputs; row ``i``
        equals ``assign_novelty(vectors[i])`` exactly — the distance is
        recomputed with the same 1-D norm the single-vector search takes,
        so every value is bitwise identical to the sequential calls.
        """
        x = np.atleast_2d(np.asarray(vectors, dtype=float))
        if not self.is_warm:
            return (
                np.zeros(x.shape[0], dtype=int),
                np.full(x.shape[0], float("inf")),
            )
        scaled = self._scaler.transform(x)
        centers = self._codebook.cluster_centers_
        assigned = self._codebook.assign_batch(scaled)
        novelty = np.array(
            [
                np.linalg.norm(centers[quantum] - row)
                for row, quantum in zip(scaled, assigned)
            ]
        )
        return assigned, novelty

    def novelty_batch(self, vectors) -> np.ndarray:
        """Standardised nearest-quantum distance per vector (batched)."""
        return self.assign_novelty_batch(vectors)[1]

    def novelty(self, vector) -> float:
        """Standardised distance from the vector to its nearest quantum.

        Large values mean the query probes a subspace no training query
        covered — the predictor inflates its error estimate accordingly.
        """
        return self.assign_novelty(vector)[1]

    def remove_quantum(self, quantum_id: int) -> None:
        """Purge a quantum whose subspace is no longer of interest."""
        self._codebook.remove(quantum_id)

    def state_bytes(self) -> int:
        """Approximate in-memory footprint of the codebook (for E4)."""
        if not self.is_warm:
            return sum(v.nbytes for v in self._buffer)
        centers = self._codebook.cluster_centers_
        return int(centers.nbytes) + 8 * len(self._codebook.counts)

    # Internals -------------------------------------------------------------
    def _finish_warmup(self) -> None:
        stacked = np.asarray(self._buffer)
        self._scaler = StandardScaler().fit(stacked)
        for row in self._scaler.transform(stacked):
            self._codebook.partial_fit(row)
        self._buffer = []

    def _scale(self, v: np.ndarray) -> np.ndarray:
        """``StandardScaler.transform`` of one vector, elementwise."""
        mean = self._scaler.mean_
        if v.shape != mean.shape:
            raise ConfigurationError(
                f"vector must have {mean.shape[0]} entries, got {v.shape[0]}"
            )
        return (v - mean) / self._scaler.scale_
