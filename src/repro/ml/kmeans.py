"""Batch and online k-means vector quantization.

RT1.1 ("Query-space Quantization") calls for models that "efficiently and
scalably learn the structure of the query space".  The online variant here
is the standard sequential k-means / competitive-learning rule: each new
query vector pulls its winning centroid toward it with a per-centroid
learning rate 1/n.  It supports *growing* (spawn a centroid when a query is
far from every existing quantum) and *decaying* (forget counts so quanta can
track drifting interest, RT1.4).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.common.errors import NotTrainedError
from repro.common.rng import SeedLike, make_rng
from repro.common.validation import require, require_matrix, require_positive


def _pairwise_sq_dist(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, shape (len(x), len(centers))."""
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class KMeans:
    """Lloyd's algorithm with k-means++ initialisation."""

    def __init__(
        self,
        n_clusters: int = 8,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: SeedLike = None,
    ) -> None:
        require(n_clusters >= 1, f"n_clusters must be >= 1, got {n_clusters}")
        require_positive(max_iter, "max_iter")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self._rng = make_rng(seed)
        self.cluster_centers_: Optional[np.ndarray] = None
        self.inertia_: float = float("inf")
        self.n_iter_: int = 0

    def fit(self, x) -> "KMeans":
        x = require_matrix(x, "x")
        require(
            x.shape[0] >= self.n_clusters,
            f"need at least n_clusters={self.n_clusters} samples, got {x.shape[0]}",
        )
        centers = self._init_plus_plus(x)
        for iteration in range(self.max_iter):
            distances = _pairwise_sq_dist(x, centers)
            labels = distances.argmin(axis=1)
            new_centers = centers.copy()
            for cluster in range(self.n_clusters):
                members = x[labels == cluster]
                if len(members):
                    new_centers[cluster] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the worst-served point.
                    worst = distances.min(axis=1).argmax()
                    new_centers[cluster] = x[worst]
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            self.n_iter_ = iteration + 1
            if shift < self.tol:
                break
        self.cluster_centers_ = centers
        self.inertia_ = float(_pairwise_sq_dist(x, centers).min(axis=1).sum())
        return self

    def predict(self, x) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise NotTrainedError("KMeans.predict called before fit")
        x = require_matrix(x, "x", n_cols=self.cluster_centers_.shape[1])
        return _pairwise_sq_dist(x, self.cluster_centers_).argmin(axis=1)

    def fit_predict(self, x) -> np.ndarray:
        return self.fit(x).predict(x)

    def _init_plus_plus(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        centers = np.empty((self.n_clusters, x.shape[1]))
        first = int(self._rng.integers(n))
        centers[0] = x[first]
        closest = np.full(n, np.inf)
        for i in range(1, self.n_clusters):
            diff = x - centers[i - 1]
            closest = np.minimum(closest, np.einsum("ij,ij->i", diff, diff))
            total = closest.sum()
            if total <= 0:
                centers[i:] = x[int(self._rng.integers(n))]
                break
            probs = closest / total
            centers[i] = x[int(self._rng.choice(n, p=probs))]
        return centers


class OnlineKMeans:
    """Sequential k-means with optional growth and decay.

    Parameters
    ----------
    n_clusters:
        Target number of quanta.  With ``grow_threshold`` set, the model
        starts empty and spawns centroids on demand up to ``max_clusters``.
    grow_threshold:
        If a sample's distance to its nearest centroid exceeds this value
        (in the input's own units) a new centroid is spawned there, provided
        capacity remains.  ``None`` disables growth: the first
        ``n_clusters`` samples become the initial centroids.
    decay:
        Multiplicative forgetting factor in (0, 1] applied to per-centroid
        counts on each update; values < 1 let centroids keep adapting to a
        drifting stream instead of freezing as counts grow.
    """

    def __init__(
        self,
        n_clusters: int = 16,
        grow_threshold: Optional[float] = None,
        max_clusters: Optional[int] = None,
        decay: float = 1.0,
    ) -> None:
        require(n_clusters >= 1, f"n_clusters must be >= 1, got {n_clusters}")
        require(0.0 < decay <= 1.0, f"decay must be in (0, 1], got {decay}")
        self.n_clusters = n_clusters
        self.grow_threshold = grow_threshold
        self.max_clusters = max_clusters if max_clusters is not None else n_clusters
        require(
            self.max_clusters >= n_clusters or grow_threshold is not None,
            "max_clusters must be >= n_clusters",
        )
        self.decay = decay
        self.centers: list = []
        self.counts: list = []

    # ``centers`` as one read-only matrix.  Every change to the codebook
    # drops it and the next reader rebuilds it whole before publishing it
    # with one assignment; it is never pickled, and the class default
    # serves blobs written before it existed.
    _matrix: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_matrix", None)
        return state

    @property
    def n_active(self) -> int:
        """Number of centroids spawned so far."""
        return len(self.centers)

    @property
    def cluster_centers_(self) -> np.ndarray:
        matrix = self._matrix
        if matrix is None:
            if not self.centers:
                raise NotTrainedError("OnlineKMeans has seen no data yet")
            matrix = np.asarray(self.centers)
            matrix.flags.writeable = False
            self._matrix = matrix
        return matrix

    def partial_fit(self, vector) -> int:
        """Absorb one sample; returns the index of its (possibly new) quantum."""
        v = np.asarray(vector, dtype=float).ravel()
        if not self.centers:
            self.centers.append(v.copy())
            self.counts.append(1.0)
            self._matrix = None
            return 0
        distances = np.linalg.norm(self.cluster_centers_ - v, axis=1)
        winner = int(distances.argmin())
        should_grow = (
            self.grow_threshold is not None
            and distances[winner] > self.grow_threshold
            and len(self.centers) < self.max_clusters
        )
        seed_capacity = (
            self.grow_threshold is None and len(self.centers) < self.n_clusters
        )
        if should_grow or seed_capacity:
            self.centers.append(v.copy())
            self.counts.append(1.0)
            self._matrix = None
            return len(self.centers) - 1
        self.counts[winner] = self.counts[winner] * self.decay + 1.0
        rate = 1.0 / self.counts[winner]
        self.centers[winner] = self.centers[winner] + rate * (v - self.centers[winner])
        self._matrix = None
        return winner

    def predict(self, x) -> np.ndarray:
        centers = self.cluster_centers_
        x = require_matrix(x, "x", n_cols=centers.shape[1])
        return _pairwise_sq_dist(x, centers).argmin(axis=1)

    def assign(self, vector) -> int:
        """Nearest-quantum index for one sample, without updating the model."""
        return self.assign_distance(vector)[0]

    def assign_distance(self, vector) -> Tuple[int, float]:
        """(:meth:`assign`, :meth:`distance_to` that quantum) in one search."""
        centers = self.cluster_centers_
        v = np.asarray(vector, dtype=float).ravel()
        winner = int(np.linalg.norm(centers - v, axis=1).argmin())
        return winner, float(np.linalg.norm(centers[winner] - v))

    def assign_batch(self, x) -> np.ndarray:
        """Nearest-quantum index per row of ``x``, without updating the model.

        Computes the full distance matrix in one broadcast; each row's
        norms (and therefore its argmin) are bitwise equal to what
        :meth:`assign` computes for that row alone.
        """
        centers = self.cluster_centers_
        x = require_matrix(x, "x", n_cols=centers.shape[1])
        distances = np.linalg.norm(x[:, None, :] - centers[None, :, :], axis=2)
        return distances.argmin(axis=1)

    def distance_to(self, vector, index: int) -> float:
        """Euclidean distance from ``vector`` to centroid ``index``."""
        centers = self.cluster_centers_
        v = np.asarray(vector, dtype=float).ravel()
        return float(np.linalg.norm(centers[index] - v))

    def remove(self, index: int) -> None:
        """Purge a quantum (used when interest in a subspace disappears)."""
        if not 0 <= index < len(self.centers):
            raise IndexError(f"no centroid {index}")
        del self.centers[index]
        del self.counts[index]
        self._matrix = None
