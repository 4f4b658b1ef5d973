"""The associative predictor (objective O3, RT1.3).

Unifies query-space quantization (O1) and answer-space models (O2):
"associating specific query space quanta with methods, models, and answers
used to predict results for future queries, depending on their position in
the query space."

:class:`DatalessPredictor` is the pure learning component — it never
touches base data or cost meters.  The :class:`~repro.core.agent.SEAAgent`
wires it to an exact engine and a cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import NotTrainedError
from repro.common.validation import require
from repro.core.answer_models import AnswerModelFactory, QuantumModel
from repro.core.error import PrequentialErrorEstimator
from repro.core.quantization import QuerySpaceQuantizer


@dataclass
class Prediction:
    """A predicted answer with its provenance and reliability estimate."""

    value: np.ndarray
    quantum_id: int
    error_estimate: Optional[float]
    novelty: float
    reliable: bool

    @property
    def scalar(self) -> float:
        """Convenience for 1-d answers."""
        return float(self.value[0])


class DatalessPredictor:
    """Query-driven learner mapping query vectors to answers."""

    def __init__(
        self,
        answer_dim: int = 1,
        quantizer: Optional[QuerySpaceQuantizer] = None,
        factory: Optional[AnswerModelFactory] = None,
        error_estimator: Optional[PrequentialErrorEstimator] = None,
        novelty_limit: float = 3.0,
    ) -> None:
        require(novelty_limit > 0, "novelty_limit must be positive")
        self.answer_dim = answer_dim
        self.quantizer = quantizer or QuerySpaceQuantizer()
        self.factory = factory or AnswerModelFactory("linear")
        self.errors = error_estimator or PrequentialErrorEstimator()
        self.novelty_limit = novelty_limit
        self._models: Dict[int, QuantumModel] = {}
        self.n_observed = 0
        # Per-quantum mutation counter: bumped whenever a quantum's model
        # state changes (observe, drift reset, data-update invalidation).
        # Cached answers stamp the version they were predicted under, so
        # a serve-time comparison can prove an entry is not stale.
        self._versions: Dict[int, int] = {}

    # Training ----------------------------------------------------------
    def observe(self, vector, answer) -> int:
        """Absorb one (query vector, true answer) pair; returns quantum id.

        Performs the prequential step: if the target quantum can already
        predict, its prediction error on this pair is recorded *before*
        the pair updates the model.
        """
        v = np.asarray(vector, dtype=float).ravel()
        quantum_id = self.quantizer.observe(v)
        model = self._models.setdefault(
            quantum_id, QuantumModel(self.factory, answer_dim=self.answer_dim)
        )
        if model.is_trained:
            self.errors.record(quantum_id, model.predict(v), answer)
        model.add(v, answer)
        self.n_observed += 1
        self._versions[quantum_id] = self._versions.get(quantum_id, 0) + 1
        return quantum_id

    # Inference -----------------------------------------------------------
    def predict(self, vector) -> Prediction:
        """Predict the answer for an unseen query vector.

        Raises :class:`NotTrainedError` if no quantum can serve the query
        at all.  ``reliable`` is False when the error estimate is missing
        or the query is far from every known quantum.
        """
        v = np.asarray(vector, dtype=float).ravel()
        assigned, novelty = self.quantizer.assign_novelty(v)
        quantum_id = assigned
        model = self._models.get(quantum_id)
        borrowed = False
        if model is None or not model.is_trained:
            model, quantum_id = self._nearest_trained(v, assigned)
            borrowed = True
        value = model.predict(v)
        error = self.errors.estimate(quantum_id)
        # A *borrowed* model (the query's own quantum is untrained, e.g.
        # freshly invalidated) answers best-effort but must never be
        # treated as reliable: its error history describes a different
        # subspace, not this query's.
        reliable = (
            not borrowed
            and error is not None
            and novelty <= self.novelty_limit
        )
        return Prediction(
            value=value,
            quantum_id=quantum_id,
            error_estimate=error,
            novelty=novelty,
            reliable=reliable,
        )

    def predict_batch(self, vectors) -> List[Optional[Prediction]]:
        """Predict answers for ``n`` query vectors in vectorized calls.

        Equivalent to ``[predict(v) for v in vectors]`` bit for bit, but
        quantum assignment and novelty run as one broadcast each, and each
        quantum's answer model evaluates its whole row group in a single
        matrix call.  Rows no quantum can serve (where :meth:`predict`
        raises :class:`NotTrainedError`) come back as ``None`` instead, so
        one cold row does not poison the batch.
        """
        x = np.atleast_2d(np.asarray(vectors, dtype=float))
        n = x.shape[0]
        if n == 0:
            return []
        assigned, novelty = self.quantizer.assign_novelty_batch(x)
        # Resolve each row's effective (model, quantum) — borrowing from
        # the nearest trained quantum exactly as predict() does.
        effective: List[Optional[int]] = [None] * n
        borrowed_flags = np.zeros(n, dtype=bool)
        groups: Dict[int, List[int]] = {}
        for i in range(n):
            quantum_id = int(assigned[i])
            model = self._models.get(quantum_id)
            if model is None or not model.is_trained:
                try:
                    _, quantum_id = self._nearest_trained(x[i], quantum_id)
                except NotTrainedError:
                    continue
                borrowed_flags[i] = True
            effective[i] = quantum_id
            groups.setdefault(quantum_id, []).append(i)
        values = np.empty((n, self.answer_dim))
        for quantum_id, rows in groups.items():
            model = self._models[quantum_id]
            values[rows] = model.predict_batch(x[rows])
        # The estimator is read-only here, so one quantile per distinct
        # quantum covers every row routed to it.
        error_by_quantum = {
            quantum_id: self.errors.estimate(quantum_id) for quantum_id in groups
        }
        out: List[Optional[Prediction]] = []
        for i in range(n):
            quantum_id = effective[i]
            if quantum_id is None:
                out.append(None)
                continue
            error = error_by_quantum[quantum_id]
            reliable = (
                not borrowed_flags[i]
                and error is not None
                and novelty[i] <= self.novelty_limit
            )
            out.append(
                Prediction(
                    value=values[i],
                    quantum_id=quantum_id,
                    error_estimate=error,
                    novelty=float(novelty[i]),
                    reliable=reliable,
                )
            )
        return out

    def _nearest_trained(self, v: np.ndarray, preferred: int):
        """Fallback: serve from the nearest quantum that has a usable model."""
        trained = {
            qid: m for qid, m in self._models.items() if m.is_trained
        }
        if not trained:
            raise NotTrainedError(
                "no quantum has enough training queries to predict yet"
            )
        if preferred in trained:
            return trained[preferred], preferred
        centroids = self.quantizer.centroids
        best_qid = min(
            trained,
            key=lambda qid: float(np.linalg.norm(centroids[qid] - v))
            if qid < len(centroids)
            else float("inf"),
        )
        return trained[best_qid], best_qid

    # Maintenance hooks ---------------------------------------------------
    def model_for(self, quantum_id: int) -> Optional[QuantumModel]:
        return self._models.get(quantum_id)

    def reset_quantum(self, quantum_id: int) -> None:
        """Invalidate one quantum's model and error history."""
        model = self._models.get(quantum_id)
        if model is not None:
            model.reset()
        self.errors.forget(quantum_id)
        self._versions[quantum_id] = self._versions.get(quantum_id, 0) + 1

    def version_of(self, quantum_id: int) -> int:
        """Monotonic mutation counter for one quantum's learned state."""
        return self._versions.get(quantum_id, 0)

    def reset_all(self) -> None:
        for quantum_id in list(self._models):
            self.reset_quantum(quantum_id)

    def quantum_ids(self):
        return list(self._models)

    def set_decay(self, rate: float) -> None:
        """Enable exponential sample aging on every quantum model."""
        for model in self._models.values():
            model.decay_rate = rate

    # Introspection -------------------------------------------------------
    def state_bytes(self) -> int:
        """Total footprint of the learned state — the paper's storage claim.

        Compare with the base-data bytes a cache/sample-based baseline
        must keep: this is models + bounded buffers only.
        """
        return (
            self.quantizer.state_bytes()
            + self.errors.state_bytes()
            + sum(m.state_bytes() for m in self._models.values())
        )

    def centroid_of(self, quantum_id: int) -> np.ndarray:
        centroids = self.quantizer.centroids
        require(0 <= quantum_id < len(centroids), f"no quantum {quantum_id}")
        return centroids[quantum_id]
