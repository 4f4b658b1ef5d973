"""Answer-space modelling (RT1.2, objective O2).

Per query-space quantum, a :class:`QuantumModel` learns the local mapping
from query parameters to answers from the (query, answer) pairs the agent
intercepted.  Several model families are supported — the "different models
have been found to be best for different data subspaces" observation of
RT3.3 — and the factory centralises their construction so the
model-selection machinery (:mod:`repro.optimizer.model_selection`) can
swap families per quantum.

Answers may be vectors (e.g. regression-coefficient queries); a vector
answer of dimension m is handled by m independent scalar models.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.common.validation import require
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression, centred_moments, polynomial_features

FAMILIES = ("mean", "linear", "quadratic", "gbm")
_MIN_SAMPLES = {"mean": 1, "linear": 3, "quadratic": 6, "gbm": 8}


class _MeanModel:
    """Constant model: predicts the quantum's (weighted) mean answer."""

    def __init__(self) -> None:
        self._value: Optional[float] = None

    def fit(self, x, y, sample_weight=None) -> "_MeanModel":
        y = np.asarray(y, dtype=float).ravel()
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=float).ravel()
            self._value = float(np.average(y, weights=w))
        else:
            self._value = float(y.mean())
        return self

    def predict(self, x) -> np.ndarray:
        if self._value is None:
            raise NotTrainedError("mean model not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.full(x.shape[0], self._value)

    @property
    def n_params(self) -> int:
        return 1


class _QuadraticModel:
    """Ridge on degree-2 polynomial features of the query vector."""

    def __init__(self, alpha: float = 1.0) -> None:
        self._ridge = RidgeRegression(alpha=alpha)

    def fit(self, x, y, sample_weight=None) -> "_QuadraticModel":
        self._ridge.fit(polynomial_features(x, degree=2), y, sample_weight)
        return self

    def solve(self, x_mean, y_mean, cxx, cxy) -> "_QuadraticModel":
        self._ridge.solve(x_mean, y_mean, cxx, cxy)
        return self

    def predict(self, x) -> np.ndarray:
        return self._ridge.predict(polynomial_features(x, degree=2))

    @property
    def n_params(self) -> int:
        return self._ridge.n_params


class _GBMModel:
    """Small boosted ensemble; sample weights are unsupported and ignored."""

    def __init__(self, n_estimators: int = 25, max_depth: int = 2) -> None:
        self._gbm = GradientBoostingRegressor(
            n_estimators=n_estimators, max_depth=max_depth, seed=0
        )

    def fit(self, x, y, sample_weight=None) -> "_GBMModel":
        self._gbm.fit(x, y)
        return self

    def predict(self, x) -> np.ndarray:
        return self._gbm.predict(x)

    @property
    def n_params(self) -> int:
        # ~3 numbers per tree node (feature, threshold, value).
        return sum(3 * t.n_nodes for t in self._gbm._trees) + 1


class AnswerModelFactory:
    """Builds per-quantum scalar models of a given family."""

    def __init__(self, family: str = "linear", ridge_alpha: float = 1.0) -> None:
        if family not in FAMILIES:
            raise ConfigurationError(
                f"unknown model family {family!r}; choose from {FAMILIES}"
            )
        self.family = family
        self.ridge_alpha = ridge_alpha

    def build(self):
        if self.family == "mean":
            return _MeanModel()
        if self.family == "linear":
            return RidgeRegression(alpha=self.ridge_alpha)
        if self.family == "quadratic":
            return _QuadraticModel(alpha=self.ridge_alpha)
        return _GBMModel()

    def min_samples(self) -> int:
        """Fewest training pairs before a family produces a sane fit."""
        return _MIN_SAMPLES[self.family]

    def features(self, x) -> np.ndarray:
        """The ridge design rows of query vectors ``x`` (2-D)."""
        return polynomial_features(x, degree=2) if self.family == "quadratic" else x


class _Moments:
    """Running weighted means and centred co-moments of a ridge design,
    moved by West's weighted update; a negative weight takes a row out."""

    def __init__(self, key, f: np.ndarray, y: np.ndarray, w: np.ndarray) -> None:
        self.key = key  # (family, decay_rate) the moments are valid for
        moments = centred_moments(f, y, w)
        self.weight, self.f_mean, self.y_mean, self.cff, self.cfy = moments

    def scale(self, factor: float) -> None:
        self.weight *= factor
        self.cff *= factor
        self.cfy *= factor

    def update(self, f: np.ndarray, y: np.ndarray, w: float) -> None:
        total = self.weight + w
        df, dy = f - self.f_mean, y - self.y_mean
        share = w / total
        self.f_mean += share * df
        self.y_mean += share * dy
        scaled = (share * self.weight) * df[:, None]  # w W / (W + w) df
        self.cff += scaled * df
        self.cfy += scaled * dy
        self.weight = total


class QuantumModel:
    """The trained answer model of one query-space quantum.

    Holds the quantum's training buffer and a fitted model per answer
    dimension.  Refits lazily: ``add`` marks the model dirty and ``predict``
    refits when dirty, so bursts of training queries cost one fit; ridge
    families refit from running moments, and ``predict`` remembers its
    last evaluation until the next refit (DESIGN §1 "What a quantum keeps").

    Sample ages are tracked so maintenance can apply exponential
    time-decay weights when data or interest changes (RT1.4).
    """

    # Class-level defaults, so a blob written before these existed loads.
    _moments: Optional[_Moments] = None
    _last = None  # (vector bytes, answer row) of the last predict

    def __init__(
        self,
        factory: AnswerModelFactory,
        answer_dim: int = 1,
        max_buffer: int = 512,
    ) -> None:
        require(answer_dim >= 1, "answer_dim must be >= 1")
        require(max_buffer >= 8, "max_buffer must be >= 8")
        self.factory = factory
        self.answer_dim = answer_dim
        self.max_buffer = max_buffer
        self._x: List[np.ndarray] = []
        self._y: List[np.ndarray] = []
        self._ages: List[int] = []
        self._clock = 0
        self._models: Optional[list] = None
        self._dirty = True
        self.decay_rate: float = 0.0  # 0 = no aging; set by maintenance

    @property
    def n_samples(self) -> int:
        return len(self._x)

    @property
    def is_trained(self) -> bool:
        return self.n_samples >= self.factory.min_samples()

    def add(self, vector, answer) -> None:
        """Add one (query vector, answer) training pair."""
        v = np.asarray(vector, dtype=float).ravel()
        a = np.atleast_1d(np.asarray(answer, dtype=float))
        require(
            a.shape[0] == self.answer_dim,
            f"answer dim {a.shape[0]} != expected {self.answer_dim}",
        )
        self._clock += 1
        self._x.append(v)
        self._y.append(a)
        self._ages.append(self._clock)
        m = self._moments
        if m and m.key != (self.factory.family, self.decay_rate):
            m = self._moments = None
        elif m:
            if self.decay_rate > 0:
                m.scale(np.exp(-self.decay_rate))
            m.update(self.factory.features(v[None])[0], a, 1.0)
        if len(self._x) > self.max_buffer:
            # Drop the oldest pair: bounded state is a P2 selling point.
            old_x, old_y = self._x.pop(0), self._y.pop(0)
            old_w = np.exp(-self.decay_rate * (self._clock - self._ages.pop(0)))
            if self._clock % self.max_buffer == 0:  # bounds the drift
                self._moments = None
            elif m:
                m.update(self.factory.features(old_x[None])[0], old_y, -old_w)
        self._dirty = True

    def predict(self, vector) -> np.ndarray:
        """Predicted answer (shape ``(answer_dim,)``) for one query vector."""
        x = np.asarray(vector, dtype=float).ravel()
        last, key = self._last, x.tobytes()
        if last is None or self._dirty or last[0] != key:
            last = self._last = (key, self.predict_batch(x.reshape(1, -1))[0])
        # Copied: a kept Prediction must not share the remembered row.
        return last[1].copy()

    def predict_batch(self, vectors) -> np.ndarray:
        """Predicted answers (shape ``(n, answer_dim)``) for ``n`` vectors.

        One fitted-model call per answer dimension serves the whole batch;
        every model family's ``predict`` is row-stable, so row ``i`` equals
        ``predict(vectors[i])`` bit for bit.
        """
        if not self.is_trained:
            raise NotTrainedError(
                f"quantum model has {self.n_samples} samples, needs "
                f"{self.factory.min_samples()}"
            )
        if self._dirty:
            self._refit()
        x = np.atleast_2d(np.asarray(vectors, dtype=float))
        return np.array([model.predict(x) for model in self._models]).T

    def reset(self) -> None:
        """Discard everything (maintenance: invalidated by data updates)."""
        self._x = []
        self._y = []
        self._ages = []
        self._models = None
        self._moments = None
        self._last = None
        self._dirty = True

    def state_bytes(self) -> int:
        """Approximate footprint: buffer + moments + fitted parameters."""
        buffer_bytes = sum(v.nbytes for v in self._x) + sum(
            a.nbytes for a in self._y
        )
        m = self._moments
        if m is not None:  # the weight, then the arrays
            arrays = (m.f_mean, m.y_mean, m.cff, m.cfy)
            buffer_bytes += 8 + sum(a.nbytes for a in arrays)
        model_params = 0
        if self._models is not None:
            model_params = sum(m.n_params for m in self._models)
        return buffer_bytes + 8 * model_params

    def _weights(self) -> np.ndarray:
        """Each kept pair's decay weight: exactly 1.0 when aging is off."""
        ages = self._clock - np.asarray(self._ages, dtype=float)
        return np.exp(-self.decay_rate * ages)

    def _refit(self) -> None:
        self._last = None
        key, dims = (self.factory.family, self.decay_rate), range(self.answer_dim)
        if key[0] in ("mean", "gbm"):
            x, y = np.asarray(self._x), np.asarray(self._y)
            w = self._weights() if self.decay_rate > 0 else None
            self._models = [self.factory.build().fit(x, y[:, d], w) for d in dims]
        else:
            m = self._moments
            if m is None or m.key != key:
                f, y = self.factory.features(np.asarray(self._x)), np.asarray(self._y)
                m = self._moments = _Moments(key, f, y, self._weights())
            self._models = [
                self.factory.build().solve(m.f_mean, m.y_mean[d], m.cff, m.cfy[:, d])
                for d in dims
            ]
        self._dirty = False
