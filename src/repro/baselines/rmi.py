"""Recursive Model Index (RMI) adapted to approximate range aggregates.

Kraska et al.'s RMI predicts the position of a key with a hierarchy of simple
models.  Following the paper's appendix, we adapt it to range aggregates by
fitting the models to the target function directly (``CFsum`` or ``DFmax``)
rather than to key positions, and by tracking the maximum absolute error of
each leaf model so the same Lemma 2-5 machinery certifies guarantees.

Two model families are provided:

* :class:`LinearModel` — ordinary least-squares line (the configuration the
  paper selects after the appendix study),
* :class:`TinyMLP` — a small numpy MLP with one or two hidden layers, used to
  reproduce the appendix's Table VI model-selection experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Aggregate, GuaranteeKind
from ..errors import DataError, NotSupportedError, QueryError
from ..functions.cumulative import CumulativeFunction, build_cumulative_function
from ..queries.batch import CertifiedView
from ..queries.types import Guarantee, QueryResult, RangeQuery

__all__ = ["LinearModel", "TinyMLP", "RecursiveModelIndex"]


@dataclass
class LinearModel:
    """Least-squares line ``y = slope * x + intercept``."""

    slope: float = 0.0
    intercept: float = 0.0

    def fit(self, xs: np.ndarray, ys: np.ndarray) -> "LinearModel":
        """Fit the line to the points; degenerate inputs give a constant."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size == 0:
            self.slope, self.intercept = 0.0, 0.0
            return self
        if xs.size == 1 or np.ptp(xs) == 0:
            self.slope, self.intercept = 0.0, float(ys.mean())
            return self
        slope, intercept = np.polyfit(xs, ys, deg=1)
        self.slope, self.intercept = float(slope), float(intercept)
        return self

    def predict(self, xs: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the line."""
        return self.slope * np.asarray(xs, dtype=np.float64) + self.intercept

    @property
    def num_parameters(self) -> int:
        """Two stored floats."""
        return 2


class TinyMLP:
    """A small fully connected network trained with plain gradient descent.

    Used only for the Table VI model-selection study (LR vs NN architectures);
    it is intentionally minimal: tanh activations, full-batch gradient
    descent, inputs and outputs standardised internally.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (8,),
        learning_rate: float = 0.05,
        epochs: int = 300,
        seed: int = 0,
    ) -> None:
        if any(width <= 0 for width in hidden_layers):
            raise DataError("hidden layer widths must be positive")
        self._hidden_layers = tuple(hidden_layers)
        self._learning_rate = learning_rate
        self._epochs = epochs
        self._seed = seed
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self._x_mean = 0.0
        self._x_std = 1.0
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def architecture(self) -> str:
        """Human-readable architecture string, e.g. ``1:8:1``."""
        widths = (1, *self._hidden_layers, 1)
        return ":".join(str(w) for w in widths)

    def fit(self, xs: np.ndarray, ys: np.ndarray) -> "TinyMLP":
        """Train on the points with full-batch gradient descent."""
        xs = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
        ys = np.asarray(ys, dtype=np.float64).reshape(-1, 1)
        if xs.size == 0:
            raise DataError("cannot fit an empty point set")
        self._x_mean, self._x_std = float(xs.mean()), float(xs.std() or 1.0)
        self._y_mean, self._y_std = float(ys.mean()), float(ys.std() or 1.0)
        x = (xs - self._x_mean) / self._x_std
        y = (ys - self._y_mean) / self._y_std

        rng = np.random.default_rng(self._seed)
        widths = (1, *self._hidden_layers, 1)
        self._weights = [
            rng.normal(0.0, 1.0 / np.sqrt(widths[i]), size=(widths[i], widths[i + 1]))
            for i in range(len(widths) - 1)
        ]
        self._biases = [np.zeros((1, widths[i + 1])) for i in range(len(widths) - 1)]

        for _ in range(self._epochs):
            activations = [x]
            pre_activations = []
            for layer, (weight, bias) in enumerate(zip(self._weights, self._biases)):
                z = activations[-1] @ weight + bias
                pre_activations.append(z)
                is_last = layer == len(self._weights) - 1
                activations.append(z if is_last else np.tanh(z))
            error = activations[-1] - y
            grad = 2.0 * error / x.shape[0]
            for layer in range(len(self._weights) - 1, -1, -1):
                grad_w = activations[layer].T @ grad
                grad_b = grad.sum(axis=0, keepdims=True)
                if layer > 0:
                    grad = (grad @ self._weights[layer].T) * (
                        1.0 - np.tanh(pre_activations[layer - 1]) ** 2
                    )
                self._weights[layer] -= self._learning_rate * grad_w
                self._biases[layer] -= self._learning_rate * grad_b
        return self

    def predict(self, xs: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the trained network."""
        scalar = np.isscalar(xs)
        x = (np.atleast_1d(np.asarray(xs, dtype=np.float64)).reshape(-1, 1) - self._x_mean) / self._x_std
        out = x
        for layer, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            out = out @ weight + bias
            if layer < len(self._weights) - 1:
                out = np.tanh(out)
        result = out.ravel() * self._y_std + self._y_mean
        return float(result[0]) if scalar else result

    @property
    def num_parameters(self) -> int:
        """Total trained parameters."""
        return int(
            sum(weight.size for weight in self._weights)
            + sum(bias.size for bias in self._biases)
        )


class RecursiveModelIndex(CertifiedView):
    """Multi-stage RMI over a cumulative target function.

    Construction follows the classic recipe: stage 1 has a single model over
    all points; each subsequent stage partitions points by the previous
    stage's (scaled) prediction and fits one model per partition.  Leaf models
    additionally record the maximum absolute error over the points routed to
    them, which is the quantity the guarantee machinery needs.

    Parameters
    ----------
    stage_sizes:
        Number of models per stage, e.g. ``(1, 10, 100)``.  The first entry
        must be 1.
    model_factory:
        Callable returning a fresh model with ``fit``/``predict``;
        defaults to :class:`LinearModel`.

    The batch surface comes from :class:`~repro.queries.batch.CertifiedView`
    with ``absolute_fallback = True``: like the scalar :meth:`query`, an
    unmeetable absolute guarantee answers exactly (unlike PolyFit).
    """

    absolute_fallback = True

    def __init__(
        self,
        stage_sizes: tuple[int, ...] = (1, 10, 100),
        model_factory=LinearModel,
    ) -> None:
        if not stage_sizes or stage_sizes[0] != 1:
            raise DataError("stage_sizes must start with a single root model")
        if any(size <= 0 for size in stage_sizes):
            raise DataError("stage sizes must be positive")
        self._stage_sizes = tuple(stage_sizes)
        self._model_factory = model_factory
        self._stages: list[list[object]] = []
        self._stage_params: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._leaf_errors: np.ndarray | None = None
        self._cumulative: CumulativeFunction | None = None
        self._aggregate = Aggregate.COUNT
        self._key_low = 0.0
        self._key_high = 1.0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        aggregate: Aggregate = Aggregate.COUNT,
        *,
        stage_sizes: tuple[int, ...] = (1, 10, 100),
        model_factory=LinearModel,
    ) -> "RecursiveModelIndex":
        """Build the RMI over the cumulative function of the dataset.

        Only COUNT/SUM are supported (Table IV: RMI does not support MAX and
        two-key queries).
        """
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("RMI supports only COUNT and SUM aggregates")
        index = cls(stage_sizes=stage_sizes, model_factory=model_factory)
        index._aggregate = aggregate
        index._cumulative = build_cumulative_function(keys, measures, aggregate)
        index._fit(index._cumulative.keys, index._cumulative.values)
        return index

    def _fit(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._key_low = float(keys[0])
        self._key_high = float(keys[-1])
        total_span = max(values[-1] - values[0], 1.0)

        assignments = np.zeros(keys.size, dtype=int)
        self._stages = []
        for stage_index, stage_size in enumerate(self._stage_sizes):
            stage_models: list[object] = []
            next_assignments = np.zeros(keys.size, dtype=int)
            is_last = stage_index == len(self._stage_sizes) - 1
            next_size = 1 if is_last else self._stage_sizes[stage_index + 1]
            leaf_errors = np.zeros(stage_size)
            for model_id in range(stage_size):
                mask = assignments == model_id
                model = self._model_factory()
                if np.any(mask):
                    model.fit(keys[mask], values[mask])
                else:
                    model.fit(np.array([self._key_low]), np.array([0.0]))
                stage_models.append(model)
                if np.any(mask):
                    predictions = np.atleast_1d(model.predict(keys[mask]))
                    if is_last:
                        leaf_errors[model_id] = float(
                            np.max(np.abs(predictions - values[mask]))
                        )
                    else:
                        routed = np.clip(
                            (predictions - values[0]) / total_span * next_size,
                            0,
                            next_size - 1,
                        ).astype(int)
                        next_assignments[mask] = routed
            self._stages.append(stage_models)
            if is_last:
                self._leaf_errors = leaf_errors
            assignments = next_assignments

        # Flat per-stage parameter arrays for the vectorized batch path; only
        # available when every model is a LinearModel (TinyMLP stages fall
        # back to the per-key loop).
        self._stage_params: list[tuple[np.ndarray, np.ndarray]] | None = []
        for stage_models in self._stages:
            if not all(isinstance(model, LinearModel) for model in stage_models):
                self._stage_params = None
                break
            self._stage_params.append(
                (
                    np.array([model.slope for model in stage_models], dtype=np.float64),
                    np.array([model.intercept for model in stage_models], dtype=np.float64),
                )
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the index answers (used by the engine's batch checks)."""
        return self._aggregate

    @property
    def max_error(self) -> float:
        """Maximum absolute error of any leaf model (the certified delta)."""
        if self._leaf_errors is None:
            raise DataError("index not built")
        return float(self._leaf_errors.max())

    @property
    def stage_sizes(self) -> tuple[int, ...]:
        """Number of models per stage."""
        return self._stage_sizes

    def size_in_bytes(self) -> int:
        """Footprint of the stored model parameters plus per-leaf errors."""
        parameters = sum(
            getattr(model, "num_parameters", 2)
            for stage in self._stages
            for model in stage
        )
        leaves = self._stage_sizes[-1]
        return 8 * (parameters + leaves)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def predict_cumulative(self, key: float) -> float:
        """Predict ``CF(key)`` by routing through the model hierarchy."""
        if not self._stages or self._cumulative is None:
            raise DataError("index not built")
        key = float(np.clip(key, self._key_low, self._key_high))
        values = self._cumulative.values
        total_span = max(values[-1] - values[0], 1.0)
        model = self._stages[0][0]
        prediction = float(np.atleast_1d(model.predict(key))[0])
        for stage_index in range(1, len(self._stages)):
            stage_size = self._stage_sizes[stage_index]
            routed = int(
                np.clip((prediction - values[0]) / total_span * stage_size, 0, stage_size - 1)
            )
            model = self._stages[stage_index][routed]
            prediction = float(np.atleast_1d(model.predict(key))[0])
        return prediction

    def estimate(self, query: RangeQuery) -> float:
        """Approximate range aggregate ``CF(high) - CF(low)``."""
        if query.aggregate is not self._aggregate:
            raise NotSupportedError("aggregate mismatch")
        if query.low < self._key_low:
            lower = 0.0
        else:
            lower = self.predict_cumulative(query.low)
        return self.predict_cumulative(query.high) - lower

    def predict_cumulative_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`predict_cumulative` for N keys at once.

        With linear stages the model hierarchy flattens to per-stage
        slope/intercept arrays: each stage is one gather plus one fused
        multiply-add, so routing N keys costs O(stages) NumPy calls.  Mixed
        or MLP stages fall back to the per-key loop.
        """
        if not self._stages or self._cumulative is None:
            raise DataError("index not built")
        keys = np.asarray(keys, dtype=np.float64)
        if self._stage_params is None:
            return np.array([self.predict_cumulative(float(k)) for k in keys], dtype=np.float64)
        clipped = np.clip(keys, self._key_low, self._key_high)
        values = self._cumulative.values
        total_span = max(values[-1] - values[0], 1.0)
        slopes, intercepts = self._stage_params[0]
        prediction = slopes[0] * clipped + intercepts[0]
        for stage_index in range(1, len(self._stages)):
            stage_size = self._stage_sizes[stage_index]
            routed = np.clip(
                (prediction - values[0]) / total_span * stage_size, 0, stage_size - 1
            ).astype(int)
            slopes, intercepts = self._stage_params[stage_index]
            prediction = slopes[routed] * clipped + intercepts[routed]
        return prediction

    def _approx(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, float]:
        """Vectorized :meth:`estimate` over N ranges, with bound ``2 * max_error``."""
        lower = np.where(lows < self._key_low, 0.0, self.predict_cumulative_batch(lows))
        return self.predict_cumulative_batch(highs) - lower, 2.0 * self.max_error

    def _exact(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Exact answers through the underlying cumulative function."""
        if self._cumulative is None:
            raise DataError("index not built")
        return self._cumulative.range_sum_batch(lows, highs)

    def query(self, query: RangeQuery, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer with the same guarantee semantics as PolyFit.

        The per-leaf maximum error plays the role of delta; absolute
        guarantees need ``2 * max_error <= eps_abs`` and relative guarantees
        use the Lemma 3 certificate with fallback to the exact cumulative
        array.
        """
        if self._cumulative is None:
            raise DataError("index not built")
        approx = self.estimate(query)
        delta = self.max_error
        bound = 2.0 * delta
        if guarantee is None:
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)
        if guarantee.kind is GuaranteeKind.ABSOLUTE:
            if bound <= guarantee.epsilon + 1e-12:
                return QueryResult(value=approx, guaranteed=True, error_bound=bound)
            exact = self._cumulative.range_sum(query.low, query.high)
            return QueryResult(value=exact, guaranteed=True, exact_fallback=True, error_bound=0.0)
        threshold = 2.0 * delta * (1.0 + 1.0 / guarantee.epsilon)
        if approx >= threshold:
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)
        exact = self._cumulative.range_sum(query.low, query.high)
        return QueryResult(value=exact, guaranteed=True, exact_fallback=True, error_bound=0.0)

    def exact(self, query: RangeQuery) -> float:
        """Exact answer through the underlying cumulative function."""
        if self._cumulative is None:
            raise DataError("index not built")
        if query.high < query.low:
            raise QueryError("invalid range")
        return self._cumulative.range_sum(query.low, query.high)
