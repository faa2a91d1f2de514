"""The one-key PolyFit index.

:class:`PolyFitIndex` is the paper's primary structure for a single key:

1. Build the target function (``CFsum`` for SUM/COUNT, ``DFmax``/``DFmin``
   for MAX/MIN) from the raw (key, measure) records.
2. Segment it with Greedy Segmentation under a per-segment budget ``delta``
   derived from the requested guarantee (Lemmas 2/4) or supplied directly.
3. Place a flat sorted array of segment boundaries (searched with
   ``numpy.searchsorted`` — the analogue of the short root-to-leaf path of
   Figure 6) over the ``h`` segments; for MAX/MIN additionally store the
   ``h`` true per-segment extremes with a range-extreme table over them, so
   whole segments inside the query range are resolved without touching
   their polynomial.

Query answering follows Section V:

* SUM/COUNT — ``A = P_Iu(uq) - P_Il(lq)``, error at most ``2 * delta``.
* MAX/MIN — the stored extremes of the fully covered segments, merged with
  the largest (smallest) value each boundary segment's polynomial takes at
  the *sampled keys* inside the query range; error at most ``delta``
  (Lemma 4).  The continuous maximum of Equation 17 is not used: between
  samples a polynomial can overshoot, and Lemma 4 does not cover that.
  Over a window of samples a polynomial P is largest (smallest) at one of
  the window's two ends or at a sample next to a root of P'; between two
  roots P is monotone, so no other sample can win.  Each segment therefore
  stores O(d) candidate samples with their P values, and a query evaluates
  P only at its two snapped bounds.

Relative-error queries (Problem 2) are answered through the certificate of
Lemmas 3/5 with an automatic fallback to the exact baseline when the
certificate fails.
"""

from __future__ import annotations

import numpy as np

from ..baselines.exact import KeyCumulativeArray
from ..config import Aggregate, IndexConfig
from ..errors import DataError, GuaranteeNotSatisfiedError, NotSupportedError, QueryError
from ..fitting.segmentation import Segment, greedy_segmentation
from ..functions.cumulative import CumulativeFunction, build_cumulative_function
from ..functions.key_measure import KeyMeasureFunction, build_key_measure_function
from ..queries.batch import CertifiedView
from ..queries.types import Guarantee, QueryResult, RangeQuery
from ..config import GuaranteeKind
from .directory import RangeExtremeTable, SegmentDirectory
from .guarantees import certified_absolute_bound, certify_relative, delta_for_absolute

__all__ = ["PolyFitIndex"]

class PolyFitIndex(CertifiedView):
    """Piecewise-polynomial index for one-key range aggregate queries.

    Use :meth:`build` (from raw records plus a guarantee/delta) or
    :meth:`from_function` (from an already-constructed target function).
    The batch read surface (``estimate_batch`` / ``exact_batch`` /
    ``query_batch``) comes from :class:`~repro.queries.batch.CertifiedView`;
    the scalar ``query`` / ``estimate`` / ``exact`` below stay the oracle
    the batch path is tested against.

    Parameters are not meant to be mutated after construction; the index is a
    static structure, matching the paper's static setting.
    """

    def __init__(
        self,
        aggregate: Aggregate,
        delta: float,
        segments: list[Segment],
        directory: SegmentDirectory,
        cumulative: CumulativeFunction | None,
        key_measure: KeyMeasureFunction | None,
        exact_fallback: KeyCumulativeArray | None,
        config: IndexConfig,
    ) -> None:
        self._aggregate = aggregate
        self._delta = float(delta)
        self._segments = segments
        self._directory = directory
        self._cumulative = cumulative
        self._key_measure = key_measure
        self._exact_fallback = exact_fallback
        self._config = config
        if key_measure is not None:
            self._build_extreme_tables(key_measure)
        # The certified bound depends only on construction-time quantities;
        # computing it once here keeps it off the per-query hot path.
        self._certified_bound = certified_absolute_bound(self._delta, aggregate, num_keys=1)

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
        delta: float | None = None,
        guarantee: Guarantee | None = None,
        config: IndexConfig | None = None,
    ) -> "PolyFitIndex":
        """Build a PolyFit index from raw (key, measure) records.

        Parameters
        ----------
        keys, measures:
            The dataset.  ``measures`` may be omitted for COUNT.
        aggregate:
            Which aggregate this index answers (COUNT, SUM, MIN or MAX).
        delta:
            Per-segment fitting budget.  Either ``delta`` or an *absolute*
            ``guarantee`` must be provided; for relative-error workloads pass
            ``delta`` directly (the paper uses delta = 50 for one key).
        guarantee:
            An absolute guarantee from which delta is derived via
            Lemma 2 (SUM/COUNT) or Lemma 4 (MAX/MIN).
        config:
            Polynomial degree, segmentation method and fan-out.

        Returns
        -------
        PolyFitIndex
        """
        config = config or IndexConfig()
        if delta is None:
            if guarantee is None:
                raise QueryError("provide either delta or an absolute guarantee")
            if guarantee.kind is not GuaranteeKind.ABSOLUTE:
                raise QueryError(
                    "only absolute guarantees determine delta at build time; "
                    "pass delta explicitly for relative-error workloads"
                )
            delta = delta_for_absolute(guarantee.epsilon, aggregate, num_keys=1)

        keys = np.asarray(keys, dtype=np.float64)
        if measures is None:
            if aggregate is not Aggregate.COUNT:
                raise DataError(f"{aggregate.value} requires measures")
            measures = np.ones_like(keys)
        measures = np.asarray(measures, dtype=np.float64)

        if aggregate.is_cumulative:
            function = build_cumulative_function(keys, measures, aggregate)
        else:
            function = build_key_measure_function(keys, measures, aggregate)
        return cls.from_function(function, delta=delta, config=config)

    @classmethod
    def from_function(
        cls,
        function: CumulativeFunction | KeyMeasureFunction,
        *,
        delta: float,
        config: IndexConfig | None = None,
    ) -> "PolyFitIndex":
        """Build a PolyFit index from an already-constructed target function.

        The function's own samples are segmented — a cumulative function's
        values are running sums, not raw measures, so they are never fed
        back through :meth:`build`.
        """
        config = config or IndexConfig()
        if isinstance(function, CumulativeFunction):
            values = function.values
        elif isinstance(function, KeyMeasureFunction):
            values = function.measures
        else:
            raise DataError(f"unsupported function type {type(function)!r}")
        segments = greedy_segmentation(
            function.keys,
            values,
            delta=delta,
            degree=config.fit.degree,
            use_exponential_search=config.segmentation.method != "greedy",
            solver=config.fit.solver,
            early_accept=config.segmentation.early_accept,
        )
        return cls.from_segments(
            function.aggregate, delta, segments, function.keys, values, config
        )

    @classmethod
    def from_segments(
        cls,
        aggregate: Aggregate,
        delta: float,
        segments: list[Segment],
        function_keys: np.ndarray,
        function_values: np.ndarray,
        config: IndexConfig,
    ) -> "PolyFitIndex":
        """Assemble an index from fitted segments and the sampled target function.

        The one assembly path shared by :meth:`build`, the codec loader and
        streaming compaction: it rebuilds the segment directory and the
        exact-fallback structures (the key-cumulative array for SUM/COUNT;
        for MAX/MIN, the raw key-measure function and the per-segment
        extreme tables) from the segments and the function samples they
        were fitted to.
        """
        directory = SegmentDirectory.from_segments(segments)
        cumulative = None
        key_measure = None
        exact_fallback = None
        if aggregate.is_cumulative:
            cumulative = CumulativeFunction(
                keys=function_keys, values=function_values, aggregate=aggregate
            )
            exact_fallback = KeyCumulativeArray.from_cumulative(cumulative)
        else:
            key_measure = KeyMeasureFunction(
                keys=function_keys, measures=function_values, aggregate=aggregate
            )
        return cls(
            aggregate=aggregate,
            delta=delta,
            segments=segments,
            directory=directory,
            cumulative=cumulative,
            key_measure=key_measure,
            exact_fallback=exact_fallback,
            config=config,
        )

    def _build_extreme_tables(self, key_measure: KeyMeasureFunction) -> None:
        """The MAX/MIN answer tables, O(h * d) floats in all.

        * ``_segment_extremes`` — each segment's true extreme (segments tile
          the samples, so one ``reduceat`` over the starts), with a
          range-extreme table for the fully covered interior of a query;
        * ``(h, C)`` sorted candidate samples per segment — its first and
          last sample plus two samples on each side of every root of P' —
          with P's value at each (the rule in the module docstring), and
          per-segment prefix/suffix extremes of those values.  Flattened,
          the candidate indices are globally sorted.
        """
        maximize = self._aggregate is Aggregate.MAX
        self._combine = np.maximum if maximize else np.minimum
        self._fill = -np.inf if maximize else np.inf
        keys = key_measure.keys
        directory = self._directory
        starts = directory.starts[:, None]
        lasts = directory.stops[:, None] - 1
        self._segment_extremes = self._combine.reduceat(key_measure.measures, directory.starts)
        self._interior = RangeExtremeTable(self._segment_extremes, maximize)
        roots = directory.bank.critical_points()
        positions = np.searchsorted(keys, np.where(np.isnan(roots), keys[starts], roots))
        around = (positions[:, :, None] + np.arange(-2, 2)).reshape(len(directory), -1)
        index = np.sort(np.clip(np.hstack((starts, lasts, around)), starts, lasts), axis=1)
        rows = np.repeat(np.arange(len(directory)), index.shape[1])
        values = directory.bank.evaluate(rows, keys[index.ravel()]).reshape(index.shape)
        self._candidate_index = index
        self._candidate_values = values
        self._candidate_prefix = self._combine.accumulate(values, axis=1).ravel()
        self._candidate_suffix = self._combine.accumulate(values[:, ::-1], axis=1)[:, ::-1].ravel()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate the index answers."""
        return self._aggregate

    @property
    def delta(self) -> float:
        """Per-segment fitting budget used at construction."""
        return self._delta

    @property
    def certified_bound(self) -> float:
        """Construction-time certified absolute error bound (Lemma 2 / 4)."""
        return self._certified_bound

    @property
    def num_segments(self) -> int:
        """Number of fitted segments (``h`` in Figure 6)."""
        return len(self._segments)

    @property
    def segments(self) -> list[Segment]:
        """The fitted segments (read-only view)."""
        return list(self._segments)

    @property
    def config(self) -> IndexConfig:
        """Configuration used to build the index."""
        return self._config

    @property
    def degree(self) -> int:
        """Polynomial degree of the segments."""
        return self._config.fit.degree

    def size_in_bytes(self) -> int:
        """Approximate in-memory footprint of the *index payload*.

        Counts the stored float parameters (segment boundaries and polynomial
        coefficients, plus per-segment extremes for MAX/MIN) at 8 bytes each,
        mirroring how the paper reports index size (Figure 19).  The exact
        fallback structure is excluded (it is the baseline structure every
        method needs for uncertified relative queries).  So are the
        structures derived from the counted parameters at load time, like
        the flat directory arrays: for MAX/MIN, the O(h * d) candidate
        table and the range-extreme table over the per-segment extremes.
        """
        floats = 0
        for segment in self._segments:
            floats += 2  # key_low, key_high
            floats += segment.polynomial.num_parameters
        if self._key_measure is not None:
            floats += self.num_segments  # one extreme per segment
        return floats * 8

    # ------------------------------------------------------------------ #
    # Query answering
    # ------------------------------------------------------------------ #

    def query(self, query: RangeQuery, guarantee: Guarantee | None = None) -> QueryResult:
        """Answer an approximate range aggregate query.

        Parameters
        ----------
        query:
            The range and aggregate.  The aggregate must match the one the
            index was built for.
        guarantee:
            Optional requested guarantee.  Absolute guarantees are checked
            against the construction-time budget; relative guarantees use the
            certificate of Lemma 3/5 and fall back to the exact method when
            it fails.

        Returns
        -------
        QueryResult
        """
        if query.aggregate is not self._aggregate:
            raise NotSupportedError(
                f"index built for {self._aggregate.value} cannot answer "
                f"{query.aggregate.value} queries"
            )
        approx = self._approximate(query)
        bound = self._certified_bound

        if guarantee is None:
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)

        if guarantee.kind is GuaranteeKind.ABSOLUTE:
            if bound <= guarantee.epsilon + 1e-12:
                return QueryResult(value=approx, guaranteed=True, error_bound=bound)
            # The index was built with a looser budget than requested.
            return QueryResult(value=approx, guaranteed=False, error_bound=bound)

        # Relative guarantee: certify via Lemma 3 / 5, else exact fallback.
        if certify_relative(approx, self._delta, guarantee.epsilon, self._aggregate, num_keys=1):
            return QueryResult(value=approx, guaranteed=True, error_bound=bound)
        exact = self.exact(query)
        return QueryResult(value=exact, guaranteed=True, exact_fallback=True, error_bound=0.0)

    def query_value(self, low: float, high: float) -> float:
        """Convenience: the raw approximate value for ``[low, high]``."""
        return self._approximate(RangeQuery(low=low, high=high, aggregate=self._aggregate))

    def estimate(self, query: RangeQuery) -> float:
        """The approximate answer without any certification logic."""
        return self._approximate(query)

    # ------------------------------------------------------------------ #
    # Batch query answering (the CertifiedView protocol)
    # ------------------------------------------------------------------ #

    def _approx(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, float]:
        """Approximate answers for N ranges ``[lows[i], highs[i]]`` at once.

        SUM/COUNT runs entirely on flat arrays: two vectorized
        ``searchsorted`` calls snap all bounds to sampled keys, the segment
        directory is probed once for every corner, and the gathered
        coefficient rows are evaluated with a single Horner pass
        (:meth:`PolynomialBank.evaluate`) — O(1) NumPy calls for the whole
        workload.  MAX/MIN vectorizes the snapping and segment location and
        merges the boundary polynomials with the per-segment candidate and
        extreme tables.
        The certified bound is the construction-time constant.
        """
        if self._aggregate.is_cumulative:
            return self._approximate_cumulative_batch(lows, highs), self._certified_bound
        return self._approximate_extreme_batch(lows, highs), self._certified_bound

    def _exact(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Exact answers for N ranges via the fallback structures."""
        if self._aggregate.is_cumulative:
            assert self._cumulative is not None
            return self._cumulative.range_sum_batch(lows, highs)
        assert self._key_measure is not None
        return self._key_measure.range_extreme_batch(lows, highs)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _approximate(self, query: RangeQuery) -> float:
        if self._aggregate.is_cumulative:
            return self._approximate_cumulative(query)
        return self._approximate_extreme(query)

    def _approximate_cumulative(self, query: RangeQuery) -> float:
        # Snap the query bounds to the sampled keys of the cumulative
        # function before evaluating the segment polynomials: the bounded
        # delta-error constraint (Definition 3) holds at the sampled keys, so
        # evaluating there makes the Lemma 2 bound valid for arbitrary
        # real-valued query bounds, not just bounds drawn from the dataset.
        assert self._cumulative is not None
        keys = self._cumulative.keys
        # Upper corner: last sampled key <= high (inclusive range).
        upper_idx = int(np.searchsorted(keys, query.high, side="right")) - 1
        if upper_idx < 0:
            return 0.0
        # Lower corner: last sampled key strictly below low, so a record at
        # exactly `low` is included in the range (matching the exact method).
        lower_idx = int(np.searchsorted(keys, query.low, side="left")) - 1

        upper_value = self._evaluate_at_sample(upper_idx)
        lower_value = 0.0 if lower_idx < 0 else self._evaluate_at_sample(lower_idx)
        return upper_value - lower_value

    def _evaluate_at_sample(self, sample_index: int) -> float:
        """Evaluate the covering segment's polynomial at a sampled key."""
        assert self._cumulative is not None
        key = float(self._cumulative.keys[sample_index])
        segment = self._segments[self._directory.locate(key)]
        return float(segment.polynomial(key))

    def _approximate_cumulative_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorized counterpart of :meth:`_approximate_cumulative`.

        The same two-corner evaluation (``P(uq) - P(lq)`` after snapping to
        sampled keys), done for every query at once: one ``searchsorted`` per
        side, one directory probe per side, one Horner pass over the gathered
        coefficient rows.
        """
        assert self._cumulative is not None
        keys = self._cumulative.keys
        upper_idx = np.searchsorted(keys, highs, side="right") - 1
        lower_idx = np.searchsorted(keys, lows, side="left") - 1

        sample_keys = np.concatenate(
            (keys[np.maximum(upper_idx, 0)], keys[np.maximum(lower_idx, 0)])
        )
        rows = self._directory.locate_batch(sample_keys)
        corner_values = self._directory.bank.evaluate(rows, sample_keys)
        n = highs.size
        upper_values = np.where(upper_idx >= 0, corner_values[:n], 0.0)
        lower_values = np.where(lower_idx >= 0, corner_values[n:], 0.0)
        # A query entirely below the first sampled key has no records.
        return np.where(upper_idx < 0, 0.0, upper_values - lower_values)

    def _approximate_extreme(self, query: RangeQuery) -> float:
        assert self._key_measure is not None
        # Snap the bounds to the sampled keys so the query range matches the
        # records actually selected by the exact semantics (and so an empty
        # range is detected as such).  Each polynomial value deviates from
        # the true measure by at most delta (Definition 3), and each stored
        # extreme is exact, so the merged extreme is within delta (Lemma 4).
        keys = self._key_measure.keys
        lo = int(np.searchsorted(keys, query.low, side="left"))
        hi = int(np.searchsorted(keys, query.high, side="right")) - 1
        if hi < lo:
            return float("nan")
        low_key, high_key = float(keys[lo]), float(keys[hi])
        first, last = self._directory.covering_range(low_key, high_key)
        values = [
            self._segments[first].polynomial(low_key),
            self._segments[last].polynomial(high_key),
        ]
        for row in {first, last}:
            for index, value in zip(
                self._candidate_index[row].tolist(), self._candidate_values[row].tolist()
            ):
                if lo <= index <= hi:
                    values.append(value)
        if last - first > 1:
            values.append(float(self._combine.reduce(self._segment_extremes[first + 1:last])))
        return float(max(values) if self._aggregate is Aggregate.MAX else min(values))

    def _approximate_extreme_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Batch counterpart of :meth:`_approximate_extreme` — O(1) NumPy calls.

        Two ``searchsorted`` passes snap the bounds to sampled keys; one
        ``searchsorted`` over the flattened candidates finds both the
        covering segments and their in-range candidates; one Horner pass
        evaluates the boundary polynomials at the snapped bounds; and the
        range-extreme table answers the fully covered interior.
        """
        assert self._key_measure is not None
        keys = self._key_measure.keys
        lo_idx = np.searchsorted(keys, lows, side="left")
        hi_idx = np.searchsorted(keys, highs, side="right") - 1
        out = np.full(lows.shape, np.nan, dtype=np.float64)
        non_empty = hi_idx >= lo_idx
        if not np.any(non_empty):
            return out

        lo = lo_idx[non_empty]
        hi = hi_idx[non_empty]
        n = lo.size
        width = self._candidate_index.shape[1]
        # First candidate at or after lo and last at or before hi.  Every
        # segment's first and last sample are candidates, so these land in
        # the rows of the segments covering lo and hi.
        positions = np.searchsorted(self._candidate_index.ravel(), np.concatenate((lo, hi + 1)))
        c_lo, c_hi = positions[:n], positions[n:] - 1
        first, last = c_lo // width, c_hi // width
        ends = np.concatenate((keys[lo], keys[hi]))
        end_values = self._directory.bank.evaluate(np.concatenate((first, last)), ends)
        value = self._combine(end_values[:n], end_values[n:])
        spanning = first != last
        value[spanning] = self._combine(value[spanning], self._combine(
            self._candidate_suffix[c_lo[spanning]], self._candidate_prefix[c_hi[spanning]]
        ))
        covered = last - first > 1
        value[covered] = self._combine(
            value[covered], self._interior.query(first[covered] + 1, last[covered] - 1)
        )
        same = ~spanning
        index = self._candidate_index[first[same]]
        value[same] = self._combine(value[same], self._combine.reduce(
            self._candidate_values[first[same]],
            axis=1,
            where=(index >= lo[same, None]) & (index <= hi[same, None]),
            initial=self._fill,
        ))
        out[non_empty] = value
        return out

    def exact(self, query: RangeQuery) -> float:
        """Exact answer via the fallback structures (used by tests/benches)."""
        if query.aggregate is not self._aggregate:
            raise NotSupportedError("aggregate mismatch")
        if self._aggregate.is_cumulative:
            assert self._cumulative is not None
            return self._cumulative.range_sum(query.low, query.high)
        assert self._key_measure is not None
        return self._key_measure.range_extreme(query.low, query.high)

    def require_guarantee(self, query: RangeQuery, guarantee: Guarantee) -> float:
        """Answer and raise if the guarantee cannot be certified (no fallback)."""
        approx = self._approximate(query)
        bound = self._certified_bound
        if guarantee.kind is GuaranteeKind.ABSOLUTE:
            if bound > guarantee.epsilon + 1e-12:
                raise GuaranteeNotSatisfiedError(
                    f"index delta {self._delta} certifies only +/-{bound}, "
                    f"requested eps_abs={guarantee.epsilon}"
                )
            return approx
        if not certify_relative(approx, self._delta, guarantee.epsilon, self._aggregate, 1):
            raise GuaranteeNotSatisfiedError(
                "relative-error certificate failed; use query() for automatic fallback"
            )
        return approx
