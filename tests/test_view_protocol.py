"""Conformance of every view to the certified read protocol.

Every PolyFit-family view — the static indexes, the overlay in both
dimensions, the fleet routers, the RMI and FITing-tree baselines, and the
mutable indexes that forward to a snapshot — answers through
:class:`~repro.queries.batch.CertifiedView`.  One table drives the checks:

* ``query_batch`` equals :func:`resolve_batch_certificates` over the view's
  own ``estimate_batch`` / ``exact_batch``, for both guarantee kinds, with
  the guarantee passed positionally or by keyword;
* the shared scalar helpers equal a batch of one;
* ``dims`` is the bound arity :class:`~repro.serve.host.EngineHost` accepts;
* a NaN in any bound position is a typed :class:`QueryError`, and
  ``-inf`` / ``+inf`` bounds mean "unbounded on that side".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Aggregate,
    Guarantee,
    IndexFleet,
    PolyFit2DIndex,
    PolyFitIndex,
    RangeQuery,
    RangeQuery2D,
    UpdatablePolyFit2DIndex,
    UpdatablePolyFitIndex,
)
from repro.baselines import FITingTree, RecursiveModelIndex
from repro.errors import QueryError
from repro.fleet import Fleet2D
from repro.queries.batch import (
    CertifiedView,
    SnapshotReads,
    resolve_batch_certificates,
    validate_bounds_batch,
)
from repro.serve import EngineHost

GUARANTEES = [
    None,
    Guarantee.absolute(1e4),
    Guarantee.absolute(1e-6),
    Guarantee.relative(0.01),
    Guarantee.relative(0.5),
]
GUARANTEE_IDS = ["none", "abs-loose", "abs-tight", "rel-tight", "rel-loose"]


def _keys_measures():
    rng = np.random.default_rng(24)
    keys = np.sort(rng.uniform(0.0, 1000.0, 3000))
    return keys, rng.uniform(0.0, 10.0, keys.size), rng


def _points():
    rng = np.random.default_rng(25)
    return rng.normal(0.0, 1.0, 2000), rng.normal(0.0, 1.0, 2000), rng.uniform(0, 3, 2000)


def _updatable_1d(aggregate):
    keys, measures, rng = _keys_measures()
    index = UpdatablePolyFitIndex.build(keys, measures, aggregate, delta=20.0)
    index.insert(rng.uniform(0.0, 1000.0, 200), rng.uniform(0.0, 10.0, 200))
    return index


def _updatable_2d(aggregate):
    xs, ys, ws = _points()
    weights = ws if aggregate is Aggregate.SUM else None
    index = UpdatablePolyFit2DIndex.build(
        xs, ys, weights, delta=10.0, aggregate=aggregate, grid_resolution=32
    )
    rng = np.random.default_rng(26)
    index.insert(rng.normal(0.0, 1.0, 150), rng.normal(0.0, 1.0, 150),
                 rng.uniform(0, 3, 150) if weights is not None else None)
    return index


def _fleet(aggregate):
    keys, measures, rng = _keys_measures()
    fleet = IndexFleet.build(keys, measures, aggregate, delta=20.0, num_partitions=3)
    fleet.insert(rng.uniform(0.0, 1000.0, 200), rng.uniform(0.0, 10.0, 200))
    return fleet


def _polyfit2d(aggregate):
    xs, ys, ws = _points()
    return PolyFit2DIndex.build(xs, ys, ws if aggregate is Aggregate.SUM else None,
                                delta=10.0, aggregate=aggregate, grid_resolution=32)


def _fleet2d(aggregate):
    xs, ys, ws = _points()
    return Fleet2D.build(xs, ys, ws if aggregate is Aggregate.SUM else None,
                         aggregate=aggregate, delta=10.0, num_partitions=3,
                         grid_resolution=32)


#: name -> factory; each view is built once per module, on first use.
VIEWS = {
    "polyfit-count": lambda: PolyFitIndex.build(_keys_measures()[0], delta=20.0),
    "polyfit-max": lambda: PolyFitIndex.build(*_keys_measures()[:2], Aggregate.MAX, delta=1.0),
    "polyfit2d-count": lambda: _polyfit2d(Aggregate.COUNT),
    "overlay-sum": lambda: _updatable_1d(Aggregate.SUM).snapshot(),
    "overlay-min": lambda: _updatable_1d(Aggregate.MIN).snapshot(),
    "overlay2d-sum": lambda: _updatable_2d(Aggregate.SUM).snapshot(),
    "router-count": lambda: _fleet(Aggregate.COUNT).snapshot(),
    "router-max": lambda: _fleet(Aggregate.MAX).snapshot(),
    "fleet2d-count": lambda: _fleet2d(Aggregate.COUNT),
    "rmi-count": lambda: RecursiveModelIndex.build(_keys_measures()[0]),
    "fiting-sum": lambda: FITingTree.build(
        *_keys_measures()[:2], Aggregate.SUM, error_budget=20.0),
    "updatable-count": lambda: _updatable_1d(Aggregate.COUNT),
    "updatable2d-count": lambda: _updatable_2d(Aggregate.COUNT),
    "fleet-sum": lambda: _fleet(Aggregate.SUM),
}

#: Views whose scalar calls are the shared batch-of-one helpers; the static
#: indexes and the baselines keep their own scalar oracle, which
#: ``test_batch_equivalence`` compares against the batch path.
SHARED_SCALAR = sorted(set(VIEWS) - {
    "polyfit-count", "polyfit-max", "polyfit2d-count", "rmi-count", "fiting-sum",
})

_BUILT: dict = {}


def _build(name):
    if name not in _BUILT:
        _BUILT[name] = VIEWS[name]()
    return _BUILT[name]


@pytest.fixture(params=sorted(VIEWS))
def view(request):
    return _build(request.param)


def _certified(view) -> CertifiedView:
    """The protocol view that answers for ``view`` (its snapshot if mutable)."""
    return view.snapshot() if isinstance(view, SnapshotReads) else view


def _workload(view, n=300, seed=3):
    rng = np.random.default_rng(seed)
    if view.dims == 1:
        draws = rng.uniform(-50.0, 1050.0, (2, n))
        return np.minimum(*draws), np.maximum(*draws)
    draws = rng.normal(0.0, 1.4, (4, n))
    return (np.minimum(draws[0], draws[1]), np.maximum(draws[0], draws[1]),
            np.minimum(draws[2], draws[3]), np.maximum(draws[2], draws[3]))


def _assert_same(result, expected):
    for field in ("values", "guaranteed", "exact_fallback", "error_bounds"):
        assert np.array_equal(getattr(result, field), getattr(expected, field),
                              equal_nan=field in ("values", "error_bounds")), field


@pytest.mark.parametrize("guarantee", GUARANTEES, ids=GUARANTEE_IDS)
def test_query_batch_is_the_shared_certificate(view, guarantee):
    bounds = _workload(view)
    certified = _certified(view)
    _, error_bound = certified._approx(*validate_bounds_batch(*bounds))
    expected = resolve_batch_certificates(
        view.estimate_batch(*bounds),
        error_bound=error_bound,
        guarantee=guarantee,
        exact_for_mask=lambda mask: view.exact_batch(*(b[mask] for b in bounds)),
        absolute_fallback=certified.absolute_fallback,
    )
    _assert_same(view.query_batch(*bounds, guarantee), expected)
    _assert_same(view.query_batch(*bounds, guarantee=guarantee), expected)


@pytest.mark.parametrize("name", SHARED_SCALAR)
def test_scalar_helpers_are_a_batch_of_one(name):
    view = _build(name)
    assert type(view).query in (CertifiedView.query, SnapshotReads.query)
    for i, bounds in enumerate(zip(*_workload(view, n=5, seed=9))):
        if view.dims == 1:
            query = RangeQuery(*bounds, view.aggregate)
        else:
            query = RangeQuery2D(*bounds, view.aggregate)
        one = tuple([b] for b in bounds)
        assert np.array_equal(view.estimate(query), view.estimate_batch(*one)[0],
                              equal_nan=True)
        assert np.array_equal(view.exact(query), view.exact_batch(*one)[0], equal_nan=True)
        guarantee = GUARANTEES[i % len(GUARANTEES)]
        assert view.query(query, guarantee) == view.query_batch(*one, guarantee).to_results()[0]


def test_dims_is_the_host_bound_arity(view):
    host = EngineHost(view)
    assert host.dims == view.dims == _certified(view).dims
    bounds = _workload(view, n=20)
    guarantee = Guarantee.relative(0.05)
    _assert_same(host.execute(host.pin(), bounds, guarantee),
                 view.query_batch(*bounds, guarantee=guarantee))
    wrong = bounds[:2] if view.dims == 2 else bounds + bounds
    with pytest.raises(QueryError):
        host.execute(host.pin(), wrong, guarantee)


def test_nan_bound_is_rejected(view):
    for position in range(2 * view.dims):
        bounds = [np.array(b) for b in _workload(view, n=3)]
        bounds[position][1] = np.nan
        for call in (view.query_batch, view.estimate_batch, view.exact_batch):
            with pytest.raises(QueryError, match="NaN"):
                call(*bounds)
        with pytest.raises(QueryError, match="NaN"):
            view.query_batch(*bounds, guarantee=Guarantee.relative(0.01))


def test_infinite_bounds_mean_unbounded(view):
    """``-inf`` / ``+inf`` answer like bounds beyond every key."""
    if view.dims == 1:
        far, mid = 1e6, (200.0, 700.0)
    else:
        far, mid = 1e3, (-0.5, 0.5)
    inf = np.inf
    lows = np.array([-inf, -inf, mid[0], -inf])
    highs = np.array([inf, mid[1], inf, mid[0]])
    finite_lows = np.where(np.isinf(lows), -far, lows)
    finite_highs = np.where(np.isinf(highs), far, highs)
    if view.dims == 1:
        bounds, finite = (lows, highs), (finite_lows, finite_highs)
    else:
        bounds = (lows, highs, lows[::-1].copy(), highs[::-1].copy())
        finite = (finite_lows, finite_highs, finite_lows[::-1].copy(), finite_highs[::-1].copy())
    exact = view.exact_batch(*bounds)
    assert np.array_equal(exact, view.exact_batch(*finite), equal_nan=True)
    result = view.query_batch(*bounds, guarantee=Guarantee.relative(0.01))
    certified = ~result.exact_fallback
    assert np.array_equal(result.values[result.exact_fallback],
                          exact[result.exact_fallback], equal_nan=True)
    assert np.all(np.abs(result.values[certified] - exact[certified])
                  <= result.error_bounds[certified] + 1e-9)
