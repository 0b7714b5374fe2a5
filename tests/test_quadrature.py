"""Closed-form oracle suite for the composite Gauss-Legendre integrator.

Every truth value below is an analytic antiderivative evaluated by hand;
none is produced by the integrator under test.
"""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np
import pytest

from czwarp.quadrature import (
    BoundAudit,
    QuadratureNotConverged,
    QuadratureSpec,
    _row_max,
    integrate,
)

# (name, integrand, a, b, breakpoints, truth)
CLOSED_FORM = [
    ("x^2", lambda x: x**2, 0.0, 1.0, (), 1.0 / 3.0),
    ("x^5", lambda x: x**5, 0.0, 1.0, (), 1.0 / 6.0),
    ("x^10", lambda x: x**10, 0.0, 1.0, (), 1.0 / 11.0),
    ("cubic_poly", lambda x: 3.0 * x**2 + 2.0 * x + 1.0, 0.0, 1.0, (), 3.0),
    ("exp", np.exp, 0.0, 1.0, (), math.e - 1.0),
    ("exp_decay", lambda x: np.exp(-x), 0.0, 4.0, (), 1.0 - math.exp(-4.0)),
    ("sin", np.sin, 0.0, math.pi, (), 2.0),
    ("cos_sq", lambda x: np.cos(x) ** 2, 0.0, 2.0 * math.pi, (), math.pi),
    ("sin_cubed", lambda x: np.sin(x) ** 3, 0.0, math.pi / 2.0, (), 2.0 / 3.0),
    ("recip", lambda x: 1.0 / x, 1.0, 2.0, (), math.log(2.0)),
    ("runge", lambda x: 1.0 / (1.0 + x**2), 0.0, 1.0, (), math.pi / 4.0),
    ("sqrt_shifted", np.sqrt, 1.0, 4.0, (), 14.0 / 3.0),
    ("x_pow_3_2", lambda x: x**1.5, 0.0, 1.0, (), 2.0 / 5.0),
    ("inv_sqrt", lambda x: 1.0 / np.sqrt(x), 1.0, 4.0, (), 2.0),
    ("log", np.log, 1.0, math.e, (), 1.0),
    ("cosh", np.cosh, 0.0, 1.0, (), math.sinh(1.0)),
    ("x_exp_x2", lambda x: x * np.exp(x**2), 0.0, 1.0, (), (math.e - 1.0) / 2.0),
    ("gauss_bell", lambda x: np.exp(-(x**2)), 0.0, 1.0, (), math.erf(1.0) * math.sqrt(math.pi) / 2.0),
    ("abs_kink", lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, (1.0 / 3.0,), 5.0 / 18.0),
    ("abs_origin", np.abs, -1.0, 1.0, (0.0,), 1.0),
    ("hat", lambda x: np.minimum(x, 2.0 - x), 0.0, 2.0, (1.0,), 1.0),
    ("linear_vol", lambda x: x, 1.0, 2.0, (), 1.5),
]


@pytest.mark.parametrize("name,f,a,b,brk,truth", CLOSED_FORM, ids=[c[0] for c in CLOSED_FORM])
def test_closed_form_value_and_error_honesty(name, f, a, b, brk, truth):
    value, err = integrate(f, a, b, breakpoints=brk)
    scale = max(1.0, abs(truth))
    assert abs(value - truth) <= 1e-10 * scale
    # the reported error bound must dominate the actual error
    assert abs(value - truth) <= 10.0 * err


def test_endpoint_singularity_needs_depth():
    # sqrt has an unbounded derivative at 0; the default depth honestly
    # refuses the 1e-10 relative budget instead of under-reporting error
    with pytest.raises(QuadratureNotConverged):
        integrate(np.sqrt, 0.0, 1.0)
    spec = QuadratureSpec(max_depth=45)
    value, err = integrate(np.sqrt, 0.0, 1.0, spec=spec)
    assert abs(value - 2.0 / 3.0) <= 1e-10
    assert abs(value - 2.0 / 3.0) <= 10.0 * err


def test_polynomial_is_exact_to_machine():
    value, err = integrate(lambda x: x**2, 0.0, 1.0)
    assert abs(value - 1.0 / 3.0) <= 1e-14
    assert err > 0.0  # noise floor keeps the bound honest even when exact


def test_breakpoint_registration_beats_blind_bisection():
    f = lambda x: np.abs(x - 1.0 / 3.0)
    spec = QuadratureSpec(rel_tol=1e-6)
    with_brk, err_with = integrate(f, 0.0, 1.0, breakpoints=(1.0 / 3.0,), spec=spec)
    without, err_without = integrate(f, 0.0, 1.0, spec=spec)
    truth = 5.0 / 18.0
    assert abs(with_brk - truth) <= 10.0 * err_with
    assert abs(without - truth) <= 10.0 * err_without
    assert err_with < err_without


def test_breakpoints_outside_range_are_ignored():
    v1, _ = integrate(np.exp, 0.0, 1.0, breakpoints=(-3.0, 0.5, 7.0))
    v2, _ = integrate(np.exp, 0.0, 1.0, breakpoints=(0.5,))
    assert v1 == v2


def test_deterministic_bit_for_bit():
    f = lambda x: np.sin(7.0 * x) / (1.0 + x)
    a = integrate(f, 0.0, 3.0, breakpoints=(1.0, 2.0))
    b = integrate(f, 0.0, 3.0, breakpoints=(2.0, 1.0, 1.0))
    assert a[0] == b[0] and a[1] == b[1]


def test_vectorized_integrand_contract():
    # the integrand gets one panel's nodes per row of a C-contiguous float64
    # (panels, 3 * base_order) array at every depth: its left half's, whole
    # and right half's rule nodes, three blocks each sorted ascending
    def f(x):
        calls.append(x.copy())
        assert x.dtype == np.float64 and x.flags.c_contiguous
        return x**3 + np.abs(x - c) ** 1.5

    # more panels than one batch, and refinement towards the kink at c
    c = 1.0 / 3.0
    breaks = np.linspace(0.0, 2.0, 5000)[1:-1]
    for order in (8, 16):
        calls = []
        spec = QuadratureSpec(base_order=order, rel_tol=1e-12)
        value, _ = integrate(f, 0.0, 2.0, breaks, spec)
        assert abs(value - (4.0 + (c**2.5 + (2.0 - c) ** 2.5) / 2.5)) <= 1e-11
        # halves of bisected panels: a refinement pass ran
        assert min(np.ptp(x, axis=1).min() for x in calls) < 0.25 * (breaks[1] - breaks[0])
        for x in calls:
            assert x.ndim == 2 and x.shape[1] == 3 * order
            assert np.all(np.diff(x.reshape(-1, 3, order), axis=2) > 0.0)
            assert x.min() > 0.0 and x.max() < 2.0


def test_sliver_rows_ascend_block_by_block():
    # on 128-float-spacing slivers, the width of the norms' corner blends,
    # each block of a row still ascends, and the row's first node is its
    # least and _row_max its greatest, as the field kernel's lookup assumes
    starts = np.sort(np.random.default_rng(3).uniform(1.0, 1e4, 200))
    slivers = np.stack([starts, starts + 128.0 * np.spacing(starts)], axis=1)
    for order in (8, 16):
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.cos(x)

        integrate(f, 0.5, 2e4, spec=QuadratureSpec(base_order=order), slivers=slivers)
        x = np.concatenate(calls)
        sliver = x.max(axis=1) - x[:, 0] <= 128.0 * np.spacing(x[:, 0])
        assert np.count_nonzero(sliver) == len(slivers)
        assert np.all(np.diff(x.reshape(-1, 3, order), axis=2) >= 0.0)
        assert np.array_equal(x[:, 0], x.min(axis=1))
        assert np.array_equal(_row_max(x), x.max(axis=1))


def test_flat_integrand_gives_the_same_bits():
    # an elementwise integrand written for flat input, which returns its
    # values flat, integrates to the same bits as one that keeps the rows
    def rows(x):
        return np.sin(7.0 * x) / (1.0 + x), np.exp(-x) * x**2.5

    def flat(x):
        assert x.ndim == 2
        return rows(np.ravel(x))

    spec = QuadratureSpec(base_order=8, rel_tol=1e-13)
    breaks = np.linspace(0.0, 3.0, 3000)[1:-1]
    for args in [(0.0, 3.0), (0.0, 3.0, breaks)]:
        a = integrate(rows, *args, spec=spec)
        b = integrate(flat, *args, spec=spec)
        assert _hex(a) == _hex(b)


def test_not_converged_raises_with_diagnostics():
    spec = QuadratureSpec(base_order=4, rel_tol=1e-14, max_depth=3)
    f = lambda x: np.sin(1.0 / np.maximum(x, 1e-300))
    with pytest.raises(QuadratureNotConverged) as exc:
        integrate(f, 1e-6, 1.0, spec=spec)
    assert exc.value.err > exc.value.share
    lo, hi = exc.value.panel
    assert 1e-6 <= lo < hi <= 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(base_order=1)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=2.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
    # orders and depths are integers: a fraction or a bool is a typo
    with pytest.raises(ValueError):
        QuadratureSpec(base_order=8.5)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=2.5)
    with pytest.raises(ValueError):
        QuadratureSpec(base_order=True)


def test_interval_validation():
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(np.exp, 2.0, 1.0)
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, math.inf)


def test_overlapping_slivers_are_rejected():
    # slivers are accepted unrefined, so two that overlap would count the
    # overlap twice; slivers that only touch are disjoint
    for slivers in ([(0.3, 0.5), (0.2, 0.4)], [(0.2, 0.5), (0.3, 0.4)]):
        with pytest.raises(ValueError, match="slivers must be disjoint"):
            integrate(np.exp, 0.0, 1.0, slivers=slivers)
    touching = [(0.2, 0.2 + 1e-12), (0.2 + 1e-12, 0.2 + 2e-12)]
    value, _ = integrate(np.exp, 0.0, 1.0, slivers=touching)
    assert value == pytest.approx(math.e - 1.0, rel=1e-12)


def test_tight_tolerance_tracks_request():
    spec = QuadratureSpec(rel_tol=1e-13)
    value, err = integrate(lambda x: np.exp(x) * np.sin(3.0 * x), 0.0, 2.0)
    # truth: e^x (sin 3x - 3 cos 3x) / 10
    truth = (math.exp(2.0) * (math.sin(6.0) - 3.0 * math.cos(6.0)) + 3.0) / 10.0
    assert abs(value - truth) <= 1e-11 * abs(truth)
    v2, e2 = integrate(lambda x: np.exp(x) * np.sin(3.0 * x), 0.0, 2.0, spec=spec)
    assert abs(v2 - truth) <= 10.0 * max(e2, 1e-15 * abs(truth))


def test_bound_audit_bookkeeping():
    audit = BoundAudit()
    audit.add("inside", -1e-3, 0.5, 1e-12)
    audit.add("touching", 0.0, 1.0, 1e-12)
    assert audit.overall_pass
    audit.add("broken", 0.25, 2.0, 1e-12)
    assert not audit.overall_pass
    assert [e.name for e in audit.failures()] == ["broken"]


def _counted(f, calls):
    def g(x):
        calls.append(x.size)
        return f(x)

    return g


def test_columns_match_single_column_integrals_bit_for_bit():
    # a smooth column, a column with an unregistered kink and a near-singular
    # one: they refine to different depths but share the depth-0 pass
    cols = [
        np.exp,
        lambda x: np.abs(x - 1.0 / 3.0),
        lambda x: 1.0 / np.sqrt(x + 1e-4),
    ]
    spec = QuadratureSpec(base_order=8, rel_tol=1e-9)
    kwargs = dict(breakpoints=(0.25, 0.5), spec=spec, slivers=[(0.7, 0.7 + 1e-12)])
    fused = integrate(lambda x: tuple(f(x) for f in cols), 0.0, 1.0, **kwargs)
    assert len(fused.columns) == 3
    assert tuple(fused) == fused.columns[0]
    nodes = []
    for f, pair in zip(cols, fused.columns):
        calls = []
        alone = integrate(_counted(f, calls), 0.0, 1.0, **kwargs)
        assert repr(tuple(alone)) == repr(pair)
        assert alone.columns == (tuple(alone),)
        nodes.append(sum(calls))
    assert len(set(nodes)) == 3


def test_failing_column_raises_for_its_own_panel():
    spec = QuadratureSpec(base_order=4, rel_tol=1e-14, max_depth=3)
    bad = lambda x: np.sin(1.0 / np.maximum(x, 1e-300))
    with pytest.raises(QuadratureNotConverged) as alone:
        integrate(bad, 1e-6, 1.0, spec=spec)
    with pytest.raises(QuadratureNotConverged) as fused:
        integrate(lambda x: (x**2, bad(x), np.exp(x)), 1e-6, 1.0, spec=spec)
    assert fused.value.panel == alone.value.panel
    assert fused.value.err == alone.value.err
    assert fused.value.share == alone.value.share


def test_lowest_failing_column_raises():
    # both fail at max_depth; whichever comes first raises its own panel
    spec = QuadratureSpec(base_order=4, rel_tol=1e-14, max_depth=3)
    sin_inv = lambda x: np.sin(1.0 / np.maximum(x, 1e-300))
    cos_inv = lambda x: np.cos(3.0 / np.maximum(x, 1e-300))

    def failure(f):
        with pytest.raises(QuadratureNotConverged) as info:
            integrate(f, 1e-6, 1.0, spec=spec)
        return info.value.panel, info.value.err, info.value.share

    alone = {f: failure(f) for f in (sin_inv, cos_inv)}
    assert alone[sin_inv] != alone[cos_inv]
    for first, second in ((sin_inv, cos_inv), (cos_inv, sin_inv)):
        assert failure(lambda x: (x**2, first(x), second(x))) == alone[first]


def _depth_alone(f, spec, **kwargs):
    """The bisection depth f reaches alone: the least max_depth it converges within."""
    for depth in range(1, spec.max_depth + 1):
        try:
            integrate(f, 0.0, 1.0, spec=dataclasses.replace(spec, max_depth=depth), **kwargs)
        except QuadratureNotConverged:
            continue
        return depth
    raise AssertionError("column does not converge")


def test_columns_refine_in_shared_calls():
    # one call evaluates depth 0 for every column, then one call per depth
    # evaluates the panels of every column still refining at that depth
    cols = [
        lambda x: np.sin(20.0 * x),
        lambda x: np.abs(x - 1.0 / 3.0),
        lambda x: 1.0 / np.sqrt(x + 1e-4),
    ]
    spec = QuadratureSpec(base_order=8, rel_tol=1e-9)
    kwargs = dict(breakpoints=(0.25, 0.5), spec=spec)
    depths = [_depth_alone(f, **kwargs) for f in cols]
    assert len(set(depths)) == 3 and max(depths) > 1
    calls = []
    fused = integrate(_counted(lambda x: tuple(f(x) for f in cols), calls), 0.0, 1.0, **kwargs)
    assert len(calls) == 1 + max(depths)
    for f, pair in zip(cols, fused.columns):
        assert repr(tuple(integrate(f, 0.0, 1.0, **kwargs))) == repr(pair)


def test_result_unpacks_to_a_float_pair():
    value, err = integrate(np.exp, 0.0, 1.0)
    assert type(value) is float and type(err) is float
    value, err = integrate(lambda x: (np.exp(x), x), 0.0, 1.0)
    assert type(value) is float and type(err) is float
    assert (value, err) == integrate(np.exp, 0.0, 1.0)


@pytest.mark.parametrize("panels", [9, 17])
def test_batch_size_leaves_panel_sums_unchanged(monkeypatch, panels):
    # with 8-panel batches, 9 or 17 panels leave one panel over; it must be
    # summed inside a batch like every other panel, not as a lone row
    f = lambda x: np.exp(np.sin(3.0 * x))
    spec = QuadratureSpec(base_order=8, rel_tol=1e-6)
    args = (f, 0.0, float(panels), range(1, panels), spec)
    default = integrate(*args)
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
    assert integrate(*args) == default


def _three_columns(calls):
    # a smooth column, one with an unregistered kink and a near-singular one
    # that refines; each call records its thread and its panel count
    def f(x):
        calls.append((threading.get_ident(), x.shape[0]))
        return np.exp(x), np.abs(x - 1.0 / 3.0), 1.0 / np.sqrt(x + 1e-4)

    return f


def _hex(result):
    return [(v.hex(), e.hex()) for v, e in result.columns]


def test_multi_batch_pass_runs_on_the_calling_thread(monkeypatch):
    # 45 panels, two of them slivers, first in one batch, then in batches of
    # 8 over several calls per pass; every call runs on the caller's thread,
    # none is started, and the bits are those of the one-batch pass
    spec = QuadratureSpec(base_order=8, rel_tol=1e-9)
    kwargs = dict(
        breakpoints=np.linspace(0.0, 1.0, 42)[1:-1],
        spec=spec,
        slivers=[(0.7, 0.7 + 1e-12), (0.2, 0.2 + 1e-13)],
    )
    before = set(threading.enumerate())
    one_batch, batched = [], []
    reference = _hex(integrate(_three_columns(one_batch), 0.0, 1.0, **kwargs))
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
    assert _hex(integrate(_three_columns(batched), 0.0, 1.0, **kwargs)) == reference
    # batched, depth 0 alone takes more than 45 / 8 calls, and refinement more
    assert one_batch[0][1] == 45 and len(one_batch) > 1
    assert max(rows for _, rows in batched) <= 8 and len(batched) > 45 // 8
    assert {thread for thread, _ in one_batch + batched} == {threading.get_ident()}
    assert set(threading.enumerate()) == before


def test_batch_error_propagates_from_its_call(monkeypatch):
    # 40 unit panels in 5 batches of 8; the integrand fails only in batch 3
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)

    def f(x):
        if np.any((x > 16.0) & (x < 24.0)):
            raise ArithmeticError(f"no value past {int(x.min())}")
        return np.cos(x)

    with pytest.raises(ArithmeticError, match="^no value past 16$"):
        integrate(f, 0.0, 40.0, breakpoints=range(1, 40))


def test_batched_non_convergence_names_the_same_panel(monkeypatch):
    spec = QuadratureSpec(base_order=4, rel_tol=1e-14, max_depth=3)
    bad = lambda x: np.sin(1.0 / np.maximum(x, 1e-300))

    def call():
        with pytest.raises(QuadratureNotConverged) as info:
            integrate(bad, 1e-6, 1.0, breakpoints=np.geomspace(1e-5, 0.5, 30), spec=spec)
        return info.value.panel, info.value.err, info.value.share

    one_batch = call()
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
    assert call() == one_batch


def test_non_finite_integrand_raises_for_its_depth_zero_panel(monkeypatch):
    # 40 unit panels in 5 batches of 8; the integrand is inf on [17, 18]
    # alone.  No bisection brings an infinite estimate within its share, so
    # that panel raises at once instead of being bisected to max_depth
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
    spec = QuadratureSpec(max_depth=10)
    f = lambda x: np.where((x > 17.0) & (x < 18.0), np.inf, np.cos(x))
    with pytest.raises(QuadratureNotConverged, match="integrand is not finite") as info:
        integrate(f, 0.0, 40.0, breakpoints=range(1, 40), spec=spec)
    assert info.value.panel == (17.0, 18.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_integrand_warns_on_no_thread(monkeypatch):
    # exp overflows on [17, 18] alone, in batch 3 of 5.  The pass silences
    # numpy's warnings around all of its calls, so the overflow does not warn
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
    f = lambda x: np.exp(np.where((x > 17.0) & (x < 18.0), 1e3, 0.0)) * np.cos(x)
    with pytest.raises(QuadratureNotConverged, match="integrand is not finite") as info:
        integrate(f, 0.0, 40.0, breakpoints=range(1, 40))
    assert info.value.panel == (17.0, 18.0)


def test_integrand_may_call_integrate(monkeypatch):
    def inner_mass(x):
        return integrate(np.exp, 0.0, 1.0, breakpoints=np.linspace(0.0, 1.0, 30)[1:-1])[0]

    def call():
        outer = lambda x: x * inner_mass(x)
        return integrate(outer, 0.0, 2.0, breakpoints=np.linspace(0.0, 2.0, 20)[1:-1])

    one_batch = call()
    assert abs(one_batch[0] - 2.0 * (math.e - 1.0)) <= 1e-10
    # the outer pass takes 8 calls, each with inner passes of its own
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
    assert _hex(call()) == _hex(one_batch)
