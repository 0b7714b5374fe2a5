"""Closed-form oracle suite for the composite Gauss-Legendre integrator.

Every truth value below is an analytic antiderivative evaluated by hand;
none is produced by the integrator under test.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest

from czwarp.quadrature import (
    BoundAudit,
    QuadratureNotConverged,
    QuadratureSpec,
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
    calls = []

    def f(x):
        calls.append(x.shape)
        return x**3

    value, _ = integrate(f, 0.0, 2.0)
    assert abs(value - 4.0) <= 1e-12
    assert all(len(s) == 1 for s in calls)


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


@contextlib.contextmanager
def _switch_often():
    # hand the interpreter lock between threads as often as possible, so
    # batches on a pool interleave at every bytecode
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def _three_columns(threads):
    # a smooth column, one with an unregistered kink and a near-singular one
    # that refines; the short sleep keeps a batch busy while the next is handed
    # out, so a pool of several workers starts more than one thread
    def f(x):
        threads.add(threading.get_ident())
        time.sleep(1e-3)
        return np.exp(x), np.abs(x - 1.0 / 3.0), 1.0 / np.sqrt(x + 1e-4)

    return f


def _hex(result):
    return [(v.hex(), e.hex()) for v, e in result.columns]


def test_bits_do_not_depend_on_worker_count(monkeypatch):
    spec = QuadratureSpec(base_order=8, rel_tol=1e-9)
    kwargs = dict(
        breakpoints=np.linspace(0.0, 1.0, 42)[1:-1],
        spec=spec,
        slivers=[(0.7, 0.7 + 1e-12), (0.2, 0.2 + 1e-13)],
    )
    caller = threading.get_ident()
    before = set(threading.enumerate())
    with _switch_often():
        one_batch = set()
        reference = _hex(integrate(_three_columns(one_batch), 0.0, 1.0, **kwargs))
        assert one_batch == {caller}
        monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
        for cpus in (1, 8):
            monkeypatch.setattr("czwarp.quadrature._cpus", lambda: cpus)
            threads = set()
            assert _hex(integrate(_three_columns(threads), 0.0, 1.0, **kwargs)) == reference
            if cpus > 1:
                assert len(threads - {caller}) > 1
            else:
                assert threads == {caller}
    # every pool is shut down before integrate returns
    assert set(threading.enumerate()) == before


def _serial_and_pooled(monkeypatch, call):
    """call() with 8-panel batches run inline, then on a pool of 8 workers."""
    monkeypatch.setattr("czwarp.quadrature._CHUNK", 8)
    outcomes = []
    with _switch_often():
        for cpus in (1, 8):
            monkeypatch.setattr("czwarp.quadrature._cpus", lambda: cpus)
            outcomes.append(call())
    return outcomes


def test_pooled_batch_error_matches_serial(monkeypatch):
    # 40 unit panels in 5 batches of 8; the integrand fails only in batch 3
    def f(x):
        if np.any((x > 16.0) & (x < 24.0)):
            raise ArithmeticError(f"no value past {int(x.min())}")
        return np.cos(x)

    def call():
        with pytest.raises(ArithmeticError) as info:
            integrate(f, 0.0, 40.0, breakpoints=range(1, 40))
        return type(info.value), str(info.value)

    serial, pooled = _serial_and_pooled(monkeypatch, call)
    assert serial == pooled == (ArithmeticError, "no value past 16")


def test_pooled_non_convergence_names_the_same_panel(monkeypatch):
    spec = QuadratureSpec(base_order=4, rel_tol=1e-14, max_depth=3)
    bad = lambda x: np.sin(1.0 / np.maximum(x, 1e-300))

    def call():
        with pytest.raises(QuadratureNotConverged) as info:
            integrate(bad, 1e-6, 1.0, breakpoints=np.geomspace(1e-5, 0.5, 30), spec=spec)
        return info.value.panel, info.value.err, info.value.share

    serial, pooled = _serial_and_pooled(monkeypatch, call)
    assert serial == pooled


def test_non_finite_integrand_raises_for_its_depth_zero_panel(monkeypatch):
    # 40 unit panels in 5 batches of 8; the integrand is inf on [17, 18]
    # alone.  No bisection brings an infinite estimate within its share, so
    # that panel raises at once instead of being bisected to max_depth
    spec = QuadratureSpec(max_depth=10)
    f = lambda x: np.where((x > 17.0) & (x < 18.0), np.inf, np.cos(x))

    def call():
        with pytest.raises(QuadratureNotConverged, match="integrand is not finite") as info:
            integrate(f, 0.0, 40.0, breakpoints=range(1, 40), spec=spec)
        return info.value.panel

    serial, pooled = _serial_and_pooled(monkeypatch, call)
    assert serial == pooled == (17.0, 18.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_integrand_warns_on_no_thread(monkeypatch):
    # exp overflows on [17, 18] alone.  Pool threads do not inherit the
    # caller's numpy error state, so each call enters its own, and no
    # thread warns
    f = lambda x: np.exp(np.where((x > 17.0) & (x < 18.0), 1e3, 0.0)) * np.cos(x)

    def call():
        with pytest.raises(QuadratureNotConverged, match="integrand is not finite") as info:
            integrate(f, 0.0, 40.0, breakpoints=range(1, 40))
        return info.value.panel

    serial, pooled = _serial_and_pooled(monkeypatch, call)
    assert serial == pooled == (17.0, 18.0)


def test_integrand_may_call_integrate(monkeypatch):
    def inner_mass(x):
        return integrate(np.exp, 0.0, 1.0, breakpoints=np.linspace(0.0, 1.0, 30)[1:-1])[0]

    def call():
        outer = lambda x: x * inner_mass(x)
        done = {}
        t = threading.Thread(
            target=lambda: done.setdefault(
                "result", integrate(outer, 0.0, 2.0, breakpoints=np.linspace(0.0, 2.0, 20)[1:-1])
            )
        )
        t.start()
        t.join(timeout=60.0)
        assert not t.is_alive()
        return _hex(done["result"])

    serial, pooled = _serial_and_pooled(monkeypatch, call)
    assert serial == pooled
