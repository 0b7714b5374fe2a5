"""Green's function table: closed forms, inverse, window placement, envelopes."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import czwarp
from czwarp.experiment import ExperimentConfig, build_construction
from czwarp.green import (
    DELTA_UNIVERSAL,
    GreenFunction,
    GreenTableNotIncreasing,
    OutOfRange,
    WindowTooNarrow,
    audit_green_bounds,
    find_h,
)
from czwarp.quadrature import _panel_rows
from czwarp.warping import (
    CAP,
    LINEAR,
    POWER,
    ManifoldConfig,
    WarpingProfile,
    build_base_profile,
    insert_sawtooth,
    plan_window,
)


def pure_power_green(m: int, r_max: float = 1e3) -> GreenFunction:
    """sigma = t^alpha, so sigma^(1-m) = 1/t and G(r) = log r exactly."""
    cfg = ManifoldConfig.from_dimension(m)
    prof = WarpingProfile(cfg, [POWER], [0.0], [(0.0, 0.0, 0.0)])
    return GreenFunction(prof, r_max=r_max)


def sawtooth_green(m: int, k: float, n: int) -> GreenFunction:
    cfg = ManifoldConfig.from_dimension(m)
    base = build_base_profile(cfg)
    r_max = 2.2 * math.e ** (k + 1.05)
    h = find_h(GreenFunction(base, r_max=r_max), k)
    prof = insert_sawtooth(base, plan_window(cfg, h, n))
    return GreenFunction(prof, r_max=r_max)


def test_delta_universal_margin():
    assert DELTA_UNIVERSAL == (1.0 - math.log(2.0)) / 4.0
    # two margins must fit strictly inside the worst-case envelope gap
    assert 2.0 * DELTA_UNIVERSAL < 1.0 - math.log(2.0)
    assert 0.0 < DELTA_UNIVERSAL < 0.5


@pytest.mark.parametrize("m", [2, 3, 5])
def test_base_profile_matches_log_closed_form(m: int):
    # sigma = (t + 1/2)^alpha makes sigma^(1-m) = 1/(t + 1/2) in every
    # dimension, so G(r) = log((r + 1/2) / (3/2)) exactly
    gf = GreenFunction(build_base_profile(ManifoldConfig.from_dimension(m)), r_max=1e4)
    rs = np.exp(np.linspace(0.0, math.log(1e4), 400))
    want = np.log((rs + 0.5) / 1.5)
    rel = np.abs(gf.value_many(rs) - want) / np.maximum(1.0, np.abs(want))
    assert rel.max() <= 1e-12
    assert abs(gf.value(2.0) - math.log(5.0 / 3.0)) <= 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_pure_power_green_is_log(m: int):
    gf = pure_power_green(m)
    assert abs(gf.value(2.0) - math.log(2.0)) <= 1e-14
    assert abs(gf.value(math.e) - 1.0) <= 1e-14
    assert abs(gf.s_max - math.log(1e3)) <= 1e-12


def test_linear_profile_closed_forms():
    # sigma = 2t - 1: for m = 2 the antiderivative is log(2r-1)/2, for
    # m = 3 it is 1/2 - 1/(2(2r-1)); both hand-checked
    prof2 = WarpingProfile(
        ManifoldConfig.from_dimension(2), [LINEAR], [0.0], [(1.0, 1.0, 2.0)]
    )
    gf2 = GreenFunction(prof2, r_max=50.0)
    assert abs(gf2.value(2.5) - math.log(2.0)) <= 1e-14
    prof3 = WarpingProfile(
        ManifoldConfig.from_dimension(3), [LINEAR], [0.0], [(1.0, 1.0, 2.0)]
    )
    gf3 = GreenFunction(prof3, r_max=50.0)
    assert abs(gf3.value(2.0) - 1.0 / 3.0) <= 1e-14
    # sigma = 2, a zero slope: G(r) = (r - 1) 2^(1-m), and G^-1 undoes it
    for m in (2, 3):
        flat = WarpingProfile(
            ManifoldConfig.from_dimension(m), [LINEAR], [0.0], [(0.0, 2.0, 0.0)]
        )
        gf = GreenFunction(flat, r_max=50.0)
        assert abs(gf.value(9.0) - 8.0 * 2.0 ** (1 - m)) <= 1e-14
        assert abs(gf.inverse(8.0 * 2.0 ** (1 - m)) - 9.0) <= 1e-13


def test_inverse_roundtrip_base():
    gf = GreenFunction(build_base_profile(ManifoldConfig.from_dimension(3)), r_max=1e4)
    rs = np.exp(np.linspace(0.0, math.log(1e4), 500))
    back = gf.inverse_many(gf.value_many(rs))
    assert np.max(np.abs(back - rs) / np.maximum(1.0, rs)) <= 1e-12


@pytest.mark.parametrize("m,k,n", [(2, 3, 16), (3, 2, 8)])
def test_inverse_roundtrip_sawtooth(m: int, k: float, n: int):
    gf = sawtooth_green(m, k, n)
    prof = gf.profile
    spans = prof.blend_spans_in(1.0, gf.r_max)
    assert len(spans) >= 2 * n
    mids = np.asarray([0.5 * (a + b) for a, b in spans])
    rs = np.concatenate(
        [
            np.exp(np.linspace(0.0, math.log(gf.r_max), 700)),
            mids,
            prof.knots_in(1.0, gf.r_max),
        ]
    )
    back = gf.inverse_many(gf.value_many(rs))
    assert np.max(np.abs(back - rs) / np.maximum(1.0, rs)) <= 1e-12


def test_scalar_wrappers_match_vector_path():
    gf = sawtooth_green(2, 2.0, 4)
    r = 7.25
    assert gf.value(r) == float(gf.value_many(np.asarray([r]))[0])
    s = gf.value(r)
    assert abs(gf.inverse(s) - r) <= 1e-12 * r


def test_blend_segment_sandwich():
    # the increment of G across each corner blend must sit inside the
    # rectangle envelope of the integrand, up to table-subtraction roundoff
    gf = sawtooth_green(2, 3.0, 16)
    prof = gf.profile
    em = 1.0 - prof.config.m
    for a, b in prof.blend_spans_in(1.0, gf.r_max):
        ga, gb = gf.value(a), gf.value(b)
        seg = gb - ga
        f = prof.eval_many(np.linspace(a, b, 33))[0] ** em
        slack = 16.0 * np.spacing(1.0 + abs(gb))
        assert (b - a) * f.min() - slack <= seg <= (b - a) * f.max() + slack


def test_green_strictly_increasing_across_teeth():
    gf = sawtooth_green(3, 2.0, 32)
    rs = np.linspace(1.0, gf.r_max, 20001)
    assert np.all(np.diff(gf.value_many(rs)) > 0.0)


@pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
def test_find_h_closed_form_for_pure_power(k: float):
    gf = pure_power_green(2, r_max=200.0)
    h = find_h(gf, k)
    assert abs(h - math.exp(k + DELTA_UNIVERSAL)) <= 1e-12 * h


def test_find_h_places_window_in_plateau():
    cfg = ManifoldConfig.from_dimension(3)
    gf = GreenFunction(build_base_profile(cfg), r_max=1e3)
    k = 2.0
    h = find_h(gf, k)
    assert abs(gf.value(h) - (k + DELTA_UNIVERSAL)) <= 1e-12
    assert gf.value(h + 1.0) <= k + 1.0 - DELTA_UNIVERSAL


def test_window_too_narrow_for_fast_green_growth():
    # sigma = t/3 sits below the strip: G = 3 log t grows so fast that the
    # unit window [h, h+1] cannot stay below level k + 1 - delta
    prof = WarpingProfile(
        ManifoldConfig.from_dimension(2), [LINEAR], [0.0], [(0.0, 0.0, 1.0 / 3.0)]
    )
    gf = GreenFunction(prof, r_max=50.0)
    with pytest.raises(WindowTooNarrow):
        find_h(gf, 1.0)


def test_out_of_range_radius():
    gf = pure_power_green(2)
    with pytest.raises(OutOfRange):
        gf.value(0.5)
    with pytest.raises(OutOfRange):
        gf.value(gf.r_max * 1.001)
    with pytest.raises(OutOfRange):
        gf.value_many(np.asarray([2.0, math.nan]))


def test_out_of_range_green_coordinate():
    gf = pure_power_green(2)
    with pytest.raises(OutOfRange):
        gf.inverse(-0.1)
    with pytest.raises(OutOfRange):
        gf.inverse(gf.s_max + 0.1)


def test_roundoff_slack_at_domain_edges():
    gf = pure_power_green(2)
    assert gf.value(1.0 - 1e-12) == 0.0
    assert gf.inverse(-1e-12) == 1.0
    assert abs(gf.inverse(gf.s_max + 1e-12) - gf.r_max) <= 1e-9 * gf.r_max


def test_find_h_level_validation():
    gf = pure_power_green(2, r_max=20.0)
    with pytest.raises(ValueError):
        find_h(gf, 0.5)
    # s_max = log 20 < 3, so k = 2 needs a taller table
    with pytest.raises(OutOfRange):
        find_h(gf, 2.0)


def test_rejects_cap_coverage():
    cfg = ManifoldConfig.from_dimension(2)
    prof = WarpingProfile(
        cfg, [CAP, POWER], [0.0, 2.0], [(5.0, -7.5, 3.0), (0.5, 0.0, 0.0)]
    )
    with pytest.raises(ValueError):
        GreenFunction(prof, r_max=10.0)


def test_r_max_validation():
    prof = build_base_profile(ManifoldConfig.from_dimension(2))
    with pytest.raises(ValueError):
        GreenFunction(prof, r_max=1.0)
    with pytest.raises(ValueError):
        GreenFunction(prof, r_max=math.inf)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_envelope_audit_sawtooth(m: int):
    gf = sawtooth_green(m, 2.0, 8)
    audit = audit_green_bounds(gf, samples=512)
    assert audit.overall_pass, audit.failures()
    assert len(audit.entries) == 6


def test_parabolicity_proxy():
    # lower envelope gives G(e^j) >= log((e^j + 1)/2) >= j - log 2, so G
    # climbs without bound along the geometric grid
    gf = sawtooth_green(2, 3.0, 64)
    js = np.arange(1, int(math.log(gf.r_max)) + 1, dtype=float)
    g = gf.value_many(np.exp(js))
    assert np.all(g >= js - math.log(2.0))
    assert np.all(np.diff(g) > 0.5)


def test_derivative_consistency():
    base = build_base_profile(ManifoldConfig.from_dimension(3))
    gf = GreenFunction(base, r_max=1e4)
    rng = np.random.default_rng(7)
    rs = np.exp(rng.uniform(0.1, math.log(9e3), 200))
    h = 1e-6 * rs
    fd = (gf.value_many(rs + h) - gf.value_many(rs - h)) / (2.0 * h)
    truth = base.eval_many(rs)[0] ** (1.0 - 3)
    assert np.max(np.abs(fd - truth) / np.abs(truth)) <= 1e-8


# sha256 of eval_many's (sigma, sigma', sigma''), value_many and
# inverse_many on kernel_grid, k = 3; any change to the kernel's arithmetic
# moves them
KERNEL_DIGESTS = {
    (2, 1): "9eeb0ed0d4b19f4cf6e55b78f956762fad2cd4ef518c3b3228db7e461835ab90",
    (2, 64): "856110a1d49a9dcd5edf9cfff98b607f30523b24a38eaa04e66a0bf9ae205855",
    (2, 2**15): "63fc848d86b4b14bb58c3f274694a2d8eb55aa51cd588865ac042cc67aa414df",
    (3, 1): "c7491417ba4d5aa65bfc635ecb2be42d9b66fee3d0e85d28c2ab9b723bbb5165",
    (3, 64): "7d51b93cbc51912185f69b6de0fc8a9007fe3dc9198254d52018aab2426ed7ad",
    (3, 2**15): "261cc4ffccb06f33a8bbeda0c22d44377b91e4c7538e4dcfca251adcfc59f43f",
    (4, 1): "f4238022c620c247d0a5cccab323e9b6b72ac6f91ad6f17008988d66dc1ae053",
    (4, 64): "377f288e72d3167eec9182afa9881d2db7f48207aa63590c26e150829b0440d6",
    (4, 2**15): "db1ff81d7cc728d2fbbf856944983dc26f2fcb33ddcebb1c4d7281d2a22e9f9e",
}


def kernel_digest(green: GreenFunction, seed: int) -> str:
    """Digest of sigma, G and G^-1 at random radii, at every knot and one float below it."""
    prof = green.profile
    (window,) = prof.windows
    rng = np.random.default_rng(seed)
    knots = prof.knots
    r = np.concatenate(
        [
            rng.uniform(1.0, green.r_max, 2048),
            rng.uniform(window.z - 0.1 * window.width, window.z + 1.1 * window.width, 4096),
            knots,
            np.nextafter(knots, -np.inf),
            [1.0, green.r_max],
        ]
    )
    g = green.value_many(r)
    s = np.concatenate([g, rng.uniform(0.0, green.s_max, 2048), [0.0, green.s_max]])
    digest = hashlib.sha256()
    for arr in (*prof.eval_many(r), g, green.inverse_many(s)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("m,n", sorted(KERNEL_DIGESTS), ids=str)
def test_kernel_digest(m: int, n: int):
    green = sawtooth_green(m, 3.0, n)
    assert kernel_digest(green, m * 100003 + n) == KERNEL_DIGESTS[(m, n)]


def _assert_value_sigma_is_per_node(green: GreenFunction, x: np.ndarray, name: str = "") -> None:
    """_value_sigma at x, 2-D and flat, has the bits of one lookup per node.

    The reference is value_many for G and the profile's eval_many for sigma
    and sigma', which look up every node on its own.
    """
    want = (green.value_many(x), *green.profile.eval_many(x)[:2])
    for arg in (x, x.ravel()):
        for v, w in zip(green._value_sigma(arg), want):
            assert v.shape == arg.shape, name
            assert v.tobytes() == w.tobytes(), name


def test_table_rows_are_the_profile_rows():
    # sigma is evaluated on the rows of the Green table's lookup; they must
    # be the rows piece_index names at every checkpoint and just below it,
    # and r_max when it is a knot and a radius just below r = 1 take the
    # edge branch, which evaluates sigma on piece_index's rows
    prof = sawtooth_green(2, 2.0, 8).profile
    r_max = float(prof.knots[-3])
    green = GreenFunction(prof, r_max=r_max)
    assert prof.piece_index(np.asarray([r_max]))[0] != green._rows[-1]
    cps = green._r_tab
    interior = np.concatenate([cps[:-1], np.nextafter(cps[1:], -np.inf)])
    _, idx, edge = green._lookup(interior)
    assert not edge
    np.testing.assert_array_equal(green._rows[idx], prof.piece_index(interior))
    outer = np.asarray([r_max, np.nextafter(1.0, 0.0)])
    for r in outer:
        assert green._lookup(np.asarray([r]))[2]
    for r in (interior, outer):
        _assert_value_sigma_is_per_node(green, r[:, None])


def test_empty_inputs_keep_their_shape():
    green = sawtooth_green(2, 2.0, 8)
    for shape in [(0,), (0, 2)]:
        empty = np.empty(shape)
        assert green.value_many(empty).shape == shape
        assert green.inverse_many(empty).shape == shape
        assert all(v.shape == shape for v in green.profile.eval_many(empty))



_GAUSS = np.polynomial.legendre.leggauss(8)[0] * 0.5 + 0.5


def _panel_cases(green: GreenFunction, seed: int) -> dict[str, tuple[np.ndarray, ...]]:
    """(lo, hi, at) per case the kernel must cover: nodes at fractions at of [lo, hi]."""
    prof = green.profile
    ends = np.linspace(0.0, 1.0, 8)
    rng = np.random.default_rng(seed)
    r_max = green.r_max
    cps = green._r_tab
    knots = prof.knots_in(1.0, r_max)
    edges = np.concatenate([[1.0], knots, [r_max]])
    fills = np.setdiff1d(cps[1:-1], knots)
    lo = rng.uniform(1.0, r_max - 1.0, 300)
    ulp = np.spacing(knots)
    near = rng.choice(knots, 64)
    return {
        # every row inside one checkpoint interval
        "intervals": (cps[:-1], cps[1:], _GAUSS),
        # one panel per knot interval, as integrate() lays them; the POWER
        # rows' panels straddle fill checkpoints
        "knot_panels": (edges[:-1], edges[1:], _GAUSS),
        "fill_straddle": (fills - 0.01, fills + 0.01, _GAUSS),
        "random": (lo, lo + rng.uniform(0.0, 1.0, lo.size), _GAUSS),
        # nodes on the knots, on r = 1 and on r_max
        "end_on_knot": (edges[:-1], edges[1:], ends),
        # rows reaching r_max, and clipped into it from just above
        "r_max": (
            np.asarray([r_max - 0.5, r_max - 1e-3, r_max * (1.0 - 1e-10)]),
            np.asarray([r_max, r_max * (1.0 + 5e-10), r_max * (1.0 + 5e-10)]),
            ends,
        ),
        # deep refinement: panels a few float spacings wide at a knot
        "deep": (
            np.concatenate([knots, knots - 4.0 * ulp, near - 2.0 * np.spacing(near)]),
            np.concatenate([knots + 4.0 * ulp, knots, near + 2.0 * np.spacing(near)]),
            _GAUSS,
        ),
    }


def _rows(lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> np.ndarray:
    """One panel per row, its nodes ascending."""
    return lo[:, None] + (hi - lo)[:, None] * at


def _fused_rows(lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> np.ndarray:
    """One panel per row as integrate() lays them: its left half's, whole and right half's nodes."""
    out = np.empty((lo.size, 3 * at.size))
    _panel_rows(lo, hi, at, out)
    return out


def _crossed_rows(green: GreenFunction) -> np.ndarray:
    """Rows of three ascending blocks, the middle one ending past a checkpoint, the last below it.

    Their least node comes first, as the integrand's rows promise, but
    their greatest is not their last; one per interior checkpoint, at
    fill checkpoints 0.01 wide and at knots a few float spacings wide.
    """
    cps = green._r_tab[1:-1]
    fill = ~np.isin(cps, green.profile.knots)
    step = np.where(fill, 0.01, 4.0 * np.spacing(cps))
    lo, hi, end = cps - 2.0 * step, cps + step, cps - 0.25 * step
    mid = lo + 0.5 * (end - lo)
    return np.hstack([_rows(lo, mid, _GAUSS), _rows(lo, hi, _GAUSS), _rows(mid, end, _GAUSS)])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_panel_rows_match_one_lookup_per_node(m: int):
    # a (panels, c) input is looked up at each row's first node, its least,
    # and the row's operands are broadcast; G, sigma and sigma' must be the
    # bits of one lookup per node, also on the rows that fall back to
    # node-by-node lookups: across fill checkpoints, at and clipped into
    # r_max (a POWER point, and a knot), and a few float spacings wide.
    # Each case comes as ascending rows and as integrate() lays a panel out,
    # its three rules side by side; crossed rows reach the next checkpoint
    # only before their last block
    green = sawtooth_green(m, 3.0, 64)
    prof = green.profile
    for table in (green, GreenFunction(prof, r_max=float(prof.knots[-3]))):
        cases = {}
        for name, panels in _panel_cases(table, m).items():
            cases[name] = _rows(*panels)
            cases[f"{name}_fused"] = _fused_rows(*panels)
        cases["crossed"] = _crossed_rows(table)
        for width in (8, 24):
            same = [x for x in cases.values() if x.shape[1] == width]
            cases[f"all_{width}"] = np.concatenate(same)
        for name in ("fill_straddle", "fill_straddle_fused", "crossed"):
            x = cases[name]
            nxt = table._r_tab[np.searchsorted(table._r_tab, x[:, 0], side="right")]
            assert np.all(x.max(axis=1) >= nxt), name
        # and the crossed rows, the loop's last case, end below it
        assert np.all(x[:, -1] < nxt)
        assert cases["r_max"].max() > table.r_max
        # a row inside one checkpoint interval is looked up once, a split
        # row node by node
        for name in ("intervals", "intervals_fused"):
            x = cases[name]
            assert table._lookup(x)[1].shape == (len(x), 1), name
        for name in ("fill_straddle", "fill_straddle_fused", "crossed"):
            x = cases[name]
            assert table._lookup(x)[1].shape == x.shape, name
        for name, x in cases.items():
            _assert_value_sigma_is_per_node(table, x, name)
            # rows inside [1, r_max) alone take the table's rows, not the
            # edge branch
            inner = x[(x.min(axis=1) >= 1.0) & (x.max(axis=1) < table.r_max)]
            if inner.size:
                assert not table._lookup(inner)[2], name
                _assert_value_sigma_is_per_node(table, inner, name)


@pytest.mark.parametrize("m,k,n", [(6, 14.5, 1), (4, 11.0, 4096)])
def test_green_table_that_stops_rising_is_named(m: int, k: float, n: int):
    # near the fit limit a blend's increment of G falls to about the float
    # spacing of G, and the cumulative table stops rising; the build names
    # the error and the radius where it happens
    with pytest.raises(GreenTableNotIncreasing, match=r"stops rising at r = \d") as info:
        build_construction(ExperimentConfig(m=m, p=2.0, k=k, n_teeth=n))
    assert isinstance(info.value, ValueError)
    assert czwarp.GreenTableNotIncreasing is GreenTableNotIncreasing
