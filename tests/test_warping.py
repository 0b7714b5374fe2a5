"""Profile construction, window geometry, strip containment, smoothness."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from czwarp.warping import (
    BLEND,
    CAP,
    LINEAR,
    POWER,
    CubeDoesNotFit,
    FootprintOutOfRange,
    ManifoldConfig,
    OverlappingWindow,
    SawtoothWindow,
    WarpingProfile,
    _cap_coefficients,
    _smoothstep,
    audit_strip,
    build_base_profile,
    insert_sawtooth,
    plan_window,
    profile_from_json,
    profile_to_json,
)
from knot_gaps import knot_mismatches


def test_dimension_constants():
    c2 = ManifoldConfig.from_dimension(2)
    c3 = ManifoldConfig.from_dimension(3)
    c5 = ManifoldConfig.from_dimension(5)
    assert c2.alpha == 1.0
    assert c3.alpha == 0.5
    assert c5.alpha == 0.25
    # unit sphere areas: circle 2*pi, sphere 4*pi, S^4 has 8*pi^2/3
    assert abs(c2.gamma_m - 2.0 * math.pi) <= 1e-15
    assert abs(c3.gamma_m - 4.0 * math.pi) <= 1e-14
    assert abs(c5.gamma_m - 8.0 * math.pi**2 / 3.0) <= 1e-13


def test_dimension_validation():
    with pytest.raises(ValueError):
        ManifoldConfig.from_dimension(1)
    with pytest.raises(ValueError):
        ManifoldConfig.from_dimension(2.5)


def test_base_profile_fixture_values():
    p2 = build_base_profile(ManifoldConfig.from_dimension(2))
    assert p2.eval_many(2.0)[0] == 2.5
    p3 = build_base_profile(ManifoldConfig.from_dimension(3))
    assert abs(p3.eval_many(4.0)[0] - math.sqrt(4.5)) <= 1e-15


def test_cap_boundary_conditions():
    for m in (2, 3, 5):
        prof = build_base_profile(ManifoldConfig.from_dimension(m))
        y0, dy0, d2y0 = prof.eval_many(0.0)
        assert y0 == 0.0 and dy0 == 1.0 and d2y0 == 0.0
        mism = knot_mismatches(prof)
        assert mism["value"].max() <= 1e-13
        assert mism["slope"].max() <= 1e-13
        assert mism["curvature"].max() <= 1e-13


def test_cap_coefficients_m2_closed_form():
    # hand-solved 3x3 system for alpha = 1: matches value 1.5, slope 1,
    # curvature 0 of t + 1/2 at t = 1
    a3, a4, a5 = _cap_coefficients(1.0)
    assert abs(a3 - 5.0) <= 1e-12
    assert abs(a4 + 7.5) <= 1e-12
    assert abs(a5 - 3.0) <= 1e-12


def test_cap_monotone_for_m2():
    # sigma' = 1 + 15 t^2 (1 - t)^2 >= 1 on the cap
    prof = build_base_profile(ManifoldConfig.from_dimension(2))
    ts = np.linspace(0.0, 1.0, 2001)
    dy = prof.eval_many(ts)[1]
    assert dy.min() >= 1.0 - 1e-12


def test_cap_positive_all_dimensions():
    for m in (2, 3, 4, 5, 8):
        prof = build_base_profile(ManifoldConfig.from_dimension(m))
        ts = np.linspace(1e-4, 1.0, 2000)
        assert prof.eval_many(ts)[0].min() > 0.0


def test_smoothstep_partition_and_center():
    x = np.linspace(0.0, 1.0, 1001)
    s, sp, spp = _smoothstep(x)
    s_flip = _smoothstep(1.0 - x)[0]
    assert np.max(np.abs(s + s_flip - 1.0)) <= 1e-15
    assert s[0] == 0.0 and s[-1] == 1.0
    mid = _smoothstep(np.asarray([0.5]))
    assert mid[0][0] == 0.5
    assert abs(mid[1][0] - 2.0) <= 1e-14  # s'(1/2) = 2 for exp(-1/x) weights
    assert np.all(sp >= 0.0)


def test_smoothstep_derivatives_match_differences():
    x = np.linspace(0.05, 0.95, 181)
    h = 1e-6
    s, sp, spp = _smoothstep(x)
    s_p = _smoothstep(x + h)[0]
    s_m = _smoothstep(x - h)[0]
    d1 = (s_p - s_m) / (2.0 * h)
    d2 = (s_p - 2.0 * s + s_m) / h**2
    assert np.max(np.abs(d1 - sp)) <= 1e-6 * max(1.0, np.max(np.abs(sp)))
    assert np.max(np.abs(d2 - spp)) <= 1e-3 * max(1.0, np.max(np.abs(spp)))


def test_window_slopes_m2():
    cfg = ManifoldConfig.from_dimension(2)
    w = plan_window(cfg, 3.0, 5)
    prof = insert_sawtooth(build_base_profile(cfg), w)
    mids = 3.0 + w.step * (np.arange(10) + 0.5)
    dy = prof.eval_many(mids)[1]
    assert np.all(dy[0::2] == 11.0)
    assert np.all(dy[1::2] == -9.0)


def test_window_corners_single_tooth_m2():
    cfg = ManifoldConfig.from_dimension(2)
    prof = insert_sawtooth(build_base_profile(cfg), plan_window(cfg, 3.0, 1))
    assert abs(prof.eval_many(3.0)[0] - 3.0) <= 1e-13
    assert abs(prof.eval_many(3.5)[0] - 4.5) <= 1e-13
    assert abs(prof.eval_many(4.0)[0] - 4.0) <= 1e-13


def test_window_eta_and_corners_m3():
    cfg = ManifoldConfig.from_dimension(3)
    w = plan_window(cfg, 9.0, 4)
    eta = (math.sqrt(11.0) - math.sqrt(10.0)) / 10.0
    assert abs(w.width - eta) <= 1e-15
    assert w.amplitude == w.width
    assert abs(w.base - math.sqrt(9.0 + eta)) <= 1e-15
    prof = insert_sawtooth(build_base_profile(cfg), w)
    assert abs(prof.eval_many(w.z)[0] - w.base) <= 1e-12
    top = w.base + w.amplitude
    assert abs(prof.eval_many(w.z + w.step)[0] - top) <= 1e-12 * top


def test_window_teeth_slopes_by_piece_inspection():
    cfg = ManifoldConfig.from_dimension(2)
    n = 8
    w = plan_window(cfg, 5.0, n)
    prof = insert_sawtooth(build_base_profile(cfg), w)
    teeth = (
        (prof.piece_kinds == LINEAR)
        & (w.z <= prof.piece_t0)
        & (prof.piece_t1 <= w.z + w.width)
    )
    slopes = prof.piece_params[teeth, 2]
    rises = slopes > 0
    falls = ~rises
    assert np.count_nonzero(rises) == n and np.count_nonzero(falls) == n
    assert np.all(slopes[rises] == 2.0 * n + 1.0)
    assert np.all(slopes[falls] == -(2.0 * n - 1.0))
    widths = (prof.piece_t1 - prof.piece_t0)[teeth]
    measured = widths[falls].sum()
    assert measured >= n * (w.step - 2.0 * w.smooth_halfwidth) - 1e-15


def test_symmetric_teeth_slopes_m_ge_3():
    cfg = ManifoldConfig.from_dimension(4)
    w = plan_window(cfg, 16.0, 6)
    prof = insert_sawtooth(build_base_profile(cfg), w)
    slope = w.amplitude / w.step
    assert slope == 2.0 * w.n_teeth
    mids = w.z + w.step * (np.arange(12) + 0.5)
    dy = prof.eval_many(mids)[1]
    assert np.max(np.abs(np.abs(dy) - slope)) <= 1e-12 * slope


def test_strip_containment_with_windows():
    for m, h, n in ((2, 3.0, 1), (2, 7.0, 16), (3, 9.0, 8), (5, 20.0, 4)):
        cfg = ManifoldConfig.from_dimension(m)
        prof = insert_sawtooth(build_base_profile(cfg), plan_window(cfg, h, n))
        audit = audit_strip(prof, 1.0, h + 3.0, samples=8192)
        assert audit.overall_pass, audit.failures()


def test_strip_audit_flags_violation():
    cfg = ManifoldConfig.from_dimension(2)
    coeffs = _cap_coefficients(1.0)
    prof = WarpingProfile(
        cfg,
        [CAP, POWER, LINEAR, POWER],
        [0.0, 1.0, 2.0, 3.0],
        [
            coeffs,
            (0.5, 0.0, 0.0),
            (2.0, 3.6, 1.0),  # 0.6 above the ceiling
            (0.5, 0.0, 0.0),
        ],
    )
    audit = audit_strip(prof, 1.0, 4.0, samples=2048)
    assert not audit.overall_pass
    worst = audit.failures()[0]
    assert worst.name == "strip_upper"
    assert worst.worst_violation > 0.1


def test_profile_smoothness_at_knots():
    for m, h, n in ((2, 4.0, 8), (3, 9.0, 4)):
        cfg = ManifoldConfig.from_dimension(m)
        prof = insert_sawtooth(build_base_profile(cfg), plan_window(cfg, h, n))
        mism = knot_mismatches(prof)
        assert mism["value"].max() <= 1e-12
        assert mism["slope"].max() <= 1e-11
        assert mism["curvature"].max() <= 1e-9


def test_blend_slope_overshoot_is_bounded():
    cfg = ManifoldConfig.from_dimension(2)
    w = plan_window(cfg, 3.0, 5)
    prof = insert_sawtooth(build_base_profile(cfg), w)
    ts = np.unique(np.concatenate([
        np.linspace(2.9, 4.1, 40001),
        prof.knots_in(2.9, 4.1),
    ]))
    dy = prof.eval_many(ts)[1]
    assert np.max(np.abs(dy)) <= 11.0 * 1.1


def test_footprint_validation():
    cfg = ManifoldConfig.from_dimension(2)
    base = build_base_profile(cfg)
    with pytest.raises(FootprintOutOfRange):
        insert_sawtooth(base, plan_window(cfg, 1.02, 1))
    prof = insert_sawtooth(base, plan_window(cfg, 3.0, 2))
    with pytest.raises(OverlappingWindow):
        insert_sawtooth(prof, plan_window(cfg, 3.5, 2))
    # connectors collide even though footprints [3,4] and [4.2,5.2] do not
    with pytest.raises(OverlappingWindow):
        insert_sawtooth(prof, plan_window(cfg, 4.2, 1))
    two = insert_sawtooth(prof, plan_window(cfg, 6.0, 2))
    assert len(two.windows) == 2
    assert audit_strip(two, 1.0, 9.0, samples=2048).overall_pass


def test_plan_window_validation():
    cfg = ManifoldConfig.from_dimension(3)
    with pytest.raises(ValueError):
        plan_window(cfg, 0.5, 4)
    with pytest.raises(ValueError):
        plan_window(cfg, 9.0, 0)
    # so many teeth that the blend halfwidth's float floor reaches step/2
    with pytest.raises(CubeDoesNotFit):
        plan_window(cfg, 9.0, 2**40)


def test_eval_purity_and_determinism():
    cfg = ManifoldConfig.from_dimension(3)
    prof = insert_sawtooth(build_base_profile(cfg), plan_window(cfg, 9.0, 8))
    ts = np.linspace(0.5, 12.0, 5000)
    a = prof.eval_many(ts)
    b = prof.eval_many(ts)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_json_round_trip_bit_exact():
    cfg = ManifoldConfig.from_dimension(3)
    prof = insert_sawtooth(build_base_profile(cfg), plan_window(cfg, 9.0, 8))
    prof = insert_sawtooth(prof, plan_window(cfg, 11.0, 4))
    data = json.loads(json.dumps(profile_to_json(prof)))
    rebuilt = profile_from_json(data)
    ts = np.linspace(0.0, 14.0, 30000)
    ya, da, d2a = prof.eval_many(ts)
    yb, db, d2b = rebuilt.eval_many(ts)
    assert np.array_equal(ya, yb)
    assert np.array_equal(da, db)
    assert np.array_equal(d2a, d2b)


def test_piece_table_invariants():
    cfg = ManifoldConfig.from_dimension(2)
    cap = (5.0, -7.5, 3.0)
    power = (0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        WarpingProfile(cfg, [POWER], [0.5], [power])
    with pytest.raises(ValueError, match="kind"):
        WarpingProfile(cfg, [7], [0.0], [power])
    # rows end where the next one starts, so a repeated start is an empty row
    with pytest.raises(ValueError):
        WarpingProfile(cfg, [CAP, POWER, POWER], [0.0, 1.0, 1.0], [cap, power, power])
    # a BLEND row mixes the formulas of the rows on either side of it, so it
    # needs a plain neighbour on each side and carries no params of its own
    joined = WarpingProfile(
        cfg, [POWER, BLEND, POWER], [0.0, 2.0, 2.1], [power, (0.0, 0.0, 0.0), power]
    )
    assert joined.piece_params.shape == (3, 3)
    assert joined.eval_many(2.05) == (2.05 + 0.5, 1.0, 0.0)
    none = (0.0, 0.0, 0.0)
    bad_tables = [
        ([BLEND, POWER], [0.0, 1.0], [none, power]),
        ([POWER, BLEND], [0.0, 1.0], [power, none]),
        ([POWER, BLEND, BLEND, POWER], [0.0, 1.0, 1.1, 1.2], [power, none, none, power]),
        ([POWER, BLEND, POWER], [0.0, 1.0, 1.1], [power, (POWER, 0.5, 0.0), power]),
    ]
    for kinds, t0, params in bad_tables:
        with pytest.raises(ValueError, match="BLEND"):
            WarpingProfile(cfg, kinds, t0, params)


def test_pieces_record_view_matches_columns():
    cfg = ManifoldConfig.from_dimension(3)
    prof = insert_sawtooth(build_base_profile(cfg), plan_window(cfg, 9.0, 4))
    rows = prof.pieces
    assert len(rows) == prof.piece_kinds.size == 1 + 4 * 4 + 7
    assert np.array_equal(rows["kind"], prof.piece_kinds)
    assert np.array_equal(rows["t0"], prof.piece_t0)
    assert np.array_equal(rows["t1"], prof.piece_t1)
    assert np.array_equal(rows["params"], prof.piece_params)
    assert not rows.flags.writeable
    assert prof.piece_t1[-1] == math.inf
    assert np.array_equal(prof.piece_t1[:-1], prof.piece_t0[1:])


def test_json_rejects_zero_teeth_by_name():
    cfg = ManifoldConfig.from_dimension(2)
    data = profile_to_json(insert_sawtooth(build_base_profile(cfg), plan_window(cfg, 3.0, 2)))
    data["windows"][0]["n_teeth"] = 0
    with pytest.raises(ValueError, match="n_teeth must be >= 1"):
        profile_from_json(data)


# sha256 over the bytes of piece_kinds, piece_t0, piece_t1 and piece_params
# for a window planned at h = 5, keyed by (m, n_teeth)
GOLDEN_TABLES = {
    (2, 1): "3a0fca4fcf5f9547db7f311d968f1046f3062c0084f198ed8beb88ca42102afa",
    (2, 2): "84b191cfccc983b5fc81c68c2a749a9edce392fb045c2ff6302f3544bd28dc5d",
    (2, 256): "be3025f7596397f95c01eb0a1898b3355c3178dded3e4eca9892a3cb1c827fcf",
    (3, 1): "8d2bac4df8c14e9b5170b1baa33740a99c5b744a0ed17257b662700a7abcebf1",
    (3, 2): "710dd58b1b7af6794880404b40cf1e1dfb79a6bce9722f014ae7be0ce6145ac5",
    (3, 256): "fe1727676c8dbb608ee6f6ef029d6e1d077199ae12e9a52d2985cbb8303098f3",
    (4, 1): "9f45bcb1f1d50a62f7ec4529ed74c481166b4d8576db3483fcd26b9ddd437b51",
    (4, 2): "9ccb367585081d2da3ba811954f24717df955bf479c29728bb34fc1a8722c018",
    (4, 256): "b3c439c9b2e7be28ebec10b2e6ede3bb163c60795afb29cb511ac717908b3da9",
    (5, 1): "0e1f5869dc99ebd24ea357a20a341b936540eb6e05b8cecd7835eb72ef1a537d",
    (5, 2): "ffac2e20b302fe4c56d0d4d90cffc8667f2615e5e6fb79bb055d02f5bfba65f6",
    (5, 256): "825433e646295d5693c4332bc8c5ab9c60784ad5105e56f54d7aad506adb5982",
    (2, 32768): "12d343423ed3f475257ad581a73718f5fc24077bc3245b82691ea5d68ae90ed7",
}


@pytest.mark.parametrize("m,n", sorted(GOLDEN_TABLES), ids=lambda v: str(v))
def test_golden_piece_table(m, n):
    cfg = ManifoldConfig.from_dimension(m)
    prof = insert_sawtooth(build_base_profile(cfg), plan_window(cfg, 5.0, n))
    digest = hashlib.sha256()
    for column in (prof.piece_kinds, prof.piece_t0, prof.piece_t1, prof.piece_params):
        digest.update(column.tobytes())
    assert digest.hexdigest() == GOLDEN_TABLES[(m, n)]
