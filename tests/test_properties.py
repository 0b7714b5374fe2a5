"""Property tests for the construction invariants over random cells.

Each drawn cell (m, k, n) is built by build_construction and must keep:
the profile inside the strip t^alpha <= sigma <= (t+1)^alpha, value and
slope continuity at every knot, G strictly increasing with inverse(G(r)) = r,
and the footprint mapped into the plateau image [k + delta, k + 1 - delta].
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from czwarp.experiment import ExperimentConfig, build_construction  # noqa: E402
from czwarp.green import DELTA_UNIVERSAL  # noqa: E402
from czwarp.warping import audit_strip  # noqa: E402


def check_construction(m: int, k: float, n: int) -> None:
    _, window, green, r_max = build_construction(ExperimentConfig(m=m, p=2.0, k=k, n_teeth=n))
    profile = green.profile

    strip = audit_strip(profile, 1.0, r_max, samples=2048)
    assert strip.overall_pass, strip.failures()

    gaps = profile.knot_mismatches()
    max_slope = 2.0 * n + 1.0 if m == 2 else window.amplitude / window.step
    assert gaps["value"].max() <= 1e-12
    assert gaps["slope"].max() <= 1e-12 * max_slope

    rs = np.unique(np.concatenate([profile.knots_in(1.0, r_max), np.linspace(1.0, r_max, 4001)]))
    g = green.value_many(rs)
    assert np.all(np.diff(g) > 0.0)
    back = green.inverse_many(g)
    assert np.max(np.abs(back - rs) / rs) <= 1e-12

    left = green.value(window.z)
    right = green.value(window.z + window.width)
    assert left >= k + DELTA_UNIVERSAL - 1e-12
    assert right <= k + 1.0 - DELTA_UNIVERSAL + 1e-12


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    m=st.integers(2, 8),
    k=st.floats(1.0, 9.0, allow_nan=False),
    n=st.integers(1, 4096),
)
def test_construction_invariants(m, k, n):
    check_construction(m, k, n)


def test_construction_invariants_at_two_to_the_seventeen():
    check_construction(3, 3.0, 2**17)
