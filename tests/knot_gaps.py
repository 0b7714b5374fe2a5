"""One-sided value, slope and curvature gaps of a profile at its knots."""

from __future__ import annotations

import numpy as np

from czwarp.warping import WarpingProfile


def knot_mismatches(profile: WarpingProfile) -> dict[str, np.ndarray]:
    """One-sided value/slope/curvature gaps at every interior knot.

    Checked by piece inspection: the left piece and the right piece are
    each evaluated at the shared boundary point through the sigma kernel.
    """
    n = profile.piece_t0.size
    ts = profile.piece_t0[1:]
    left = profile._eval_rows(np.arange(0, n - 1), ts)
    right = profile._eval_rows(np.arange(1, n), ts)
    return {
        "knots": ts,
        "value": np.abs(left[0] - right[0]),
        "slope": np.abs(left[1] - right[1]),
        "curvature": np.abs(left[2] - right[2]),
    }
