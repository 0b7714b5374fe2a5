"""The direct Laplacian, checked against the collapsed form the norms use."""

from __future__ import annotations

import numpy as np

from czwarp.norms import TestFunction


def worst_route_discrepancy(tf: TestFunction, rs: np.ndarray) -> float:
    """Largest |direct - collapsed| / scale of the radial Laplacian over rs.

    direct is u'' + (m-1) sigma' u' / sigma, with all cancellation left to
    floating point; collapsed is phi''(G - k) sigma^(2 - 2m).  The scale is
    the largest of |direct|, |collapsed|, |u''| + (m-1) |sigma' u' / sigma|
    and 1.
    """
    m = tf.green.profile.config.m
    _, collapsed, radial, tangential, _ = tf._fields(rs)
    direct = radial + (m - 1) * tangential
    scale = np.maximum.reduce(
        [
            np.abs(direct),
            np.abs(collapsed),
            np.abs(radial) + (m - 1) * np.abs(tangential),
            np.ones_like(direct),
        ]
    )
    return float(np.max(np.abs(direct - collapsed) / scale))
