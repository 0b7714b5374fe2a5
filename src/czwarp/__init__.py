"""Warped-product manifolds whose oscillating warping defeats the
L^p Calderon-Zygmund inequality, with verified-quadrature norm accounting.

Re-exports the __all__ of every library module; czwarp.cli is not imported.
"""

from . import experiment, green, norms, quadrature, warping
from .experiment import *  # noqa: F403
from .green import *  # noqa: F403
from .norms import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .warping import *  # noqa: F403

__all__ = [
    name for module in (experiment, green, norms, quadrature, warping) for name in module.__all__
]

__version__ = "0.1.0"
