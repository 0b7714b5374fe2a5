"""Test-session header: the numpy build and SIMD kernels the bit pins ran under.

The digest and golden-number tests pin float bits, and numpy picks its SIMD
kernels at import time from what the CPU supports, so a log that names
them says under which kernels those bits were checked.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def _simd_lines() -> list[str]:
    supported = [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)]
    lines = [
        f"numpy {np.__version__}: baseline {' '.join(_umath.__cpu_baseline__) or 'none'}, "
        f"dispatch on this CPU {' '.join(supported) or 'none'}"
    ]
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    if disabled:
        lines.append(f"NPY_DISABLE_CPU_FEATURES={disabled}")
    return lines


def pytest_report_header(config) -> list[str]:
    return _simd_lines()


def pytest_terminal_summary(terminalreporter) -> None:
    # -q drops the session header, and the report header with it
    if not terminalreporter.showheader:
        for line in _simd_lines():
            terminalreporter.write_line(line)
