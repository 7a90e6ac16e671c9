"""Finite-difference stencil.

Second-order stencils along axis 0 or 1 of a node array with any number of
trailing component axes: central differences everywhere on periodic axes,
one-sided second-order stencils at the two boundary rows of non-periodic
axes. A complex array is differenced through its float64 view, real and
imaginary parts as one more trailing axis, so both parts see exactly the
real arithmetic.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the stencil implementation."""
    return "numpy"


def _stencil(f, h, axis, order, periodic):
    out = np.empty_like(f)  # keeps the memory order of f
    src, dst = (f, out) if axis == 0 else (f.swapaxes(0, 1), out.swapaxes(0, 1))
    if order == 1:
        den = 2.0 * h
        dst[1:-1] = (src[2:] - src[:-2]) / den
        if periodic:
            dst[0] = (src[1] - src[-1]) / den
            dst[-1] = (src[0] - src[-2]) / den
        else:
            dst[0] = (-3.0 * src[0] + 4.0 * src[1] - src[2]) / den
            dst[-1] = (3.0 * src[-1] - 4.0 * src[-2] + src[-3]) / den
    else:
        den = h * h
        dst[1:-1] = (src[2:] - 2.0 * src[1:-1] + src[:-2]) / den
        if periodic:
            dst[0] = (src[1] - 2.0 * src[0] + src[-1]) / den
            dst[-1] = (src[0] - 2.0 * src[-1] + src[-2]) / den
        else:
            dst[0] = (2.0 * src[0] - 5.0 * src[1] + 4.0 * src[2] - src[3]) / den
            dst[-1] = (2.0 * src[-1] - 5.0 * src[-2] + 4.0 * src[-3] - src[-4]) / den
    return out


def derivative(f, h, axis, order, periodic):
    """Differentiate a real or complex node array along axis 0 or 1.

    ``order`` is 1 or 2; truncation is O(h^2) for smooth fields. Axes after
    the first two are components and are differenced independently. The
    result has the memory order of ``f``.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    f = np.asarray(f)
    if f.shape[axis] < 4:
        raise ValueError("need at least 4 nodes along the differentiated axis")
    if np.iscomplexobj(f):
        parts = np.asarray(f, dtype=np.complex128)[..., None].view(np.float64)
        return _stencil(parts, h, axis, order, periodic).view(np.complex128)[..., 0]
    return _stencil(np.asarray(f, dtype=np.float64), h, axis, order, periodic)
