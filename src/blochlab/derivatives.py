"""Discrete momentum-power operators (-i d/dx)^n on the ring.

Two families are provided, both translation-invariant circulant matrices so
they commute exactly with the cell shift:

* ``spectral`` -- diagonal in the discrete Fourier basis with multiplier
  k_q^n on the allowed wavenumbers k_q = 2*pi*q/L.  For odd n the Nyquist
  mode (q = -G/2 on even grids) has no Hermitian counterpart and its
  multiplier is set to zero.
* ``fd{p}`` with p in {2, 4, 6, 8} -- central finite differences of accuracy
  order p.  Stencil weights come from Fornberg's recursion (B. Fornberg,
  Math. Comp. 51, 1988), wrapped periodically.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import RingGrid, _integer

# Scheme name -> finite-difference accuracy order (None for spectral).
SCHEMES = {"spectral": None, "fd2": 2, "fd4": 4, "fd6": 6, "fd8": 8}


def fornberg_weights(order: int, offsets: np.ndarray) -> np.ndarray:
    """Weights of the ``order``-th derivative on integer sample ``offsets``.

    Implements the standard one-point-at-a-time recursion; the returned
    weights w satisfy f^(order)(0) ~ sum_i w_i f(offsets_i * h) / h^order.
    """
    offsets = np.asarray(offsets, dtype=float)
    npts = offsets.size
    if order >= npts:
        raise ValueError(f"need more than {order} points for derivative order {order}")
    d = np.zeros((order + 1, npts, npts))
    d[0, 0, 0] = 1.0
    c1 = 1.0
    for i in range(1, npts):
        c2 = 1.0
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            for k in range(min(i, order) + 1):
                d[k, i, j] = (offsets[i] * d[k, i - 1, j] - k * d[k - 1, i - 1, j]) / c3
        for k in range(min(i, order) + 1):
            d[k, i, i] = c1 / c2 * (k * d[k - 1, i - 1, i - 1] - offsets[i - 1] * d[k, i - 1, i - 1])
        c1 = c2
    return d[order, npts - 1, :]


def _spectral_column(grid: RingGrid, n: int) -> np.ndarray:
    g = grid.total_points
    k = 2.0 * np.pi * np.fft.fftfreq(g, d=grid.spacing)
    mult = k**n
    if n % 2 == 1 and g % 2 == 0:
        mult[g // 2] = 0.0
    col = np.fft.ifft(mult)
    # Even multiplier: the kernel is real and symmetric.
    return col.real if n % 2 == 0 else col


def _finite_difference_column(grid: RingGrid, n: int, accuracy: int) -> np.ndarray:
    g = grid.total_points
    # Minimal centered stencil achieving the requested accuracy order.
    npts = 2 * ((n + 1) // 2) - 1 + accuracy
    if npts > g:
        raise ValueError(f"stencil of {npts} points does not fit on a grid of {g} samples")
    half = npts // 2
    offsets = np.arange(-half, half + 1)
    try:
        step = grid.spacing**n  # Python's float power: it raises where numpy gives inf
    except OverflowError:
        step = math.inf
    if not 0.0 < step < math.inf:
        raise ValueError(f"spacing^{n} is not a positive finite float (spacing {grid.spacing!r})")
    weights = fornberg_weights(n, offsets) / step
    col = np.zeros(g)
    for off, w in zip(offsets, weights):
        col[(-off) % g] += w
    return (-1) ** (n // 2) * col if n % 2 == 0 else (-1j) ** n * col


def _momentum_column(grid: RingGrid, n: int, scheme: str) -> np.ndarray:
    """First column of the Hermitian circulant of (-i d/dx)^n, 0 <= n <= 8, after
    checking n and scheme; real (float64) for even n and complex for odd n."""
    n = _integer(n, "n", minimum=0, maximum=8)
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown derivative scheme {scheme!r}; expected one of {tuple(SCHEMES)}"
        )
    if n == 0:
        return np.eye(1, grid.total_points)[0]
    accuracy = SCHEMES[scheme]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is refused below
        if accuracy is None:
            col = _spectral_column(grid, n)
        else:
            col = _finite_difference_column(grid, n, accuracy)
        # Hermiticity of a circulant reads col[d] == conj(col[G-d]).  The ifft
        # meets it only to roundoff and the Fornberg weights are not bitwise
        # mirrored, so the column is symmetrized exactly.
        col = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    if not np.isfinite(col).all():
        raise ValueError(f"(-i d/dx)^{n} column is not finite (spacing {grid.spacing!r})")
    return col


def _circulant(col: np.ndarray) -> np.ndarray:
    """Read-only view C[i, j] = col[(i - j) mod G]: row G-1-i of the length-G
    windows over the doubled reversed column.  Rows slice without a copy."""
    g, rev = col.size, col[::-1]
    return sliding_window_view(np.concatenate((rev, rev)), g)[g - 1::-1]
