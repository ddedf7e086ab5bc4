"""Scalar special functions used by the screened lattice kernels.

exp1 accepts numpy arrays and is accurate to better than 1e-14 relative
error on its admissible range; see tests/test_special.py for the comparison
against 50-digit reference values.
"""

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024


def exp1(x):
    """Exponential integral E1 for positive arguments.

    Power series for x <= 1.5 (32 terms, cancellation below 1e-14 there);
    above, a Stieltjes continued fraction evaluated bottom-up at a fixed
    depth: 80 on (1.5, 4], 32 on (4, 12] and 15 beyond 12.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x <= 0.0):
        raise ValueError("exp1 requires strictly positive arguments")
    out = np.empty_like(x)

    lo = x <= 1.5
    if np.any(lo):
        t = x[lo]
        total = np.zeros_like(t)
        term = np.ones_like(t)
        for k in range(1, 33):
            term = term * (-t) / k
            total -= term / k
        out[lo] = total - EULER_GAMMA - np.log(t)

    for lim_lo, lim_hi, depth in ((1.5, 4.0, 80), (4.0, 12.0, 32), (12.0, np.inf, 15)):
        band = (x > lim_lo) & (x <= lim_hi)
        if not np.any(band):
            continue
        t = x[band]
        f = t + 2.0 * depth + 1.0
        for k in range(depth, 0, -1):
            f = t + 2.0 * k - 1.0 - k * k / f
        with np.errstate(under="ignore"):
            out[band] = np.exp(-t) / f

    return out[0] if scalar else out
