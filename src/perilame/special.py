"""Scalar special functions used by the screened lattice kernels.

Both routines accept numpy arrays and are accurate to better than 1e-14
relative error on their admissible ranges; see tests/test_special.py for the
comparison against 50-digit reference values.
"""

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024

_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03)
_ERF_A4 = 1.85777706184603153e-1
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)

_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_C8 = 2.15311535474403846e-8
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)

_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4)
_ERFC_P5 = 1.63153871373020978e-2
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346047e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628694807945156077e-1


def erfc(x):
    """Complementary error function, Cody-style rational approximations."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    y = np.abs(x)
    out = np.empty_like(y)

    lo = y <= 0.46875
    if np.any(lo):
        z = y[lo] * y[lo]
        num = _ERF_A4 * z
        den = z
        for a, b in zip(_ERF_A[:3], _ERF_B[:3]):
            num = (num + a) * z
            den = (den + b) * z
        erf_lo = y[lo] * (num + _ERF_A[3]) / (den + _ERF_B[3])
        out[lo] = 1.0 - erf_lo

    mid = (y > 0.46875) & (y <= 4.0)
    if np.any(mid):
        t = y[mid]
        num = _ERFC_C8 * t
        den = t
        for c, d in zip(_ERFC_C[:7], _ERFC_D[:7]):
            num = (num + c) * t
            den = (den + d) * t
        out[mid] = np.exp(-t * t) * (num + _ERFC_C[7]) / (den + _ERFC_D[7])

    hi = y > 4.0
    if np.any(hi):
        t = y[hi]
        z = 1.0 / (t * t)
        num = _ERFC_P5 * z
        den = z
        for p, q in zip(_ERFC_P[:4], _ERFC_Q[:4]):
            num = (num + p) * z
            den = (den + q) * z
        r = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
        with np.errstate(under="ignore"):
            out[hi] = np.exp(-t * t) * (_INV_SQRT_PI - r) / t

    neg = x < 0.0
    out[neg] = 2.0 - out[neg]
    return out[0] if scalar else out


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
