"""Bit-exact ports of the three scipy routines the estimators need.

botmeterd's landscape rows print estimates as full ``repr`` floats, so a
port that is off by one ulp changes output bytes.  Each routine here
therefore follows the scipy 1.17 code it replaces operation for
operation, in the same order, with the same numpy ufuncs where scipy
uses them:

* :func:`logsumexp` — ``scipy.special.logsumexp`` for a real 1-D array
  (``_logsumexp`` with ``b=None``, plus its non-finite fallback);
* :func:`gammaln_int` — ``scipy.special.gammaln(n + 1)`` for
  ``n = 0, 1, …``, from a Python port of cephes ``lgam``, cached in a
  table that grows by doubling;
* :func:`minimize_bounded` — ``scipy.optimize.minimize_scalar(...,
  method="bounded")`` (``_minimize_scalar_bounded``, Brent's method on a
  closed interval).

Keeping scipy out of this module keeps it off botmeterd's import path:
importing scipy cost ~0.7 s and ~65 MB of peak RSS per CLI start on a
2-vCPU host.  scipy stays the reference: ``tests/test_numeric.py``
checks every port against it bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["gammaln_int", "logsumexp", "minimize_bounded"]


def logsumexp(a: np.ndarray) -> float:
    """``log(Σ exp(a))`` over a real 1-D array, as scipy computes it.

    The maximum is pulled out of the sum for precision: the ``m``
    elements equal to ``a_max`` are dropped from the shifted sum
    ``s = Σ exp(a − a_max) / m``, and the result is
    ``log1p(s) + log(m) + a_max``.  A non-finite maximum or result
    (``-inf`` everywhere, ``+inf`` or NaN entries) falls back to
    ``log(Σ exp(a))``, as scipy does.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    a_max = a.max()
    if math.isfinite(a_max):
        i_max = a == a_max
        shifted = np.exp(a - a_max)
        # scipy masks the maxima to -inf before exp(); exp(-inf) is 0.
        shifted[i_max] = 0.0
        m = np.float64(np.count_nonzero(i_max))
        out = float(np.log1p(shifted.sum() / m) + np.log(m) + a_max)
        if math.isfinite(out):
            return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(np.log(np.sum(np.exp(a))))


# cephes ``lgam`` constants (scipy/special/xsf/cephes/gamma.h).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2π))


def _lgam_int(x: float) -> float:
    """cephes ``lgam(x)`` for an integral ``x >= 1``.

    Only the branches positive integers reach are ported: the product of
    ``x − 1, x − 2, …, 2`` followed by one ``log`` below 13, and the
    Stirling series (the 5-term ``A`` polynomial, or its short form from
    1000 on) above.
    """
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        # Integral x < 3 leaves u at 2 (x = 2) or 1 (x = 1, one more
        # z /= 1 step in cephes, a no-op); both return log(z).
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    else:
        poly = _LGAM_A[0]
        for coef in _LGAM_A[1:]:
            poly = poly * p + coef
        q += poly / x
    return q


_gammaln_table = np.zeros(0)


def gammaln_int(size: int) -> np.ndarray:
    """``gammaln(n + 1)`` for ``n = 0 … size − 1`` (read-only view).

    Backed by one module-level table that doubles whenever a caller asks
    for more than it holds, so the per-call cost is a slice.
    """
    global _gammaln_table
    table = _gammaln_table
    if size > table.size:
        grown = max(size, 2 * table.size, 64)
        extra = [_lgam_int(float(n + 1)) for n in range(table.size, grown)]
        table = np.concatenate([table, np.array(extra, dtype=float)])
        table.flags.writeable = False
        _gammaln_table = table
    return table[:size]


def minimize_bounded(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    xatol: float,
) -> float:
    """Bounded Brent minimisation of ``func`` on ``[lo, hi]``.

    A line-for-line port of scipy's ``_minimize_scalar_bounded``: the same
    golden-section / parabolic steps, comparisons, tolerances and
    function-evaluation budget, and the same numpy scalar types (``func``
    receives ``np.float64`` arguments), so it evaluates ``func`` at the
    same points and returns the same ``x`` as
    ``minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol})``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    maxfun = 500  # scipy's default maxiter

    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (
                p < q * (b - xf)
            ):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return xf
