"""Shared numerical kernels: Fresnel integrals, root finding and a Hermitian
eigendecomposition, and the guards on the library's scalars and counts.

Importing it loads the standard library only. `elementwise` maps a scalar
routine over a float, a list or an ndarray, and imports numpy only for an
ndarray; `hermitian_eig` imports it when it runs. The Fresnel integrals
follow the power series and continued fraction of Press et al., *Numerical
Recipes*, 3rd ed., section 6.8 (`frenel`), after Abramowitz & Stegun 7.3.
The root finder is Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4), in the form of scipy's
`brentq`.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np


class NumericError(RuntimeError):
    """A numerical method failed on inputs its checks accept: the CLI's
    exit 3, where a `ValueError` is a rejected argument."""


class BracketError(NumericError):
    """The supplied bracket does not enclose a sign change."""


class AccuracyError(NumericError):
    """An iterative method (quadrature refinement, a series, a root finder,
    LAPACK's SVD) exhausted its budget without meeting the tolerance.

    Carries the best available estimate in ``best_estimate``, or None where
    the method returns none.
    """

    def __init__(self, message: str, best_estimate: Optional[complex] = None):
        super().__init__(message)
        self.best_estimate = best_estimate


class RankError(NumericError):
    """A linear system or Gram matrix is (numerically) rank deficient."""


def check_positive(name: str, value: float, finite: bool = True) -> float:
    """`value` if it is positive, and finite unless `finite` is False, where
    inf stands for a point at infinity. Else `ValueError` naming `name`."""
    if value > 0 and (value < math.inf or not finite):  # False for nan
        return value
    qualifier = "finite and " if finite else ""
    raise ValueError(f"{name} must be {qualifier}positive, got {value!r}")


def check_non_negative(name: str, value: float) -> float:
    """`value` if it is finite and not negative, where 0 is a usable value
    (no noise, a point antenna). Else `ValueError` naming `name`."""
    if 0 <= value < math.inf:  # False for nan
        return value
    raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


#: The largest count: the most complex values one array can hold.
MAX_COUNT = sys.maxsize // 16


def check_count(name: str, value: int) -> int:
    """`value` as an int if it has `__index__` (numpy integers do), is not a
    bool and is from 1 to `MAX_COUNT`; else `ValueError` naming `name`."""
    try:
        count = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:  # a float, a string, None, ...
        count = 0
    if 1 <= count <= MAX_COUNT:
        return count
    raise ValueError(f"{name} must be an integer from 1 to {MAX_COUNT}, "
                     f"got {value!r}")


_EPS = sys.float_info.epsilon
#: Fresnel series below this |x|, continued fraction above (NR's XMIN).
_FRESNEL_SERIES_MAX = 1.5
#: Above this |x| the oscillating part of C and S, of size 1/(pi x), is below
#: half an ulp of 0.5, so both are 0.5. It also keeps pi x^2 from overflowing.
_FRESNEL_HALF_MIN = 2.0**54 / math.pi
_FRESNEL_MAX_TERMS = 100
#: Continued-fraction numerators -n(n+1), n = 1, 3, 5, ...
_FRESNEL_CF_A = [-n * (n + 1.0) for n in range(1, 2 * _FRESNEL_MAX_TERMS, 2)]
#: Brent iteration cap, as in scipy.optimize.brentq.
_BRENT_MAX_ITER = 100


def _fresnel(x: float) -> Tuple[float, float]:
    """(C(x), S(x)) for one float: NR `frenel` in double precision."""
    if math.isnan(x):
        raise ValueError("x must not be nan")
    ax = abs(x)
    if ax > _FRESNEL_HALF_MIN:
        c = s = 0.5
    elif ax <= _FRESNEL_SERIES_MAX:
        # power series: term k is ax (pi ax^2/2)^k / k! / (2k+1), feeding
        # C for even k and S for odd k, with signs + + - - + + ...
        fact = 0.5 * math.pi * ax * ax
        term = c = ax
        s = 0.0
        for k in range(1, _FRESNEL_MAX_TERMS):
            term *= fact / k
            part = term / (2 * k + 1)
            if k & 2:
                part = -part
            if k & 1:
                s += part
                total = s
            else:
                c += part
                total = c
            if term <= _EPS * abs(total):
                break
        else:
            raise AccuracyError(f"Fresnel series did not converge at {x}", c + 1j * s)
    else:
        # modified Lentz evaluation of the continued fraction for erfc, from
        # which (C + iS) = (1 + i)/2 (1 - e^{i pi ax^2/2} h (ax - i ax))
        pix2 = math.pi * ax * ax
        b = complex(1.0, -pix2)
        cc = 1.0 / sys.float_info.min
        d = h = 1.0 / b
        for a in _FRESNEL_CF_A:
            b += 4.0
            d = 1.0 / (a * d + b)
            cc = b + a / cc
            step = cc * d
            h *= step
            if abs(step - 1.0) < 4 * _EPS:
                break
        else:
            raise AccuracyError(f"Fresnel continued fraction did not converge at {x}",
                                h)
        phase = complex(math.cos(0.5 * pix2), math.sin(0.5 * pix2))
        cs = complex(0.5, 0.5) * (1.0 - phase * h * complex(ax, -ax))
        c, s = cs.real, cs.imag
    return (c, s) if x >= 0 else (-c, -s)


def elementwise(fn: Callable[..., Any], *args: Any, outputs: int = 1):
    """`fn`, a function of floats, applied element by element to `args`.

    Floats (and 0-d arrays) give fn's own value. Otherwise the result takes
    the type of the arguments: an ndarray of their broadcast shape if one
    is an ndarray, else a list for flat lists or tuples of one length. A
    float beside them stands for every element. Where `fn` returns
    `outputs` > 1 floats, lists and arrays come back as a tuple of that
    many. Only the ndarray case imports numpy.
    """
    shape = None
    if any(getattr(a, "ndim", 0) for a in args):
        import numpy as np

        grids = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                      for a in args))
        shape = grids[0].shape
        args = tuple(g.ravel().tolist() for g in grids)
    sizes = {len(a) for a in args if isinstance(a, (list, tuple))}
    if not sizes:
        return fn(*map(float, args))
    if len(sizes) > 1:
        raise ValueError(f"lists of different lengths {sorted(sizes)}")
    [size] = sizes
    columns = [list(map(float, a)) if isinstance(a, (list, tuple))
               else [float(a)] * size for a in args]
    values = list(map(fn, *columns))
    results = ([[v[i] for v in values] for i in range(outputs)]
               if outputs > 1 else [values])
    if shape is not None:
        results = [np.array(r, dtype=float).reshape(shape) for r in results]
    return tuple(results) if outputs > 1 else results[0]


def fresnel_cs(x):
    """Fresnel integrals C(x) = int_0^x cos(pi t^2/2) dt and the sine analog.

    Odd in x, with the limits C(+-inf) = S(+-inf) = +-1/2. Agrees with
    scipy.special.fresnel to about 1e-12 absolute. A float (or a 0-d
    array) gives a pair of Python floats, a list a pair of lists, and an
    ndarray a pair of ndarrays of its shape (`elementwise`). Raises
    `ValueError` on `nan`.
    """
    return elementwise(_fresnel, x, outputs=2)


def solve_scalar_root(
    g: Callable[[float], float],
    bracket: Tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Root of a scalar function inside a sign-changing bracket.

    Brent's method, to an absolute tolerance `tol` plus 4 eps relative.
    Raises `AccuracyError` if it has not converged after 100 iterations.
    """
    check_positive("tol", tol, finite=False)
    lo, hi = bracket
    g_lo, g_hi = g(lo), g(hi)
    if math.isnan(g_lo) or math.isnan(g_hi):
        raise ValueError(f"g is NaN at an end of [{lo}, {hi}]")
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={g_lo}, {g_hi}")
    return _brentq(g, float(lo), float(hi), float(g_lo), float(g_hi), tol)


def _brentq(g, xpre: float, xcur: float, fpre: float, fcur: float,
            xtol: float) -> float:
    """Brent (1973, ch. 4) with the control flow of scipy's `brentq`: the
    root is kept between xcur and xblk, |f(xcur)| <= |f(xblk)|."""
    rtol = 4 * _EPS
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre and fcur and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = float(g(xcur))
        if math.isnan(fcur):
            raise ValueError(f"g is NaN at {xcur}")
    raise AccuracyError(f"Brent's method did not converge in {_BRENT_MAX_ITER} "
                        "iterations", best_estimate=xcur)


def hermitian_eig(m: np.ndarray, atol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.
    No pipeline calls it; `perfbench/tracing.py` still traces it by name."""
    import numpy as np

    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > atol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    idx = np.argsort(w)[::-1]
    return w[idx], v[:, idx]
