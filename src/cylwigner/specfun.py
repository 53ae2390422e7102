"""Polynomial special functions used by the entangled-basis machinery.

Two families are needed: the bivariate (two-variable) Hermite polynomials
H_{m,n}, which carry the Fock-basis expansion of the EPR-type eigenstates,
and the generalized Laguerre polynomials L_p^alpha, which show up in the
closed-form OAM eigenstate profiles and in displaced-Fock overlaps.  The
first reduce to the second: H_{m,n}(lam, lam_bar) = (-1)^n n! lam^(m-n)
L_n^(m-n)(lam lam_bar) for m >= n, and its mirror for m < n.

A whole Fock table's Hermite combination is expanded once, in diagonal form
(:func:`laguerre_diagonals`): every monomial lam^i lam_bar^j of H_{m,n} has
i - j = m - n, so the combination is a short list of offsets d, each with a
polynomial in u = lam lam_bar, as a Laguerre series and in monomial form from
the same pass, times :func:`diagonal_power`: lam^d for d >= 0 and lam_bar^-d
for d < 0, written there once for every caller.
"""

from math import comb, factorial, sqrt

import numpy as np

from .errors import OrderBoundError

#: Largest supported m + n (total quanta n+ + n-).  Enforced by
#: :func:`check_order_bound` for every Hermite call here, and once per state
#: when its table is built (the constructors check it before they allocate).
#: The coefficients stay finite far past it, but the contour-shifted
#: cylindrical sum loses accuracy long before it: 1.82e-5 relative at 20
#: total quanta and 1.36e-3 at 26 (sample worsts of summed states, seeds 0-13
#: in README), wrong values from about 30 (ROADMAP).
MAX_TOTAL_ORDER = 60


def check_order_bound(quanta):
    """Raise OrderBoundError if this many total quanta exceed MAX_TOTAL_ORDER."""
    if quanta > MAX_TOTAL_ORDER:
        raise OrderBoundError(
            f"{quanta} total quanta exceed the supported bound {MAX_TOTAL_ORDER}")


def diagonal_power(d, lam, lam_bar):
    """The power of offset d in the diagonal form, lam^d for d >= 0 and lam_bar^-d otherwise,
    as a new complex array, by repeated squaring: numpy's complex pow is four times slower.
    The product starts from the first square it takes, not from ones."""
    base, d = np.asarray(lam if d >= 0 else lam_bar, dtype=complex), abs(d)
    if d < 2:
        return base.copy() if d else np.ones_like(base)
    power = base if d & 1 else None  # not returned: a higher bit multiplies it
    while d := d >> 1:
        base = base * base
        if d & 1:
            power = base if power is None else power * base
    return power


def hermite2_general(m, n, lam, lam_bar):
    """Bivariate Hermite polynomial H_{m,n}(lam, lam_bar).

    The two arguments are treated as independent complex variables, which
    is what analytic continuation off the real integration axis requires.
    For ``lam_bar == conj(lam)`` this coincides with :func:`hermite2`.
    Evaluated by the Laguerre reduction: (-1)^k k! L_k^|m-n|(lam lam_bar),
    k = min(m, n), times :func:`diagonal_power` of offset m - n.

    Accepts scalars or numpy arrays (broadcast together).
    """
    if m < 0 or n < 0:
        raise ValueError(f"Hermite orders must be non-negative, got ({m}, {n})")
    check_order_bound(m + n)
    lam = np.asarray(lam, dtype=complex)
    lam_bar = np.asarray(lam_bar, dtype=complex)
    k = min(m, n)
    total = ((-1) ** k * factorial(k) * diagonal_power(m - n, lam, lam_bar)
             * laguerre(k, abs(m - n), lam * lam_bar))
    if total.ndim == 0:
        return complex(total)
    return total


def laguerre_diagonals(coeffs):
    """Sum of coeffs[m, n] H_{n,m}(lam, lam_bar) / sqrt(m! n!) in diagonal form.

    This is the Fock expansion of an entangled-basis amplitude with
    coeffs[n+, n-]: one offset d = n - m per OAM value n+ - n- = -d, and the
    sum equals Sum_d diagonal_power(d, lam, lam_bar) p_d(u).  Returns
    ``(offsets, series, monomials)`` over the occupied offsets in ascending
    order, with p_d(u) = Sum_k series[k, i] L_k^|d|(u), d = offsets[i], from the
    reduction above, so every coefficient is at most the Fock coefficient in
    modulus.  monomials[j, i] is the coefficient of u^(degree - j) in p_d, for
    one Horner pass, zero-padded at the top, from the same loop through
    L_k^a(u) = Sum_j (-1)^j C(k + a, k - j) u^j / j!.  On u >= 0 the series is
    summed stably by :func:`laguerre_table`, where the monomial form cancels:
    at 40 quanta its Horner sum loses about 9 digits.
    """
    coeffs = np.asarray(coeffs)
    support = np.argwhere(coeffs != 0).tolist()
    offsets = sorted({n - m for m, n in support})
    degree = max(min(m, n) for m, n in support)
    series = np.zeros((degree + 1, len(offsets)), dtype=complex)
    monomials = np.zeros_like(series)
    for m, n in support:
        k, alpha, i = min(m, n), abs(n - m), offsets.index(n - m)
        # coeffs / sqrt(m! n!) times (-1)^k k!, from one correctly rounded ratio
        c = coeffs[m, n] * (-1) ** k * sqrt(factorial(k) / factorial(k + alpha))
        series[k, i] += c
        monomials[degree - k:, i] += c * np.array([(-1) ** j * comb(k + alpha, k - j)
                                                   / factorial(j) for j in range(k, -1, -1)])
    offsets = np.array(offsets)
    for a in (offsets, series, monomials):
        a.setflags(write=False)
    return offsets, series, monomials


def hermite2(m, n, lam):
    """H_{m,n}(lam, lam*) evaluated at a point or array of points."""
    return hermite2_general(m, n, lam, np.conjugate(lam))


def laguerre_steps(rows, a, b):
    """The upward three-term recurrence L_k = (a_k L_(k-1) - b_k L_(k-2)) / k in place:
    rows[k + 1] holds L_k, so rows[0] (L_-1 = 0) and rows[1] (L_0 = 1) start it.
    a_k = 2k - 1 + alpha - x and b_k = k - 1 + alpha are a[k - 1] and b[k - 1].  Any table
    with its degree axis first will do; all three callers put the points last:
    laguerre_table, entangled.amplitude_series and the 4D oracle (degree + 1, order, value)."""
    for k, a_k, b_k in zip(range(1, len(rows) - 1), a, b):
        np.divide(a_k * rows[k] - b_k * rows[k - 1], k, out=rows[k + 1, ...])


def laguerre_table(p, alpha, x):
    """Generalized Laguerre polynomials L_n^alpha(x) for every degree n = 0..p.

    One upward three-term recurrence in n (:func:`laguerre_steps`, which the 4D
    oracle shares) over broadcast arrays of alpha and x, returned with a leading
    degree axis: float for a real x, complex for a complex one.  It is backward
    stable on the non-negative real axis.
    """
    alpha = np.asarray(alpha)
    if p < 0 or (alpha < 0).any():
        raise ValueError(f"Laguerre indices must be non-negative, got ({p}, {alpha})")
    x = np.asarray(x)
    x = x.astype(np.result_type(x, np.float64), copy=False)
    table = np.zeros((p + 2,) + np.broadcast(alpha, x).shape, dtype=x.dtype)
    table[1] = 1.0  # table[n + 1] holds L_n; the zero row L_-1 starts the recurrence
    # every step's 2k - 1 + alpha - x and k - 1 + alpha, over the box (broadcasting is slow)
    column = (p,) + (1,) * (table.ndim - 1)
    a = np.arange(1, 2 * p, 2).reshape(column) + alpha - x
    b = np.add(np.arange(p).reshape(column), alpha, out=np.empty(a.shape))
    laguerre_steps(table, a, b)
    return table[1:]


def laguerre(p, alpha, x):
    """Generalized Laguerre polynomial L_p^alpha(x): the last row of :func:`laguerre_table`."""
    cur = laguerre_table(p, alpha, x)[p]
    if cur.ndim == 0:
        return cur.item()
    return cur
