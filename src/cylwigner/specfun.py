"""Polynomial special functions used by the entangled-basis machinery.

Two families are needed: the bivariate (two-variable) Hermite polynomials H_{m,n}, which
carry the Fock-basis expansion of the EPR-type eigenstates, and the generalized Laguerre
polynomials L_p^alpha of the OAM eigenstate profiles, the amplitude series and the
displaced-Fock overlaps, all from one engine: :func:`laguerre_plan` builds the upward
recurrence's x-free steps a = 2k - 1 + alpha, k and c = -(k - 1 + alpha)/k once per state
or dim, and :func:`laguerre_rows` runs them into a points-last table, each step
L_k = A_k L_(k-1) + c_k L_(k-2), A = (a - x)/k, in three array operations.  The first
reduce to the second: H_{m,n}(lam, lam_bar) = (-1)^n n! lam^(m-n) L_n^(m-n)(lam lam_bar)
for m >= n, and its mirror for m < n.

A whole Fock table's Hermite combination is expanded once, in diagonal form
(:func:`laguerre_diagonals`): every monomial lam^i lam_bar^j of H_{m,n} has
i - j = m - n, so the combination is a short list of offsets d, each with a
polynomial in u = lam lam_bar, as a Laguerre series and in monomial form from
the same pass, times :func:`diagonal_power`: lam^d for d >= 0 and lam_bar^-d
for d < 0, written there once for every caller.
"""

from math import comb, factorial, sqrt

import numpy as np

from ._record import read_only
from .errors import OrderBoundError

#: Largest supported m + n (total quanta n+ + n-).  Enforced by
#: :func:`check_order_bound` for every Hermite call here, and once per state
#: when its table is built (the constructors check it before they allocate).
#: The coefficients stay finite far past it, but the contour-shifted
#: cylindrical sum loses accuracy long before it: 1.82e-5 relative at 20
#: total quanta and 2.63e-3 at 26 (sample worsts of summed states, seeds 0-13
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
    return read_only(np.array(offsets), series, monomials)


def hermite2(m, n, lam):
    """H_{m,n}(lam, lam*) evaluated at a point or array of points."""
    return hermite2_general(m, n, lam, np.conjugate(lam))


def laguerre_plan(p, alpha):
    """Read-only x-free step terms ``(a, k, c)`` of the upward recurrence for L_0^alpha..L_p^alpha,
    a[k - 1] = 2k - 1 + alpha, k and c[k - 1] = -(k - 1 + alpha) / k, each (p,) + alpha's shape."""
    k = np.arange(1.0, p + 1).reshape((p,) + (1,) * np.ndim(alpha))
    a = 2.0 * k - 1 + alpha
    return read_only(a, k + 0.0 * a, -(k - 1 + alpha) / k)  # k over alpha's shape, as a is


def laguerre_rows(a, k, c, x):
    """L_0..L_p(x) from a :func:`laguerre_plan` over the broadcast of its alpha, of at least x's
    rank, and x: degree first, points last, float for a real x and complex for a complex one.
    The one step loop, L_k = A_k L_(k-1) + c_k L_(k-2) from L_-1 = 0 and L_0 = 1, is three
    array operations a step on operands of one shape: A = (a - x) / k and c laid over the box."""
    step_a = (a - x)[:, None]  # a unit axis, so that even a scalar x's rows are arrays
    step_a /= k[:, None]
    step_c = np.empty_like(step_a)
    step_c[:, 0] = c
    rows = np.empty((len(step_a) + 2,) + step_a.shape[1:], dtype=step_a.dtype)
    rows[0], rows[1] = 0.0, 1.0  # rows[k + 1, 0] holds L_k
    slab, prev, cur = np.empty_like(rows[0]), rows[0], rows[1]
    for a_k, c_k, nxt in zip(step_a, step_c, rows[2:]):
        np.multiply(a_k, cur, nxt)
        np.multiply(c_k, prev, slab)
        nxt += slab
        prev, cur = cur, nxt
    return rows[1:, 0]


def laguerre_table(p, alpha, x):
    """Generalized Laguerre polynomials L_n^alpha(x) for every degree n = 0..p, over broadcast
    arrays of alpha and x, with a leading degree axis: float for a real x, complex for a complex
    one.  One :func:`laguerre_rows` call on its plan, backward stable on the real axis x >= 0."""
    alpha = np.asarray(alpha)
    if p < 0 or (alpha < 0).any():
        raise ValueError(f"Laguerre indices must be non-negative, got ({p}, {alpha})")
    alpha = alpha.reshape((1,) * (np.ndim(x) - alpha.ndim) + alpha.shape)  # padded to x's rank
    return laguerre_rows(*laguerre_plan(p, alpha), x)


def laguerre(p, alpha, x):
    """Generalized Laguerre polynomial L_p^alpha(x): the last row of :func:`laguerre_table`."""
    cur = laguerre_table(p, alpha, x)[p]
    return cur.item() if cur.ndim == 0 else cur
