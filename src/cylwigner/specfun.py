"""Polynomial special functions used by the entangled-basis machinery.

Two families are needed: the bivariate (two-variable) Hermite polynomials
H_{m,n}, which carry the Fock-basis expansion of the EPR-type eigenstates,
and the generalized Laguerre polynomials L_p^alpha, which show up both in
the closed-form OAM eigenstate profiles and in displaced-Fock overlaps.

A whole Fock table's Hermite combination is kept in diagonal form
(:func:`hermite2_diagonals`): every monomial lam^i lam_bar^j of H_{m,n} has
i - j = m - n, so the combination is a short list of offsets d, each with a
polynomial in u = lam lam_bar.
"""

from math import comb, factorial, lgamma, sqrt

import numpy as np

from .errors import OrderBoundError

#: Largest supported m + n (total quanta n+ + n-).  Enforced for every
#: Hermite call here, and once per state when its table is built
#: (``twomode.check_order_bound``; the constructors check it before they
#: allocate).  The coefficients stay finite far past it, but the
#: contour-shifted cylindrical sum loses accuracy long before it: 1.3e-7
#: relative at 20 total quanta and 4e-5 at 26 (worst of random points
#: against the mpmath reference), wrong values from about 30 (ROADMAP).
MAX_TOTAL_ORDER = 60


def _check_indices(m, n):
    if m < 0 or n < 0:
        raise ValueError(f"Hermite orders must be non-negative, got ({m}, {n})")
    if m + n > MAX_TOTAL_ORDER:
        raise OrderBoundError(
            f"total Hermite order {m + n} exceeds supported bound {MAX_TOTAL_ORDER}"
        )


def hermite2_general(m, n, lam, lam_bar):
    """Bivariate Hermite polynomial H_{m,n}(lam, lam_bar).

    The two arguments are treated as independent complex variables, which
    is what analytic continuation off the real integration axis requires.
    For ``lam_bar == conj(lam)`` this coincides with :func:`hermite2`.

    Accepts scalars or numpy arrays (broadcast together).
    """
    _check_indices(m, n)
    lam = np.asarray(lam, dtype=complex)
    lam_bar = np.asarray(lam_bar, dtype=complex)
    terms = []
    for k in range(min(m, n) + 1):
        logc = (lgamma(m + 1) + lgamma(n + 1)
                - lgamma(k + 1) - lgamma(m - k + 1) - lgamma(n - k + 1))
        terms.append((-1.0) ** k * np.exp(logc) * lam ** (m - k) * lam_bar ** (n - k))
    # np.sum over the stacked term axis uses pairwise accumulation
    total = np.sum(np.stack(np.broadcast_arrays(*terms)), axis=0)
    if total.ndim == 0:
        return complex(total)
    return total


def hermite2_diagonals(coeffs):
    """Sum of coeffs[m, n] H_{n,m}(lam, lam_bar) / sqrt(m! n!) in diagonal form.

    Returns ``((d, p_d), ...)`` over the occupied offsets d = n - m in
    ascending order, where p_d holds the coefficients of a polynomial in
    u = lam lam_bar, highest power first, and the sum equals
    Sum_d lam^d p_d(u) (lam_bar^-d p_d(u) for d < 0).  This is the Fock
    expansion of an entangled-basis amplitude with coeffs[n+, n-]: one
    offset per OAM value n+ - n- = -d, of degree at most min(n+, n-).
    """
    coeffs = np.asarray(coeffs)
    support = np.argwhere(coeffs != 0)
    parts = {}
    for m, n in support.tolist():
        # H_{n,m} = lam^(n-m) Sum_k (-1)^k C(m,k) C(n,k) k! u^(min - k) for n >= m
        scale = complex(coeffs[m, n]) / sqrt(factorial(m) * factorial(n))
        parts.setdefault(n - m, []).append(
            [(-1) ** k * comb(m, k) * comb(n, k) * factorial(k) * scale
             for k in range(min(m, n) + 1)])
    table = []
    for d in sorted(parts):
        p = np.zeros(max(len(v) for v in parts[d]), dtype=complex)
        for v in parts[d]:
            p[len(p) - len(v):] += v
        p.setflags(write=False)
        table.append((d, p))
    return tuple(table)


def hermite2(m, n, lam):
    """H_{m,n}(lam, lam*) evaluated at a point or array of points."""
    return hermite2_general(m, n, lam, np.conjugate(lam))


def laguerre_table(p, alpha, x):
    """Generalized Laguerre polynomials L_n^alpha(x) for every degree n = 0..p.

    One upward three-term recurrence in n over broadcast arrays of alpha and
    x, returned with a leading degree axis.  It is backward stable on the
    non-negative real axis, which is the only region used here.
    """
    alpha = np.asarray(alpha)
    if p < 0 or np.any(alpha < 0):
        raise ValueError(f"Laguerre indices must be non-negative, got ({p}, {alpha})")
    x = np.asarray(x, dtype=float)
    table = np.zeros((p + 2,) + np.broadcast_shapes(alpha.shape, x.shape))
    table[1] = 1.0  # table[n + 1] holds L_n; the zero row L_-1 starts the recurrence
    # the coefficients 2k - 1 + alpha - x and k - 1 + alpha of every step at once
    steps = np.arange(1, p + 1).reshape((-1,) + (1,) * (table.ndim - 1))
    for k, a, b in zip(range(1, p + 1), 2 * steps - 1 + alpha - x, steps - 1 + alpha):
        np.divide(a * table[k] - b * table[k - 1], k, out=table[k + 1, ...])
    return table[1:]


def laguerre(p, alpha, x):
    """Generalized Laguerre polynomial L_p^alpha(x): the last row of :func:`laguerre_table`."""
    cur = laguerre_table(p, alpha, x)[p]
    if cur.ndim == 0:
        return float(cur)
    return cur
