"""Two-mode Fock states in the chirality basis, and the 4D Wigner oracle.

States are stored as coefficient tables over (n_plus, n_minus), the photon
numbers of the circular (chirality) mode pair in which both the total
number N = n+ + n- and the OAM L = n+ - n- act diagonally.  The Cartesian
x/y mode basis enters only through ``mode_rotate_xy_to_pm``.

A TwoModeFock is normalized and holds at most MAX_TOTAL_ORDER total quanta
by construction: both are checked once, when the table is built, so no
evaluator re-checks them.  The constructors check the bound on their top
quanta (``specfun.check_order_bound``) before they allocate a table.  A
state expands its entangled-basis amplitude once, as Laguerre series
(``laguerre_stack``), and the cylindrical kernel reads their monomial form
(``amplitude_stack``).
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, exp, factorial, lgamma, pi, sqrt

import numpy as np

from .errors import QuadratureResidueError, TruncationWarning
from .specfun import check_order_bound, laguerre_diagonals, laguerre_table

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class TwoModeFock:
    """Normalized complex coefficient table c[n_plus, n_minus], 0 <= n <= cutoff,
    with at most MAX_TOTAL_ORDER total quanta."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient table must be a square 2D array")
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)
        if not self.is_normalized:
            raise ValueError("state must be normalized")
        check_order_bound(self.max_total_quanta)

    @property
    def cutoff(self):
        return self.coeffs.shape[0] - 1

    @property
    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    @property
    def is_normalized(self):
        return abs(self.norm - 1.0) <= _NORM_TOL

    @cached_property
    def max_total_quanta(self):
        """Largest n+ + n- with a nonzero coefficient."""
        idx = np.argwhere(np.abs(self.coeffs) > 0)
        return int(np.max(idx.sum(axis=1)))

    @cached_property
    def laguerre_stack(self):
        """The entangled-basis amplitude in diagonal form, computed once: ``(offsets,
        series)`` from :func:`specfun.laguerre_diagonals`, one offset d = n- - n+ per
        OAM value with a Laguerre series in u = lam lam_bar.  The radial marginal reads
        it where u is real, and :attr:`amplitude_stack` is built from it."""
        return laguerre_diagonals(self.coeffs)

    @cached_property
    def amplitude_stack(self):
        """``laguerre_stack`` in monomial form, as ``(offsets, coeffs)`` for one Horner pass:
        coeffs[j, 0, i] is the coefficient of u^(degree - j) in p_d, d = offsets[i],
        zero-padded at the top; a complex table adds conj(p_d) as coeffs[:, 1], read by
        the bra side.  Each series is converted through
        L_k^a(u) = Sum_j (-1)^j C(k + a, k - j) u^j / j!."""
        offsets, series = self.laguerre_stack
        degrees = range(len(series))
        coeffs = np.zeros((len(series), 1, len(offsets)), dtype=complex)
        for i, a in enumerate(np.abs(offsets).tolist()):
            basis = np.array([[(-1) ** j * comb(k + a, k - j) / factorial(j) if k >= j else 0.0
                               for k in degrees] for j in degrees])
            coeffs[::-1, 0, i] = np.sum(basis * series[:, i], axis=1)
        if coeffs.imag.any():
            coeffs = np.concatenate([coeffs, coeffs.conj()], axis=1)
        for a in (offsets, coeffs):
            a.setflags(write=False)
        return offsets, coeffs


@dataclass(frozen=True)
class CartesianPoint4:
    """A point of the two-mode phase space, or a batch: arrays that broadcast together."""

    x: float
    p_x: float
    y: float
    p_y: float

    def __post_init__(self):
        for v in (self.x, self.p_x, self.y, self.p_y):
            if not np.isfinite(v).all():
                raise ValueError("phase-space coordinates must be finite")


def make_N_l_eigenstate(N, l0):
    """Joint eigenstate |N, l0> of total number and OAM.

    A single basis vector at n+ = (N + l0)/2, n- = (N - l0)/2.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if abs(l0) > N:
        raise ValueError(f"range: |l0| = {abs(l0)} exceeds N = {N}")
    if (N - abs(l0)) % 2 != 0:
        raise ValueError(f"parity: N - |l0| = {N - abs(l0)} must be even")
    check_order_bound(N)
    np_, nm = (N + l0) // 2, (N - l0) // 2
    cut = max(np_, nm)
    table = np.zeros((cut + 1, cut + 1), dtype=complex)
    table[np_, nm] = 1.0
    return TwoModeFock(table)


def make_summed_oam(l0, Nmax):
    """OAM eigenstate as a 1/sqrt(N+1)-weighted sum over N, renormalized.

    The untruncated sum is not normalizable, so the truncation Nmax is an
    explicit, mandatory parameter.
    """
    if Nmax < abs(l0):
        raise ValueError(f"range: Nmax = {Nmax} is below |l0| = {abs(l0)}")
    top = Nmax - (Nmax - abs(l0)) % 2
    check_order_bound(top)
    cut = (Nmax + abs(l0)) // 2
    table = np.zeros((cut + 1, cut + 1), dtype=complex)
    for N in range(abs(l0), top + 1, 2):
        table[(N + l0) // 2, (N - l0) // 2] = 1.0 / sqrt(N + 1)
    return TwoModeFock(table / np.linalg.norm(table))


def make_superposition(l1, l2, phi0, Nmax):
    """Equal-weight superposition of two summed-OAM states with relative phase."""
    # the larger |l| first: its range check covers both, so it runs before any bound check
    parts = {l: make_summed_oam(l, Nmax) for l in sorted((l1, l2), key=abs, reverse=True)}
    a, b = parts[l1], parts[l2]
    dim = max(a.coeffs.shape[0], b.coeffs.shape[0])
    table = np.zeros((dim, dim), dtype=complex)
    table[: a.coeffs.shape[0], : a.coeffs.shape[1]] += a.coeffs
    table[: b.coeffs.shape[0], : b.coeffs.shape[1]] += np.exp(1j * phi0) * b.coeffs
    return TwoModeFock(table / np.linalg.norm(table))


def rotate_state(s, phi0):
    """Apply exp(i phi0 L): multiplies c[n+, n-] by exp(i phi0 (n+ - n-))."""
    dim = s.coeffs.shape[0]
    ell = np.subtract.outer(np.arange(dim), np.arange(dim))
    return TwoModeFock(s.coeffs * np.exp(1j * phi0 * ell))


def expectation_N_L(s):
    """Diagonal expectations (<N>, <L>) of a normalized state."""
    prob = np.abs(s.coeffs) ** 2
    dim = s.coeffs.shape[0]
    n = np.arange(dim)
    mean_n = float(np.sum(prob * np.add.outer(n, n)))
    mean_l = float(np.sum(prob * np.subtract.outer(n, n)))
    return mean_n, mean_l


def _basis_rotation(table, m11, m12, m21, m22):
    """Re-express a two-mode table under A+ -> m11 B1+ + m12 B2+, etc.

    The substitution acts on creation operators; coefficients follow by
    binomial expansion with exact factorial normalization.  Output is a
    square table large enough to hold all quanta.
    """
    table = np.asarray(table, dtype=complex)
    dim = table.shape[0] + table.shape[1] - 1
    out = np.zeros((dim, dim), dtype=complex)
    for (na, nb), c in np.ndenumerate(table):
        if c == 0:
            continue
        base = lgamma(na + 1) + lgamma(nb + 1)
        for j in range(na + 1):
            for k in range(nb + 1):
                n1 = j + k
                n2 = na + nb - n1
                coef = (comb(na, j) * comb(nb, k)
                        * m11 ** j * m12 ** (na - j) * m21 ** k * m22 ** (nb - k))
                fac = exp(0.5 * (lgamma(n1 + 1) + lgamma(n2 + 1) - base))
                out[n1, n2] += c * coef * fac
    return out


def mode_rotate_xy_to_pm(coeffs_xy):
    """Convert a Fock table over (n_x, n_y) into the chirality basis.

    Uses a_x+ = (a_+^dag + a_-^dag)/sqrt(2) and
    a_y+ = -i (a_+^dag - a_-^dag)/sqrt(2); exact at the given cutoff.
    """
    s = 1.0 / sqrt(2.0)
    return TwoModeFock(_basis_rotation(coeffs_xy, s, s, -1j * s, 1j * s))


@lru_cache(maxsize=128)
def _dim_constants(dim):
    """Read-only arrays of dim alone: k, min(m, n), |m - n|, sqrt(min! / max!) signed
    (-1)^(n - m) for m < n, from exact integers (an lgamma form is 2.2e-15 off at dim 21),
    the index of each element's power in displaced_fock_matrix, and the parity (-1)^(m + n)."""
    k = np.arange(dim)
    lo, hi = np.minimum.outer(k, k), np.maximum.outer(k, k)
    ratio = [[(-1) ** max(n - m, 0) * sqrt(factorial(min(m, n)) / factorial(max(m, n)))
              for n in range(dim)] for m in range(dim)]
    consts = (k, lo, hi - lo, np.array(ratio),
              hi - lo + dim * np.less.outer(k, k), (-1.0) ** np.add.outer(k, k))
    for a in consts:
        a.setflags(write=False)
    return consts


def displaced_fock_matrix(alpha, dim):
    """Matrix elements <m|D(alpha)|n> for m, n < dim.

    Closed form in associated Laguerre polynomials (Cahill & Glauber 1969),
    exact up to roundoff.  An array of alpha gives matrices of shape
    alpha.shape + (dim, dim), each computed as for that alpha alone; -conj(alpha)
    gives the transpose of alpha's matrix, bit for bit.
    """
    k, lo, order, ratio, gather, _ = _dim_constants(dim)
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    aa = alpha.real ** 2 + alpha.imag ** 2
    # m >= n: alpha^(m-n) L_n^(m-n);  m < n: (-conj alpha)^(n-m) L_m^(n-m), its sign in ratio
    powers = alpha ** k
    d = ratio * np.concatenate([powers, powers.conj()], axis=-1)[..., gather]
    d *= np.exp(aa * -0.5)[..., None]
    # the table is (degree, batch..., order): a transposed view gathers as (batch, m, n)
    lag = laguerre_table(dim - 1, k, aa).reshape(dim, -1, dim).transpose(1, 0, 2)
    d *= lag[:, lo, order].reshape(d.shape)
    return d


def wigner_4d(s, at):
    """Two-mode Cartesian Wigner function via displaced parity.

    W(x, p_x, y, p_y) = <D_x D_y (-1)^N D_y+ D_x+> / pi^2, evaluated exactly
    in the truncated basis through D(a) P D+(a) = D(2a) P per mode, in the modes
    of the table: D_x(a_x) D_y(a_y) = D_+(a_+) D_-(a_-) with a_(+-) = (a_x -+ i a_y)
    / sqrt(2), and (-1)^(N_x + N_y) = (-1)^(n+ + n-).  With a = (q + i p)/sqrt(2)
    per mode, 2 a_(+-) = (x +- p_y) + i (p_x -+ y).  The vacuum gives
    exp(-(x^2 + p_x^2 + y^2 + p_y^2)) / pi^2.  A batch of points gives an array
    of values, from one batched matrix product.
    """
    # |a_x|^2 + |a_y|^2 > cutoff/2 + 1/2, with a = (q + i p)/sqrt(2) per mode; a square
    # that overflows is inf, still past the cutoff
    with np.errstate(over="ignore"):
        reach = np.square(at.x) + np.square(at.p_x) + np.square(at.y) + np.square(at.p_y)
    if np.any(reach > s.cutoff + 1.0):
        warnings.warn(
            "displacement amplitude^2 exceeds cutoff/2; the truncated table "
            "is a poor stand-in for any untruncated state this far out",
            TruncationWarning, stacklevel=2)
    return _wigner_4d(s, at.x, at.p_x, at.y, at.p_y)


def _wigner_4d(s, x, p_x, y, p_y):
    """wigner_4d at coordinates its caller checked, without the far-displacement warning."""
    c = s.coeffs
    # 2 a_+ = w + z, and w - z = -conj(2 a_-) gives D_-(2 a_-) transposed: one call
    w = p_y + 1j * np.asarray(p_x)
    z = x - 1j * np.asarray(y)
    parity = _dim_constants(c.shape[0])[-1]
    # far out, alpha^k overflows while exp(-|alpha|^2 / 2) underflows: a nan, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        d = displaced_fock_matrix(np.array([w + z, w - z]), c.shape[0])
        val = (np.conj(c) * (d[0] @ (c * parity) @ d[1])).sum(axis=(-2, -1)) / pi ** 2
    real = np.isfinite(val) & (np.abs(val.imag) <= 1e-10 * np.maximum(np.abs(val), 1e-300))
    if not real.all():
        raise QuadratureResidueError(
            "4D Wigner value is not finite or has a non-negligible imaginary part")
    return float(val.real) if val.ndim == 0 else val.real
