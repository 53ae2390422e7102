"""Two-mode Fock states in the chirality basis, the 4D Wigner function, and the oracle.

States are stored as coefficient tables over (n_plus, n_minus), the photon
numbers of the circular (chirality) mode pair in which both the total
number N = n+ + n- and the OAM L = n+ - n- act diagonally.  The Cartesian
x/y mode basis enters only through ``mode_rotate_xy_to_pm``.

A TwoModeFock is normalized and holds at most MAX_TOTAL_ORDER total quanta by construction:
both are checked once, when the table is built, so no evaluator re-checks them; the
constructors check the bound on their top quanta (``specfun.check_order_bound``) before they
allocate a table.  A state expands its entangled-basis amplitude once (``amplitude_table``),
as Laguerre series for the radial marginal and in monomial form for the cylindrical kernel,
and plans the recurrence that sums the series (``series_steps``, the (a, k, c) steps of
``specfun.laguerre_plan``), as the oracle plans each dim; the 4D oracle reads its parity
tables (``parity_tables``).  All are built on first use and kept read-only.  States and
points compare and hash by identity.

The oracle (``oracle_cyl_from_cartesian``), the second route to W(r, phi, ell), integrates
the 4D function over p_r along a ray, as one ``math.fsum``; ``_wigner_4d`` alone lays out
the displacements and contracts them in two flat matrix products, of displaced-Fock matrices
gathered from two points-last tables, powers and Laguerre values (one
``specfun.laguerre_rows`` call, three array operations a step), by one read-only plan per
dim (``_dim_constants``).
"""

import warnings
from functools import cached_property, lru_cache
from math import comb, cos, exp, factorial, fsum, isfinite, lgamma, pi, sin, sqrt

import numpy as np

from ._record import Record
from .errors import QuadratureResidueError, TruncationWarning
from .quadrature import deweighted
from .specfun import check_order_bound, laguerre_diagonals, laguerre_plan, laguerre_rows

_NORM_TOL = 1e-10


class TwoModeFock(Record):
    """Normalized complex coefficient table c[n_plus, n_minus], 0 <= n <= cutoff,
    with at most MAX_TOTAL_ORDER total quanta."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient table must be a square 2D array")
        self._store(c)
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
    def amplitude_table(self):
        """The entangled-basis amplitude in diagonal form, computed once: ``(offsets,
        series, monomials)`` from :func:`specfun.laguerre_diagonals`, one offset
        d = n- - n+ per OAM value with a Laguerre series and a monomial form in
        u = lam lam_bar.  The cylindrical kernel reads the monomial form in one Horner
        pass, and the radial marginal and psi_entangled the series, where u is real."""
        return laguerre_diagonals(self.coeffs)

    @cached_property
    def series_steps(self):
        """The read-only (a, k, c) plan of the Laguerre recurrence that sums ``amplitude_table``'s
        series: :func:`specfun.laguerre_plan` of its degree, one column per offset d, order |d|."""
        offsets, series, _ = self.amplitude_table
        return laguerre_plan(len(series) - 1, np.abs(offsets))

    @cached_property
    def parity_tables(self):
        """``(conj(c), c (-1)^(n+ + n-))``, read-only: the bra and the parity-weighted
        ket of the displaced-parity overlap, computed once."""
        n = np.arange(self.coeffs.shape[0])
        tables = (np.conj(self.coeffs), self.coeffs * (-1.0) ** np.add.outer(n, n))
        for a in tables:
            a.setflags(write=False)
        return tables


class CartesianPoint4(Record):
    """A point of the two-mode phase space, or a batch: arrays that broadcast together."""

    _fields = ("x", "p_x", "y", "p_y")

    def __init__(self, x, p_x, y, p_y):
        for v in (x, p_x, y, p_y):
            if not np.isfinite(v).all():
                raise ValueError("phase-space coordinates must be finite")
        self._store(x, p_x, y, p_y)


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
    """Equal-weight superposition of two summed-OAM states with relative phase.

    l1 != l2, so the branches share no entry and their sum has norm sqrt(2)."""
    if l1 == l2:  # a state added to itself: phi0 = pi would cancel it to rounding noise
        raise ValueError(f"l1 and l2 must differ, got {l1} for both")
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
    """The per-dim plan of displaced_fock_matrix, read-only and built once per dim:
    ratio = sqrt(min! / max!) signed (-1)^(n - m) for m < n, from exact integers (an lgamma
    form is 2.2e-15 off at dim 21), as a (dim, dim, 1) column; the flat index of each (m, n)
    element's power in [alpha^k, conj(alpha)^k] and of its Laguerre value L_min(m,n)^|m-n|
    in a (degree, order) table; and the recurrence's (a, k, c) plan (``specfun.laguerre_plan``)
    for degrees below dim, an (order, 1) column per step."""
    k = np.arange(dim)
    order = np.abs(np.subtract.outer(k, k))
    ratio = [[(-1) ** max(n - m, 0) * sqrt(factorial(min(m, n)) / factorial(max(m, n)))
              for n in range(dim)] for m in range(dim)]
    plan = (np.array(ratio)[..., None], order + dim * np.less.outer(k, k),
            np.minimum.outer(k, k) * dim + order) + laguerre_plan(dim - 1, k[:, None])
    for a in plan:
        a.setflags(write=False)
    return plan


def displaced_fock_matrix(alpha, dim):
    """Matrix elements <m|D(alpha)|n> for m, n < dim.

    Closed form in associated Laguerre polynomials (Cahill & Glauber 1969),
    exact up to roundoff.  An array of alpha gives matrices of shape
    alpha.shape + (dim, dim), each computed as for that alpha alone; -conj(alpha)
    gives the transpose of alpha's matrix, bit for bit.  The per-dim plan
    (_dim_constants) gathers every element from two points-last tables: the powers
    exp(-|alpha|^2 / 2) alpha^k and their conjugates (2 dim, value), and every
    L_n^order(|alpha|^2), n, order < dim (degree, order, value), from specfun's
    recurrence.  The whole (degree, order) square is filled, not only the triangle
    degree + order < dim that is read: trimmed, it measured 10-16% slower at dims 2-7.
    """
    ratio, power_index, laguerre_index, *steps = _dim_constants(dim)
    flat = np.asarray(alpha, dtype=complex).reshape(-1)
    aa = flat.real ** 2 + flat.imag ** 2
    # m >= n: alpha^(m-n) L_n^(m-n);  m < n: (-conj alpha)^(n-m) L_m^(n-m), its sign in ratio;
    # the envelope exp(-|alpha|^2 / 2) seeds the running product of powers
    powers = np.empty((2 * dim, flat.size), dtype=complex)
    powers[0], powers[1:dim] = np.exp(aa * -0.5), flat
    np.multiply.accumulate(powers[:dim], axis=0, out=powers[:dim])
    np.conjugate(powers[:dim], out=powers[dim:])
    # whole rows, read transposed below: a point-by-point gather is slower from dim 16
    lag = laguerre_rows(*steps, aa).reshape(-1, flat.size).take(laguerre_index, axis=0)
    lag *= ratio
    d = powers.T.take(power_index, axis=-1)
    d *= lag.transpose(2, 0, 1)
    return d.reshape(np.shape(alpha) + (dim, dim))


def wigner_4d(s, at):
    """Two-mode Cartesian Wigner function via displaced parity.

    W(x, p_x, y, p_y) = <D_x D_y (-1)^N D_y+ D_x+> / pi^2, evaluated exactly
    in the truncated basis through D(a) P D+(a) = D(2a) P per mode, in the modes
    of the table: D_x(a_x) D_y(a_y) = D_+(a_+) D_-(a_-) with a_(+-) = (a_x -+ i a_y)
    / sqrt(2), and (-1)^(N_x + N_y) = (-1)^(n+ + n-).  With a = (q + i p)/sqrt(2)
    per mode, 2 a_(+-) = (x +- p_y) + i (p_x -+ y).  The vacuum gives
    exp(-(x^2 + p_x^2 + y^2 + p_y^2)) / pi^2.  A batch of points gives an array of values;
    each is refused if its imaginary residue is not negligible beside its terms.
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
    return _wigner_4d(s, at.p_y + 1j * np.asarray(at.p_x), at.x - 1j * np.asarray(at.y))


def _wigner_4d(s, w, z, terms=False):
    """wigner_4d at w = p_y + i p_x and z = x - i y, arrays that broadcast together:
    coordinates its caller checked, without the far-displacement warning.

    w + z = 2 a_+, and w - z = -conj(2 a_-) gives D_-(2 a_-) transposed: one call.  A value
    Sum bra (D_+ ket D_-) is Sum X Y^T, X = D_+ ket and Y = D_- bra^T: two flat products.
    Its imaginary residue is judged against its Sum |X Y^T|, or with ``terms`` (the values
    are terms of one sum) against the largest value, one float.
    """
    (bra, ket), dim = s.parity_tables, s.cutoff + 1
    alpha = np.array([w + z, w - z])
    # far out, Laguerre values overflow as exp(-|alpha|^2 / 2) underflows: a nan, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        d = displaced_fock_matrix(alpha, dim).reshape(2, -1, dim)
        parts = ((d[0] @ ket).reshape(-1, dim, dim)
                 * (d[1] @ bra.T).reshape(-1, dim, dim).transpose(0, 2, 1))
        val = parts.sum(axis=(1, 2)).reshape(alpha.shape[1:]) / pi ** 2
        if terms:
            size = float(np.max(np.abs(val)))
            real = isfinite(size) and (abs(val.imag) <= 1e-10 * max(size, 1e-300)).all()
        else:
            size = np.abs(parts).sum(axis=(1, 2)).reshape(val.shape) / pi ** 2
            real = np.isfinite(size).all() and (abs(val.imag) <= 1e-10 * size.clip(1e-300)).all()
    if not real:
        raise QuadratureResidueError(
            "4D Wigner value is not finite or has a non-negligible imaginary part")
    return float(val.real) if val.ndim == 0 else val.real


def oracle_cyl_from_cartesian(s, at, pr_rule):
    """Brute-force route: integrate the 4D Cartesian Wigner over p_r at a CylPoint.

    Maps (r, phi, ell, p_r) to Cartesian coordinates by the canonical
    (unit-Jacobian) transformation and integrates with a de-weighted
    Gauss-Hermite rule, which is exact here because the 4D Wigner function
    of a truncated state is a polynomial under a Gaussian in p_r.  All the nodes go
    to one batched 4D evaluation, whose weighted values ``math.fsum`` sums correctly
    rounded.  The ratio wigner_cyl / oracle is the one global constant cylindrical.KAPPA.
    """
    weights = deweighted(pr_rule)  # refuses a rule other than Gauss-Hermite
    r, phi = at.r, at.phi
    lam = at.ell / r  # float division: inf at a subnormal r, and no numpy warning
    if not isfinite(lam):  # refused before lam * sin(phi) makes a nan
        raise ValueError("phase-space coordinates must be finite")
    # at x = r cos(phi), y = r sin(phi), p_x = t cos(phi) - lam sin(phi) and
    # p_y = t sin(phi) + lam cos(phi): w = p_y + i p_x = i e^{-i phi} t + lam e^{-i phi}
    # and z = x - i y = r e^{-i phi}
    c, sn = cos(phi), sin(phi)
    rot = complex(c, -sn)
    # no far-displacement warning: the overlap is exact for the truncated table, and the
    # warning, aimed at users approximating untruncated states, would fire at far nodes
    vals = _wigner_4d(s, complex(sn, c) * pr_rule.nodes + lam * rot, r * rot, terms=True)
    return fsum((weights * vals).tolist())
