"""Two-mode Fock states in the chirality basis, the 4D Wigner function, and the oracle.

States are stored as coefficient tables over (n_plus, n_minus), the photon
numbers of the circular (chirality) mode pair in which both the total
number N = n+ + n- and the OAM L = n+ - n- act diagonally.  The Cartesian
x/y mode basis enters only through ``mode_rotate_xy_to_pm``.

A TwoModeFock is normalized and holds at most MAX_TOTAL_ORDER total quanta by construction:
both are checked once, when the table is built, so no evaluator re-checks them.  One builder,
:func:`state_from_entries`, lays out every constructed state's table: it drops zero entries,
checks the bound on the top quanta of the rest (``specfun.check_order_bound``) before it
allocates the table, then normalizes it.  A state expands its entangled-basis amplitude once
(``amplitude_table``, the four-element record of ``specfun.laguerre_diagonals``): Laguerre
series for the radial marginal, a monomial form for the cylindrical kernel, and the (a, k, c)
plan of the recurrence that sums the series (``specfun.laguerre_plan``), as the oracle plans
each dim; the 4D oracle reads its parity tables (``parity_tables``).  All are built on first
use and kept read-only.  States and points compare and hash by identity.

The oracle (``oracle_cyl_from_cartesian``), the second route to W(r, phi, ell), integrates
the 4D function over p_r along a ray, as one ``math.fsum``; ``_wigner_4d`` alone lays out
the displacements and contracts them in two flat matrix products, of displaced-Fock matrices
gathered from two points-last tables, powers and Laguerre values (one
``specfun.laguerre_rows`` call, three array operations a step), by one read-only plan per
dim (``_dim_constants``).
"""

import warnings
from functools import cached_property, lru_cache
from math import comb, copysign, cos, factorial, fsum, isfinite, pi, sin, sqrt

import numpy as np

from ._record import Record, read_only
from .errors import TruncationWarning, real_part
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
        with np.errstate(over="ignore"):  # a norm past the float range is inf: refused
            if not abs(np.linalg.norm(c) - 1.0) <= _NORM_TOL:  # nan is refused too
                raise ValueError("state must be normalized")
        self._store(*read_only(c))
        check_order_bound(self.max_total_quanta)

    @property
    def cutoff(self):
        return self.coeffs.shape[0] - 1

    @cached_property
    def max_total_quanta(self):
        """Largest n+ + n- with a nonzero coefficient."""
        idx = np.argwhere(np.abs(self.coeffs) > 0)
        return int(np.max(idx.sum(axis=1)))

    @cached_property
    def amplitude_table(self):
        """The entangled-basis amplitude in diagonal form, computed once: ``(offsets,
        series, monomials, steps)`` from :func:`specfun.laguerre_diagonals`, one offset
        d = n- - n+ per OAM value with a Laguerre series, a monomial form in u = lam lam_bar
        and the series' recurrence plan.  The cylindrical kernel reads the monomial form in
        one Horner pass, and the radial marginal and psi_entangled the series, where u is real."""
        return laguerre_diagonals(self.coeffs)

    @cached_property
    def parity_tables(self):
        """``(conj(c), c (-1)^(n+ + n-))``, read-only: the bra and the parity-weighted
        ket of the displaced-parity overlap, computed once."""
        n = np.arange(self.coeffs.shape[0])
        return read_only(np.conj(self.coeffs), self.coeffs * (-1.0) ** np.add.outer(n, n))

    @cached_property
    def pair_plan(self):
        """The oracle's pairs of a nonzero bra entry (m, k) and a nonzero ket entry (n, n'),
        bra-major and read-only: the flat index of (m, n) and of (n', k) in a dim x dim table,
        and the weight bra ket / pi^2.  None past 2 dim^2 pairs, where two flat products of
        the whole tables cost less (a dense table, a superposition of 40 quanta or more)."""
        (bra, ket), dim = self.parity_tables, self.coeffs.shape[0]
        m, k = np.nonzero(self.coeffs)
        if m.size * m.size > 2 * dim * dim:
            return None
        return read_only(np.add.outer(m * dim, m).ravel(), np.add.outer(k, k * dim).ravel(),
                         (np.multiply.outer(bra[m, k], ket[m, k]) / pi ** 2).ravel())


class CartesianPoint4(Record):
    """A point of the two-mode phase space, or a batch: arrays that broadcast together."""

    _fields = ("x", "p_x", "y", "p_y")

    def __init__(self, x, p_x, y, p_y):
        for v in (x, p_x, y, p_y):
            if not np.isfinite(v).all():
                raise ValueError("phase-space coordinates must be finite")
        self._store(x, p_x, y, p_y)


def state_from_entries(entries):
    """The normalized state with the coefficients ``{(n+, n-): c}``, some nonzero, in the
    smallest square table that holds the nonzero ones, allocated after the bound on their top
    n+ + n- is checked: a zero entry neither counts nor sizes it.  Every constructed state is
    built here."""
    entries = {ij: c for ij, c in entries.items() if c != 0}
    check_order_bound(max(i + j for i, j in entries))
    cut = max(max(ij) for ij in entries)
    table = np.zeros((cut + 1, cut + 1), dtype=complex)
    for ij, c in entries.items():
        table[ij] = c
    return TwoModeFock(table / np.linalg.norm(table))


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
    return state_from_entries({((N + l0) // 2, (N - l0) // 2): 1.0})


def make_summed_oam(l0, Nmax):
    """OAM eigenstate as a 1/sqrt(N+1)-weighted sum over N, renormalized.

    The untruncated sum is not normalizable, so the truncation Nmax is an
    explicit, mandatory parameter.
    """
    if Nmax < abs(l0):
        raise ValueError(f"range: Nmax = {Nmax} is below |l0| = {abs(l0)}")
    top = Nmax - (Nmax - abs(l0)) % 2
    check_order_bound(top)  # before the entries are listed: a huge Nmax would hang there
    return state_from_entries({((N + l0) // 2, (N - l0) // 2): 1.0 / sqrt(N + 1)
                               for N in range(abs(l0), top + 1, 2)})


def make_superposition(l1, l2, phi0, Nmax):
    """Equal-weight superposition of two summed-OAM states with relative phase.

    l1 != l2, so the branches share no entry and their sum has norm sqrt(2)."""
    if l1 == l2:  # a state added to itself: phi0 = pi would cancel it to rounding noise
        raise ValueError(f"l1 and l2 must differ, got {l1} for both")
    if not isfinite(phi0):
        raise ValueError(f"phi0 must be finite, got {phi0}")
    # the larger |l| first: its range check covers both, so it runs before any bound check
    parts = {l: make_summed_oam(l, Nmax) for l in sorted((l1, l2), key=abs, reverse=True)}
    a, b = parts[l1].coeffs, np.exp(1j * phi0) * parts[l2].coeffs
    return state_from_entries({ij: t[ij] for t in (a, b) for ij in zip(*np.nonzero(t))})


def rotate_state(s, phi0):
    """Apply exp(i phi0 L): multiplies c[n+, n-] by exp(i phi0 (n+ - n-))."""
    if not isfinite(phi0):
        raise ValueError(f"phi0 must be finite, got {phi0}")
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


def mode_rotate_xy_to_pm(coeffs_xy):
    """Convert a Fock table over (n_x, n_y) into the chirality basis: a square table of
    rows + columns - 1 per side, refused unless finite, 2D and with a nonzero entry.

    a_x+ = (a_+^dag + a_-^dag)/sqrt(2) and a_y+ = -i (a_+^dag - a_-^dag)/sqrt(2) give
    |n_x, n_y> = i^n_y Sum d sqrt(n+! n-! / (n_x! n_y! 2^N)) |n+, n->, N = n_x + n_y, with
    d = Sum_k (-1)^k C(n_x, n+ - k) C(n_y, k) summed in integers (the pi/2 Wigner d-function
    of Schwinger's two-oscillator model): each entry is one correctly rounded square root of
    an exact ratio.  It keeps N, so the order bound is checked before the expansion.
    """
    xy = np.asarray(coeffs_xy)
    if xy.ndim != 2 or not np.isfinite(xy).all():
        raise ValueError("the x/y table must be a finite 2D array")
    support = np.argwhere(xy)
    if not support.size:  # before the bound check and the allocation: 0 x 0 sizes it -1 x -1
        raise ValueError("the x/y table has no nonzero coefficients")
    check_order_bound(int(support.sum(axis=1).max()))
    dim = sum(xy.shape) - 1
    out = np.zeros((dim, dim), dtype=complex)
    for (nx, ny), c in np.ndenumerate(xy):
        if c == 0:
            continue
        n, phase = nx + ny, (1, 1j, -1, -1j)[ny % 4]
        base = factorial(nx) * factorial(ny) << n
        for up in range(n + 1):
            d = sum((-1) ** k * comb(nx, up - k) * comb(ny, k)
                    for k in range(max(0, up - nx), min(up, ny) + 1))
            out[up, n - up] += c * phase * copysign(
                sqrt(d * d * factorial(up) * factorial(n - up) / base), d)
    return TwoModeFock(out)


@lru_cache(maxsize=128)
def _dim_constants(dim):
    """The per-dim plan of displaced_fock_matrix, read-only and built once per dim:
    ratio = sqrt(min! / max!) signed (-1)^(n - m) for m < n, from exact integers (a log-gamma
    form is 2.2e-15 off at dim 21), as a (dim, dim, 1) column; the flat index of each (m, n)
    element's power in [alpha^k, conj(alpha)^k] and of its Laguerre value L_min(m,n)^|m-n|
    in a (degree, order) table; and the recurrence's (a, k, c) plan (``specfun.laguerre_plan``)
    for degrees below dim, an (order, 1) column per step."""
    k = np.arange(dim)
    order = np.abs(np.subtract.outer(k, k))
    ratio = [[(-1) ** max(n - m, 0) * sqrt(factorial(min(m, n)) / factorial(max(m, n)))
              for n in range(dim)] for m in range(dim)]
    return read_only(np.array(ratio)[..., None], order + dim * np.less.outer(k, k),
                     np.minimum.outer(k, k) * dim + order, *laguerre_plan(dim - 1, k[:, None]))


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
    With ``terms`` (the values are terms of one sum) a state with a plan (``pair_plan``)
    sums its pairs instead: per value, one ``np.add.reduce`` of the weighted products of the
    two tables' elements, so a value does not depend on its batch.  ``errors.real_part``
    refuses a value that is not finite or not real to 1e-10 of its Sum |X Y^T|, or with
    ``terms`` of the largest |value|.
    """
    (bra, ket), dim = s.parity_tables, s.cutoff + 1
    plan = s.pair_plan if terms else None
    alpha = np.array([w + z, w - z])
    # far out, Laguerre values overflow as exp(-|alpha|^2 / 2) underflows: a nan, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        d = displaced_fock_matrix(alpha, dim)
        if plan is not None:
            plus, minus, weight = plan
            d = d.reshape(2, -1, dim * dim)
            prod = d[0].take(plus, axis=1)
            prod *= d[1].take(minus, axis=1)
            prod *= weight
            val = np.add.reduce(prod, axis=1).reshape(alpha.shape[1:])
        else:
            d = d.reshape(2, -1, dim)
            parts = ((d[0] @ ket).reshape(-1, dim, dim)
                     * (d[1] @ bra.T).reshape(-1, dim, dim).transpose(0, 2, 1))
            val = parts.sum(axis=(1, 2)).reshape(alpha.shape[1:]) / pi ** 2
        scale = (np.max(abs(val)) if terms
                 else np.abs(parts).sum(axis=(1, 2)).reshape(val.shape) / pi ** 2)
        val = real_part(val, scale, 1e-10, "the 4D Wigner value")
    return float(val) if val.ndim == 0 else val


def oracle_cyl_from_cartesian(s, at, pr_rule):
    """Brute-force route: integrate the 4D Cartesian Wigner over p_r at a CylPoint.

    Maps (r, phi, ell, p_r) to Cartesian coordinates by the canonical
    (unit-Jacobian) transformation and integrates with a de-weighted
    Gauss-Hermite rule, which is exact here because the 4D Wigner function
    of a truncated state is a polynomial of degree 2 quanta under a Gaussian in p_r:
    a rule of order quanta or less is refused (ValueError).  All the nodes go
    to one batched 4D evaluation, whose weighted values ``math.fsum`` sums correctly
    rounded.  The ratio wigner_cyl / oracle is the one global constant cylindrical.KAPPA.
    """
    weights = deweighted(pr_rule)  # refuses a rule other than Gauss-Hermite
    if pr_rule.order <= s.max_total_quanta:
        raise ValueError(f"a p_r rule of order {pr_rule.order} is not exact for "
                         f"{s.max_total_quanta} total quanta: it needs quanta + 1 or more")
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
