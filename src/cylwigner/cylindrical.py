"""Cylindrical-coordinate Wigner function W(r, phi, ell) and its marginals.

The transform is

    W(r, phi, ell) = 4 Int Psi*(r - ir', phi) Psi(r + ir', phi)
                           exp(2i ell r' / r) dr' ,

with Psi the entangled-representation wavefunction.  For a truncated Fock
state Psi is a polynomial under exp(-|xi|^2/2), so after completing the
square the oscillatory factor becomes a contour shift r' -> t + i ell/r
and the integral is an exactly Gauss-Hermite-summable polynomial times
exp(-t^2), with overall prefactor exp(-r^2 - ell^2/r^2).  No oscillatory
quadrature heuristics are needed anywhere.

The polynomial part is read from the state's cached diagonal table: along
the shifted contour it depends on (r, ell, t) only through u = r^2 +
(t + i ell/r)^2 and one power of xi per OAM value, while phi enters as one
phase per OAM value.  So W is a trigonometric polynomial in phi, and the
kernel evaluates the table once per (r, ell, node) for a whole phi axis.
That is its phi-free step, ``_row_terms`` (xi, the table's terms, the
envelope 4 exp(-expo)); the phi step, ``_sum_rows``, adds the phases, pairs
bra and ket and sums the nodes.  A point and a grid take both steps per call.
The angle-OAM marginal keeps the phi-free rows of its last (state, radial rule,
ell), the first two by identity, in a one-entry ``lru_cache``: along a curve over
phi only the first call pays the phi-free step.  The entry, offsets x live radial
nodes x order complex terms, is 52 KB for the +-3 superposition on 96 nodes and at
most 121 x 200 x 68 x 16 B = 26 MB (60 quanta, the largest mapped rule).
A state is normalized and within MAX_TOTAL_ORDER by construction
(``TwoModeFock``), and its rule is ``default_rule``, so the kernel checks
only its points.  A sum that is not finite, or not real to 1e-9 of its terms,
is refused by ``errors.real_part`` at a point, on a grid and in the angle-OAM
marginal alike, with numpy's floating-point warnings off around the row sum.

The radial marginal P(r) = sum_ell Int W dphi needs no rings.  Poisson
summation, sum_ell exp(2i ell r'/r) = pi r sum_k delta(r' - k pi r), turns
the sum over every ell into samples of the transform's own integrand on
the real r' axis, and the phi integral keeps only the products of ket and
bra terms of equal offset d.  So

    P(r) = 8 pi h sum_k exp(-u_k) sum_d xi_k^(2d) |p_d(u_k)|^2,

with r_k = k h, u_k = r^2 + r_k^2, xi_k = r + i r_k (conj(xi_k)^(-2d) for
d < 0, the diagonal power rule) and h = pi r, or an integer multiple of it
at small r where the kernel's underflow test zeroes every ring that spacing
aliases.  One search of that test sets both h and how far the samples go.
The samples are taken with the same warnings off, and their sum is refused by
``errors.real_part`` if it is not finite or not real to 1e-9 of Sum |terms|.
There u is real and non-negative, so each p_d is the Laguerre series of
``entangled.amplitude_series``, summed by the stable upward recurrence from
the state's plan, not the monomial form that cancels: against 60-digit all-ell
sums the result is within 8.3e-16 relative at 20 and 40 quanta.  Both
marginals take one value per call (one phi and ell, or one r) and refuse an
array (ValueError).

The brute-force check ``twomode.oracle_cyl_from_cartesian``, re-exported here,
integrates the 4D Cartesian Wigner function over p_r along the ray (r, phi); the
two routes agree up to one global constant (empirically 4 pi^2, see KAPPA).
"""

import warnings
from functools import lru_cache, reduce
from math import ceil, floor, hypot, isfinite, log, pi, sqrt
from operator import add

import numpy as np

from ._record import Record, ValueRecord, read_only
from .entangled import amplitude_series, amplitude_terms, wrap_phi
from .errors import ConvergenceError, TruncationWarning, real_part
from .quadrature import QuadKind, gauss_hermite
from .specfun import diagonal_power
from .twomode import oracle_cyl_from_cartesian  # noqa: F401 - re-exported

#: Ratio wigner_cyl / oracle_cyl_from_cartesian.  The literal factor 4 in
#: the transform is kept as-is (no global normalization is imposed), and
#: the brute-force route carries the 1/pi^2 Cartesian convention; the two
#: differ by this single state-independent constant, fixed once by the
#: vacuum closed form and confirmed state-by-state in the test suite.
KAPPA = 4.0 * pi ** 2

#: Default small-r grid cutoff.  r = 0 is excluded everywhere: the phase
#: ell/r is singular there and the polar change of variables is not smooth.
DEFAULT_R_MIN = 1e-3


class CylPoint(ValueRecord):
    """Evaluation point (float r > 0, phi in [0, 2pi), integer ell)."""

    _fields = ("r", "phi", "ell")

    def __init__(self, r, phi, ell):
        if not (np.isfinite(r) and r > 0):
            raise ValueError("r must be strictly positive")
        if not np.isfinite(phi):
            raise ValueError("phi must be finite")
        _integer_ell(ell)
        self._store(float(r), float(wrap_phi(float(phi))), int(ell))


def _integer_ell(ell):
    """ell as an array; ValueError unless every value is an integer that fits int64.
    Checked before any int cast, which would truncate 0.5 to 0 and overflow on an
    infinity; numpy holds a Python int past int64 as an object."""
    ell = np.asarray(ell)
    too_wide = ValueError("ell must be an integer of at most 64 bits")
    if ell.dtype.kind == "O":  # compared exactly: 10**400 overflows a float
        if not all(-2 ** 63 <= v < 2 ** 63 for v in ell.flat):
            raise too_wide
        ell = ell.astype(np.int64 if all(isinstance(v, int) for v in ell.flat) else float)
    if ell.dtype.kind == "u":
        fits = np.all(ell < 2 ** 63)
    elif ell.dtype.kind == "i":
        fits = True
    else:
        with np.errstate(invalid="ignore"):  # mod of +-inf or nan is nan, refused
            if not np.all(np.mod(ell, 1) == 0):
                raise ValueError("ell must be an integer")
        fits = np.all((ell >= -2.0 ** 63) & (ell < 2.0 ** 63))
    if not fits:
        raise too_wide
    return ell


def _one_value(x):
    """True for one value: a number, a numpy scalar or a 0-d array.  A Python number
    passes on isinstance alone; np.ndim converts it to an array first."""
    return isinstance(x, (int, float)) or np.ndim(x) == 0


class CylGrid(Record):
    """Dense evaluation result, values indexed as [r, phi, ell]."""

    _fields = ("r_nodes", "phi_nodes", "ell_values", "values")

    def __init__(self, r_nodes, phi_nodes, ell_values, values):
        shape = (len(r_nodes), len(phi_nodes), len(ell_values))
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match axes {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid contains non-finite values")
        self._store(r_nodes, phi_nodes, ell_values, values)


def default_rule(s):
    """The state's Gauss-Hermite rule, the only one the kernel uses.

    Along the shifted contour the integrand is a polynomial in t of degree at
    most twice the state's total quanta, which every rule of order quanta + 1
    or more sums exactly; the order follows from the state, not the caller.
    It is quanta + 8, which the grid export records as ``quad_order``.
    """
    return gauss_hermite(s.max_total_quanta + 8)


def _alive(expo, quanta, reach):
    """The kernel's underflow test: False where exp(-expo) times the polynomial
    part, taken to be at most (2 + reach)^(2 quanta) when |xi| <= reach, is below
    the smallest double, and where the exponent is nan.  A float reach (one point, or the
    radial tail search) takes ``math.log``, with no ufunc dispatch, and an array ``np.log``."""
    ln = log if isinstance(reach, float) else np.log
    return expo - 2 * quanta * ln(2.0 + reach) <= 745.0


def _envelope(s, r, ell, rule):
    """``(shift, expo, alive)`` of rows (arrays) or one point (Python floats): the shift ell/r,
    the exponent r^2 + shift^2 of exp(-expo), and _alive at the reach r + |shift| + the rule's
    largest node.  At a subnormal r the shift is inf, and the test reads nan: an underflow."""
    shift = ell / r
    expo = r * r + shift * shift
    return shift, expo, _alive(expo, s.max_total_quanta, r + abs(shift) + rule.nodes[-1])


#: Complex elements in one (rows, phi, nodes) temporary of the kernel.
#: At 64 KiB a block's temporaries stay in cache and are reused from the
#: heap, so a grid of any size adds no resident memory; 512 KiB blocks
#: measured slower and added 2.5 MiB to the peak RSS of an export.
_BLOCK = 1 << 12


def _evaluate(s, r, ell, phi):
    """W on rows of (r, ell) points times a phi axis, as a (rows, len(phi)) array.

    The evaluation kernel of the grid, in the two steps that wigner_cyl's single
    point takes too: the contour-shifted Gauss-Hermite sum on arrays of shape
    (rows, phi, nodes), summed over the nodes.  Along the shifted contour
    u = xi_fwd xi_bwd = r^2 + (t + i ell/r)^2 does not involve phi, so
    _row_terms evaluates the state's diagonal polynomials once per (row, node),
    and phi enters _sum_rows only as the phase e^{-i d phi} of each offset d of
    the ket; the bra is the conjugate ket at the mirrored node.  Every step is
    element-wise, so a point's value does not depend on the batch it is in.
    """
    r, ell = (a.ravel() for a in np.broadcast_arrays(np.asarray(r, float), _integer_ell(ell)))
    rule = default_rule(s)
    # where the envelope underflows, bail out before the polynomial part overflows;
    # a sum that is still not finite is refused by _sum_rows's residue test
    with np.errstate(over="ignore", invalid="ignore"):
        live, shift, expo = _live_rows(s, r, ell, rule)
        phi = _phi_axis(phi)
        # rows in blocks and a long phi axis in slices: no temporary grows with the grid
        width = max(1, _BLOCK // rule.order)
        step = max(1, _BLOCK // (min(phi.size, width) * rule.order))
        out = np.zeros((r.size, phi.size))
        for lo in range(0, live.size, step):
            rows = live[lo:lo + step]
            terms = _row_terms(s, r[rows], shift[rows], expo[rows], rule)
            for p in range(0, phi.size, width):
                out[rows, p:p + width] = _sum_rows(*terms, phi[p:p + width], rule)
    return out


def _live_rows(s, r, ell, rule):
    """``(live, shift, expo)``: the rows of (r, ell) whose envelope does not underflow, and
    _envelope's shift and exponent; ValueError unless every r is positive.  Under np.errstate."""
    if not (np.isfinite(r) & (r > 0)).all():
        raise ValueError("r must be strictly positive")
    shift, expo, alive = _envelope(s, r, ell, rule)
    return np.flatnonzero(alive), shift, expo


def _phi_axis(phi):
    """phi as a flat axis reduced to [0, 2pi); ValueError unless every value is finite."""
    phi = np.asarray(phi, dtype=float).ravel()
    if not np.isfinite(phi).all():
        raise ValueError("phi must be finite")
    return wrap_phi(phi)


def _row_terms(s, r, shift, expo, rule):
    """The phi-free part of the kernel for rows whose envelope does not underflow:
    ``(offsets, terms, envelope)``, the ket's terms per offset on (rows, 1, nodes) and
    the envelope 4 e^{-expo} on (rows, 1).  Only the ket is built: Psi*(r - i r') at
    node t is conj of Psi(r + i r') at node -t, and the rule's nodes are exactly paired."""
    # xi = r +- i (t + i ell/r) = (r -+ ell/r) +- i t, on (rows, 1, nodes): phi comes later
    xi_fwd, xi_bwd = np.empty((2, r.size, 1, rule.order), dtype=complex)
    xi_fwd.real, xi_fwd.imag = (r - shift)[:, None, None], rule.nodes
    xi_bwd.real, xi_bwd.imag = (r + shift)[:, None, None], -rule.nodes
    offsets, terms = amplitude_terms(s, xi_fwd, xi_bwd)
    return offsets, terms, 4.0 * np.exp(-expo)[:, None]


def _sum_rows(offsets, terms, envelope, phi, rule):
    """The kernel's Gauss-Hermite sum of _row_terms' rows at a phi axis, as
    (rows, len(phi)), or (rows, 1) when W does not depend on phi."""
    phases = np.exp(-1j * offsets[:, None] * phi)[:, :, None]  # e^{-i d phi}; 1 at d = 0
    ket = reduce(add, (phase * term if d else term
                       for d, phase, term in zip(offsets.tolist(), phases, terms)))
    # xi at -t is conj(xi) at t: the bra at node t is the ket at -t, conjugated
    prod = ket[..., ::-1].conj() * ket
    val = envelope * np.add.reduce(rule.weights * prod, -1)
    scale = envelope * np.add.reduce(rule.weights * np.abs(prod), -1)
    return real_part(val, scale, 1e-9, "the cylindrical Wigner sum")


def wigner_cyl(s, at):
    """W(r, phi, ell) by the contour-shifted Gauss-Hermite sum (exact).

    A CylPoint is checked and its phi reduced, so its envelope is taken by _envelope in
    Python floats, which warn of nothing, and the kernel sums one row.
    """
    rule, r = default_rule(s), at.r
    shift, expo, alive = _envelope(s, r, at.ell, rule)
    if not alive:
        return 0.0
    row = np.array([r, shift, expo, at.phi])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # as in _evaluate's block loop
        return float(_sum_rows(*_row_terms(s, row[0], row[1], row[2], rule), row[3], rule)[0, 0])


def wigner_cyl_grid(s, r_nodes, phi_nodes, ell_values):
    """Dense W over the product of the given axes, in one kernel call."""
    r_nodes = np.asarray(r_nodes, dtype=float)
    phi_nodes = np.asarray(phi_nodes, dtype=float)
    ell_values = _integer_ell(ell_values)
    for name, axis in (("r_nodes", r_nodes), ("phi_nodes", phi_nodes),
                       ("ell_values", ell_values)):
        if axis.ndim != 1:  # before the kernel reads it as rows or reshapes to it
            raise ValueError(f"{name} must be a 1-D axis")
        if axis.size == 0:
            raise ValueError("grid axes must be non-empty")
    vals = _evaluate(s, r_nodes[:, None], ell_values, phi_nodes)
    values = vals.reshape(len(r_nodes), len(ell_values), len(phi_nodes)).transpose(0, 2, 1)
    return CylGrid(r_nodes, phi_nodes, ell_values, np.ascontiguousarray(values))


@lru_cache(maxsize=1)
def _angle_rows(s, radial_rule, ell):
    """``(rule, blocks)``, read-only: the state's Gauss-Hermite rule and, in _evaluate's row
    blocks, ``(rows, offsets, terms, envelope)`` of the radial nodes whose envelope does not
    underflow at this ell, so no temporary of the fill outgrows a block."""
    r, rule = radial_rule.nodes, default_rule(s)
    step = max(1, _BLOCK // rule.order)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _evaluate
        live, shift, expo = _live_rows(s, r, ell, rule)
        return rule, tuple(read_only(rows, *_row_terms(s, r[rows], shift[rows], expo[rows], rule))
                           for rows in (live[lo:lo + step] for lo in range(0, live.size, step)))


def marginal_angle_oam(s, phi, ell, radial_rule):
    """Angle-OAM distribution: Int_0^inf W(r, phi, ell) dr.

    ``radial_rule`` must be a mapped Gauss-Legendre rule on (0, r_max]; the
    small-r cutoff of the rule is the documented epsilon excluded around
    the coordinate singularity.  _angle_rows builds its phi-free part once per ell.
    """
    if radial_rule.kind is not QuadKind.GAUSS_LEGENDRE_MAPPED:
        raise ValueError("radial integration requires a mapped Gauss-Legendre rule")
    if not (_one_value(phi) and _one_value(ell)):  # an array would be cut or read as rows
        raise ValueError("phi and ell must be scalars")
    rule, blocks = _angle_rows(s, radial_rule, int(_integer_ell(ell)))
    phi = _phi_axis(phi)
    vals = np.zeros(radial_rule.order)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, *terms in blocks:
            vals[rows] = _sum_rows(*terms, phi, rule)[:, 0]
    peak = np.maximum.reduce(np.abs(vals))
    if abs(vals[-1]) > 1e-12 * max(peak, 1e-300):
        warnings.warn(
            "integrand has not decayed below 1e-12 at r_max; increase the rule range",
            TruncationWarning, stacklevel=2)
    return float(np.add.reduce(radial_rule.weights * vals))


def _negligible_past(r, quanta, reach0):
    """Least x past which every term at |xi|^2 = r^2 + x^2, |xi| <= reach0 + x, is
    zero by the kernel's underflow test; None if every term is.

    The test's exponent r^2 + x^2 - 2 quanta log(2 + reach0 + x) falls to its
    minimum, where x (2 + reach0 + x) = quanta, and then rises; past the minimum
    the fixed-point iteration below climbs to where it crosses the threshold.
    """
    c = 2.0 + reach0
    x = 2 * quanta / (c + hypot(c, 2 * sqrt(quanta)))  # the minimum, without overflow
    if not _alive(r * r + x * x, quanta, reach0 + x):
        return None
    while _alive(r * r + x * x, quanta, reach0 + x):  # 1e-3 past the fixed point ends it
        x = sqrt(745.0 + 2 * quanta * log(c + x) - r * r) + 1e-3
    return x


def _radial_sum(s, r, fine=False):
    """The Poisson sum of the radial marginal, and its sample spacing h.

    One search, at the reach of the kernel's ring test (r plus the rule's largest
    node), gives the x past which every ring is zero by that test: h is pi r, or
    unless ``fine`` the largest m pi r whose extra aliases, the rings at ell = j/m
    for j not a multiple of m, all lie past x.  The samples go out to x too: their
    own reach is r alone, so the test zeroes them no later."""
    x = _negligible_past(r, s.max_total_quanta, r + float(default_rule(s).nodes[-1]))
    if x is None:  # every ring underflows
        return 0.0, pi * r
    q = 1.0 if fine else 1.0 / (x * r)  # the largest admissible m, inf at a subnormal r
    h = pi * r * max(1, floor(q)) if isfinite(q) else pi / x
    rp = np.arange(-ceil(x / h), ceil(x / h) + 1) * h
    u = rp * rp
    u += r * r
    # the kernel's policy: an overflowed or nan sample is refused by the residue test
    with np.errstate(over="ignore", invalid="ignore"):
        offsets, p = amplitude_series(s, u)
        # ket_d bra_d = diagonal_power(2 d, xi, conj(xi)) |p_d(u)|^2, with xi = r + i r'
        offsets, sq = offsets.tolist(), (p * p.conj()).real
        terms = sq[0]  # the one offset 0, with no power
        if any(offsets):
            xi = r + 1j * rp
            terms = reduce(add, (diagonal_power(2 * d, xi, xi.conj()) * sq_d if d else sq_d
                                 for d, sq_d in zip(offsets, sq)))
        terms *= np.exp(-u)
        scale = float(np.add.reduce(np.abs(terms)))
        total = real_part(np.add.reduce(terms), scale, 1e-9, "the radial Poisson sum")
    if not abs(terms[0].item()) + abs(terms[-1].item()) <= 1e-15 * scale:
        raise ConvergenceError(
            f"edge samples at |r'| = {rp[-1]:.3g} are not negligible")
    return float(8.0 * pi * h * total), h


def marginal_radial(s, r, ell_max=None):
    """Radial distribution: the sum over every ell of Int_0^{2pi} W dphi.

    Plain dr measure (no r Jacobian), matching the angle-OAM marginal's
    literal convention.  Computed by Poisson summation over ell (see the
    module docstring): samples of the transform's integrand on the real r'
    axis, out to where the kernel's underflow test zeroes them.  Raises
    QuadratureResidueError if the sum is not finite or not real, and
    ConvergenceError if its edge samples are not negligible.

    ``ell_max`` does not change the value, which is the all-ell sum; it is
    accepted for callers that pass it, and a negative one is refused.
    """
    if ell_max is not None and ell_max < 0:
        raise ValueError(f"ell_max must be non-negative, got {ell_max}")
    if not _one_value(r):
        raise ValueError("r must be a scalar")
    if not (isfinite(r) and r > 0):
        raise ValueError("r must be strictly positive")
    return _radial_sum(s, float(r))[0]
