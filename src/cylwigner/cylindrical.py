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
A state is normalized and within MAX_TOTAL_ORDER by construction
(``TwoModeFock``), so the kernel checks only its points and its rule.

An independent brute-force check integrates the 4D Cartesian Wigner
function over the radial momentum along the ray (r, phi); the two routes
agree up to one global constant (empirically 4 pi^2, see KAPPA).
"""

import warnings
from dataclasses import dataclass
from math import isfinite, pi

import numpy as np

from .entangled import amplitude_terms
from .errors import ConvergenceError, QuadratureOrderError, QuadratureResidueError, TruncationWarning
from .quadrature import QuadKind, deweighted, gauss_hermite
from .twomode import CartesianPoint4, _wigner_4d

#: Ratio wigner_cyl / oracle_cyl_from_cartesian.  The literal factor 4 in
#: the transform is kept as-is (no global normalization is imposed), and
#: the brute-force route carries the 1/pi^2 Cartesian convention; the two
#: differ by this single state-independent constant, fixed once by the
#: vacuum closed form and confirmed state-by-state in the test suite.
KAPPA = 4.0 * pi ** 2

#: Default small-r grid cutoff.  r = 0 is excluded everywhere: the phase
#: ell/r is singular there and the polar change of variables is not smooth.
DEFAULT_R_MIN = 1e-3


@dataclass(frozen=True)
class CylPoint:
    """Evaluation point (r > 0, phi in [0, 2pi), integer ell)."""

    r: float
    phi: float
    ell: int

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0):
            raise ValueError("r must be strictly positive")
        if not np.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if int(self.ell) != self.ell:
            raise ValueError("ell must be an integer")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * pi))
        object.__setattr__(self, "ell", int(self.ell))


@dataclass(frozen=True)
class CylGrid:
    """Dense evaluation result, values indexed as [r, phi, ell]."""

    r_nodes: np.ndarray
    phi_nodes: np.ndarray
    ell_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        shape = (len(self.r_nodes), len(self.phi_nodes), len(self.ell_values))
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} does not match axes {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid contains non-finite values")


def default_rule(s):
    """Gauss-Hermite rule just large enough for the state's polynomial degree."""
    return gauss_hermite(s.max_total_quanta + 4)


def _check_rule(rule, max_quanta):
    if rule.kind is not QuadKind.GAUSS_HERMITE:
        raise ValueError("the cylindrical transform requires a Gauss-Hermite rule")
    # integrand polynomial degree is at most twice the total quanta
    if 2 * rule.order - 1 < 2 * max_quanta:
        raise QuadratureOrderError(
            f"rule of order {rule.order} cannot integrate degree {2 * max_quanta} exactly"
        )


#: Complex elements in one (rows, phi, nodes) temporary of the kernel.
#: At 64 KiB a block's temporaries stay in cache and are reused from the
#: heap, so a grid of any size adds no resident memory; 512 KiB blocks
#: measured slower and added 2.5 MiB to the peak RSS of an export.
_BLOCK = 1 << 12


def _evaluate(s, r, ell, phi, rule):
    """W on rows of (r, ell) points times a phi axis, as a (rows, len(phi)) array.

    The one evaluation kernel behind the point, grid and marginal entry
    points: the contour-shifted Gauss-Hermite sum on arrays of shape
    (rows, phi, nodes), summed over the nodes.  Along the shifted contour
    u = xi_fwd xi_bwd = r^2 + (t + i ell/r)^2 does not involve phi, so the
    state's diagonal polynomials are evaluated once per (row, node) and phi
    enters only as the phases e^{-i d phi} (ket) and e^{i d phi} (bra) of
    each offset d.  Every step is element-wise, so a point's value does not
    depend on the batch it is evaluated in.
    """
    r, ell = (a.ravel() for a in np.broadcast_arrays(np.asarray(r, dtype=float),
                                                     np.asarray(ell)))
    phi = np.asarray(phi, dtype=float).ravel()
    if not (np.isfinite(r) & (r > 0)).all():
        raise ValueError("r must be strictly positive")
    if not np.isfinite(phi).all():
        raise ValueError("phi must be finite")
    if ell.dtype.kind not in "iu" and not (np.mod(ell, 1) == 0).all():
        raise ValueError("ell must be an integer")
    phi = np.mod(phi, 2.0 * pi)
    max_quanta = s.max_total_quanta
    if rule is None:
        rule = default_rule(s)
    _check_rule(rule, max_quanta)

    # where the envelope underflows, bail out before the polynomial part overflows;
    # at a subnormal r the exponent is inf and inf - bound may be nan: both bail out
    with np.errstate(over="ignore", invalid="ignore"):
        shift = ell / r
        expo = r * r + shift * shift
        bound = 2 * max_quanta * np.log(2.0 + r + np.abs(shift) + rule.nodes[-1])
        live = np.flatnonzero((expo <= 700.0) | (expo - bound <= 745.0))
    # rows in blocks and a long phi axis in slices: no temporary grows with the grid
    width = max(1, _BLOCK // rule.order)
    step = max(1, _BLOCK // (min(phi.size, width) * rule.order))
    if live.size == r.size <= step and phi.size <= width:  # one block of live rows
        return _sum_rows(s, r, shift, expo, phi, rule)
    out = np.zeros((r.size, phi.size))
    for lo in range(0, live.size, step):
        rows = live[lo:lo + step]
        for p in range(0, phi.size, width):
            out[rows, p:p + width] = _sum_rows(s, r[rows], shift[rows], expo[rows],
                                               phi[p:p + width], rule)
    return out


def _sum_rows(s, r, shift, expo, phi, rule):
    """The kernel's Gauss-Hermite sum for rows whose envelope does not underflow."""
    rp = rule.nodes + 1j * shift[:, None]
    xi_fwd = r[:, None] + 1j * rp
    xi_bwd = r[:, None] - 1j * rp
    offsets, ket_terms, bra_terms = amplitude_terms(s, xi_fwd, xi_bwd)
    ket = bra = 0.0
    for d, ket_term, bra_term in zip(offsets.tolist(), ket_terms, bra_terms):
        ket = ket + np.exp(-1j * d * phi)[:, None] * ket_term[:, None, :]
        bra = bra + np.exp(1j * d * phi)[:, None] * bra_term[:, None, :]
    prod = bra * ket
    envelope = 4.0 * np.exp(-expo)[:, None]
    val = envelope * np.sum(rule.weights * prod, axis=-1)
    scale = np.maximum(np.abs(val), envelope * np.sum(rule.weights * np.abs(prod), axis=-1))
    if (np.abs(val.imag) > 1e-9 * np.maximum(scale, 1e-300)).any():
        raise QuadratureResidueError(
            "imaginary residue of the cylindrical Wigner sum exceeds tolerance"
        )
    return val.real


def wigner_cyl(s, at, rule=None):
    """W(r, phi, ell) by the contour-shifted Gauss-Hermite sum (exact)."""
    return float(_evaluate(s, at.r, at.ell, at.phi, rule)[0, 0])


def wigner_cyl_grid(s, r_nodes, phi_nodes, ell_values, rule=None):
    """Dense W over the product of the given axes, in one kernel call."""
    r_nodes = np.asarray(r_nodes, dtype=float)
    phi_nodes = np.asarray(phi_nodes, dtype=float)
    ell_values = np.asarray(ell_values, dtype=int)
    if r_nodes.size == 0 or phi_nodes.size == 0 or ell_values.size == 0:
        raise ValueError("grid axes must be non-empty")
    vals = _evaluate(s, r_nodes[:, None], ell_values, phi_nodes, rule)
    values = vals.reshape(len(r_nodes), len(ell_values), len(phi_nodes)).transpose(0, 2, 1)
    return CylGrid(r_nodes, phi_nodes, ell_values, np.ascontiguousarray(values))


def marginal_angle_oam(s, phi, ell, radial_rule):
    """Angle-OAM distribution: Int_0^inf W(r, phi, ell) dr.

    ``radial_rule`` must be a mapped Gauss-Legendre rule on (0, r_max]; the
    small-r cutoff of the rule is the documented epsilon excluded around
    the coordinate singularity.
    """
    if radial_rule.kind is not QuadKind.GAUSS_LEGENDRE_MAPPED:
        raise ValueError("radial integration requires a mapped Gauss-Legendre rule")
    vals = _evaluate(s, radial_rule.nodes, ell, phi, None)[:, 0]
    peak = np.max(np.abs(vals))
    if abs(vals[-1]) > 1e-12 * max(peak, 1e-300):
        warnings.warn(
            "integrand has not decayed below 1e-12 at r_max; increase the rule range",
            TruncationWarning, stacklevel=2)
    return float(np.sum(radial_rule.weights * vals))


def marginal_radial(s, r, ell_max):
    """Radial distribution: sum over |ell| <= ell_max of Int_0^{2pi} W dphi.

    Plain dr measure (no r Jacobian), matching the angle-OAM marginal's
    literal convention.  The phi integral is a uniform rule, exact for the
    trigonometric polynomial W is in phi: its frequencies are differences
    of two table offsets, so span + 1 nodes suffice, one for a state with a
    single OAM value.
    """
    if ell_max < 0:
        raise ValueError(f"ell_max must be non-negative, got {ell_max}")
    table = s.amplitude_table
    n_phi = table[-1][0] - table[0][0] + 1
    wphi = 2.0 * pi / n_phi
    phis = wphi * np.arange(n_phi)  # linspace(0, 2pi, n_phi, endpoint=False), bit for bit
    vals = _evaluate(s, r, np.arange(-ell_max, ell_max + 1), phis, None)
    rings = [wphi * sum(row) for row in vals.tolist()]
    total = sum(rings)
    edge = abs(rings[-1]) + abs(rings[0])
    if edge > 1e-10 * max(abs(total), 1e-300):
        raise ConvergenceError(
            f"|ell| = {ell_max} ring still contributes {edge:.3e}; increase ell_max"
        )
    return float(total)


def oracle_cyl_from_cartesian(s, at, pr_rule):
    """Brute-force route: integrate the 4D Cartesian Wigner over p_r.

    Maps (r, phi, ell, p_r) to Cartesian coordinates by the canonical
    (unit-Jacobian) transformation and integrates with a de-weighted
    Gauss-Hermite rule, which is exact here because the 4D Wigner function
    of a truncated state is a polynomial under a Gaussian in p_r.  All the
    nodes go to one batched 4D evaluation.  The ratio wigner_cyl / oracle
    is the single global constant KAPPA.
    """
    if pr_rule.kind is not QuadKind.GAUSS_HERMITE:
        raise ValueError("p_r integration requires a Gauss-Hermite rule")
    r, phi, ell = at.r, at.phi, at.ell
    lam = ell / float(r)  # float division: inf at a subnormal r, and no numpy warning
    if not isfinite(lam):  # refused before lam * sin(phi) makes a nan
        raise ValueError("phase-space coordinates must be finite")
    p_x = pr_rule.nodes * np.cos(phi) - lam * np.sin(phi)
    p_y = pr_rule.nodes * np.sin(phi) + lam * np.cos(phi)
    # no far-displacement warning: the overlap is exact for the truncated table, and the
    # warning, aimed at users approximating untruncated states, would fire at far nodes
    vals = _wigner_4d(s, CartesianPoint4(r * np.cos(phi), p_x, r * np.sin(phi), p_y))
    total = 0.0
    for term in (deweighted(pr_rule) * vals).tolist():  # node order, left to right
        total += term
    return float(total)
