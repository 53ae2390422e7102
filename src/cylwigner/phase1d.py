"""Single-oscillator Wigner machinery.

Everything here is for one harmonic oscillator in dimensionless quadrature
units (hbar = 1, vacuum variance 1/2 in x and p).  It serves both as a
reference implementation of the standard phase-space toolbox and as the
proving ground for the quadrature strategy reused in the cylindrical case.
"""

from dataclasses import dataclass
from enum import Enum
from math import lgamma, pi
from typing import Callable

import numpy as np

from .errors import DomainTruncationError, QuadratureResidueError
from .quadrature import QuadKind, deweighted, gauss_hermite


class Convention(Enum):
    """Prefactor convention for the pure-state Wigner transform.

    ``LITERAL`` uses 1/(4*pi), kept for citation fidelity with sources that
    quote the transform that way.  ``MARGINAL`` uses 1/pi, the unique choice
    for which integrating W over p returns |psi(x)|^2 exactly.  The two are
    inconsistent with each other by a factor of 4; we expose both rather
    than silently picking one.
    """

    LITERAL = "literal"
    MARGINAL = "marginal"


_PREFACTOR = {Convention.LITERAL: 1.0 / (4.0 * pi), Convention.MARGINAL: 1.0 / pi}

_NORM_RULE_ORDER = 128


@dataclass(frozen=True)
class PhasePoint:
    x: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.p)):
            raise ValueError("phase-space coordinates must be finite")


@dataclass(frozen=True)
class WaveFunction1D:
    """Complex wavefunction of one real quadrature.

    The evaluator must accept numpy arrays.  States are assumed to decay at
    least like a displaced Gaussian; all quadratures here rely on that.
    """

    evaluator: Callable
    normalized: bool = True

    def __post_init__(self):
        if self.normalized:
            rule = gauss_hermite(_NORM_RULE_ORDER)
            norm = np.sum(deweighted(rule) * np.abs(self(rule.nodes)) ** 2)
            if abs(norm - 1.0) > 1e-8:
                raise ValueError(f"state marked normalized but |psi|^2 integrates to {norm}")

    def __call__(self, x):
        return np.asarray(self.evaluator(x), dtype=complex)


def vacuum():
    """Ground-state Gaussian, psi(x) = pi^(-1/4) exp(-x^2/2)."""
    return WaveFunction1D(lambda x: pi ** -0.25 * np.exp(-np.asarray(x) ** 2 / 2.0))


def fock(n):
    """Number state |n>, a Hermite polynomial under the Gaussian envelope."""
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    hcoef = np.zeros(n + 1)
    hcoef[n] = 1.0
    amp = np.exp(-0.5 * (n * np.log(2.0) + lgamma(n + 1))) * pi ** -0.25

    def psi(x):
        x = np.asarray(x)
        return amp * np.polynomial.hermite.hermval(x, hcoef) * np.exp(-x ** 2 / 2.0)

    return WaveFunction1D(psi)


def fock_superposition(coeffs):
    """Normalized superposition sum_n c_n |n> from a coefficient sequence."""
    coeffs = np.asarray(coeffs, dtype=complex)
    nrm = np.linalg.norm(coeffs)
    if nrm == 0:
        raise ValueError("all coefficients are zero")
    coeffs = coeffs / nrm
    parts = [fock(n) for n in range(len(coeffs))]

    def psi(x):
        return sum(c * part(x) for c, part in zip(coeffs, parts))

    return WaveFunction1D(psi)


def displace(psi, x0, p0):
    """Wavefunction-level action of the displacement D(x0, p0).

    psi'(x) = exp[i p0 (x - x0/2)] psi(x - x0); the half-x0 phase makes
    successive displacements compose with the standard symmetric phase.
    """
    ev = psi.evaluator

    def shifted(x):
        x = np.asarray(x)
        return np.exp(1j * p0 * (x - x0 / 2.0)) * np.asarray(ev(x - x0), dtype=complex)

    return WaveFunction1D(shifted, psi.normalized)


def inner_product(psi1, psi2):
    """<psi1|psi2> by de-weighted Gauss-Hermite quadrature."""
    rule = gauss_hermite(_NORM_RULE_ORDER)
    return complex(np.sum(deweighted(rule) * np.conj(psi1(rule.nodes)) * psi2(rule.nodes)))


def wigner_1d(psi, at, rule, convention=Convention.MARGINAL):
    """Pure-state Wigner function at a single phase-space point.

    Evaluates c * Int psi*(x + t) psi(x - t) e^{2ipt} dt with the Gaussian
    envelope absorbed into the Gauss-Hermite weight.  (The conjugate sits on
    the forward-shifted argument so that a state multiplied by e^{i p0 x}
    moves to +p0, making displacement covariance hold with the standard
    sign.)  The imaginary residue of the quadrature sum is checked and
    discarded.
    """
    val = _wigner_pvec(psi, at.x, np.array([at.p]), rule, convention)[0]
    return float(val)


def _wigner_pvec(psi, x, p_vec, rule, convention=Convention.MARGINAL):
    """Wigner values at fixed x for a vector of momenta (internal fast path)."""
    if rule.kind is not QuadKind.GAUSS_HERMITE:
        raise ValueError("wigner_1d requires a Gauss-Hermite rule")
    if rule.order < 32:
        raise ValueError("rule order must be at least 32")
    t = rule.nodes
    g = deweighted(rule) * np.conj(psi(x + t)) * psi(x - t)
    osc = np.exp(2j * np.outer(p_vec, t))  # (n_p, n_t)
    vals = _PREFACTOR[convention] * (osc @ g)
    scale = max(np.max(np.abs(vals)), _PREFACTOR[convention] * np.sum(np.abs(g)))
    if np.max(np.abs(vals.imag)) > 1e-9 * max(scale, 1e-300):
        raise QuadratureResidueError(
            "imaginary residue of the Wigner quadrature exceeds 1e-9; "
            "increase the rule order"
        )
    return vals.real


class Axis(Enum):
    X = "x"
    P = "p"


# Finite integration window for phase-space marginals.  Every state in scope
# decays at least like a Gaussian, so |W| < 1e-16 beyond |x|, |p| = 8; the
# edge check below enforces this rather than assuming it.  The inner
# oscillatory factor e^{2ipt} at |p| <= 8 needs a node spacing below
# pi/16, hence the large inner Gauss-Hermite order.
_WINDOW = 8.0
_INNER_ORDER = 160
# outer Gauss-Legendre orders over the window: of marginal_1d, and of each
# axis of overlap_traciality's 2D integral
_MARGINAL_ORDER = 96
_OVERLAP_ORDER = 80


def _legendre_symmetric(order, halfwidth):
    x, w = np.polynomial.legendre.leggauss(order)
    return halfwidth * x, halfwidth * w


def marginal_1d(psi, axis, value):
    """Integrate the Wigner function over the axis complementary to ``axis``.

    With the MARGINAL convention this reproduces |psi(value)|^2 (axis X) or
    the momentum density |psi~(value)|^2 (axis P).
    """
    nodes, ow = _legendre_symmetric(_MARGINAL_ORDER, _WINDOW)
    inner = gauss_hermite(_INNER_ORDER)
    if axis is Axis.X:
        vals = _wigner_pvec(psi, value, nodes, inner)
    else:
        vals = np.array([_wigner_pvec(psi, x, np.array([value]), inner)[0]
                         for x in nodes])
    edge = max(abs(vals[0]), abs(vals[-1]))
    if edge > 1e-12 * max(np.max(np.abs(vals)), 1e-300):
        raise DomainTruncationError(
            "Wigner function has not decayed below 1e-12 at the domain edge"
        )
    return float(np.sum(ow * vals))


def overlap_traciality(psi1, psi2):
    """State overlap versus phase-space overlap.

    Returns ``(lhs, rhs)`` with lhs = |<psi1|psi2>|^2 by direct quadrature
    and rhs = 2*pi * Int W1 W2 dx dp in the MARGINAL convention.  The 2*pi
    constant is fixed by the pure-state purity case.
    """
    lhs = abs(inner_product(psi1, psi2)) ** 2
    nodes, gw = _legendre_symmetric(_OVERLAP_ORDER, _WINDOW)
    inner = gauss_hermite(_INNER_ORDER)
    acc = 0.0
    for x, wx in zip(nodes, gw):
        w1 = _wigner_pvec(psi1, x, nodes, inner)
        w2 = _wigner_pvec(psi2, x, nodes, inner)
        acc += wx * np.sum(gw * w1 * w2)
    return float(lhs), float(2.0 * pi * acc)
