"""EPR-type entangled-basis representation of two-mode Fock states.

The continuous basis |xi> diagonalizes the commuting quadrature
combinations x+ + x- and p+ - p-; its Fock overlaps are bivariate Hermite
polynomials under a Gaussian envelope.  A state's wavefunction in this
representation, Psi(xi, phi) = <xi e^{-i phi}|Psi>, is the object the
cylindrical Wigner transform integrates.

A state's amplitude polynomial is evaluated from its cached diagonal table
(``TwoModeFock.amplitude_stack``): one polynomial in u = lam lam_bar per OAM
value, times its power (:func:`specfun.diagonal_power`), in the monomial form
of the state's Laguerre series (``TwoModeFock.laguerre_stack``).  A single
Fock overlap (:func:`xi_fock_overlap`) evaluates one Hermite polynomial
through the same Laguerre reduction (:func:`specfun.hermite2`).
"""

from dataclasses import dataclass
from math import lgamma, pi

import numpy as np

from .specfun import diagonal_power, hermite2, laguerre


@dataclass(frozen=True)
class EntangledArg:
    """Evaluation point: complex basis eigenvalue xi and azimuth phi."""

    xi: complex
    phi: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.xi) and np.isfinite(self.phi)):
            raise ValueError("entangled-basis arguments must be finite")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * pi))


def xi_fock_overlap(xi, n_plus, n_minus):
    """Overlap <xi|n_plus, n_minus>.

    The bra side requires the index-swapped polynomial H_{n-, n+} through
    the conjugation symmetry H_{m,n}* = H_{n,m}; the ordering is pinned by
    the closed-form OAM eigenstate check in the test suite, since this is
    the single most error-prone sign convention in the package.
    """
    norm = np.exp(-0.5 * (lgamma(n_plus + 1) + lgamma(n_minus + 1)))
    return np.exp(-np.abs(xi) ** 2 / 2.0) * norm * hermite2(n_minus, n_plus, xi)


def amplitude_terms(s, lam, lam_bar):
    """The terms of amplitude_polynomial from one Horner pass in u = lam lam_bar.

    ``(offsets, ket, bra)``: with d = offsets[i], ket[i] = diagonal_power(d,
    lam, lam_bar) p_d(u) and bra[i] is that power times conj(p_d)(u), the bra
    term of offset -d at swapped arguments; a real table's bra is its ket.
    Rotating the arguments to (lam e^{-i phi}, lam_bar e^{i phi}) leaves u
    alone and multiplies ket[i] by e^{-i d phi} and bra[i] by e^{i d phi},
    which is how the cylindrical kernel factors out phi.
    """
    lam = np.asarray(lam, dtype=complex)
    lam_bar = np.asarray(lam_bar, dtype=complex)
    u = lam * lam_bar
    offsets, coeffs = s.amplitude_stack
    coeffs = coeffs.reshape(coeffs.shape + (1,) * u.ndim)
    terms = coeffs[0]
    for c in coeffs[1:]:
        terms = terms * u + c
    # scalar exponents, one per nonzero offset: an array of exponents makes numpy's
    # ufunc iterator allocate buffers that add 256 KiB to the peak RSS of a small export
    powers = np.ones((len(offsets),) + u.shape, dtype=complex)
    for i, d in enumerate(offsets.tolist()):
        if d:
            powers[i] = diagonal_power(d, lam, lam_bar)
    ket, *bra = terms * powers
    return offsets, ket, bra[0] if bra else ket


def amplitude_polynomial(s, lam, lam_bar):
    """Polynomial part of the entangled wavefunction, envelope stripped.

    With ``lam = xi e^{-i phi}`` and ``lam_bar = conj(lam)`` this is
    Psi(xi, phi) / exp(-|xi|^2 / 2), the sum of c[n+, n-] H_{n-, n+}(lam,
    lam_bar) / sqrt(n+! n-!).  The two arguments are independent so the
    same code serves the analytically continued integrand of the
    cylindrical transform.  Its bra side (conjugate coefficients, swapped
    Hermite indices) is conj(amplitude_polynomial(s, conj(lam_bar), conj(lam))).
    """
    return np.sum(amplitude_terms(s, lam, lam_bar)[1], axis=0)


def psi_entangled(s, at):
    """Entangled-representation wavefunction Psi(xi, phi) = <xi e^{-i phi}|s>."""
    z = at.xi * np.exp(-1j * at.phi)
    return complex(np.exp(-abs(at.xi) ** 2 / 2.0) * amplitude_polynomial(s, z, np.conj(z)))


def laguerre_gauss_profile(N, l0, xi, phi=0.0):
    """Closed-form (unnormalized) entangled wavefunction of |N, l0>.

    A Laguerre-Gauss shape: chi^|l0| L_p^|l0|(|xi|^2) exp(-|xi|^2/2) with
    p = (N - |l0|)/2 and chi the azimuthally rotated radial coordinate
    (conjugated for l0 > 0 -- the orientation the Fock expansion produces).
    Proportional to psi_entangled of the corresponding eigenstate, with one
    xi-independent constant per (N, l0).
    """
    if abs(l0) > N or (N - abs(l0)) % 2 != 0:
        raise ValueError("need |l0| <= N with N - |l0| even")
    z = np.asarray(xi, dtype=complex) * np.exp(-1j * phi)
    chi = np.conj(z) if l0 > 0 else z
    mag2 = np.abs(np.asarray(xi)) ** 2
    p = (N - abs(l0)) // 2
    return np.exp(-mag2 / 2.0) * chi ** abs(l0) * laguerre(p, abs(l0), mag2)
