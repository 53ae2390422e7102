"""EPR-type entangled-basis representation of two-mode Fock states.

The continuous basis |xi> diagonalizes the commuting quadrature
combinations x+ + x- and p+ - p-; its Fock overlaps are bivariate Hermite
polynomials under a Gaussian envelope.  A state's wavefunction in this
representation, Psi(xi, phi) = <xi e^{-i phi}|Psi>, is the object the
cylindrical Wigner transform integrates.

A state's amplitude is read from its one cached diagonal table
(``TwoModeFock.amplitude_table``), then each nonzero offset d times its power
(:func:`specfun.diagonal_power`).  On the cylindrical contour it is one Horner pass
of the monomial form in u = lam lam_bar, for every OAM value at once, in place from
its first step c_0 u + c_1; the bra side, the conjugate ket at conjugated arguments,
is the ket at the mirrored node.  At a real u >= 0, where the monomial form cancels,
:func:`amplitude_series` sums the Laguerre series instead, for psi_entangled and the
radial marginal: one :func:`specfun.laguerre_rows` call, three array operations a step,
runs its Laguerre table from the read-only (a, k, c) recurrence plan that is the fourth
element of the same record (a :func:`specfun.laguerre_plan`).  A single Fock overlap
(:func:`xi_fock_overlap`) evaluates one Hermite polynomial through the same Laguerre
reduction (:func:`specfun.hermite2`).
"""

from math import factorial, pi, sqrt

import numpy as np

from ._record import ValueRecord
from .specfun import check_order_bound, diagonal_power, hermite2, laguerre, laguerre_rows


class EntangledArg(ValueRecord):
    """Evaluation point: complex basis eigenvalue xi and azimuth phi."""

    _fields = ("xi", "phi")

    def __init__(self, xi, phi=0.0):
        if not (np.isfinite(xi) and np.isfinite(phi)):
            raise ValueError("entangled-basis arguments must be finite")
        self._store(xi, float(wrap_phi(float(phi))))


def wrap_phi(phi):
    """phi reduced into [0, 2pi), the same bits for a float and an array: a tiny negative
    phi is 2pi after one mod, and the second takes it to 0 and leaves the rest alone."""
    return np.mod(np.mod(phi, 2.0 * pi), 2.0 * pi)


def _gaussian(xi):
    """exp(-|xi|^2 / 2), and xi with 0 where that underflows: no far polynomial overflows."""
    with np.errstate(over="ignore"):  # |xi|^2 past the float range: the envelope is 0
        envelope = np.exp(-np.abs(xi) ** 2 / 2.0)
    return envelope, np.where(envelope == 0, 0, xi)


def xi_fock_overlap(xi, n_plus, n_minus):
    """Overlap <xi|n_plus, n_minus>.

    The bra side requires the index-swapped polynomial H_{n-, n+} through
    the conjugation symmetry H_{m,n}* = H_{n,m}; the ordering is pinned by
    the closed-form OAM eigenstate check in the test suite, since this is
    the single most error-prone sign convention in the package.
    """
    check_order_bound(n_plus + n_minus)  # before the factorials: 171! overflows a float
    norm = sqrt(1 / (factorial(n_plus) * factorial(n_minus)))
    envelope, xi = _gaussian(xi)
    return envelope * norm * hermite2(n_minus, n_plus, xi)


def amplitude_terms(s, lam, lam_bar):
    """The terms of amplitude_polynomial from one Horner pass in u = lam lam_bar.

    ``(offsets, terms)``: with d = offsets[i], terms[i] = diagonal_power(d, lam,
    lam_bar) p_d(u).  Rotating the arguments to (lam e^{-i phi}, lam_bar e^{i phi})
    leaves u alone and multiplies terms[i] by e^{-i d phi}, which is how the
    cylindrical kernel factors out phi.  The bra side needs no pass of its own: its
    term of offset d is conj(terms[i]) at (conj(lam), conj(lam_bar)).
    """
    lam = np.asarray(lam, dtype=complex)
    lam_bar = np.asarray(lam_bar, dtype=complex)
    u = lam * lam_bar
    offsets, _, coeffs, _ = s.amplitude_table
    coeffs = coeffs.reshape(coeffs.shape + (1,) * u.ndim)
    if len(coeffs) == 1:
        terms = np.full(coeffs.shape[1:2] + u.shape, coeffs[0])
    else:  # the pass's first step, c_0 u + c_1, seeds it
        terms = coeffs[0] * u
        terms += coeffs[1]
    for c in coeffs[2:]:
        terms *= u
        terms += c
    for i, d in enumerate(offsets.tolist()):
        if d:
            terms[i] *= diagonal_power(d, lam, lam_bar)
    return offsets, terms


def amplitude_polynomial(s, lam, lam_bar):
    """Polynomial part of the entangled wavefunction, envelope stripped.

    With ``lam = xi e^{-i phi}`` and ``lam_bar = conj(lam)`` this is
    Psi(xi, phi) / exp(-|xi|^2 / 2), the sum of c[n+, n-] H_{n-, n+}(lam,
    lam_bar) / sqrt(n+! n-!).  The two arguments are independent so the same
    code serves the cylindrical transform's continued integrand; on the real axis
    psi_entangled sums the stable series.  Its bra side (conjugate coefficients,
    swapped Hermite indices) is conj(amplitude_polynomial(s, conj(lam_bar), conj(lam))).
    """
    return np.sum(amplitude_terms(s, lam, lam_bar)[1], axis=0)


def amplitude_series(s, u):
    """``(offsets, p)``, p[i] = p_d(u) for d = offsets[i] on the shape of a real u >= 0,
    each summed from the table's Laguerre series (see the module docstring).  The table
    L_k^|d|(u) is run from the record's recurrence plan, its fourth element."""
    offsets, series, _, steps = s.amplitude_table
    lead = (1,) * np.ndim(u)
    table = laguerre_rows(*(t.reshape(t.shape + lead) for t in steps), u)
    return offsets, np.add.reduce(series.reshape(series.shape + lead) * table, axis=0)


def psi_entangled(s, at):
    """Entangled-representation wavefunction Psi(xi, phi) = <xi e^{-i phi}|s>."""
    if not _gaussian(abs(at.xi))[0]:  # |xi| by abs, as below: the envelope's own bits
        return 0j
    z = at.xi * np.exp(-1j * at.phi)
    u = abs(at.xi) ** 2
    offsets, p = amplitude_series(s, u)
    return complex(np.exp(-u / 2.0) * sum(diagonal_power(d, z, np.conj(z)) * p_d
                                  for d, p_d in zip(offsets.tolist(), p)))


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
    envelope, xi = _gaussian(xi)
    z = np.asarray(xi, dtype=complex) * np.exp(-1j * phi)
    chi = np.conj(z) if l0 > 0 else z
    p = (N - abs(l0)) // 2
    return envelope * chi ** abs(l0) * laguerre(p, abs(l0), np.abs(xi) ** 2)
