from math import factorial, pi, sqrt

import numpy as np
import pytest

from cylwigner import (EntangledArg, TwoModeFock, gauss_hermite,
                       laguerre_gauss_profile, make_N_l_eigenstate, make_summed_oam,
                       make_superposition, psi_entangled, rotate_state, xi_fock_overlap)
from cylwigner.entangled import amplitude_polynomial, amplitude_series, amplitude_terms
from cylwigner.errors import OrderBoundError
from cylwigner.quadrature import deweighted
from cylwigner.specfun import MAX_TOTAL_ORDER, laguerre_table
from test_specfun import hermite2_bruteforce


def random_state(rng, cutoff=3):
    c = rng.normal(size=(cutoff + 1, cutoff + 1)) \
        + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    return TwoModeFock(c / np.linalg.norm(c))


def plane_rule(order=28):
    """Plain 2D integrator over the complex xi plane (d^2 xi = dRe dIm)."""
    rule = gauss_hermite(order)
    w = deweighted(rule)
    re, im = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    ww = np.outer(w, w)
    return (re + 1j * im).ravel(), ww.ravel()


def test_vacuum_amplitude():
    s = TwoModeFock(np.array([[1.0]], dtype=complex))
    for xi in (0.3, 0.7 - 1.1j):
        got = psi_entangled(s, EntangledArg(xi, 0.4))
        assert got == pytest.approx(np.exp(-abs(xi) ** 2 / 2.0), rel=1e-13)


def test_wavefunctions_are_zero_where_the_envelope_underflows():
    # past |xi| ~ 38.6 exp(-|xi|^2 / 2) is 0, and so is the value: not a nan where the
    # polynomial overflows, nor an OverflowError where abs(xi) ** 2 does
    s = make_superposition(3, -3, 0.4, 9)
    for xi in (1e100, 1e200, -1e200j):
        assert psi_entangled(s, EntangledArg(xi, 0.3)) == 0
        assert xi_fock_overlap(xi, 3, 2) == 0
        assert laguerre_gauss_profile(4, 2, xi) == 0
    xi = np.array([0.5 - 1.2j, 1e100, 38.0, 1e200j, -3.0])
    near = [0, 2, 4]
    for f in (lambda v: xi_fock_overlap(v, 3, 2), lambda v: laguerre_gauss_profile(4, 2, v)):
        got = f(xi)
        assert not got[[1, 3]].any() and got[near].all()
        assert got[near].tobytes() == f(xi[near]).tobytes()


def test_basis_state_matches_overlap(rng):
    # psi of a Fock basis vector is exactly the single <xi|n+,n-> overlap
    for np_, nm in [(0, 1), (2, 0), (2, 3)]:
        table = np.zeros((4, 4), dtype=complex)
        table[np_, nm] = 1.0
        s = TwoModeFock(table)
        for _ in range(10):
            xi = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            got = psi_entangled(s, EntangledArg(xi))
            assert got == pytest.approx(complex(xi_fock_overlap(xi, np_, nm)),
                                        rel=1e-12, abs=1e-12)


def test_completeness_normalization(rng):
    xi, w = plane_rule()
    for _ in range(4):
        s = random_state(rng, cutoff=3)
        vals = np.array([psi_entangled(s, EntangledArg(z)) for z in xi])
        norm = np.sum(w * np.abs(vals) ** 2) / pi
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_overlap_law(rng):
    xi, w = plane_rule()
    for _ in range(3):
        s1 = random_state(rng, cutoff=2)
        s2 = random_state(rng, cutoff=2)
        v1 = np.array([psi_entangled(s1, EntangledArg(z)) for z in xi])
        v2 = np.array([psi_entangled(s2, EntangledArg(z)) for z in xi])
        got = np.sum(w * np.conj(v1) * v2) / pi
        want = np.sum(np.conj(s1.coeffs) * s2.coeffs)
        assert got == pytest.approx(want, abs=1e-8)


EIGENPAIRS = [(0, 0), (1, 1), (1, -1), (2, 0), (3, 1), (3, -1), (4, 2), (4, -2)]


@pytest.mark.parametrize("N,l0", EIGENPAIRS)
def test_laguerre_gauss_closed_form_ratio(N, l0, rng):
    """psi of |N, l0> is the Laguerre-Gauss profile up to one constant."""
    s = make_N_l_eigenstate(N, l0)
    phi = 0.9
    ratios = []
    for _ in range(50):
        xi = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * pi))
        closed = complex(laguerre_gauss_profile(N, l0, xi, phi))
        if abs(closed) < 1e-12:
            continue
        ratios.append(psi_entangled(s, EntangledArg(xi, phi)) / closed)
    ratios = np.array(ratios)
    assert len(ratios) >= 40
    spread = np.max(np.abs(ratios - ratios.mean())) / abs(ratios.mean())
    assert spread < 1e-9


def test_azimuthal_dependence_of_eigenstate(rng):
    # an OAM eigenstate picks up a pure winding phase e^{i l0 phi}
    s = make_N_l_eigenstate(3, 1)
    xi = 0.8 + 0.5j
    base = psi_entangled(s, EntangledArg(xi, 0.0))
    for phi in (0.3, 1.7, 4.0):
        got = psi_entangled(s, EntangledArg(xi, phi))
        assert got == pytest.approx(base * np.exp(1j * phi), rel=1e-12)


def test_rotation_phase_bookkeeping(rng):
    s = random_state(rng, cutoff=3)
    phi0 = 0.6
    r = rotate_state(s, phi0)
    for _ in range(10):
        xi = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        phi = rng.uniform(0, 2 * pi)
        got = psi_entangled(r, EntangledArg(xi, phi))
        want = psi_entangled(s, EntangledArg(xi, phi + phi0))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_closed_form_precondition():
    with pytest.raises(ValueError):
        laguerre_gauss_profile(2, 1, 0.5)
    with pytest.raises(ValueError):
        laguerre_gauss_profile(1, 2, 0.5)


def test_entangled_arg_validation():
    with pytest.raises(ValueError):
        EntangledArg(complex(np.inf, 0.0))
    a = EntangledArg(0.5j, -1.0)
    assert 0.0 <= a.phi < 2.0 * pi
    # one mod takes a tiny negative phi to exactly 2pi, where e^{-2pi i} is not 1
    assert EntangledArg(1.0, -1e-20).phi == 0.0
    s = make_superposition(3, -3, 0.4, 9)
    assert psi_entangled(s, EntangledArg(0.7 - 0.2j, -1e-20)) == psi_entangled(
        s, EntangledArg(0.7 - 0.2j, 0.0))


def test_unnormalized_state_rejected():
    # normalization is checked once, when the state is built
    with pytest.raises(ValueError, match="normalized"):
        TwoModeFock(np.array([[2.0]], dtype=complex))


def explicit_amplitude(s, lam, lam_bar, conjugated=False):
    """The per-entry Hermite sum the diagonal table replaces, with exact integer coefficients."""
    out = 0.0
    for np_, nm in np.argwhere(s.coeffs).tolist():
        c = s.coeffs[np_, nm]
        norm = 1.0 / sqrt(factorial(np_) * factorial(nm))
        if conjugated:
            out = out + np.conj(c) * norm * hermite2_bruteforce(np_, nm, lam, lam_bar)[0]
        else:
            out = out + c * norm * hermite2_bruteforce(nm, np_, lam, lam_bar)[0]
    return out


def test_amplitude_table_matches_explicit_hermite_sum(rng):
    for _ in range(5):
        s = random_state(rng, cutoff=3)  # OAM offsets -3..3
        assert len(s.amplitude_table[0]) >= 3
        # independent complex arguments, as on the shifted contour, not a conjugate pair
        lam = rng.uniform(-2, 2, size=40) + 1j * rng.uniform(-2, 2, size=40)
        lam_bar = rng.uniform(-2, 2, size=40) + 1j * rng.uniform(-2, 2, size=40)
        for conjugated in (False, True):
            # the bra side is the conjugate of the ket at conjugated, swapped arguments
            got = (np.conj(amplitude_polynomial(s, np.conj(lam_bar), np.conj(lam)))
                   if conjugated else amplitude_polynomial(s, lam, lam_bar))
            want = explicit_amplitude(s, lam, lam_bar, conjugated)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_amplitude_terms_match_explicit_hermite_sums_per_offset(rng):
    # one Horner pass over the table gives every offset's ket term, and conj of the
    # terms at conjugated arguments gives its bra term, which the kernel reads at the
    # mirrored node
    states = [make_superposition(3, -3, 0.4, 9), make_summed_oam(2, 10),
              random_state(rng, cutoff=3), random_state(rng, cutoff=2)]
    lam = rng.uniform(-2, 2, size=(3, 8)) + 1j * rng.uniform(-2, 2, size=(3, 8))
    lam_bar = rng.uniform(-2, 2, size=(3, 8)) + 1j * rng.uniform(-2, 2, size=(3, 8))
    for s in states:
        offsets, ket = amplitude_terms(s, lam, lam_bar)
        bra_offsets, bra = amplitude_terms(s, lam.conj(), lam_bar.conj())
        bra = bra.conj()
        assert offsets.tolist() == sorted({nm - np_ for np_, nm in np.argwhere(s.coeffs).tolist()})
        assert bra_offsets is offsets
        assert ket.shape == bra.shape == (len(offsets),) + lam.shape
        for d, ket_term, bra_term in zip(offsets.tolist(), ket, bra):
            entries = [(np_, nm) for np_, nm in np.argwhere(s.coeffs).tolist() if nm - np_ == d]
            want_ket = want_bra = 0.0
            for np_, nm in entries:
                c = s.coeffs[np_, nm]
                norm = 1.0 / sqrt(factorial(np_) * factorial(nm))
                want_ket = want_ket + c * norm * hermite2_bruteforce(nm, np_, lam, lam_bar)[0]
                # the bra term of offset -d, at the swapped arguments
                want_bra = (want_bra
                            + np.conj(c) * norm * hermite2_bruteforce(np_, nm, lam_bar, lam)[0])
            assert np.allclose(ket_term, want_ket, rtol=1e-12, atol=0.0)
            assert np.allclose(bra_term, want_bra, rtol=1e-12, atol=0.0)


def raw_table_of_59_quanta():
    """20 random entries of at most 59 total quanta, from default_rng(11)."""
    rng = np.random.default_rng(11)
    cells = [(a, b) for a in range(60) for b in range(60 - a)]
    c = np.zeros((60, 60), dtype=complex)
    for k in rng.choice(len(cells), 20, replace=False):
        c[cells[k]] = rng.normal() + 1j * rng.normal()
    return TwoModeFock(c / np.linalg.norm(c))


def psi_reference(mpmath, s, xi, phi, dps=60):
    """Psi(xi, phi) at dps digits, from the explicit Hermite sums with exact coefficients."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(xi) * mpmath.expj(-mpmath.mpf(phi))
        total = 0
        for np_, nm in np.argwhere(s.coeffs).tolist():
            h = hermite2_bruteforce(nm, np_, lam, mpmath.conj(lam))[0]
            total += (mpmath.mpc(complex(s.coeffs[np_, nm])) * h
                      / mpmath.sqrt(factorial(np_) * factorial(nm)))
        return complex(mpmath.exp(-abs(lam) ** 2 / 2) * total)


@pytest.mark.parametrize("make", [
    lambda: make_summed_oam(0, 40), lambda: make_summed_oam(0, 60),
    lambda: make_superposition(5, -4, 0.7, 50), raw_table_of_59_quanta,
], ids=["summed-40", "summed-60", "superposition-50", "raw-59"])
def test_psi_on_the_real_axis_matches_mpmath(make):
    # u = |xi|^2 is real there, where a Horner pass of the monomial form cancels: 3.6e-9
    # relative at 40 quanta and 1.2e-4 at 60
    mpmath = pytest.importorskip("mpmath")
    s = make()
    for xi in (0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0):
        want = psi_reference(mpmath, s, xi, 0.3)
        got = psi_entangled(s, EntangledArg(xi, 0.3))
        assert abs(got - want) <= 1e-13 * abs(want), (xi, got, want)


def test_amplitude_table_layout():
    s = TwoModeFock(np.array([[0.0, 0.6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.8]]))
    # c[0,1] has OAM -1 (offset 1, degree 0); c[2,2] has OAM 0 (offset 0, degree 2)
    offsets, series, coeffs, _ = s.amplitude_table
    assert offsets.tolist() == [0, 1] and series.shape == coeffs.shape == (3, 2)
    assert coeffs[0, 0] != 0  # degree 2 at offset 0
    assert coeffs[:2, 1].tolist() == [0, 0] and coeffs[2, 1] != 0
    assert s.amplitude_table is s.amplitude_table


def test_amplitude_table_order_bound():
    # the bound is checked when the state is built, so no table past it exists
    with pytest.raises(OrderBoundError):
        make_N_l_eigenstate(MAX_TOTAL_ORDER + 2, 0)
    assert len(make_N_l_eigenstate(MAX_TOTAL_ORDER, 0).amplitude_table[0]) == 1


def test_overlap_checks_the_bound_before_its_factorials():
    # 171! overflows a float: the bound is what refuses it
    with pytest.raises(OrderBoundError):
        xi_fock_overlap(0.5, 171, 0)


@pytest.mark.parametrize("make", [
    lambda: make_summed_oam(0, 20), lambda: make_superposition(3, -3, 0.4, 9),
    lambda: TwoModeFock(np.array([[0.6, 0, 0], [0, 0, 0.8j], [0, 0, 0]])),
    lambda: make_N_l_eigenstate(4, -4), lambda: make_summed_oam(0, 60), raw_table_of_59_quanta,
], ids=["summed-20", "superposition-9", "raw-complex", "degree-0", "summed-60", "raw-59"])
def test_amplitude_series_is_the_laguerre_table_sum_bit_for_bit(make, rng):
    # the state's recurrence plan fills the same table laguerre_table fills
    s = make()
    offsets, series, _, _ = s.amplitude_table
    for u in (2.7, rng.uniform(0.0, 40.0, 33), rng.uniform(0.0, 40.0, (3, 11))):
        lead = (1,) * np.ndim(u)
        want = np.sum(series.reshape(series.shape + lead) * laguerre_table(
            len(series) - 1, np.abs(offsets).reshape((-1,) + lead), u), axis=0)
        got_offsets, got = amplitude_series(s, u)
        assert got_offsets is offsets
        assert got.dtype == want.dtype and got.shape == want.shape == offsets.shape + np.shape(u)
        assert got.tobytes() == want.tobytes(), np.shape(u)


def test_series_plan_is_cached_and_read_only():
    s = make_superposition(5, -4, 0.7, 50)
    offsets, series, _, plan = s.amplitude_table
    assert s.amplitude_table[3] is plan
    k, alpha = np.arange(1, len(series))[:, None], np.abs(offsets)
    want_plan = (2 * k - 1 + alpha, k + 0 * alpha, -(k - 1 + alpha) / k)
    assert len(plan) == len(want_plan)
    for got, want in zip(plan, want_plan):
        assert got.dtype == float and np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0, 0] = 0.0
