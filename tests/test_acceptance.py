"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single machine-greppable
pass/fail line and asserts the stated tolerance.  Every numeric target is
either a closed form checked by hand or a cross-validation between two
independent computation routes inside the package.
"""

import time
from math import exp, factorial, pi, sqrt

import numpy as np

from cylwigner import (CylPoint, EntangledArg, TwoModeFock, gauss_hermite,
                       gauss_legendre_mapped, hermite2, laguerre,
                       laguerre_gauss_profile, make_N_l_eigenstate,
                       make_summed_oam, make_superposition, marginal_angle_oam,
                       marginal_radial, oracle_cyl_from_cartesian,
                       psi_entangled, rotate_state, wigner_cyl)
from cylwigner.cylindrical import default_rule
from cylwigner.entangled import amplitude_polynomial


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _vacuum2():
    return TwoModeFock(np.array([[1.0]], dtype=complex))


def _random_two_mode(rng, cutoff):
    c = rng.normal(size=(cutoff + 1, cutoff + 1)) \
        + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    return TwoModeFock(c / np.linalg.norm(c))


def test_criterion_1_special_functions():
    # generating function: sum_{m,n<=20} t^m t'^n H_{m,n}(lam)/(m! n!)
    # against exp(-t t' + t lam + t' lam*); box tail < 1e-12 for |t| <= 0.4
    worst_gen = 0.0
    for lam in (0.8 + 0.3j, -1.2 + 2.1j, 2.5 - 1.0j):
        for t, tp in [(0.3, 0.3), (-0.25, 0.3j), (0.2 + 0.2j, -0.1 - 0.25j)]:
            total = sum(t ** m * tp ** n / (factorial(m) * factorial(n))
                        * hermite2(m, n, lam)
                        for m in range(21) for n in range(21))
            want = np.exp(-t * tp + t * lam + tp * np.conj(lam))
            worst_gen = max(worst_gen, abs(total - want))

    # reduction to associated Laguerre, 200 random index/argument draws
    rng = np.random.default_rng(11)
    worst_red = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 8))
        m = n + int(rng.integers(0, 8))
        lam = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        got = hermite2(m, n, lam)
        want = ((-1) ** n * factorial(n) * lam ** (m - n)
                * laguerre(n, m - n, abs(lam) ** 2))
        worst_red = max(worst_red, abs(got - want) / max(abs(want), 1.0))

    ok = worst_gen <= 1e-9 and worst_red <= 1e-10
    _report(1, "special functions", ok,
            f"generating-function residual {worst_gen:.2e} (tol 1e-9), "
            f"Hermite-Laguerre residual {worst_red:.2e} (tol 1e-10)")


def test_criterion_3_closed_form_eigenstate_profiles():
    # all (N, l0) pairs with N <= 4, |l0| <= 2, matching parity
    pairs = [(0, 0), (1, 1), (1, -1), (2, 0), (3, 1), (3, -1), (4, 2), (4, -2)]
    rng = np.random.default_rng(33)
    worst = 0.0
    for N, l0 in pairs:
        s = make_N_l_eigenstate(N, l0)
        phi = 0.9
        ratios = []
        while len(ratios) < 50:
            xi = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * pi))
            closed = complex(laguerre_gauss_profile(N, l0, xi, phi))
            if abs(closed) < 1e-10:
                continue
            ratios.append(psi_entangled(s, EntangledArg(xi, phi)) / closed)
        ratios = np.array(ratios)
        spread = np.max(np.abs(ratios - ratios.mean())) / abs(ratios.mean())
        worst = max(worst, spread)
    ok = worst <= 1e-9
    _report(3, "Laguerre-Gauss closed forms", ok,
            f"max ratio spread over {len(pairs)} (N, l0) pairs: "
            f"{worst:.2e} (tol 1e-9 relative)")


def test_criterion_4_vacuum_closed_forms():
    s = _vacuum2()
    worst_grid = 0.0
    for r in np.linspace(0.3, 2.5, 10):
        for phi in np.linspace(0.0, 2 * pi, 4, endpoint=False):
            for ell in range(-2, 3):
                got = wigner_cyl(s, CylPoint(r, phi, ell))
                want = 4.0 * sqrt(pi) * exp(-r * r - ell * ell / (r * r))
                worst_grid = max(worst_grid, abs(got - want) / abs(want))

    rule = gauss_legendre_mapped(128, 1e-8, 8.0)
    worst_marg = 0.0
    for ell in range(-4, 5):
        got = marginal_angle_oam(s, 0.3, ell, rule)
        want = 2.0 * pi * exp(-2 * abs(ell))
        worst_marg = max(worst_marg, abs(got - want) / abs(want))

    ok = worst_grid <= 1e-10 and worst_marg <= 1e-6
    _report(4, "vacuum closed forms", ok,
            f"grid residual {worst_grid:.2e} (tol 1e-10 rel), "
            f"angle-OAM marginal residual {worst_marg:.2e} (tol 1e-6 rel)")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(55)
    states = [
        _vacuum2(),
        make_N_l_eigenstate(2, 0),
        make_N_l_eigenstate(3, -1),
        make_summed_oam(0, 8),
        make_summed_oam(2, 10),
        make_superposition(3, -3, 0.4, 9),
    ]
    start = time.monotonic()
    ratios = []
    for s in states:
        pr_rule = gauss_hermite(s.max_total_quanta + 8)
        n = 0
        while n < 10:
            pt = CylPoint(rng.uniform(0.5, 2.2), rng.uniform(0, 2 * pi),
                          int(rng.integers(-3, 4)))
            brute = oracle_cyl_from_cartesian(s, pt, pr_rule)
            if abs(brute) < 1e-12:
                continue
            ratios.append(wigner_cyl(s, pt) / brute)
            n += 1
    elapsed = time.monotonic() - start
    ratios = np.array(ratios)
    spread = (ratios.max() - ratios.min()) / abs(ratios.mean())
    ok = spread <= 1e-6 and elapsed <= 60.0
    _report(5, "oracle equivalence", ok,
            f"kappa = {ratios.mean():.9f} over {len(states)} states x 10 points, "
            f"spread {spread:.2e} (tol 1e-6), elapsed {elapsed:.1f}s (limit 60s)")


def test_criterion_6_concentric_rings():
    s = make_summed_oam(0, 20)
    r_nodes = np.linspace(0.15, 5.8, 110)
    profile = np.array([marginal_radial(s, r) for r in r_nodes])
    maxima = sum(1 for i in range(1, len(profile) - 1)
                 if profile[i - 1] < profile[i] > profile[i + 1])
    ok = maxima >= 3
    _report(6, "concentric rings", ok,
            f"radial distribution of the truncated l0=0 state has {maxima} "
            "local maxima (need >= 3)")


def test_criterion_7_superposition_oscillation():
    rule = gauss_legendre_mapped(96, 1e-6, 9.0)
    phis = np.linspace(0.0, 2 * pi, 36, endpoint=False)

    def marginal_curve(phi0):
        s = make_superposition(3, -3, phi0, 9)
        return np.array([marginal_angle_oam(s, phi, 0, rule) for phi in phis])

    base = marginal_curve(0.0)
    spec = np.fft.rfft(base) / len(base)
    amps = np.abs(spec)
    dominant = int(np.argmax(amps[1:])) + 1
    # residual after the mean and the dominant harmonic, relative to its amplitude
    residual = sqrt(np.sum(amps[1:] ** 2) - amps[dominant] ** 2) / amps[dominant]

    phi0 = 0.8
    shifted = marginal_curve(phi0)
    spec2 = np.fft.rfft(shifted) / len(shifted)
    dphase = float(np.angle(spec2[dominant] / spec[dominant]))
    phase_err = abs(abs(dphase) - phi0)

    negative = min(base.min(), shifted.min())
    ok = (dominant == 6 and residual <= 0.01 and phase_err <= 0.01
          and negative < -1e-6 * base.max())
    _report(7, "angle-OAM oscillation", ok,
            f"dominant harmonic {dominant} (need 6), fit residual "
            f"{residual:.2e} (tol 1%), phase shift error {phase_err:.2e} rad "
            f"under phi0 = {phi0}, minimum value {negative:.3e} (< 0)")


def _cyl_residue(s, pt):
    """Pre-discard imaginary residue of the cylindrical quadrature sum."""
    rule = default_rule(s)
    shift = pt.ell / pt.r
    rp = rule.nodes + 1j * shift
    em, ep = np.exp(-1j * pt.phi), np.exp(1j * pt.phi)
    ket = amplitude_polynomial(s, (pt.r + 1j * rp) * em, (pt.r - 1j * rp) * ep)
    bra = np.conj(amplitude_polynomial(s, np.conj((pt.r + 1j * rp) * ep),
                                       np.conj((pt.r - 1j * rp) * em)))
    terms = rule.weights * bra * ket
    return abs(np.sum(terms).imag) / max(np.sum(np.abs(terms)), 1e-300)


def test_criterion_8_invariance_suite():
    rng = np.random.default_rng(88)

    # realness: the cylindrical sum's residue for 25 random two-mode states
    worst_real = 0.0
    for _ in range(25):
        s = _random_two_mode(rng, cutoff=2)
        pt = CylPoint(rng.uniform(0.4, 2.2), rng.uniform(0, 2 * pi),
                      int(rng.integers(-2, 3)))
        worst_real = max(worst_real, _cyl_residue(s, pt))

    # rotational covariance of the cylindrical Wigner function
    worst_cov = 0.0
    for _ in range(25):
        s = _random_two_mode(rng, cutoff=2)
        phi0 = rng.uniform(0, 2 * pi)
        pt = CylPoint(rng.uniform(0.4, 2.0), rng.uniform(0, 2 * pi),
                      int(rng.integers(-2, 3)))
        moved = wigner_cyl(rotate_state(s, phi0), pt)
        still = wigner_cyl(s, CylPoint(pt.r, pt.phi + phi0, pt.ell))
        worst_cov = max(worst_cov, abs(moved - still)
                        / max(abs(still), abs(moved), 1e-12))

    # phi-independence of OAM eigenstates
    worst_flat = 0.0
    for N, l0 in [(2, 0), (3, 1), (4, -2)]:
        s = make_N_l_eigenstate(N, l0)
        for r in (0.5, 1.3, 2.1):
            for ell in (-1, 0, 2):
                vals = np.array([wigner_cyl(s, CylPoint(r, phi, ell))
                                 for phi in np.linspace(0, 2 * pi, 8)])
                scale = max(np.max(np.abs(vals)), 1e-300)
                worst_flat = max(worst_flat, np.ptp(vals) / scale)

    ok = worst_real <= 1e-12 and worst_cov <= 1e-10 and worst_flat <= 1e-12
    _report(8, "invariance suite", ok,
            f"realness residue {worst_real:.2e} (tol 1e-12), "
            f"rotational covariance {worst_cov:.2e} (tol 1e-10), "
            f"phi-independence {worst_flat:.2e} (tol 1e-12)")
