"""Special-function tests against independent brute-force oracles."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from cylwigner import hermite2, laguerre
from cylwigner.errors import OrderBoundError
from cylwigner.specfun import (MAX_TOTAL_ORDER, hermite2_diagonals, hermite2_general,
                               laguerre_diagonals, laguerre_table)


def hermite2_bruteforce(m, n, lam):
    """Direct sum with exact integer coefficients (independent of lgamma).

    Returns ``(value, scale)`` where scale is the sum of term magnitudes;
    the alternating sum is ill-conditioned for large |lam|, so comparisons
    must be made relative to scale rather than to the (possibly tiny) value.
    """
    total = 0j
    scale = 0.0
    for k in range(min(m, n) + 1):
        coef = factorial(m) * factorial(n) // (
            factorial(k) * factorial(m - k) * factorial(n - k))
        term = (-1) ** k * coef * lam ** (m - k) * np.conj(lam) ** (n - k)
        total += term
        scale += abs(term)
    return total, max(scale, 1.0)


def laguerre_series(p, alpha, x):
    """Series-sum oracle: sum_k (-1)^k C(p+alpha, p-k) x^k / k!.

    Evaluated in exact rational arithmetic so the alternating-sum
    cancellation at large x costs no precision in the reference value.
    """
    xq = Fraction(x)
    return float(sum(Fraction((-1) ** k * comb(p + alpha, p - k), factorial(k))
                     * xq ** k for k in range(p + 1)))


def test_hermite2_base_case():
    for lam in (0.0, 1.5, 2.0 - 0.7j):
        assert hermite2(0, 0, lam) == 1.0


def test_hermite2_hand_values():
    # H_{1,1} = lam lam* - 1 ; H_{2,1} = lam^2 lam* - 2 lam
    assert hermite2(1, 1, 2.0) == pytest.approx(3.0)
    assert hermite2(2, 1, 1.0) == pytest.approx(-1.0)


def test_hermite2_matches_bruteforce(rng):
    for _ in range(200):
        m, n = rng.integers(0, 9, size=2)
        lam = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        got = hermite2(int(m), int(n), lam)
        want, scale = hermite2_bruteforce(int(m), int(n), lam)
        assert abs(got - want) <= 1e-13 * scale


def test_hermite2_conjugation_symmetry(rng):
    for _ in range(200):
        m, n = (int(v) for v in rng.integers(0, 9, size=2))
        lam = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        a = hermite2(m, n, lam)
        b = np.conj(hermite2(n, m, lam))
        _, scale = hermite2_bruteforce(m, n, lam)
        assert abs(a - b) <= 1e-13 * scale


def test_hermite2_generating_function(rng):
    # double sum of t^m t'^n H_{m,n} / (m! n!) against exp(-t t' + t lam + t' lam*)
    for lam in (0.8 + 0.3j, -1.2 + 2.1j, 2.5 - 1.0j):
        for t, tp in [(0.3, 0.3), (-0.25, 0.3j), (0.2 + 0.2j, -0.1 - 0.25j)]:
            total = 0j
            for m in range(21):
                for n in range(21):
                    total += (t ** m * tp ** n / (factorial(m) * factorial(n))
                              * hermite2_bruteforce(m, n, lam)[0])
            direct = sum(
                t ** m * tp ** n / (factorial(m) * factorial(n)) * hermite2(m, n, lam)
                for m in range(21) for n in range(21))
            want = np.exp(-t * tp + t * lam + tp * np.conj(lam))
            assert direct == pytest.approx(want, abs=1e-9)
            assert total == pytest.approx(want, abs=1e-9)


def test_hermite2_order_bound():
    with pytest.raises(OrderBoundError):
        hermite2(31, MAX_TOTAL_ORDER - 30, 1.0)
    with pytest.raises(ValueError):
        hermite2(-1, 0, 1.0)


def test_hermite2_general_reduces_to_conjugate_pair(rng):
    for _ in range(50):
        m, n = (int(v) for v in rng.integers(0, 7, size=2))
        lam = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        assert hermite2_general(m, n, lam, np.conj(lam)) == pytest.approx(
            hermite2(m, n, lam), rel=1e-13, abs=1e-13)


def test_hermite2_vectorized(rng):
    lam = rng.uniform(-2, 2, size=5) + 1j * rng.uniform(-2, 2, size=5)
    vec = hermite2(3, 2, lam)
    for i in range(5):
        assert vec[i] == pytest.approx(hermite2(3, 2, lam[i]))


def test_laguerre_degree_zero():
    for alpha in (0, 3):
        for x in (0.0, 2.5):
            assert laguerre(0, alpha, x) == 1.0


def test_laguerre_hand_values():
    assert laguerre(1, 0, 0.5) == pytest.approx(0.5)       # 1 - x
    assert laguerre(2, 1, 2.0) == pytest.approx(-1.0)      # 3 - 3x + x^2/2


def test_laguerre_matches_series(rng):
    for _ in range(200):
        p = int(rng.integers(0, 12))
        alpha = int(rng.integers(0, 8))
        x = rng.uniform(0, 16)
        assert laguerre(p, alpha, x) == pytest.approx(
            laguerre_series(p, alpha, x), rel=1e-10, abs=1e-10)


def test_laguerre_table_matches_series(rng):
    # every degree 0..p and every order of the table, from one recurrence over arrays
    orders = np.arange(8)
    for _ in range(25):
        p = int(rng.integers(0, 16))
        x = rng.uniform(0, 16, size=3)
        table = laguerre_table(p, orders[:, None], x)
        assert table.shape == (p + 1, 8, 3)
        for n, alpha, j in np.ndindex(table.shape):
            assert table[n, alpha, j] == pytest.approx(
                laguerre_series(n, alpha, float(x[j])), rel=1e-10, abs=1e-10)
        assert np.array_equal(laguerre(p, 5, x), table[p, 5])
    with pytest.raises(ValueError):
        laguerre_table(3, np.array([0, 2, -1]), 1.0)


def test_laguerre_rejects_negative_indices():
    with pytest.raises(ValueError):
        laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -1, 1.0)


def test_hermite_laguerre_reduction(rng):
    # m >= n: H_{m,n}(lam) = (-1)^n n! lam^(m-n) L_n^(m-n)(|lam|^2)
    # |lam| <= 2*sqrt(2) keeps both routes within ~1e-11 of each other; the
    # Laguerre recurrence loses digits to cancellation for larger arguments
    for _ in range(200):
        n = int(rng.integers(0, 8))
        m = n + int(rng.integers(0, 8))
        lam = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        got = hermite2(m, n, lam)
        want = ((-1) ** n * factorial(n) * lam ** (m - n)
                * laguerre(n, m - n, abs(lam) ** 2))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_laguerre_diagonals_are_the_hermite_diagonals(rng):
    # the same polynomials p_d(u), in Laguerre and in monomial form, at small u where
    # the monomial form is accurate; zero entries and both signs of d included
    coeffs = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    coeffs[1, 3] = coeffs[4, 0] = 0.0
    u = rng.uniform(0.0, 3.0, size=7)
    offsets, series = laguerre_diagonals(coeffs)
    table = hermite2_diagonals(coeffs)
    assert offsets.tolist() == [d for d, _ in table] == list(range(-3, 5))  # no d = -4
    for i, (d, p) in enumerate(table):
        want = np.polyval(p, u)
        got = laguerre_table(len(series) - 1, abs(d), u).T @ series[:, i]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(p).sum())
