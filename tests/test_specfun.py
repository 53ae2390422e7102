"""Special-function tests against independent brute-force oracles."""

from fractions import Fraction
from math import comb, factorial, sqrt

import numpy as np
import pytest

from cylwigner import TwoModeFock, hermite2, laguerre
from cylwigner.errors import OrderBoundError
from cylwigner.specfun import (MAX_TOTAL_ORDER, diagonal_power, hermite2_general,
                               laguerre_diagonals, laguerre_table)


def hermite2_bruteforce(m, n, lam, lam_bar=None):
    """Direct sum with exact integer coefficients (independent of the Laguerre route).

    Returns ``(value, scale)`` where scale is the sum of term magnitudes;
    the alternating sum is ill-conditioned for large |lam|, so comparisons
    must be made relative to scale rather than to the (possibly tiny) value.
    ``lam_bar`` defaults to conj(lam); scalars or arrays.
    """
    lam_bar = np.conj(lam) if lam_bar is None else lam_bar
    total = 0j
    scale = 0.0
    for k in range(min(m, n) + 1):
        coef = factorial(m) * factorial(n) // (
            factorial(k) * factorial(m - k) * factorial(n - k))
        term = (-1) ** k * coef * lam ** (m - k) * lam_bar ** (n - k)
        total += term
        scale += abs(term)
    return total, np.maximum(scale, 1.0)


def monomial_diagonals(coeffs):
    """Sum of coeffs[m, n] H_{n,m} / sqrt(m! n!) as {d: p_d}, p_d highest power of u first.

    H_{n,m} = lam^(n-m) Sum_k (-1)^k C(m,k) C(n,k) k! u^(min - k) for n >= m, with
    exact integer coefficients: the monomial expansion the amplitude table once used.
    """
    parts = {}
    for m, n in np.argwhere(coeffs).tolist():
        scale = complex(coeffs[m, n]) / sqrt(factorial(m) * factorial(n))
        p = [(-1) ** k * comb(m, k) * comb(n, k) * factorial(k) * scale
             for k in range(min(m, n) + 1)]
        old = parts.get(n - m, [])
        width = max(len(old), len(p))
        parts[n - m] = np.pad(old, (width - len(old), 0)) + np.pad(p, (width - len(p), 0))
    return parts


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


def test_hermite2_general_matches_bruteforce_at_independent_arguments(rng):
    # lam_bar is not conj(lam) on the shifted contour; orders up to the full bound
    for _ in range(100):
        m, n = (int(v) for v in rng.integers(0, MAX_TOTAL_ORDER // 2 + 1, size=2))
        lam = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        lam_bar = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        want, scale = hermite2_bruteforce(m, n, lam, lam_bar)
        assert abs(hermite2_general(m, n, lam, lam_bar) - want) <= 1e-13 * scale


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


def test_laguerre_table_at_complex_x():
    # complex x, as hermite2_general passes lam * lam_bar: a complex table; a real x
    # still gives a float table
    mpmath = pytest.importorskip("mpmath")
    x = np.array([0.5 + 0.25j, -1.5 + 3.0j, 9.0 - 4.0j, 14.0 + 0.0j])
    table = laguerre_table(12, np.arange(6)[:, None], x)
    assert table.dtype == complex
    for n, alpha, j in np.ndindex(table.shape):
        want = complex(mpmath.laguerre(n, alpha, complex(x[j])))
        assert table[n, alpha, j] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert laguerre_table(12, 3, x.real).dtype == float
    assert type(laguerre(4, 2, 1.5)) is float and type(laguerre(4, 2, 1.5j)) is complex


def reference_laguerre_table(p, alpha, x):
    """The upward recurrence with every step's coefficients precomputed over the box, as
    laguerre_table was first written: the reference its output must equal bit for bit."""
    alpha = np.asarray(alpha)
    x = np.asarray(x)
    x = x.astype(np.result_type(x, np.float64), copy=False)
    table = np.zeros((p + 2,) + np.broadcast_shapes(alpha.shape, x.shape), dtype=x.dtype)
    table[1] = 1.0
    steps = np.arange(1, p + 1).reshape((-1,) + (1,) * (table.ndim - 1))
    for k, a, b in zip(range(1, p + 1), 2 * steps - 1 + alpha - x, steps - 1 + alpha):
        np.divide(a * table[k] - b * table[k - 1], k, out=table[k + 1, ...])
    return table[1:]


def test_laguerre_table_is_the_reference_recurrence_bit_for_bit(rng):
    cases = [
        (7, 2, 3.3), (5, 1.5, 0.7), (12, 0, 40.0),                           # scalar x
        (10, np.arange(11)[:, None], rng.uniform(0, 30, size=21)),             # array x
        (12, np.arange(6)[:, None], rng.normal(size=9) + 1j * rng.normal(size=9)),
        (4, 3, 2.0 - 1.0j),                                                     # complex x
        (0, 3, 0.5), (1, 2, 0.5), (0, np.arange(1), rng.uniform(0, 9, (2, 8, 1))),
        (1, np.arange(2), rng.uniform(0, 9, (2, 9, 1))),                       # one degree
        (6, np.arange(7), rng.uniform(0, 60, (2, 14, 1))),                      # the oracle's
        (20, np.arange(21), rng.uniform(0, 130, (2, 48, 1))),
    ]
    for p, alpha, x in cases:
        got, want = laguerre_table(p, alpha, x), reference_laguerre_table(p, alpha, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (p, np.shape(alpha), np.shape(x))


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


def test_diagonal_power_of_offset_zero_is_complex_ones():
    # hermite2_general with m = n multiplies by it, at a point and on an array
    for lam in (0.3 - 1.2j, np.array([[0.5, 2.0 + 1.0j, -3.0]])):
        got = diagonal_power(0, lam, np.conj(lam))
        assert got.dtype == complex and got.shape == np.shape(lam)
        assert np.all(got == 1.0)


def reference_diagonal_power(d, lam, lam_bar):
    """Repeated squaring seeded with a copy of the base or with ones, as diagonal_power was
    first written: the reference its output must equal bit for bit on finite inputs."""
    base, d = np.asarray(lam if d >= 0 else lam_bar, dtype=complex), abs(d)
    power = base.copy() if d & 1 else np.ones_like(base)
    while d := d >> 1:
        base = base * base
        if d & 1:
            power = power * base
    return power


def test_diagonal_power_is_the_reference_squaring_bit_for_bit(rng):
    def draw(shape):
        return rng.uniform(0.3, 2.0, shape) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, shape))

    cases = [(draw(24), draw(24)), (draw((3, 1, 5)), draw((3, 1, 5))),
             (np.asarray(draw(())), np.asarray(draw(()))), (complex(draw(())), 0.7 - 0.2j)]
    for lam, lam_bar in cases:
        for d in range(-MAX_TOTAL_ORDER, MAX_TOTAL_ORDER + 1):
            got, want = diagonal_power(d, lam, lam_bar), reference_diagonal_power(d, lam, lam_bar)
            assert got.dtype == want.dtype == complex and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (d, np.shape(lam))
            assert got is not lam and got is not lam_bar  # a new array, safe to write


def test_diagonal_power_of_a_negative_offset_reads_lam_bar(rng):
    lam = rng.normal(size=6) + 1j * rng.normal(size=6)
    lam_bar = rng.normal(size=6) + 1j * rng.normal(size=6)  # independent of lam
    for d in (1, 2, 3, 6, 13):
        assert np.array_equal(diagonal_power(-d, lam, lam_bar), diagonal_power(d, lam_bar, lam))
        assert np.allclose(diagonal_power(-d, lam, lam_bar), lam_bar ** d, rtol=1e-13, atol=0.0)


def test_diagonal_power_is_within_a_few_d_ulps_of_the_exact_power(rng):
    # repeated squaring rounds at each multiply, so its error grows with |d|
    mpmath = pytest.importorskip("mpmath")
    lam = rng.uniform(0.3, 2.0, 24) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 24))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for d in range(1, MAX_TOTAL_ORDER + 1):
            got = diagonal_power(d, lam, lam.conj())
            for g, z in zip(got.tolist(), lam.tolist()):
                want = mpmath.mpc(z) ** d
                assert abs(mpmath.mpc(g) - want) <= 2 * d * eps * abs(want), (d, z)


def test_laguerre_diagonals_are_the_hermite_diagonals(rng):
    # the Laguerre series of laguerre_diagonals, and the monomial coefficients the
    # kernel reads, from the same pass, against the exact-integer monomial
    # expansion; zero entries and both signs of d included
    coeffs = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    coeffs[1, 3] = coeffs[4, 0] = 0.0
    coeffs /= np.linalg.norm(coeffs)
    u = rng.uniform(0.0, 3.0, size=7)
    offsets, series, monomials = laguerre_diagonals(coeffs)
    want = monomial_diagonals(coeffs)
    assert offsets.tolist() == sorted(want) == list(range(-3, 5))  # no d = -4
    assert monomials.shape == series.shape == (5, len(offsets))
    for i, d in enumerate(offsets.tolist()):
        p = want[d]
        got = laguerre_table(len(series) - 1, abs(d), u).T @ series[:, i]
        assert np.allclose(got, np.polyval(p, u), rtol=1e-12, atol=1e-12 * np.abs(p).sum())
        top = len(series) - len(p)
        assert not monomials[:top, i].any()  # zero-padded above the offset's degree
        assert np.allclose(monomials[top:, i], p, rtol=1e-14, atol=0.0)
    # a state caches the same table, read-only
    table = TwoModeFock(coeffs).amplitude_table
    for a, b in zip(table, (offsets, series, monomials)):
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            a[0] = 0
