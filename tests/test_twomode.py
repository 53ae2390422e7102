import itertools
from math import comb, cos, exp, fsum, isfinite, pi, sin, sqrt

import numpy as np
import pytest
from scipy.linalg import expm

from cylwigner import (KAPPA, CartesianPoint4, CylPoint, TwoModeFock, default_rule,
                       expectation_N_L, gauss_hermite, make_N_l_eigenstate, make_summed_oam,
                       make_superposition, mode_rotate_xy_to_pm, oracle_cyl_from_cartesian,
                       rotate_state, wigner_4d)
from cylwigner import twomode
from cylwigner.errors import OrderBoundError, QuadratureResidueError, TruncationWarning
from cylwigner.quadrature import deweighted
from cylwigner.specfun import laguerre_table
from cylwigner.statespec import build_state, parse_state_spec
from cylwigner.twomode import displaced_fock_matrix


def random_state(rng, cutoff=2):
    c = rng.normal(size=(cutoff + 1, cutoff + 1)) \
        + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    return TwoModeFock(c / np.linalg.norm(c))


def test_table_validation():
    with pytest.raises(ValueError):
        TwoModeFock(np.zeros((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        TwoModeFock(np.zeros(4, dtype=complex))


def test_table_is_readonly():
    s = TwoModeFock(np.eye(2, dtype=complex) / sqrt(2.0))
    with pytest.raises(ValueError):
        s.coeffs[0, 0] = 2.0


def test_eigenstate_placement():
    s = make_N_l_eigenstate(3, 1)
    assert s.coeffs[2, 1] == 1.0
    assert abs(np.linalg.norm(s.coeffs) - 1) <= 1e-10
    assert s.max_total_quanta == 3
    n, l = expectation_N_L(s)
    assert (n, l) == (pytest.approx(3.0), pytest.approx(1.0))


def _dense(cut, entries):
    """A table written out in full: the zero table, the entries, then the normalization."""
    table = np.zeros((cut + 1, cut + 1), dtype=complex)
    for ij, c in entries.items():
        table[ij] = c
    return table / np.linalg.norm(table)


def _dense_summed(l0, Nmax):
    top = Nmax - (Nmax - abs(l0)) % 2
    return _dense((Nmax + abs(l0)) // 2, {((N + l0) // 2, (N - l0) // 2): 1.0 / sqrt(N + 1)
                                         for N in range(abs(l0), top + 1, 2)})


def _dense_superposition(l1, l2, phi0, Nmax):
    a, b = _dense_summed(l1, Nmax), _dense_summed(l2, Nmax)
    table = np.zeros((max(len(a), len(b)),) * 2, dtype=complex)
    table[: len(a), : len(a)] += a
    table[: len(b), : len(b)] += np.exp(1j * phi0) * b
    return table / np.linalg.norm(table)


def _dense_raw(cut, entries):
    table = np.zeros((cut + 1, cut + 1), dtype=complex)
    for ij, c in entries.items():
        table[ij] = c
    parts = table.view(float)
    parts /= np.abs(parts).max()
    return table / np.linalg.norm(table)


@pytest.mark.parametrize("state, want", [
    (lambda: make_N_l_eigenstate(3, 1), lambda: _dense(2, {(2, 1): 1.0})),
    # Nmax - |l0| is odd: the top N is 10, not 11
    (lambda: make_summed_oam(-2, 11), lambda: _dense_summed(-2, 11)),
    # branches of unequal size and unequal unnormalized norm, each normalized before the sum
    (lambda: make_superposition(2, -3, 0.7, 10), lambda: _dense_superposition(2, -3, 0.7, 10)),
    (lambda: build_state(parse_state_spec("raw c[0,0]=1e308+1e308j c[2,1]=3e307j")),
     lambda: _dense_raw(2, {(0, 0): 1e308 + 1e308j, (2, 1): 3e307j})),
], ids=["eigenstate", "summed-odd-span", "superposition", "raw-extreme"])
def test_constructed_tables_are_pinned_bit_for_bit(state, want):
    got, want = state().coeffs, want()
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_eigenstate_precondition_messages():
    with pytest.raises(ValueError, match="parity"):
        make_N_l_eigenstate(3, 2)
    with pytest.raises(ValueError, match="range"):
        make_N_l_eigenstate(2, 3)
    with pytest.raises(ValueError):
        make_N_l_eigenstate(-1, 0)


def test_summed_oam_weights():
    s = make_summed_oam(2, 8)
    # support sits on N = 2, 4, 6, 8 with weights proportional to 1/sqrt(N+1)
    support = {(np_, nm): s.coeffs[np_, nm] for np_, nm in np.argwhere(s.coeffs).tolist()}
    assert set(support) == {(2, 0), (3, 1), (4, 2), (5, 3)}
    ratio = support[(3, 1)] / support[(2, 0)]
    assert ratio == pytest.approx(sqrt(3.0 / 5.0))
    assert abs(np.linalg.norm(s.coeffs) - 1) <= 1e-10
    _, l = expectation_N_L(s)
    assert l == pytest.approx(2.0)


def test_summed_oam_range_error():
    with pytest.raises(ValueError, match="range"):
        make_summed_oam(5, 3)


def test_superposition_structure():
    s = make_superposition(3, -3, 0.25, 9)
    assert abs(np.linalg.norm(s.coeffs) - 1) <= 1e-10
    oam = {np_ - nm for np_, nm in np.argwhere(s.coeffs).tolist()}
    assert oam == {3, -3}
    support = {(np_, nm): s.coeffs[np_, nm] for np_, nm in np.argwhere(s.coeffs).tolist()}
    # the l2 branch carries the relative phase
    assert np.angle(support[(0, 3)] / support[(3, 0)]) == pytest.approx(0.25)


def test_superposition_refuses_equal_oam_values():
    # phi0 = pi would cancel the sum to a rounding residue, renormalized to noise;
    # refused before anything is built: past the order bound it is still a ValueError
    for l, phi0, Nmax in ((3, pi, 9), (3, 0.0, 9), (100, 0.0, 200)):
        with pytest.raises(ValueError, match="differ"):
            make_superposition(l, l, phi0, Nmax)


def test_rotate_state_phases(rng):
    s = random_state(rng, cutoff=2)
    phi0 = 0.8
    r = rotate_state(s, phi0)
    for np_, nm in np.argwhere(s.coeffs).tolist():
        c = s.coeffs[np_, nm]
        assert r.coeffs[np_, nm] == pytest.approx(c * np.exp(1j * phi0 * (np_ - nm)))
    assert abs(np.linalg.norm(r.coeffs) - 1) <= 1e-10


def test_mode_rotation_single_photon():
    # |n_x = 1> maps to (|1,0> + |0,1>)/sqrt(2) in the chirality basis
    xy = np.zeros((2, 2), dtype=complex)
    xy[1, 0] = 1.0
    s = mode_rotate_xy_to_pm(xy)
    assert s.coeffs[1, 0] == pytest.approx(1.0 / sqrt(2.0))
    assert s.coeffs[0, 1] == pytest.approx(1.0 / sqrt(2.0))
    assert abs(np.linalg.norm(s.coeffs) - 1) <= 1e-10


def test_mode_rotation_of_one_mode_is_binomial():
    # |n_x = n> maps to Sum_j sqrt(C(n, j) / 2^n) |j, n - j>: the factorial ratios are exact,
    # where a log-gamma form was 1.1e-14 off at n = 30
    n = 30
    xy = np.zeros((n + 1, n + 1), dtype=complex)
    xy[n, 0] = 1.0
    s = mode_rotate_xy_to_pm(xy)
    got = np.array([s.coeffs[j, n - j] for j in range(n + 1)])
    want = np.array([sqrt(comb(n, j) / 2 ** n) for j in range(n + 1)])
    assert np.max(np.abs(got - want) / want) < 6e-15


def test_mode_rotation_checks_the_bound_before_expanding(monkeypatch):
    def expand(*args):
        raise AssertionError("expanded a table past the bound")

    monkeypatch.setattr(twomode, "comb", expand)
    with pytest.raises(OrderBoundError):  # 31 + 31 = 62 total quanta
        mode_rotate_xy_to_pm(np.ones((32, 32)) / 32)


def _image(nx, ny):
    """The chirality table of |n_x, n_y>."""
    xy = np.zeros((nx + 1, ny + 1), dtype=complex)
    xy[nx, ny] = 1.0
    return mode_rotate_xy_to_pm(xy).coeffs


def test_mode_rotation_is_unitary_on_every_shell():
    # the map keeps N = n_x + n_y: on each shell the images of |n_x, N - n_x> are
    # orthonormal columns over |n+, N - n+>, so the adjoint is the inverse
    for n in range(31):
        up = np.arange(n + 1)
        u = np.array([_image(nx, n - nx)[up, n - up] for nx in range(n + 1)]).T
        assert np.max(np.abs(u.conj().T @ u - np.eye(n + 1))) < 1e-15, n


@pytest.mark.parametrize("nx, ny", [(29, 30), (30, 29), (12, 41), (60, 0), (20, 20)])
def test_mode_rotation_matches_a_50_digit_expansion(nx, ny):
    # (a_x+)^n_x (a_y+)^n_y |0> / sqrt(n_x! n_y!) expanded by the binomial theorem in
    # a_x+ = (a_+^dag + a_-^dag)/sqrt2 and a_y+ = -i (a_+^dag - a_-^dag)/sqrt2, at 50 digits
    mpmath = pytest.importorskip("mpmath")
    got = _image(nx, ny)
    with mpmath.workdps(50):
        half, want = mpmath.sqrt(mpmath.mpf(0.5)), {}
        for j, k in itertools.product(range(nx + 1), range(ny + 1)):
            term = (comb(nx, j) * comb(ny, k) * half ** nx * (-1j * half) ** ny
                    * (-1) ** (ny - k))
            want[j + k] = want.get(j + k, 0) + term
        for up, w in want.items():
            w *= mpmath.sqrt(mpmath.factorial(up) * mpmath.factorial(nx + ny - up)
                             / (mpmath.factorial(nx) * mpmath.factorial(ny)))
            if abs(w) > 1e-30:
                assert abs(got[up, nx + ny - up] - w) <= 1e-15 * abs(w), up


@pytest.mark.parametrize("refused", [
    lambda: mode_rotate_xy_to_pm(np.array([1.0])),
    lambda: mode_rotate_xy_to_pm(np.ones((2, 2, 2)) / sqrt(8.0)),
    lambda: mode_rotate_xy_to_pm(np.array([[1.0, np.inf]])),
    lambda: mode_rotate_xy_to_pm(np.array([[1.0, np.nan]])),
    lambda: mode_rotate_xy_to_pm(np.zeros((0, 0))),
    lambda: mode_rotate_xy_to_pm(np.zeros((2, 3))),
    lambda: rotate_state(make_N_l_eigenstate(2, 0), np.inf),
    lambda: rotate_state(make_N_l_eigenstate(2, 0), np.nan),
    lambda: make_superposition(3, -3, np.inf, 9),
    lambda: make_superposition(3, -3, np.nan, 9),
    lambda: TwoModeFock(np.full((2, 2), 1e308)),  # its norm overflows: inf, not normalized
], ids=["xy-1d", "xy-3d", "xy-inf", "xy-nan", "xy-empty", "xy-zero", "rotate-inf",
        "rotate-nan", "superposition-inf", "superposition-nan", "norm-overflow"])
def test_state_builders_refuse_bad_input_without_a_warning(refused):
    # a RuntimeWarning is an error under this suite's filterwarnings, so it fails here too
    with pytest.raises(ValueError):
        refused()


def test_mode_rotation_names_a_table_with_no_nonzero_entry():
    # refused by its cause, not as unnormalized after the expansion or by numpy's allocation
    for xy in (np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 3), dtype=complex)):
        with pytest.raises(ValueError, match="^the x/y table has no nonzero coefficients$"):
            mode_rotate_xy_to_pm(xy)


def vacuum_wigner(q, p):
    return np.exp(-q * q - p * p) / pi


# single-mode Fock amplitudes and their Wigner functions W(q, p), written out in the
# convention of wigner_4d, whose vacuum is exp(-q^2 - p^2) / pi per mode
SINGLE_MODE = {
    "|0>": ([1.0], vacuum_wigner),
    "|1>": ([0.0, 1.0], lambda q, p: vacuum_wigner(q, p) * (2 * (q * q + p * p) - 1)),
    "|2>": ([0.0, 0.0, 1.0], lambda q, p: vacuum_wigner(q, p)
            * (2 * (q * q + p * p) ** 2 - 4 * (q * q + p * p) + 1)),
    "(|0>+|1>)/sqrt2": ([sqrt(0.5), sqrt(0.5)],
                        lambda q, p: vacuum_wigner(q, p) * (q * q + p * p + sqrt(2.0) * q)),
    "(|0>+i|1>)/sqrt2": ([sqrt(0.5), 1j * sqrt(0.5)],
                         lambda q, p: vacuum_wigner(q, p) * (q * q + p * p + sqrt(2.0) * p)),
}


@pytest.mark.filterwarnings("ignore::cylwigner.errors.TruncationWarning")
def test_wigner_4d_of_a_cartesian_product_is_the_product_of_single_mode_wigners(rng):
    # pins the chirality <-> Cartesian convention: a product state built from its (n_x, n_y)
    # table has W(x, p_x, y, p_y) = W_x(x, p_x) W_y(y, p_y); the states that are not
    # symmetric under (q, p) -> (-q, -p) tell alpha_+ from alpha_- and from its conjugate
    x, p_x, y, p_y = rng.uniform(-1.5, 1.5, size=(4, 12))
    for (name_x, (amp_x, w_x)), (name_y, (amp_y, w_y)) in itertools.product(
            SINGLE_MODE.items(), repeat=2):
        xy = np.zeros((3, 3), dtype=complex)
        xy[:len(amp_x), :len(amp_y)] = np.outer(amp_x, amp_y)
        got = wigner_4d(mode_rotate_xy_to_pm(xy), CartesianPoint4(x, p_x, y, p_y))
        assert np.allclose(got, w_x(x, p_x) * w_y(y, p_y), rtol=1e-12, atol=0), (name_x, name_y)


def test_displaced_fock_matrix_against_expm(rng):
    big = 40
    a = np.diag(np.sqrt(np.arange(1, big)), 1)
    for alpha in (0.6, -0.4 + 0.9j, 1.1j):
        exact = expm(alpha * a.conj().T - np.conj(alpha) * a)[:6, :6]
        got = displaced_fock_matrix(alpha, 6)
        assert np.allclose(got, exact, atol=1e-12)


def test_displaced_fock_matrix_batch_against_expm():
    # |alpha| = 5 spreads D|n> to about 30 quanta: the generator is cut well above that
    big = 60
    a = np.diag(np.sqrt(np.arange(1, big)), 1)
    alphas = np.array([0.0, 1.1j, -0.7j, 0.6, -0.4 + 0.9j, 3.0 - 4.0j, 5.0, -3.5j])
    got = displaced_fock_matrix(alphas, 6)
    assert got.shape == (len(alphas), 6, 6)
    for alpha, d in zip(alphas, got):
        exact = expm(alpha * a.conj().T - np.conj(alpha) * a)[:6, :6]
        assert np.allclose(d, exact, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 21])
def test_displaced_fock_matrix_at_the_plan_edges_against_expm(dim):
    # dim 1 takes no recurrence step, dim 2 one, and 21 is the 40-quanta summed state's;
    # |alpha| <= 3 spreads D|20> to about 60 quanta: the generator is cut well above that
    big = 120
    a = np.diag(np.sqrt(np.arange(1, big)), 1)
    alphas = np.array([[0.0, 1.1j, -0.4 + 0.9j, 3.0], [0.6, -2.0 - 2.0j, 0.3j, -1.5]])
    got = displaced_fock_matrix(alphas, dim)
    assert got.shape == (2, 4, dim, dim)
    for idx in np.ndindex(alphas.shape):
        exact = expm(alphas[idx] * a.conj().T - np.conj(alphas[idx]) * a)[:dim, :dim]
        assert np.allclose(got[idx], exact, atol=1e-12), alphas[idx]


@pytest.mark.parametrize("dim", [1, 2, 7, 21, 31])
def test_oracle_laguerre_values_are_laguerre_table_bit_for_bit(rng, monkeypatch, dim):
    # one recurrence: the oracle's (degree, order, value) table of L_n^order(|alpha|^2)
    # is laguerre_table's
    tables, exact = [], twomode.laguerre_rows

    def recorded(a, k, c, x):
        tables.append(exact(a, k, c, x))
        return tables[-1]

    monkeypatch.setattr(twomode, "laguerre_rows", recorded)
    for alpha in (rng.uniform(-5, 5, size=(2, 9)) + 1j * rng.uniform(-5, 5, size=(2, 9)),
                  complex(*rng.uniform(-5, 5, size=2))):
        displaced_fock_matrix(alpha, dim)
        got = tables.pop()
        flat = np.asarray(alpha).reshape(-1)
        want = laguerre_table(dim - 1, np.arange(dim)[:, None], flat.real ** 2 + flat.imag ** 2)
        assert np.array_equal(got, want)


def test_displaced_fock_matrix_batch_is_elementwise(rng):
    # a matrix does not depend on the batch it is computed in
    alphas = rng.uniform(-4, 4, size=(2, 4)) + 1j * rng.uniform(-4, 4, size=(2, 4))
    alphas[0, 0], alphas[1, 3] = 0.0, 2.5j
    got = displaced_fock_matrix(alphas, 9)
    assert got.shape == (2, 4, 9, 9)
    for idx in np.ndindex(alphas.shape):
        assert np.array_equal(got[idx], displaced_fock_matrix(complex(alphas[idx]), 9))
    # the oracle reads D(alpha)^T as D(-conj alpha)
    assert np.array_equal(displaced_fock_matrix(-np.conj(alphas), 9), np.swapaxes(got, -1, -2))


def test_displaced_fock_matrix_of_stacked_modes_is_two_calls(rng):
    # the oracle stacks both modes' amplitudes into one (2, n) call
    alphas = rng.uniform(-3, 3, size=(2, 5)) + 1j * rng.uniform(-3, 3, size=(2, 5))
    got = displaced_fock_matrix(alphas, 7)
    assert got.shape == (2, 5, 7, 7)
    assert np.array_equal(got[0], displaced_fock_matrix(alphas[0], 7))
    assert np.array_equal(got[1], displaced_fock_matrix(alphas[1], 7))
    # the constants built once per dim are read-only and give the same bits again
    with pytest.raises(ValueError):
        twomode._dim_constants(7)[-1][0, 0] = 2.0
    assert np.array_equal(displaced_fock_matrix(alphas, 7), got)


def test_displaced_fock_matrix_alpha_zero():
    assert np.allclose(displaced_fock_matrix(0.0, 5), np.eye(5))


def test_wigner_4d_vacuum_gaussian(rng):
    s = TwoModeFock(np.array([[1.0]], dtype=complex))
    assert wigner_4d(s, CartesianPoint4(0, 0, 0, 0)) == pytest.approx(1.0 / pi ** 2)
    with pytest.warns(TruncationWarning):
        # far displacement of a cutoff-0 table: value still exact for the
        # truncated state, but flagged
        got = wigner_4d(s, CartesianPoint4(1.2, -0.3, 0.4, 0.9))
    want = exp(-(1.2 ** 2 + 0.3 ** 2 + 0.4 ** 2 + 0.9 ** 2)) / pi ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_wigner_4d_batch_is_pointwise(rng):
    s = make_superposition(3, -3, 0.4, 9)
    pts = rng.uniform(-1.0, 1.0, size=(4, 7))
    got = wigner_4d(s, CartesianPoint4(*pts))
    assert got.shape == (7,)
    for i in range(7):
        assert got[i] == wigner_4d(s, CartesianPoint4(*pts[:, i]))


def test_wigner_4d_broadcast_batch_is_pointwise(rng):
    # scalar positions with arrays of momenta, the shape of the oracle's batch
    s = random_state(rng, cutoff=3)
    x, y = rng.uniform(-1.0, 1.0, size=2)
    p_x, p_y = rng.uniform(-3.0, 3.0, size=(2, 6))
    with pytest.warns(TruncationWarning):
        got = wigner_4d(s, CartesianPoint4(x, p_x, y, p_y))
        want = [wigner_4d(s, CartesianPoint4(x, a, y, b)) for a, b in zip(p_x, p_y)]
    assert got.shape == (6,)
    assert np.array_equal(got, want)


def test_wigner_4d_batch_warns_its_caller():
    s = TwoModeFock(np.array([[1.0]], dtype=complex))
    x = np.array([0.0, 1.2])
    with pytest.warns(TruncationWarning) as record:
        got = wigner_4d(s, CartesianPoint4(x, -0.3, 0.4, 0.9))
    assert [w.filename for w in record] == [__file__]
    want = np.exp(-(x ** 2 + 0.3 ** 2 + 0.4 ** 2 + 0.9 ** 2)) / pi ** 2
    assert np.allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wigner_4d_far_point_warns_once_then_refuses():
    # the far-displacement test squares 1e200: an overflow it handles, not a numpy warning
    with pytest.warns(TruncationWarning) as record:
        with pytest.raises(QuadratureResidueError):
            wigner_4d(make_summed_oam(0, 4), CartesianPoint4(1e200, 0.0, 0.0, 0.0))
    assert [w.category for w in record] == [TruncationWarning]


@pytest.mark.filterwarnings("ignore::cylwigner.errors.TruncationWarning")
def test_wigner_4d_residue_test_is_per_value(monkeypatch):
    # node 0 is 1e-4 of node 1; a relative residue of 1e-8 on node 0 alone
    # must raise, though it is far below 1e-10 of the batch's largest value
    s = TwoModeFock(np.array([[1.0]], dtype=complex))
    exact = displaced_fock_matrix
    phase = np.exp(1j * np.array([1e-8, 0.0]))[:, None, None]
    monkeypatch.setattr(twomode, "displaced_fock_matrix", lambda a, dim: exact(a, dim) * phase)
    with pytest.raises(QuadratureResidueError):
        wigner_4d(s, CartesianPoint4(np.array([3.0, 0.0]), 0.0, 0.0, 0.0))


#: A point of summed Nmax=60 where one p_r node's value, -2.0e-10, passes near zero
#: (its largest node reads 2.9e-4), and W there from ``w_reference`` of
#: ``perfbench/reference.py`` at 60 digits.
NEAR_ZERO_NODE = (CylPoint(2.386386132547314, 5.4836051621879704, 3), 0.018682570988573143)


def test_oracle_residue_test_is_per_point():
    # the nodes are terms of one value: a residue of 1.9e-10 of a node near zero,
    # 1.3e-16 of the point's largest node, is rounding, not a fault
    s, (at, want) = make_summed_oam(0, 60), NEAR_ZERO_NODE
    got = KAPPA * oracle_cyl_from_cartesian(s, at, gauss_hermite(68))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_oracle_refuses_a_residue_at_its_points_scale(monkeypatch):
    # every node's value turned by 1e-8: the largest node's residue is 1e-8 of the scale
    s, (at, _) = make_summed_oam(0, 60), NEAR_ZERO_NODE
    exact = displaced_fock_matrix
    phase = np.exp(1j * np.array([1e-8, 0.0]))[:, None, None, None]
    monkeypatch.setattr(twomode, "displaced_fock_matrix", lambda a, dim: exact(a, dim) * phase)
    with pytest.raises(QuadratureResidueError):
        oracle_cyl_from_cartesian(s, at, gauss_hermite(68))


@pytest.mark.filterwarnings("ignore::cylwigner.errors.TruncationWarning")
def test_wigner_4d_judges_a_value_against_its_terms(monkeypatch):
    # at the Cartesian point of NEAR_ZERO_NODE's node 13, W reads -2.0e-10, summed from terms
    # whose moduli add to 1.03e-2: its imaginary residue, 3.8e-20, is rounding
    s, (at, _) = make_summed_oam(0, 60), NEAR_ZERO_NODE
    rule = gauss_hermite(68)
    nodes, exact = [], twomode._wigner_4d

    def recorded(*args, **kwargs):
        nodes.append(exact(*args, **kwargs))
        return nodes[-1]

    monkeypatch.setattr(twomode, "_wigner_4d", recorded)
    oracle_cyl_from_cartesian(s, at, rule)
    monkeypatch.undo()
    t, lam, c, sn = rule.nodes[13], at.ell / at.r, cos(at.phi), sin(at.phi)
    assert t == pytest.approx(-5.74156085080273, rel=1e-14)
    got = wigner_4d(s, CartesianPoint4(at.r * c, t * c - lam * sn, at.r * sn, t * sn + lam * c))
    assert isfinite(got) and abs(got - nodes[0][13]) <= 1e-12 * 1.03e-2


def test_oracle_is_the_correctly_rounded_sum_of_its_weighted_nodes(monkeypatch):
    # crosscheck's seed-1 vacuum point: a left-to-right sum of its 8 terms reads
    # 0.0003102062258723189, one ulp above the correctly rounded 0.00031020622587231883
    s, at = make_N_l_eigenstate(0, 0), CylPoint(r=2.058413979988723, phi=5.448817879563926, ell=3)
    rule = default_rule(s)
    nodes, exact = [], twomode._wigner_4d

    def recorded(*args, **kwargs):
        nodes.append(exact(*args, **kwargs))
        return nodes[-1]

    monkeypatch.setattr(twomode, "_wigner_4d", recorded)
    got = oracle_cyl_from_cartesian(s, at, rule)
    assert got == fsum((deweighted(rule) * nodes[0]).tolist())


@pytest.mark.parametrize("dim", [1, 2, 7, 16, 21, 31])
def test_oracle_batch_is_its_single_nodes_bit_for_bit(rng, dim):
    # the flat products' row blocks change with the batch size; a node's bits must not
    s = random_state(rng, cutoff=dim - 1)
    for n in (1, 2, 3, 5, 8, 17, 33, 68):
        phi, lam, r = rng.uniform(0, 2 * pi), rng.uniform(-3, 3), rng.uniform(0.5, 2.2)
        rot = complex(cos(phi), -sin(phi))
        w, z = complex(sin(phi), cos(phi)) * gauss_hermite(n).nodes + lam * rot, r * rot
        got = twomode._wigner_4d(s, w, z)
        assert np.array_equal(got, [twomode._wigner_4d(s, node, z) for node in w]), n


#: States whose oracle sums its coefficient pairs (``TwoModeFock.pair_plan``): one offset
#: (eigenstates, summed states), the two offsets of the +-3 superposition, and three entries
#: of a raw table on three offsets
PAIR_STATES = {
    "eigenstate N=2 l0=0": lambda: make_N_l_eigenstate(2, 0),
    "eigenstate N=40 l0=0": lambda: make_N_l_eigenstate(40, 0),
    **{f"summed l0=0 Nmax={n}": lambda n=n: make_summed_oam(0, n) for n in (8, 20, 40)},
    "superposition l1=3 l2=-3 phi0=0.4 Nmax=9": lambda: make_superposition(3, -3, 0.4, 9),
    "raw c[0,0]=0.6 c[2,1]=0.5j c[1,3]=-0.4": lambda: build_state(
        parse_state_spec("raw c[0,0]=0.6 c[2,1]=0.5j c[1,3]=-0.4")),
}


def _oracle_nodes(rng, n):
    """The oracle's (w, z) at the n nodes of a random ray, as ``oracle_cyl_from_cartesian``
    lays them out."""
    phi, lam, r = rng.uniform(0, 2 * pi), rng.uniform(-3, 3), rng.uniform(0.5, 2.2)
    rot = complex(cos(phi), -sin(phi))
    return complex(sin(phi), cos(phi)) * gauss_hermite(n).nodes + lam * rot, r * rot


@pytest.mark.parametrize("name", PAIR_STATES)
def test_oracle_pair_sum_is_its_single_nodes_bit_for_bit(rng, name):
    # a node's bits must not depend on its batch: a matrix-vector product would change its
    # summation blocks with the batch size
    s = PAIR_STATES[name]()
    assert s.pair_plan is not None
    for n in (1, 2, 3, 5, 8, 17, 33, 68):
        w, z = _oracle_nodes(rng, n)
        got = twomode._wigner_4d(s, w, z, terms=True)
        assert np.array_equal(got, [twomode._wigner_4d(s, node, z, terms=True) for node in w]), n


@pytest.mark.parametrize("name", PAIR_STATES)
def test_oracle_pair_sum_agrees_with_the_flat_products(rng, name):
    s = PAIR_STATES[name]()
    for n in (1, 8, 33, 68):
        w, z = _oracle_nodes(rng, n)
        pairs, products = twomode._wigner_4d(s, w, z, terms=True), twomode._wigner_4d(s, w, z)
        assert np.max(abs(pairs - products)) <= 1e-13 * np.max(abs(products)), n


def test_pair_plan_is_taken_up_to_two_dim_squared_pairs(rng):
    # the rule reads the support alone: at dim 2, two entries make 4 <= 8 pairs, three 9
    two, three = (TwoModeFock(np.array(c) / np.linalg.norm(c))
                  for c in ([[0.6, 0], [0, 0.8j]], [[0.6, 0.3], [0, 0.8j]]))
    plus, minus, weight = two.pair_plan
    assert len(plus) == len(minus) == len(weight) == 4 and three.pair_plan is None
    with pytest.raises(ValueError):
        weight[0] = 1.0
    for s in (random_state(rng, cutoff=6), make_superposition(3, -3, 0.4, 40),
              make_superposition(5, -4, 0.7, 60)):
        assert s.pair_plan is None
    for s in (make_summed_oam(0, 60), make_summed_oam(2, 60), make_N_l_eigenstate(60, 4)):
        assert s.pair_plan is not None


def test_wigner_4d_parity_at_origin():
    for N, l0 in [(1, 1), (2, 0), (3, -1)]:
        s = make_N_l_eigenstate(N, l0)
        got = wigner_4d(s, CartesianPoint4(0, 0, 0, 0))
        assert got == pytest.approx((-1) ** N / pi ** 2, rel=1e-10)


def test_wigner_4d_rotational_invariance_of_eigenstates(rng):
    s = make_N_l_eigenstate(4, 2)
    for _ in range(5):
        x, px, y, py = rng.uniform(-1.0, 1.0, size=4)
        theta = rng.uniform(0, 2 * pi)
        c, sn = np.cos(theta), np.sin(theta)
        rotated = CartesianPoint4(c * x - sn * y, c * px - sn * py,
                                  sn * x + c * y, sn * px + c * py)
        a = wigner_4d(s, CartesianPoint4(x, px, y, py))
        b = wigner_4d(s, rotated)
        assert a == pytest.approx(b, abs=1e-12)


def test_wigner_4d_requires_normalization():
    # normalization is checked once, when the state is built
    with pytest.raises(ValueError, match="normalized"):
        TwoModeFock(np.array([[2.0]], dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        TwoModeFock(np.zeros((2, 2), dtype=complex))


def test_cartesian_point_finite():
    with pytest.raises(ValueError):
        CartesianPoint4(0.0, np.nan, 0.0, 0.0)
