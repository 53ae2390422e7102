import json
import tracemalloc
import warnings
from math import exp, pi, sqrt
from pathlib import Path

import numpy as np
import pytest

from cylwigner import (KAPPA, CartesianPoint4, CylGrid, CylPoint, TwoModeFock, cylindrical,
                       entangled, gauss_hermite, gauss_legendre_mapped, make_N_l_eigenstate,
                       make_summed_oam, make_superposition, marginal_angle_oam,
                       marginal_radial, oracle_cyl_from_cartesian, rotate_state,
                       wigner_cyl, wigner_cyl_grid)
from cylwigner.errors import (ConvergenceError, OrderBoundError, QuadratureResidueError,
                              TruncationWarning, real_part)
from cylwigner.quadrature import QuadKind, QuadratureRule, deweighted
from cylwigner.specfun import MAX_TOTAL_ORDER


def vacuum_state():
    return TwoModeFock(np.array([[1.0]], dtype=complex))


def random_state(rng, cutoff=2):
    c = rng.normal(size=(cutoff + 1, cutoff + 1)) \
        + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    return TwoModeFock(c / np.linalg.norm(c))


def vacuum_closed_form(r, ell):
    return 4.0 * sqrt(pi) * exp(-r * r - ell * ell / (r * r))


def test_vacuum_closed_form():
    s = vacuum_state()
    for r in (0.3, 1.0, 2.4):
        for ell in (0, 1, -2):
            got = wigner_cyl(s, CylPoint(r, 1.1, ell))
            assert got == pytest.approx(vacuum_closed_form(r, ell), rel=1e-12)


def test_small_r_large_ell_underflows_to_zero():
    # the envelope e^{-ell^2/r^2} is far below double-precision range here
    assert wigner_cyl(vacuum_state(), CylPoint(1e-6, 0.0, 3)) == 0.0
    # at a subnormal r, ell / r and the exponent are infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wigner_cyl(make_summed_oam(1, 5), CylPoint(1e-320, 0.0, 3)) == 0.0


def test_point_validation():
    with pytest.raises(ValueError):
        CylPoint(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        CylPoint(1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="ell"):  # not truncated to ell = 0
        wigner_cyl_grid(vacuum_state(), [1.0], [0.0], [0.5])
    # nor wrapped or overflowed past int64
    for huge in (2 ** 70, 10 ** 400, -2 ** 63 - 1):
        with pytest.raises(ValueError, match="64 bits"):
            CylPoint(1.0, 0.0, huge)
        with pytest.raises(ValueError, match="64 bits"):
            wigner_cyl_grid(vacuum_state(), [1.0], [0.0], [0, huge])
    # an unsigned array past 2^63 too; in range, unsigned and object arrays read as int64
    with pytest.raises(ValueError, match="64 bits"):
        wigner_cyl_grid(vacuum_state(), [1.0], [0.0], np.array([0, 2 ** 63], dtype=np.uint64))
    want = wigner_cyl_grid(vacuum_state(), [1.0], [0.0], [0, 2]).values
    for ells in (np.array([0, 2], dtype=np.uint64), np.array([0, 2], dtype=object)):
        assert np.array_equal(wigner_cyl_grid(vacuum_state(), [1.0], [0.0], ells).values, want)
    assert CylPoint(1.0, 2 * pi + 0.3, -1).phi == pytest.approx(0.3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_phi_rejected(bad):
    s = make_superposition(3, -3, 0.0, 4)
    with pytest.raises(ValueError, match="phi"):
        CylPoint(1.0, bad, 0)  # so wigner_cyl and the oracle never see one
    with pytest.raises(ValueError, match="phi"):
        wigner_cyl_grid(s, [1.0], [0.0, bad], [0])
    with pytest.raises(ValueError, match="phi"):
        marginal_angle_oam(s, bad, 0, gauss_legendre_mapped(32, 1e-3, 6.0))
    # nor a non-finite ell: a ValueError, not int()'s OverflowError
    with pytest.raises(ValueError, match="ell"):
        CylPoint(1.0, 0.0, bad)
    with pytest.raises(ValueError, match="ell"):
        wigner_cyl_grid(s, [1.0], [0.0], [0, bad])


def test_unnormalized_state_rejected():
    # normalization is checked once, when the state is built
    with pytest.raises(ValueError, match="normalized"):
        TwoModeFock(np.array([[0.5]], dtype=complex))


def test_rotational_covariance(rng):
    for _ in range(5):
        s = random_state(rng, cutoff=2)
        phi0 = rng.uniform(0, 2 * pi)
        rot = rotate_state(s, phi0)
        r = rng.uniform(0.4, 2.0)
        phi = rng.uniform(0, 2 * pi)
        ell = int(rng.integers(-2, 3))
        moved = wigner_cyl(rot, CylPoint(r, phi, ell))
        still = wigner_cyl(s, CylPoint(r, phi + phi0, ell))
        assert moved == pytest.approx(still, rel=1e-10, abs=1e-12)


def test_phi_independence_of_eigenstates():
    s = make_N_l_eigenstate(4, 2)
    vals = [wigner_cyl(s, CylPoint(1.3, phi, 1))
            for phi in np.linspace(0, 2 * pi, 9)]
    assert np.ptp(vals) <= 1e-12 * max(np.max(np.abs(vals)), 1e-300)


def test_grid_matches_pointwise(rng):
    # N=2 l0=0 has the one offset d = 0, whose phase the kernel skips, and N=3 l0=-1
    # one offset d != 0: either way the grid keeps its phi axis, and W is flat in phi
    r_nodes = [0.6, 1.4]
    phi_nodes = np.linspace(0, 2 * pi, 5, endpoint=False)
    ells = [-1, 0, 2]
    for s in (make_superposition(1, -1, 0.4, 5), make_N_l_eigenstate(2, 0),
              make_N_l_eigenstate(3, -1)):
        grid = wigner_cyl_grid(s, r_nodes, phi_nodes, ells)
        assert isinstance(grid, CylGrid)
        assert grid.values.shape == (len(r_nodes), len(phi_nodes), len(ells))
        for i, r in enumerate(r_nodes):
            for j, phi in enumerate(phi_nodes):
                for k, ell in enumerate(ells):
                    assert grid.values[i, j, k] == wigner_cyl(s, CylPoint(r, phi, ell))
        if len(s.amplitude_table[0]) == 1:
            assert np.ptp(grid.values, axis=1).max() <= 1e-13 * np.abs(grid.values).max()


def test_grid_is_bitwise_pointwise_for_any_batching(rng, monkeypatch):
    s = random_state(rng, cutoff=3)  # seven OAM offsets
    assert len(s.amplitude_table[0]) >= 3
    r_nodes = [0.3, 0.9, 1.7]
    phi_nodes = np.linspace(0, 2 * pi, 7, endpoint=False)
    ells = [-2, 0, 1, 3]
    grid = wigner_cyl_grid(s, r_nodes, phi_nodes, ells).values
    # the kernel's row blocks of a few rows each cut through the grid's rows
    monkeypatch.setattr(cylindrical, "_BLOCK", 3 * len(phi_nodes) * (s.max_total_quanta + 4))
    assert np.array_equal(wigner_cyl_grid(s, r_nodes, phi_nodes, ells).values, grid)
    for i, r in enumerate(r_nodes):
        for j, phi in enumerate(phi_nodes):
            for k, ell in enumerate(ells):
                assert grid[i, j, k] == wigner_cyl(s, CylPoint(r, phi, ell))


@pytest.mark.parametrize("r, phi, ell", [
    (5e-324, 0.3, 3),  # ell / r is infinite: an underflow zero
    (5e-324, 0.3, 0),
    (1e-3, 0.4, 5),  # the CLI's default corner
    (1e-3, 0.4, -5),
    (1.1, -1e-20, 2),  # one mod gives 2pi here, which both routes must take to 0
    (1.1, 2 * pi + 1e-15, -3),
    (0.7, 0.2, 2 ** 62),
])
def test_point_route_is_bitwise_the_one_point_grid_at_the_edges(r, phi, ell):
    # wigner_cyl takes its envelope in Python floats, the grid in numpy arrays
    for s in (make_superposition(3, -3, 0.4, 9), vacuum_state()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = wigner_cyl(s, CylPoint(r, phi, ell))
            grid = wigner_cyl_grid(s, [r], [phi], [ell]).values[0, 0, 0]
        assert point == grid and np.signbit(point) == np.signbit(grid)
        if r < 1e-300 and ell:
            assert point == 0.0
    assert 0.0 <= CylPoint(r, phi, ell).phi < 2 * pi


def test_long_phi_axis_is_evaluated_in_slices(monkeypatch):
    s = make_superposition(3, -3, 0.0, 9)
    phi_nodes = np.linspace(0, 2 * pi, 50_000, endpoint=False)
    tracemalloc.start()
    try:
        grid = wigner_cyl_grid(s, [1.0], phi_nodes, [0]).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few copies of the axis, not one per quadrature node
    assert peak < 8 * phi_nodes.nbytes
    # slices of five phi nodes give the same bits
    monkeypatch.setattr(cylindrical, "_BLOCK", 5 * (s.max_total_quanta + 4))
    assert np.array_equal(wigner_cyl_grid(s, [1.0], phi_nodes[:17], [0]).values,
                          grid[:, :17])


def test_order_bound_holds_at_evaluation():
    # a state past the bound cannot be built, so no evaluation can see one
    with pytest.raises(OrderBoundError):
        make_N_l_eigenstate(MAX_TOTAL_ORDER + 2, 0)
    table = np.zeros((MAX_TOTAL_ORDER // 2 + 2,) * 2, dtype=complex)
    table[-1, -2] = 1.0  # MAX_TOTAL_ORDER + 1 quanta
    with pytest.raises(OrderBoundError):
        TwoModeFock(table)
    s = make_N_l_eigenstate(MAX_TOTAL_ORDER, 0)
    assert wigner_cyl(s, CylPoint(1e-6, 0.0, 3)) == 0.0  # underflows
    assert np.isfinite(wigner_cyl(s, CylPoint(1.0, 0.0, 0)))


def test_grid_across_underflow_region():
    # degree 40: without the underflow bail-out, bra * ket overflows at r = 1e-9
    s = make_summed_oam(0, 20)
    r_nodes = np.geomspace(1e-9, 1.0, 19)
    phi_nodes = np.linspace(0, 2 * pi, 5, endpoint=False)
    ells = np.arange(-3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = wigner_cyl_grid(s, r_nodes, phi_nodes, ells)
        for i, r in enumerate(r_nodes):
            for k, ell in enumerate(ells):
                want = [wigner_cyl(s, CylPoint(r, phi, ell)) for phi in phi_nodes]
                assert np.array_equal(grid.values[i, :, k], want)
    underflow = (r_nodes[:, None] ** 2 + (ells[None, :] / r_nodes[:, None]) ** 2) > 745.0
    assert np.all(grid.values.transpose(0, 2, 1)[underflow] == 0.0)
    assert np.all(grid.values.transpose(0, 2, 1)[~underflow].any(axis=-1))


def test_grid_axis_validation():
    s = vacuum_state()
    with pytest.raises(ValueError):
        wigner_cyl_grid(s, [], [0.0], [0])
    with pytest.raises(ValueError):
        wigner_cyl_grid(s, [0.0, 1.0], [0.0], [0])


def test_grid_refuses_values_that_do_not_fit_its_axes():
    axes = (np.array([1.0, 2.0]), np.array([0.0]), np.array([0]))
    with pytest.raises(ValueError, match="does not match axes"):
        CylGrid(*axes, np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        CylGrid(*axes, np.array([[[0.5]], [[np.nan]]]))


def test_marginal_angle_oam_vacuum():
    s = vacuum_state()
    rule = gauss_legendre_mapped(128, 1e-8, 8.0)
    for ell in range(-4, 5):
        got = marginal_angle_oam(s, 0.7, ell, rule)
        assert got == pytest.approx(2.0 * pi * exp(-2 * abs(ell)), rel=1e-6)
    # a rule that ends before W decays is flagged
    with pytest.warns(TruncationWarning, match="r_max"):
        marginal_angle_oam(s, 0.7, 0, gauss_legendre_mapped(32, 1e-3, 1.0))


def test_marginal_angle_oam_requires_mapped_rule():
    with pytest.raises(ValueError):
        marginal_angle_oam(vacuum_state(), 0.0, 0, gauss_hermite(64))


def test_marginal_radial_vacuum():
    s = vacuum_state()
    r = 1.2
    got = marginal_radial(s, r, 8)
    want = sum(2.0 * pi * vacuum_closed_form(r, ell) for ell in range(-8, 9))
    assert got == pytest.approx(want, rel=1e-10)
    # far out every sample underflows by the kernel's test: exactly 0, with no samples
    for state in (s, make_summed_oam(0, 20), make_superposition(3, -3, 0.4, 9)):
        assert marginal_radial(state, 40.0) == 0.0


def test_marginal_radial_is_the_phi_sum_of_points():
    s = make_superposition(3, -3, 0.0, 9)
    r, ell_max = 1.1, 40  # the kernel underflows every ring past |ell| = 40 at this r
    n_phi = 7  # W's phi-frequencies are offset differences, at most 3 - (-3) = 6
    phis = np.linspace(0.0, 2.0 * pi, n_phi, endpoint=False)
    rings = [2.0 * pi / n_phi * sum(wigner_cyl(s, CylPoint(r, p, ell)) for p in phis)
             for ell in range(-ell_max, ell_max + 1)]
    assert rings[0] == rings[-1] == 0.0
    assert marginal_radial(s, r) == pytest.approx(sum(rings), rel=1e-12, abs=0)


def test_marginal_radial_matches_the_dense_phi_rule(rng):
    # span + 1 phi nodes against the earlier 4 * quanta + 5
    states = [make_superposition(3, -3, 0.0, 9), make_superposition(1, -2, 0.7, 6),
              random_state(rng, cutoff=3)]
    for s in states:
        assert len(s.amplitude_table[0]) > 1
        n_phi = 4 * s.max_total_quanta + 5
        phis = np.linspace(0.0, 2.0 * pi, n_phi, endpoint=False)
        for r in (0.7, 1.1, 1.6):
            ells = np.arange(-16, 17)
            dense = 2.0 * pi / n_phi * wigner_cyl_grid(s, [r], phis, ells).values.sum()
            assert marginal_radial(s, r, 16) == pytest.approx(dense, rel=1e-12)


def test_marginal_radial_errors():
    s = vacuum_state()
    with pytest.raises(ValueError):
        marginal_radial(s, 0.0, 4)
    for state in (s, make_summed_oam(0, 4), make_superposition(1, -1, 0.0, 3)):
        with pytest.raises(ValueError, match="ell_max"):
            marginal_radial(state, 1.0, -1)
    # ell_max does not change the value: it is the sum over every ell
    got = marginal_radial(s, 2.0, 1)
    assert got == marginal_radial(s, 2.0, 40) == marginal_radial(s, 2.0)
    want = sum(2.0 * pi * vacuum_closed_form(2.0, ell) for ell in range(-60, 61))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_marginal_radial_edge_guard(monkeypatch):
    s = make_summed_oam(0, 4)
    # samples stopped at |r'| <= 1, where the integrand is far from negligible
    monkeypatch.setattr(cylindrical, "_negligible_past", lambda r, quanta, reach0: 1.0)
    with pytest.raises(ConvergenceError):
        marginal_radial(s, 0.5)


def test_marginal_radial_searches_once_per_value(monkeypatch):
    # one tail search sets both the sample spacing and the samples' reach
    exact, calls = cylindrical._negligible_past, []

    def counted(r, quanta, reach0):
        calls.append(r)
        return exact(r, quanta, reach0)

    monkeypatch.setattr(cylindrical, "_negligible_past", counted)
    for s in (make_summed_oam(0, 20), make_superposition(3, -3, 0.4, 9), vacuum_state()):
        for r in (1e-3, 1.5, 25.0):
            calls.clear()
            marginal_radial(s, r)
            assert calls == [r]


def test_kernel_realness_check(monkeypatch):
    # the kernel's one self-check: a sum that is not real is refused, not truncated.
    # The bra is the ket at the mirrored node, so bra * ket at -t is the conjugate of
    # bra * ket at t whatever the ket is: the fault goes into the weights instead
    states = [make_summed_oam(2, 6), make_superposition(3, -3, 0.4, 9)]
    exact = cylindrical.default_rule

    def lopsided(s):  # breaks the pairing of the weights at the nodes +-t
        rule = exact(s)
        return QuadratureRule(rule.kind, rule.order, rule.nodes,
                              rule.weights * (1.0 + 0.1 * (rule.nodes > 0)))

    monkeypatch.setattr(cylindrical, "default_rule", lopsided)
    for s in states:
        for r in (0.5, 1.0, 2.0):
            for ell in (-2, 1, 3):
                with pytest.raises(QuadratureResidueError):
                    wigner_cyl(s, CylPoint(r, 0.7, ell))


def test_kernel_refuses_a_nan_sum(monkeypatch):
    # a nan in the polynomial part is refused by the kernel's residue test, not returned
    exact = cylindrical.amplitude_terms

    def poisoned(s, lam, lam_bar):
        offsets, terms = exact(s, lam, lam_bar)
        terms[..., 0] = np.nan  # the first node of every row
        return offsets, terms

    monkeypatch.setattr(cylindrical, "amplitude_terms", poisoned)
    for s in (make_summed_oam(2, 6), make_superposition(3, -3, 0.4, 9)):
        with pytest.raises(QuadratureResidueError):
            wigner_cyl(s, CylPoint(1.0, 0.7, 1))
        with pytest.raises(QuadratureResidueError):
            wigner_cyl_grid(s, [0.5, 1.0], [0.0, 1.0], [0, 1])
        with pytest.raises(QuadratureResidueError):
            marginal_angle_oam(s, 0.7, 1, gauss_legendre_mapped(16, 1e-3, 8.0))


def test_kernel_refuses_an_infinite_sum(monkeypatch):
    # an infinite polynomial term is refused by the kernel's residue test, with no numpy
    # RuntimeWarning on the way (an error under the suite's filterwarnings)
    exact = cylindrical.amplitude_terms

    def poisoned(s, lam, lam_bar):
        offsets, terms = exact(s, lam, lam_bar)
        terms[..., 0] = np.inf  # the first node of every row
        return offsets, terms

    monkeypatch.setattr(cylindrical, "amplitude_terms", poisoned)
    for s in (make_summed_oam(2, 6), make_superposition(3, -3, 0.4, 9)):
        with pytest.raises(QuadratureResidueError):
            wigner_cyl(s, CylPoint(1.0, 0.7, 1))
        with pytest.raises(QuadratureResidueError):
            wigner_cyl_grid(s, [0.5, 1.0], [0.0, 1.0], [0, 1])
        with pytest.raises(QuadratureResidueError):
            marginal_angle_oam(s, 0.7, 1, gauss_legendre_mapped(16, 1e-3, 8.0))


def test_marginal_angle_oam_refuses_a_phi_array():
    # it returned the value at the first phi alone
    s, rule = make_superposition(3, -3, 0.4, 9), gauss_legendre_mapped(16, 1e-3, 8.0)
    with pytest.raises(ValueError, match="scalar"):
        marginal_angle_oam(s, [0.1, 0.2], 0, rule)


def test_marginal_angle_oam_refuses_an_empty_phi():
    # it raised ZeroDivisionError in the kernel's block arithmetic
    s, rule = make_superposition(3, -3, 0.4, 9), gauss_legendre_mapped(16, 1e-3, 8.0)
    for phi in ([], np.array([])):
        with pytest.raises(ValueError, match="scalar"):
            marginal_angle_oam(s, phi, 0, rule)


def test_marginal_angle_oam_refuses_an_ell_array():
    # ell as long as the rule was paired node by node with the radial nodes
    s, rule = make_superposition(3, -3, 0.4, 9), gauss_legendre_mapped(96, 1e-3, 8.0)
    with pytest.raises(ValueError, match="scalar"):
        marginal_angle_oam(s, 0.3, np.zeros(96, dtype=int), rule)
    # numpy scalars and 0-d arrays are one value
    want = marginal_angle_oam(s, 0.3, 0, rule)
    assert marginal_angle_oam(s, np.float64(0.3), np.int64(0), rule) == want
    assert marginal_angle_oam(s, np.array(0.3), np.array(0), rule) == want


def test_marginal_radial_refuses_an_r_array():
    # math.isfinite raised TypeError on it
    s = make_summed_oam(0, 4)
    with pytest.raises(ValueError, match="scalar"):
        marginal_radial(s, np.array([1.0, 2.0]))
    assert marginal_radial(s, np.array(1.5)) == marginal_radial(s, 1.5)


def test_marginal_radial_realness_check(monkeypatch):
    s = make_summed_oam(2, 6)  # one offset: no conjugate offset to pair a sample's phase
    exact = entangled.laguerre_rows

    def lopsided(a, k, c, x):  # breaks the conjugate symmetry of the samples +-r'
        rows = exact(a, k, c, x)
        rows *= 1.0 + 0.1 * (np.arange(rows.shape[-1]) > rows.shape[-1] // 2)
        return rows

    monkeypatch.setattr(entangled, "laguerre_rows", lopsided)
    with pytest.raises(QuadratureResidueError):
        marginal_radial(s, 1.0)


@pytest.mark.parametrize("bad", [1e200, np.nan])
@pytest.mark.parametrize("l0, nmax", [(0, 4), (2, 6)])  # real terms, and one offset d = 2
def test_marginal_radial_refuses_a_non_finite_sample_without_a_warning(monkeypatch, bad, l0,
                                                                       nmax):
    # 1e200 overflows when squared: the sample reaches the residue test as inf, not as
    # numpy's RuntimeWarning (an error under this suite's filterwarnings) or a returned inf
    exact = cylindrical.amplitude_series

    def poisoned(s, u):
        offsets, p = exact(s, u)
        p[..., np.argmin(u)] = bad  # the sample at r' = 0
        return offsets, p

    monkeypatch.setattr(cylindrical, "amplitude_series", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureResidueError, match="not finite"):
            marginal_radial(make_summed_oam(l0, nmax), 1.0)


_VAL = np.array([0.25 + 1e-12j, -3.0 - 2e-10j, 1e-310 + 0j])
_SCALE = np.array([1.0, 2.0, 0.0])


@pytest.mark.parametrize("val, scale", [
    (_VAL, _SCALE), (_VAL, 0.5), (np.complex128(-0.5 + 1e-20j), np.float64(1.0)),
    (np.array([[0.0j]]), np.array([[0.0]])),  # a sum that underflowed to 0: val = scale = 0
    (np.array([1.0, -2.0]), 2.0),  # real terms
])
def test_real_part_returns_the_real_part_bit_for_bit(val, scale):
    got = real_part(val, scale, 1e-9, "a sum")
    assert np.array_equal(got, val.real) and np.asarray(got).dtype == np.float64


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf),
                                 complex(0.5, np.nextafter(1e-9 * 2.0, 1))])  # |Im| > tol * scale
@pytest.mark.parametrize("where", [0, 2])
def test_real_part_refuses_one_bad_element(bad, where):
    val, scale = np.array([0.5, 0.25, -0.125], dtype=complex), np.array([2.0, 2.0, 2.0])
    assert real_part(val, scale, 1e-9, "a sum") is not None
    val[where] = bad
    with pytest.raises(QuadratureResidueError, match="a sum is not finite or not real"):
        real_part(val, scale, 1e-9, "a sum")


@pytest.mark.parametrize("tol, scale", [(1e-9, 2.0), (1e-10, 3.0), (1e-9, 1e-300)])
def test_real_part_accepts_a_residue_of_exactly_tol_times_scale(tol, scale):
    val = np.array([0.5 + 1j * tol * scale, 0.5 - 1j * tol * scale])
    assert np.array_equal(real_part(val, scale, tol, "a sum"), [0.5, 0.5])


def test_real_part_refuses_a_nan_scale():
    with pytest.raises(QuadratureResidueError):
        real_part(np.array([0.5 + 0j, 0.25 + 0j]), np.array([1.0, np.nan]), 1e-9, "a sum")


def test_oracle_ratio_is_kappa(rng):
    states = [vacuum_state(), make_N_l_eigenstate(2, 0), make_summed_oam(1, 5)]
    for s in states:
        pr_rule = gauss_hermite(s.max_total_quanta + 8)
        for _ in range(3):
            pt = CylPoint(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * pi),
                          int(rng.integers(-2, 3)))
            direct = wigner_cyl(s, pt)
            brute = oracle_cyl_from_cartesian(s, pt, pr_rule)
            assert direct == pytest.approx(KAPPA * brute, rel=1e-9, abs=1e-12)


PROBE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "probe_reference.json"
#: The benchmark's accuracy probes: summed l0=0 at 30 and 40 quanta, 80-digit values.
PROBES = json.loads(PROBE_REFERENCE.read_text())["probes"]


def test_oracle_tables_are_built_once_and_read_only():
    s = make_superposition(3, -3, 0.4, 9)
    rule = gauss_hermite(s.max_total_quanta + 8)
    pt = CylPoint(1.2, 0.5, 1)
    first = oracle_cyl_from_cartesian(s, pt, rule)
    tables, weights = s.parity_tables, deweighted(rule)
    hits = deweighted.cache_info().hits
    assert oracle_cyl_from_cartesian(s, pt, rule) == first
    assert deweighted.cache_info().hits == hits + 1
    assert s.parity_tables is tables and deweighted(rule) is weights
    bra, ket = tables
    assert np.array_equal(bra, np.conj(s.coeffs))
    dim = s.coeffs.shape[0]
    assert np.array_equal(ket, s.coeffs * (-1.0) ** np.add.outer(range(dim), range(dim)))
    for a in (bra, ket, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("make", [
    lambda: TwoModeFock(np.array([[1.0]], dtype=complex)),
    lambda: QuadratureRule(QuadKind.GAUSS_HERMITE, 1, np.array([0.0]), np.array([sqrt(pi)])),
    lambda: CylGrid(np.array([1.0]), np.array([0.0]), np.array([0]), np.zeros((1, 1, 1))),
    lambda: CartesianPoint4(np.zeros(2), 0.0, 0.0, 0.0),
], ids=["TwoModeFock", "QuadratureRule", "CylGrid", "CartesianPoint4"])
def test_objects_holding_arrays_compare_and_hash_by_identity(make):
    # field-wise == would compare arrays, whose truth value is ambiguous
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_oracle_matches_the_reference_at_30_to_40_quanta():
    # the independent route holds where the contour-shifted sum does not;
    # the 80-digit values are the benchmark's accuracy probes
    for probe in PROBES:
        s = make_summed_oam(0, probe["Nmax"])
        pt = CylPoint(probe["r"], probe["phi"], probe["ell"])
        got = KAPPA * oracle_cyl_from_cartesian(s, pt, gauss_hermite(s.max_total_quanta + 8))
        assert got == pytest.approx(float(probe["value"]), rel=1e-12, abs=0)


@pytest.mark.xfail(strict=True, reason="known fault: the contour-shifted sum cancels from "
                   "about 30 quanta; ROADMAP item 1, the real-axis kernel, mends it")
@pytest.mark.parametrize("probe", PROBES,
                         ids=lambda p: f"Nmax={p['Nmax']}-r={p['r']}-ell={p['ell']}")
def test_wigner_cyl_matches_the_reference_at_30_to_40_quanta(probe):
    s = make_summed_oam(0, probe["Nmax"])
    want = float(probe["value"])
    got = wigner_cyl(s, CylPoint(probe["r"], probe["phi"], probe["ell"]))
    # the benchmark's probe tolerance, 1e-6 |ref| + 1e-9 |ref|
    assert abs(got - want) <= 1e-6 * abs(want) + 1e-9 * abs(want)


def test_oracle_does_not_warn_at_far_nodes():
    # the nodes of a vacuum rule of order 8 reach far past cutoff/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracle_cyl_from_cartesian(vacuum_state(), CylPoint(1.0, 0.3, 1), gauss_hermite(8))
    assert KAPPA * got == pytest.approx(vacuum_closed_form(1.0, 1), rel=1e-12)


def test_oracle_refuses_an_infinite_ell_over_r_without_a_warning():
    # at a subnormal r, ell / r is infinite: refused before it meets sin(phi) = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (5e-324, np.float64(5e-324)):
            with pytest.raises(ValueError, match="finite"):
                oracle_cyl_from_cartesian(make_summed_oam(0, 4), CylPoint(r, 0.0, 1),
                                          gauss_hermite(12))


def test_oracle_refuses_a_non_finite_value_at_tiny_r_without_a_warning():
    # ell / r is finite but huge: the displaced-Fock matrices overflow to nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e-100, 1e-150, 1e-308):
            with pytest.raises(QuadratureResidueError, match="not finite"):
                oracle_cyl_from_cartesian(make_summed_oam(0, 4), CylPoint(r, 0.3, 1),
                                          gauss_hermite(12))


def test_oracle_requires_gauss_hermite():
    with pytest.raises(ValueError):
        oracle_cyl_from_cartesian(vacuum_state(), CylPoint(1.0, 0.0, 0),
                                  gauss_legendre_mapped(32, 0.1, 8.0))
