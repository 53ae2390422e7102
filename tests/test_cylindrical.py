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
from cylwigner.statespec import build_state, parse_state_spec
from test_oracle_reference import _points


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


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("shaped", [lambda v: np.array([v]), lambda v: np.array([v, v]),
                                    lambda v: [v]])
def test_point_refuses_a_non_scalar_by_name(field, shaped):
    # numpy's own errors were TypeError for one element and "truth value ... ambiguous" for two
    args = [1.0, 0.3, 1]
    args[field] = shaped(args[field])
    with pytest.raises(ValueError, match="^r, phi and ell must be scalars$"):
        CylPoint(*args)


def test_point_reads_numpy_scalars_and_0d_arrays_as_numbers():
    want = CylPoint(1.0, 0.3, 1)
    for args in ((np.float64(1.0), np.float64(0.3), np.int64(1)),
                 (np.array(1.0), np.array(0.3), np.array(1)), (1.0, 0.3, np.uint8(1))):
        got = CylPoint(*args)
        assert got == want and tuple(map(type, (got.r, got.phi, got.ell))) == (float, float, int)


@pytest.mark.parametrize("r, phi, message, limit_mib", [
    (-1.0, 0.0, "r must be strictly positive", 1.0),
    (-1.0, np.nan, "r must be strictly positive", 1.0),  # r is checked before phi
    (1.0, np.nan, "phi must be finite", 2.0),  # its isfinite mask, 0.95 MiB
])
def test_grid_refuses_before_it_allocates(r, phi, message, limit_mib):
    # on a 10^6-node phi axis no refusal builds the output or a copy of the axis
    s = make_superposition(3, -3, 0.0, 9)
    wigner_cyl_grid(s, [1.0], [0.0], [0])  # the state's tables and rule, outside the trace
    r_nodes, phi_nodes = [r], np.full(10 ** 6, phi)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            wigner_cyl_grid(s, r_nodes, phi_nodes, [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == message and peak < limit_mib * 2 ** 20


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
    # a scalar or 2-D axis is refused by name, before the kernel reads it
    axes = {"r_nodes": [0.1, 0.2, 0.3, 0.4], "phi_nodes": [0.0, 1.0, 2.0, 3.0],
            "ell_values": [0, 1, 2, 3]}
    for name, axis in axes.items():
        for bad in (axis[1], np.reshape(axis, (2, 2))):
            with pytest.raises(ValueError, match=f"^{name} must be a 1-D axis"):
                wigner_cyl_grid(s, **{**axes, name: bad})


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


def _raw_complex_state():
    c = np.random.default_rng(33).normal(size=(3, 3, 2)) @ [1.0, 1j]
    return TwoModeFock(c / np.linalg.norm(c))


ANGLE_RULES = (gauss_legendre_mapped(96, 1e-6, 9.0), gauss_legendre_mapped(48, 1e-3, 8.0))


@pytest.mark.parametrize("state", [lambda: make_summed_oam(2, 6),
                                   lambda: make_superposition(3, -3, 0.4, 9),
                                   _raw_complex_state])
def test_angle_marginal_is_bitwise_the_grid_sum_on_an_empty_and_a_warm_cache(state):
    # the cached phi-free rows give the bits of the uncached grid kernel, summed by the rule
    s = state()
    for rule in ANGLE_RULES:
        for ell in (-4, 0, 3):
            for phi in (-1e-20, 0.3, 2 * pi, 7.0):
                cylindrical._angle_rows.cache_clear()
                cold = marginal_angle_oam(s, phi, ell, rule)
                warm = marginal_angle_oam(s, phi, ell, rule)
                assert cylindrical._angle_rows.cache_info()[:2] == (1, 1)  # hits, misses
                grid = wigner_cyl_grid(s, rule.nodes, [phi], [ell]).values[:, 0, 0]
                want = float(np.add.reduce(rule.weights * grid))
                assert np.float64(cold).tobytes() == np.float64(warm).tobytes() \
                    == np.float64(want).tobytes()


def test_angle_marginal_of_equal_states_fills_separate_entries():
    spec = parse_state_spec("superposition l1=3 l2=-3 phi0=0.4 Nmax=9")
    a, b = build_state(spec), build_state(spec)
    rule = ANGLE_RULES[0]
    cylindrical._angle_rows.cache_clear()
    got = [marginal_angle_oam(s, 0.3, 0, rule) for s in (a, b)]
    assert cylindrical._angle_rows.cache_info()[:2] == (0, 2)  # hits, misses
    assert np.float64(got[0]).tobytes() == np.float64(got[1]).tobytes()


def _refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("phi, ell, rule, message", [
    (np.nan, 0, ANGLE_RULES[0], "phi must be finite"),
    (np.inf, 0, ANGLE_RULES[0], "phi must be finite"),
    (0.3, 0.5, ANGLE_RULES[0], "ell must be an integer"),
    (0.3, 2 ** 63, ANGLE_RULES[0], "ell must be an integer of at most 64 bits"),
    ([0.1, 0.2], 0, ANGLE_RULES[0], "phi and ell must be scalars"),
    (0.3, [0, 1], ANGLE_RULES[0], "phi and ell must be scalars"),
    ([], 0, ANGLE_RULES[0], "phi and ell must be scalars"),
    (0.3, 0, gauss_hermite(64), "radial integration requires a mapped Gauss-Legendre rule"),
])
def test_angle_marginal_refuses_the_same_on_a_warm_cache(phi, ell, rule, message):
    s = make_superposition(3, -3, 0.4, 9)
    cylindrical._angle_rows.cache_clear()
    cold = _refusal(lambda: marginal_angle_oam(s, phi, ell, rule))
    for warm_ell in (0, 1):
        marginal_angle_oam(s, 0.3, warm_ell, ANGLE_RULES[0])
    assert cold == _refusal(lambda: marginal_angle_oam(s, phi, ell, rule)) \
        == (ValueError, message)


def test_angle_marginal_reads_numpy_scalars_as_the_python_key():
    s, rule = make_superposition(3, -3, 0.4, 9), ANGLE_RULES[0]
    cylindrical._angle_rows.cache_clear()
    want = marginal_angle_oam(s, 0.3, 3, rule)
    for phi, ell in ((np.float64(0.3), np.int64(3)), (np.array(0.3), np.array(3)),
                     (0.3, 3.0), (0.3, np.uint8(3))):
        assert marginal_angle_oam(s, phi, ell, rule) == want
    assert cylindrical._angle_rows.cache_info()[:2] == (4, 1)  # hits, misses


def test_angle_marginal_tests_every_sum_for_realness(monkeypatch):
    # a hit skips the phi-free rows, never the residue test of the sum over them
    seen = []

    def recorded(val, scale, tol, what):
        seen.append(what)
        return real_part(val, scale, tol, what)

    monkeypatch.setattr(cylindrical, "real_part", recorded)
    s, rule = make_superposition(3, -3, 0.4, 9), ANGLE_RULES[0]
    cylindrical._angle_rows.cache_clear()
    for phi in (0.1, 0.2, 0.1):
        marginal_angle_oam(s, phi, 0, rule)
    assert cylindrical._angle_rows.cache_info()[:2] == (2, 1)
    assert seen == ["the cylindrical Wigner sum"] * 3


def test_angle_marginal_cache_is_bounded_and_read_only():
    s, rule = make_superposition(3, -3, 0.4, 9), ANGLE_RULES[1]
    kept = cylindrical._angle_rows.cache_info().maxsize
    cylindrical._angle_rows.cache_clear()
    for ell in range(kept + 1):
        marginal_angle_oam(s, 0.3, ell, rule)
    assert cylindrical._angle_rows.cache_info().currsize == kept
    _, blocks = cylindrical._angle_rows(s, rule, kept)
    assert not any(a.flags.writeable for block in blocks for a in block)


@pytest.mark.parametrize("state, radial", [(lambda: make_superposition(3, -3, 0.4, 9), 96),
                                           (lambda: make_summed_oam(2, 20), 200)])
def test_angle_marginal_entry_is_its_live_rows_in_grid_blocks(state, radial):
    # the one entry holds offsets x live radial nodes x order terms, filled block by block,
    # so no temporary of the fill grows with the radial rule
    s, rule = state(), gauss_legendre_mapped(radial, 1e-3, 8.0)
    cylindrical._angle_rows.cache_clear()
    gh, blocks = cylindrical._angle_rows(s, rule, 2)
    rows = np.concatenate([b[0] for b in blocks])
    assert gh is cylindrical.default_rule(s) and 0 < rows.size <= radial
    assert np.array_equal(rows, np.unique(rows))
    offsets = len(s.amplitude_table[0])
    assert sum(b[2].nbytes for b in blocks) == offsets * rows.size * gh.order * 16
    step = max(1, cylindrical._BLOCK // gh.order)
    assert [b[0].size for b in blocks] == [min(step, rows.size - lo) for lo in range(0, rows.size, step)]


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


#: The forms of one value, judged in Python floats: a Python number, a numpy scalar, a 0-d
#: and a size-1 array
ONE_VALUE = {"python": complex, "numpy scalar": np.complex128, "0-d": np.array,
             "size 1": lambda v: np.array([v])}
ONE_SCALE = {"python": float, "numpy scalar": np.float64, "0-d": np.array,
             "size 1": lambda v: np.array([v])}


@pytest.mark.parametrize("form", ONE_VALUE)
def test_real_part_of_one_value_returns_its_real_part_bit_for_bit(form):
    val = ONE_VALUE[form](-0.5 + 1e-20j)
    got = real_part(val, ONE_SCALE[form](1.0), 1e-9, "a sum")
    assert np.array_equal(got, val.real) and np.shape(got) == np.shape(val)
    assert np.asarray(got).dtype == np.float64
    assert real_part(-2.0, 0, 1e-9, "a sum") == -2.0  # a real Python number, an int scale


@pytest.mark.parametrize("form", ONE_VALUE)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
def test_real_part_of_one_value_refuses_a_non_finite_value(form, bad):
    with pytest.raises(QuadratureResidueError, match="a sum is not finite or not real"):
        real_part(ONE_VALUE[form](bad), ONE_SCALE[form](2.0), 1e-9, "a sum")


@pytest.mark.parametrize("form", ONE_VALUE)
def test_real_part_of_one_value_refuses_a_nan_scale(form):
    with pytest.raises(QuadratureResidueError):
        real_part(ONE_VALUE[form](0.5 + 0j), ONE_SCALE[form](np.nan), 1e-9, "a sum")


@pytest.mark.parametrize("form", ONE_VALUE)
@pytest.mark.parametrize("tol, scale", [(1e-9, 2.0), (1e-10, 3.0), (1e-9, 1e-300), (1e-9, 0.0)])
def test_real_part_of_one_value_accepts_exactly_tol_times_scale_and_not_one_ulp_more(
        form, tol, scale):
    edge = tol * max(scale, 1e-300)
    for im in (edge, -edge):
        assert real_part(ONE_VALUE[form](complex(0.5, im)), ONE_SCALE[form](scale), tol,
                         "a sum") == 0.5
    with pytest.raises(QuadratureResidueError):
        real_part(ONE_VALUE[form](complex(0.5, np.nextafter(edge, 1))), ONE_SCALE[form](scale),
                  tol, "a sum")


def test_underflow_test_of_one_point_decides_as_the_grids(rng):
    # a float reach takes math.log, an array np.log: they may differ in the last bit, and
    # must not in any decision, here on 61 x 2,000 exponents within 1e-9 of the threshold
    r = np.exp(rng.uniform(np.log(1e-3), np.log(40.0), 2000))
    reach = r + rng.integers(0, 13, r.size) / r + rng.uniform(2.0, 12.0, r.size)
    for quanta in range(61):
        expo = 745.0 + 2 * quanta * np.log(2.0 + reach) + rng.uniform(-1e-9, 1e-9, r.size)
        grid = cylindrical._alive(expo, quanta, reach)
        assert 0 < grid.sum() < r.size
        assert grid.tolist() == [cylindrical._alive(e, quanta, h)
                                 for e, h in zip(expo.tolist(), reach.tolist())], quanta


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


#: Each family by total quanta, and its bound on |wigner_cyl - KAPPA oracle| / |KAPPA oracle|
#: over the 150 draws of ``test_kernel_envelope_to_10_quanta``.  The measured worsts at 10
#: quanta are 3.7e-12 (summed), 5.0e-12 (superposition) and 1.8e-10 (eigenstate).
ENVELOPE = {"summed": (lambda q: make_summed_oam(0, q), 2e-11),
            "superposition": (lambda q: make_superposition(5, -4, 0.7, q), 2e-11),
            "eigenstate": (lambda q: make_N_l_eigenstate(q, 2), 1e-9)}


@pytest.mark.parametrize("quanta", [6, 8, 10])
@pytest.mark.parametrize("family", list(ENVELOPE))
def test_kernel_envelope_to_10_quanta(family, quanta):
    # the contour kernel's accuracy where every benchmark state and both default exports lie:
    # 150 points from default_rng(11), drawn as the oracle's reference points are
    make, bound = ENVELOPE[family]
    s = make(quanta)
    rule = cylindrical.default_rule(s)
    worst = 0.0
    for r, phi, ell in _points(np.random.default_rng(11), 150):
        pt = CylPoint(r, phi, ell)
        want = KAPPA * oracle_cyl_from_cartesian(s, pt, rule)
        worst = max(worst, abs(wigner_cyl(s, pt) - want) / abs(want))
    assert worst <= bound


PROBE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "probe_reference.json"
#: The benchmark's accuracy probes: summed l0=0 at 30 and 40 quanta, 80-digit values.
PROBES = json.loads(PROBE_REFERENCE.read_text())["probes"]


def test_oracle_tables_are_built_once_and_read_only():
    s = make_superposition(3, -3, 0.4, 9)
    rule = gauss_hermite(s.max_total_quanta + 8)
    pt = CylPoint(1.2, 0.5, 1)
    first = oracle_cyl_from_cartesian(s, pt, rule)
    plan, weights = s.pair_plan, deweighted(rule)
    hits = deweighted.cache_info().hits
    assert oracle_cyl_from_cartesian(s, pt, rule) == first
    assert deweighted.cache_info().hits == hits + 1
    assert s.pair_plan is plan and deweighted(rule) is weights
    # the pair weights on the support: conj(c[m, k]) c[n, n'] (-1)^(n + n') / pi^2
    m, k = np.nonzero(s.coeffs)
    c = s.coeffs[m, k]
    want = np.multiply.outer(np.conj(c), c * (-1.0) ** (m + k)) / pi ** 2
    assert np.array_equal(plan[2], want.ravel())
    for a in (*plan, weights):
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


@pytest.mark.parametrize("state", [make_N_l_eigenstate(2, 0), make_summed_oam(0, 4),
                                   make_superposition(3, -3, 0.0, 9)])
def test_oracle_refuses_a_rule_too_short_to_be_exact(state):
    # the p_r integrand has degree 2 quanta: order quanta is wrong with no error (-160%,
    # -13% and -26% here), and order quanta + 1 is exact
    quanta, at = state.max_total_quanta, CylPoint(1.1, 0.3, 1)
    with pytest.raises(ValueError, match=f"order {quanta} .* {quanta} total quanta"):
        oracle_cyl_from_cartesian(state, at, gauss_hermite(quanta))
    exact = oracle_cyl_from_cartesian(state, at, gauss_hermite(quanta + 8))
    assert oracle_cyl_from_cartesian(state, at, gauss_hermite(quanta + 1)) == \
        pytest.approx(exact, rel=1e-14)
