from math import fsum, gamma, inf, nan, pi, sqrt

import numpy as np
import pytest

from cylwigner import (QuadKind, default_rule, gauss_hermite, gauss_legendre_mapped,
                       make_N_l_eigenstate)
from cylwigner.quadrature import MAX_ORDER, QuadratureRule, deweighted
from cylwigner.specfun import MAX_TOTAL_ORDER


def test_gh_order_one():
    rule = gauss_hermite(1)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == pytest.approx(sqrt(pi))


def test_gh_weight_sum():
    for order in (2, 5, 16, 64, 128):
        rule = gauss_hermite(order)
        assert abs(np.sum(rule.weights) - sqrt(pi)) < 1e-13


def test_gh_node_symmetry_exact():
    # the cylindrical kernel reads its bra at the mirrored node: every order its rule
    # can have is checked, quanta + 8 for every state within MAX_TOTAL_ORDER
    kernel_orders = {default_rule(make_N_l_eigenstate(q, q)).order
                     for q in range(MAX_TOTAL_ORDER + 1)}
    assert kernel_orders == set(range(8, MAX_TOTAL_ORDER + 9))
    for order in sorted(kernel_orders | {2, 5, 64}):
        rule = gauss_hermite(order)
        assert np.all(rule.nodes + rule.nodes[::-1] == 0.0)
        assert np.all(rule.weights == rule.weights[::-1])


def test_gh_moment_identities():
    # int e^{-t^2} t^4 dt = (3/4) sqrt(pi)
    rule = gauss_hermite(5)
    assert abs(np.sum(rule.weights * rule.nodes ** 4) - 0.75 * sqrt(pi)) < 1e-13
    # odd moments vanish identically with symmetric nodes: the products cancel
    # pairwise, so their exactly rounded sum is 0 (a rounded running sum need not be)
    assert fsum(rule.weights * rule.nodes ** 7) == 0.0


def test_gh_exactness_boundary():
    # order 5 is exact through degree 9; t^10 must show a real defect
    rule = gauss_hermite(5)
    exact = 945.0 / 32.0 * sqrt(pi)  # (9)!! / 2^5 * sqrt(pi)
    got = np.sum(rule.weights * rule.nodes ** 10)
    assert abs(got - exact) > 1e-3
    assert abs(np.sum(gauss_hermite(6).weights * gauss_hermite(6).nodes ** 10)
               - exact) < 1e-10


@pytest.mark.parametrize("order", [24, 44, 60, 96])
def test_gh_exact_below_degree_2n(order):
    # every even moment the rule claims, out to the tiny outer weights
    rule = gauss_hermite(order)
    for k in range(order):
        got = fsum(rule.weights * rule.nodes ** (2 * k))
        assert got == pytest.approx(gamma(k + 0.5), rel=1e-12)


def test_gh_rule_is_numpys_hermgauss_bit_for_bit():
    # gauss_hermite runs hermgauss' algorithm without importing numpy.polynomial; numpy's
    # own function is the reference, at every order a rule can have
    from numpy.polynomial.hermite import hermgauss
    for order in range(1, MAX_ORDER + 1):
        nodes, weights = hermgauss(order)
        rule = gauss_hermite(order)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)


def test_gh_order_bounds():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(MAX_ORDER + 1)


def test_gl_mapped_constant():
    rule = gauss_legendre_mapped(8, 1.0, 2.0)
    assert rule.kind is QuadKind.GAUSS_LEGENDRE_MAPPED
    assert abs(np.sum(rule.weights) - 1.0) < 1e-12
    assert np.all((rule.nodes > 1.0) & (rule.nodes < 2.0))


def test_gl_mapped_gaussian_tail():
    from scipy.special import erf
    rule = gauss_legendre_mapped(64, 1e-3, 8.0)
    got = np.sum(rule.weights * np.exp(-rule.nodes ** 2))
    exact = sqrt(pi) / 2.0 * (erf(8.0) - erf(1e-3))
    assert abs(got - exact) < 1e-10


def test_gl_mapped_polynomial_exactness():
    rule = gauss_legendre_mapped(6, 0.5, 3.0)
    # degree 11 is within the order-6 exactness bound
    got = np.sum(rule.weights * rule.nodes ** 11)
    assert got == pytest.approx((3.0 ** 12 - 0.5 ** 12) / 12.0, rel=1e-13)


@pytest.mark.parametrize("order", [24, 96])
def test_gl_mapped_exact_below_degree_2n(order):
    r_min, r_max = 1e-3, 8.0
    rule = gauss_legendre_mapped(order, r_min, r_max)
    for d in range(2 * order):
        got = fsum(rule.weights * rule.nodes ** d)
        assert got == pytest.approx((r_max ** (d + 1) - r_min ** (d + 1)) / (d + 1), rel=1e-12)


def test_gl_mapped_domain_errors():
    with pytest.raises(ValueError):
        gauss_legendre_mapped(8, 0.0, 2.0)
    with pytest.raises(ValueError):
        gauss_legendre_mapped(8, 2.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre_mapped(0, 1.0, 2.0)
    # an infinite edge would make every node and weight inf; a nan edge is refused as well
    for r_min, r_max in ((1e-3, inf), (1e-3, nan), (nan, 2.0), (-inf, 2.0), (1e-3, -inf)):
        with pytest.raises(ValueError, match="finite"):
            gauss_legendre_mapped(8, r_min, r_max)


def test_deweighted_inverts_envelope():
    rule = gauss_hermite(48)
    w = deweighted(rule)
    # plain integral of a Gaussian that carries its own decay
    assert abs(np.sum(w * np.exp(-rule.nodes ** 2)) - sqrt(pi)) < 1e-12
    with pytest.raises(ValueError):
        deweighted(gauss_legendre_mapped(8, 1.0, 2.0))


def test_rules_are_immutable():
    rule = gauss_hermite(8)
    with pytest.raises(ValueError):
        rule.nodes[0] = 1.0
    with pytest.raises((AttributeError, TypeError)):
        rule.order = 9


def test_rule_refuses_nodes_or_weights_not_of_its_order():
    rule = gauss_hermite(4)
    for nodes, weights in ((rule.nodes[:3], rule.weights), (rule.nodes, rule.weights[:3])):
        with pytest.raises(ValueError, match="must equal the rule order"):
            QuadratureRule(QuadKind.GAUSS_HERMITE, 4, nodes, weights)


def test_rules_are_memoized():
    rule = gauss_hermite(12)
    assert gauss_hermite(12) is rule
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
    mapped = gauss_legendre_mapped(32, 0.1, 8.0)
    assert gauss_legendre_mapped(32, 0.1, 8.0) is mapped
    assert not mapped.nodes.flags.writeable
    assert gauss_legendre_mapped(32, 0.1, 9.0) is not mapped
