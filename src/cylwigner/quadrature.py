"""Gaussian quadrature rules shared by every integration in the package.

Nodes and weights are generated by the Golub-Welsch eigenvalue method from
the Jacobi matrix of the orthogonal-polynomial family, so arbitrary orders
are available without tabulation.  Rules are immutable, so each is built
once per argument tuple and then shared.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import sqrt, pi

import numpy as np
from scipy.linalg import eigh_tridiagonal

MAX_ORDER = 200


class QuadKind(Enum):
    GAUSS_HERMITE = "gauss-hermite"
    GAUSS_LEGENDRE_MAPPED = "gauss-legendre-mapped"


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight table.

    For ``GAUSS_HERMITE`` the rule integrates f(t) e^{-t^2} over the real
    line; for ``GAUSS_LEGENDRE_MAPPED`` it integrates f(r) over the interval
    ``map_params = (r_min, r_max)``.
    """

    kind: QuadKind
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    map_params: tuple | None = None

    def __post_init__(self):
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise ValueError("node/weight length must equal the rule order")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=128)
def gauss_hermite(order):
    """Gauss-Hermite rule for weight e^{-t^2} with exactly symmetric nodes."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if order == 1:
        return QuadratureRule(QuadKind.GAUSS_HERMITE, 1,
                              np.array([0.0]), np.array([sqrt(pi)]))
    k = np.arange(1, order)
    nodes, vecs = eigh_tridiagonal(np.zeros(order), np.sqrt(k / 2.0))
    weights = sqrt(pi) * vecs[0] ** 2
    # enforce the +/- pairing exactly; realness checks downstream rely on it
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(QuadKind.GAUSS_HERMITE, order, nodes, weights)


@lru_cache(maxsize=128)
def gauss_legendre_mapped(order, r_min, r_max):
    """Gauss-Legendre rule mapped affinely onto [r_min, r_max], r_min > 0.

    The strictly positive lower edge is deliberate: every radial integral in
    this package excludes r = 0, where the cylindrical change of variables
    is singular.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if order == 1:
        x = np.array([0.0])
        w = np.array([2.0])
    else:
        k = np.arange(1, order)
        x, vecs = eigh_tridiagonal(np.zeros(order), k / np.sqrt(4.0 * k ** 2 - 1.0))
        w = 2.0 * vecs[0] ** 2
    half = 0.5 * (r_max - r_min)
    nodes = r_min + half * (x + 1.0)
    weights = half * w
    return QuadratureRule(QuadKind.GAUSS_LEGENDRE_MAPPED, order, nodes, weights,
                          map_params=(r_min, r_max))


def deweighted(rule):
    """Weights with the Gaussian factor removed: w_k * e^{t_k^2}.

    Turns a Gauss-Hermite rule into a plain integrator over the real line
    for integrands that already carry their own Gaussian decay.
    """
    if rule.kind is not QuadKind.GAUSS_HERMITE:
        raise ValueError("deweighting applies to Gauss-Hermite rules only")
    return rule.weights * np.exp(rule.nodes ** 2)
