"""Gaussian quadrature rules shared by every integration in the package.

Nodes and weights come from numpy's ``hermgauss`` and ``leggauss``: exactly
symmetric rules of any order, whose weights keep full relative accuracy out
to the tiny outer nodes.  Rules are immutable, so each is built once per
argument tuple and then shared.  A rule compares and hashes by identity,
so it can key a cache, as it does for :func:`deweighted`.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

MAX_ORDER = 200


class QuadKind(Enum):
    GAUSS_HERMITE = "gauss-hermite"
    GAUSS_LEGENDRE_MAPPED = "gauss-legendre-mapped"


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Immutable node/weight table.

    For ``GAUSS_HERMITE`` the rule integrates f(t) e^{-t^2} over the real
    line; for ``GAUSS_LEGENDRE_MAPPED`` it integrates f(r) over the interval
    it was mapped onto.
    """

    kind: QuadKind
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise ValueError("node/weight length must equal the rule order")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=128)
def gauss_hermite(order):
    """Gauss-Hermite rule for weight e^{-t^2} with exactly symmetric nodes
    (the realness checks downstream rely on the +/- pairing)."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    nodes, weights = hermgauss(order)
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
    x, w = leggauss(order)
    half = 0.5 * (r_max - r_min)
    nodes = r_min + half * (x + 1.0)
    weights = half * w
    return QuadratureRule(QuadKind.GAUSS_LEGENDRE_MAPPED, order, nodes, weights)


@lru_cache(maxsize=128)
def deweighted(rule):
    """Weights with the Gaussian factor removed: w_k * e^{t_k^2}, read-only and
    computed once per rule.

    Turns a Gauss-Hermite rule into a plain integrator over the real line
    for integrands that already carry their own Gaussian decay.
    """
    if rule.kind is not QuadKind.GAUSS_HERMITE:
        raise ValueError("deweighting applies to Gauss-Hermite rules only")
    weights = rule.weights * np.exp(rule.nodes ** 2)
    weights.setflags(write=False)
    return weights
