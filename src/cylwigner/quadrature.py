"""Gaussian quadrature rules shared by every integration in the package.

Gauss-Hermite rules run numpy's ``hermgauss`` algorithm step for step, so bit for bit,
without importing ``numpy.polynomial``; mapped Gauss-Legendre rules, which no export
needs, import numpy's ``leggauss`` on first use.  Both are exactly symmetric rules of
any order, whose weights keep full relative accuracy out to the tiny outer nodes.
Rules are immutable, so each is built once per argument tuple and then shared.  A
rule compares and hashes by identity, so it can key a cache, as for :func:`deweighted`.
"""

from enum import Enum
from functools import lru_cache
from math import inf, pi, sqrt

import numpy as np

from ._record import Record, read_only

MAX_ORDER = 200


class QuadKind(Enum):
    GAUSS_HERMITE = "gauss-hermite"
    GAUSS_LEGENDRE_MAPPED = "gauss-legendre-mapped"


class QuadratureRule(Record):
    """Immutable node/weight table.

    For ``GAUSS_HERMITE`` the rule integrates f(t) e^{-t^2} over the real
    line; for ``GAUSS_LEGENDRE_MAPPED`` it integrates f(r) over the interval
    it was mapped onto.
    """

    _fields = ("kind", "order", "nodes", "weights")

    def __init__(self, kind, order, nodes, weights):
        if len(nodes) != order or len(weights) != order:
            raise ValueError("node/weight length must equal the rule order")
        self._store(kind, order, *read_only(nodes, weights))


def _normed_hermite(x, n):
    """The normalised Hermite function of degree n at x, by numpy's recurrence."""
    c0, c1 = 0.0, 1.0 / sqrt(sqrt(pi))
    if n == 0:
        return np.full(x.shape, c1)
    for nd in range(n, 1, -1):
        c0, c1 = -c1 * sqrt((nd - 1.0) / nd), c0 + c1 * x * sqrt(2.0 / nd)
    return c0 + c1 * x * sqrt(2.0)


def _hermgauss(n):
    """numpy's ``hermgauss(n)``, bit for bit, without importing ``numpy.polynomial``."""
    x = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, n)), -1))
    x -= _normed_hermite(x, n) / (_normed_hermite(x, n - 1) * sqrt(2 * n))
    fm = _normed_hermite(x, n - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    w *= sqrt(pi) / w.sum()
    return (x - x[::-1]) / 2, w


@lru_cache(maxsize=128)
def gauss_hermite(order):
    """Gauss-Hermite rule for weight e^{-t^2} with exactly symmetric nodes
    (the realness checks downstream rely on the +/- pairing)."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    nodes, weights = _hermgauss(order)
    return QuadratureRule(QuadKind.GAUSS_HERMITE, order, nodes, weights)


@lru_cache(maxsize=128)
def gauss_legendre_mapped(order, r_min, r_max):
    """Gauss-Legendre rule mapped affinely onto a finite [r_min, r_max], r_min > 0.

    The strictly positive lower edge is deliberate: every radial integral in
    this package excludes r = 0, where the cylindrical change of variables
    is singular.  An infinite edge would make every node and weight inf.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if not 0 < r_min < r_max < inf:  # a nan edge fails the comparison too
        raise ValueError(f"need finite 0 < r_min < r_max, got ({r_min}, {r_max})")
    from numpy.polynomial.legendre import leggauss  # noqa: PLC0415 - only here
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
    return read_only(rule.weights * np.exp(rule.nodes ** 2))[0]
