"""Character-theoretic oracle, independent of the chain model.

Dimensions come from the Weyl product formula, weight multiplicities from
the Freudenthal recursion, and tensor products from signed reflection of
shifted weights into the dominant chamber (Brauer-Klimyk).  Everything is
exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import InvariantViolation
from .pathmodel import TensorDecomposition
from .rootsys import RootSystem, Weight, dominant_weight, weyl_orbit

__all__ = [
    "weyl_dim",
    "WeightMultiplicityTable",
    "weight_multiplicities",
    "tensor_decompose_oracle",
]

_DIM_CACHE: dict[tuple[str, Weight], int] = {}
_TABLE_CACHE: dict[tuple[str, Weight], "WeightMultiplicityTable"] = {}


def weyl_dim(R: RootSystem, lam) -> int:
    """dim V(lam) = prod <lam+rho, a_v> / <rho, a_v> over positive roots."""
    lam = dominant_weight(R, lam)
    key = (R.label, lam)
    if key not in _DIM_CACHE:
        shifted = tuple(x + 1 for x in lam)
        num = 1
        den = 1
        for r in R.positive_roots:
            num *= sum(c * x for c, x in zip(r.coroot, shifted))
            den *= sum(r.coroot)
        q = Q(num, den)
        if q.denominator != 1:
            raise InvariantViolation(f"non-integral Weyl dimension for {lam} in {R.label}")
        _DIM_CACHE[key] = int(q)
    return _DIM_CACHE[key]


@dataclass
class WeightMultiplicityTable:
    """Weights of V(highest) with positive multiplicities, W-invariantly filled."""

    highest: Weight
    entries: dict[Weight, int]

    def multiplicity(self, w) -> int:
        return self.entries.get(tuple(w), 0)


def _root_coords(R: RootSystem, w) -> tuple[Q, ...] | None:
    """Coefficients of w over the simple roots, or None if not in the span basis."""
    # fundamental coords f relate to root coords n by f = n * cartan
    return tuple(
        sum(Q(w[k]) * R.cartan_inv[k][j] for k in range(R.rank)) for j in range(R.rank)
    )


def _in_weight_cone(R: RootSystem, lam: Weight, w: Weight) -> bool:
    diff = tuple(a - b for a, b in zip(lam, w))
    coords = _root_coords(R, diff)
    return all(c.denominator == 1 and c >= 0 for c in coords)


def _weight_support(R: RootSystem, lam: Weight) -> set[Weight]:
    """All weights of V(lam): orbit-closure below lam through simple lowerings."""
    support = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(R.rank):
                child = tuple(x - a for x, a in zip(w, R.positive_roots[i].fund))
                if child not in support and _in_weight_cone(R, lam, R.dominant_rep(child)):
                    support.add(child)
                    nxt.append(child)
        frontier = nxt
    return support


def weight_multiplicities(R: RootSystem, lam) -> WeightMultiplicityTable:
    """Freudenthal recursion, extended over each Weyl orbit."""
    lam = dominant_weight(R, lam)
    key = (R.label, lam)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached

    support = _weight_support(R, lam)
    dominants = sorted(
        (w for w in support if R.is_dominant(w)),
        key=lambda w: (sum(_root_coords(R, tuple(a - b for a, b in zip(lam, w)))), w),
    )
    rho = R.weyl_vector
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    norm_top = R.inner(lam_rho, lam_rho)
    mults: dict[Weight, int] = {}
    for nu in dominants:
        if nu == lam:
            mults[nu] = 1
            continue
        total = Q(0)
        for r in R.positive_roots:
            k = 1
            while True:
                w = tuple(x + k * a for x, a in zip(nu, r.fund))
                if w not in support:
                    break
                total += mults[R.dominant_rep(w)] * R.inner(w, r.fund)
                k += 1
        nu_rho = tuple(a + b for a, b in zip(nu, rho))
        denom = norm_top - R.inner(nu_rho, nu_rho)
        value = 2 * total / denom
        if value.denominator != 1 or value <= 0:
            raise InvariantViolation(f"Freudenthal failure at {nu} in V({lam}), {R.label}")
        mults[nu] = int(value)

    entries: dict[Weight, int] = {}
    for nu, m in mults.items():
        for w in weyl_orbit(R, nu):
            entries[w] = m
    table = WeightMultiplicityTable(lam, entries)
    if sum(entries.values()) != weyl_dim(R, lam):
        raise InvariantViolation(f"multiplicity table of {lam} in {R.label} misses dimension")
    _TABLE_CACHE[key] = table
    return table


def _fold_with_sign(R: RootSystem, v: Weight) -> tuple[int, Weight | None]:
    """Reflect v to the dominant chamber tracking the sign; None on a wall."""
    sign = 1
    v = tuple(v)
    while True:
        if any(x == 0 for x in v):
            return 0, None
        i = next((k for k, x in enumerate(v) if x < 0), None)
        if i is None:
            return sign, v
        v = R.reflect_root(v, i)
        sign = -sign


def tensor_decompose_oracle(R: RootSystem, mu, nu) -> TensorDecomposition:
    """Signed-reflection tensor decomposition of V(mu) (x) V(nu).

    Iterates over the weight table of the smaller factor; wall terms vanish
    and every surviving shifted weight folds to a unique component.
    """
    mu = dominant_weight(R, mu, "first factor")
    nu = dominant_weight(R, nu, "second factor")
    small, big = (mu, nu) if weyl_dim(R, mu) <= weyl_dim(R, nu) else (nu, mu)
    table = weight_multiplicities(R, small)
    rho = R.weyl_vector
    comps: dict[Weight, int] = {}
    for eta, m in table.entries.items():
        shifted = tuple(b + e + r for b, e, r in zip(big, eta, rho))
        sign, folded = _fold_with_sign(R, shifted)
        if sign:
            lam = tuple(f - r for f, r in zip(folded, rho))
            comps[lam] = comps.get(lam, 0) + sign * m
    comps = {k: v for k, v in sorted(comps.items()) if v != 0}
    if any(v < 0 for v in comps.values()):
        raise InvariantViolation(f"negative oracle multiplicity for {mu} (x) {nu} in {R.label}")
    return TensorDecomposition(mu, nu, comps)
