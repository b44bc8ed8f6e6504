"""Character-theoretic oracle, independent of the chain model.

Dimensions come from the Weyl product formula (`rootsys.weyl_dim`, which
the chain engine shares to pick its chain shape), weight multiplicities from
the Freudenthal recursion, and tensor products from signed reflection of
shifted weights into the dominant chamber (Brauer-Klimyk).  Everything is
exact integer arithmetic: Freudenthal runs over the dominant weights only,
with the W-invariant form written through root lengths and pairings.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import InvariantViolation
from .pathmodel import TensorDecomposition
from .rootsys import RootSystem, Weight, dominant_weight, memo, weyl_dim, weyl_orbit

__all__ = [
    "weyl_dim",
    "WeightMultiplicityTable",
    "weight_multiplicities",
    "tensor_decompose_oracle",
]


@dataclass
class WeightMultiplicityTable:
    """Weights of V(highest) with positive multiplicities, W-invariantly filled."""

    highest: Weight
    entries: dict[Weight, int]

    def multiplicity(self, w) -> int:
        return self.entries.get(tuple(w), 0)


def _dominant_weights(R: RootSystem, lam: Weight) -> list[tuple[Weight, Weight]]:
    """Each dominant weight mu of V(lam) with its depth n: lam - mu = sum n_i alpha_i.

    Every dominant mu below lam in the dominance order is reached from lam by
    positive-root steps through dominant weights (Stembridge 1998).  Sorted by
    (sum(n), mu), so each mu comes after every dominant weight above it.
    """
    depth = {lam: (0,) * R.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for r in R.positive_roots:
                child = tuple(x - a for x, a in zip(mu, r.fund))
                if child not in depth and R.is_dominant(child):
                    depth[child] = tuple(k + c for k, c in zip(depth[mu], r.coeffs))
                    nxt.append(child)
        frontier = nxt
    return sorted(depth.items(), key=lambda item: (sum(item[1]), item[0]))


def weight_multiplicities(R: RootSystem, lam) -> WeightMultiplicityTable:
    """Freudenthal recursion, extended over each Weyl orbit."""
    return _weight_multiplicities(R, dominant_weight(R, lam))


@memo
def _weight_multiplicities(R: RootSystem, lam: Weight) -> WeightMultiplicityTable:
    entries = dict.fromkeys(weyl_orbit(R, lam), 1)
    for nu, n in _dominant_weights(R, lam)[1:]:
        total = 0
        for r in R.positive_roots:
            w = tuple(x + a for x, a in zip(nu, r.fund))
            # the rep of w lies strictly above nu, so w is filled iff it is a weight
            while (m := entries.get(w)) is not None:
                total += m * r.d * R.pairing_root(w, r.index)
                w = tuple(x + a for x, a in zip(w, r.fund))
        # |lam+rho|^2 - |nu+rho|^2 = (lam - nu, lam + nu + 2 rho)
        denom = sum(k * d * (a + b + 2) for k, d, a, b in zip(n, R.simple_d, lam, nu))
        value, rem = divmod(2 * total, denom)
        if rem or value <= 0:
            raise InvariantViolation(f"Freudenthal failure at {nu} in V({lam}), {R.label}")
        entries.update(dict.fromkeys(weyl_orbit(R, nu), value))
    table = WeightMultiplicityTable(lam, entries)
    if sum(entries.values()) != weyl_dim(R, lam):
        raise InvariantViolation(f"multiplicity table of {lam} in {R.label} misses dimension")
    return table


def _fold_with_sign(R: RootSystem, v: Weight) -> tuple[int, Weight | None]:
    """Reflect v to the dominant chamber with its sign (-1)^l(w); (0, None) on a wall."""
    sign = 1
    while 0 not in v:
        i = v.index(min(v))  # a negative v[i] lowers the length by one
        if v[i] > 0:
            return sign, v
        v = R.reflect_root(v, i)
        sign = -sign
    return 0, None


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
    shift = tuple(map(add, big, rho))
    comps: dict[Weight, int] = {}
    for eta, m in table.entries.items():
        sign, folded = _fold_with_sign(R, tuple(map(add, shift, eta)))
        if sign:
            lam = tuple(map(sub, folded, rho))
            comps[lam] = comps.get(lam, 0) + sign * m
    comps = {k: v for k, v in sorted(comps.items()) if v != 0}
    if any(v < 0 for v in comps.values()):
        raise InvariantViolation(f"negative oracle multiplicity for {mu} (x) {nu} in {R.label}")
    return TensorDecomposition(mu, nu, comps)
