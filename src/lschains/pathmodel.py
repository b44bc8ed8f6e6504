"""Lakshmibai-Seshadri chains and the chain-counting tensor decomposition.

A chain of shape mu is a strictly increasing sequence mu_0 < mu_1 < ... <
mu_l in the orbit Bruhat order together with rational cuts 0 < b_1 < ... <
b_l < 1, where each consecutive pair is comparable in the b_t-Bruhat order
(the suborder generated by covers whose pairing m satisfies b_t * m in Z).
Setting b_0 = 0 and b_{l+1} = 1, the partial sums

    delta_t = sum_{j<=t} (b_j - b_{j-1}) * mu_{j-1}

give the endpoint omega = delta_{l+1} and the depth, whose i-th fundamental
coordinate is min_t of the i-th coordinate of delta_t.  Both are integral;
non-integrality raises InvariantViolation.

Every admissible cut b, written in lowest terms a/d, must have d dividing
the pairing of each cover on some saturated chain, so d never exceeds the
maximum cover pairing D of the orbit poset.  Enumeration therefore draws
cuts from the Farey fractions of order D and is complete.  It runs on ints
only: a cut is its index k in the sorted Farey table, whose entries hold
the cut scaled by L = lcm(2..D) and its denominator; the scaled partial
sums L * delta_t give each chain's endpoint and depth, integrality is a
divisibility test by L, and each shape caches one packed tuple of
(endpoint, depth) pairs for the counting rule.  LSChain objects, with
Fraction cuts, are built from the cached enumeration only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .errors import InputError, InvariantViolation
from .rootsys import (
    OrbitPoset,
    RationalWeight,
    RootSystem,
    Weight,
    dominant_weight,
    weyl_orbit_poset,
)

__all__ = [
    "LSChain",
    "TensorDecomposition",
    "b_order_leq",
    "enumerate_ls_chains",
    "delta_sequence",
    "chain_endpoint",
    "chain_depth",
    "tensor_multiplicity",
    "tensor_decompose",
    "chain_record",
]


@dataclass(frozen=True)
class LSChain:
    """One chain: steps mu_0 < ... < mu_l with interior cuts b_1 < ... < b_l."""

    shape: Weight
    steps: tuple[Weight, ...]
    cuts: tuple[Q, ...]

    def __post_init__(self):
        if len(self.cuts) != len(self.steps) - 1:
            raise InputError("cut count must be one less than step count")


def b_order_leq(P: OrbitPoset, x: Weight, y: Weight, b) -> bool:
    """True iff x < y in the b-Bruhat order on the orbit poset P.

    Equivalently: a saturated Bruhat chain from x up to y exists whose every
    cover pairing m satisfies b*m in Z.  b = 1 is plain Bruhat comparability.
    """
    b = Q(b)
    if b <= 0 or b > 1:
        raise InputError(f"b must lie in (0, 1], got {b}")
    xi = P.index.get(tuple(x))
    yi = P.index.get(tuple(y))
    if xi is None or yi is None:
        raise InputError("both weights must lie in the orbit")
    return bool((P.down_mask(b.denominator)[yi] >> xi) & 1)


def _farey(maxden: int) -> tuple[int, list[tuple[int, int]]]:
    """L = lcm(2..maxden) and the sorted Farey cuts in (0, 1) as (L * b, denominator)."""
    L = lcm(*range(1, maxden + 1))
    return L, sorted((L // d * a, d) for d in range(2, maxden + 1)
                     for a in range(1, d) if gcd(a, d) == 1)


class _ChainTable(NamedTuple):
    """Every chain of one shape, in ints: a cut is an index into `cuts`."""

    poset: OrbitPoset
    scale: int  # L = lcm(2..D)
    cuts: list[int]  # L * b for the sorted Farey cuts, then L * 1
    chains: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (step indices, cut indices)
    packed: tuple[tuple[Weight, Weight], ...]  # (endpoint, depth) per chain


_CHAIN_CACHE: dict[tuple[str, Weight], _ChainTable] = {}


def _chain_table(R: RootSystem, mu: Weight) -> _ChainTable:
    """The chains of shape mu in canonical (steps, cuts) order.

    Works downward: every orbit element is a valid top step mu_l, and each
    recursion prepends a lower first step y <_b x = mu_0 with a cut c below
    the current first cut.  That moves every L * delta_t with t >= 1 by
    c * (y - x) and adds L * delta_1 = c * y, so each chain carries its
    scaled endpoint and the minimum of its scaled delta_t over t >= 1.
    """
    key = (R.label, mu)
    table = _CHAIN_CACHE.get(key)
    if table is not None:
        return table
    P = weyl_orbit_poset(R, mu)
    L, farey = _farey(P.max_pairing)
    cuts = [c for c, _ in farey] + [L]
    masks = [P.down_mask(d) for _, d in farey]
    below = [[(k, m[x]) for k, m in enumerate(masks) if m[x]] for x in range(len(P))]
    elements = P.elements
    found = []

    def extend(x: int, bound: int, steps: tuple, ks: tuple, end: Weight, low: Weight):
        found.append((steps, ks, end, low))
        for k, mask in below[x]:
            if k >= bound:
                break
            c = cuts[k]
            while mask:
                bit = mask & -mask
                y = bit.bit_length() - 1
                mask ^= bit
                shift = tuple(c * (a - b) for a, b in zip(elements[y], elements[x]))
                extend(y, k, (y,) + steps, (k,) + ks, tuple(map(add, end, shift)),
                       tuple(map(min, map(add, low, shift), (c * a for a in elements[y]))))

    for top, w in enumerate(elements):
        end = tuple(L * a for a in w)
        extend(top, len(farey), (top,), (), end, end)
    found.sort()
    packed = []
    for steps, ks, end, low in found:
        depth = tuple(min(0, m) for m in low)
        if any(x % L for x in end + depth):
            raise InvariantViolation(f"chain {steps}, {ks} of {mu} is not integral")
        packed.append((tuple(x // L for x in end), tuple(x // L for x in depth)))
    chains = tuple((steps, ks) for steps, ks, _, _ in found)
    table = _CHAIN_CACHE[key] = _ChainTable(P, L, cuts, chains, tuple(packed))
    return table


def enumerate_ls_chains(R: RootSystem, mu) -> tuple[LSChain, ...]:
    """All LS chains of shape mu, in canonical (steps, cuts) order."""
    mu = dominant_weight(R, mu)
    P, L, cuts, chains, _ = _chain_table(R, mu)
    return tuple(
        LSChain(mu, tuple(P.elements[i] for i in steps), tuple(Q(cuts[k], L) for k in ks))
        for steps, ks in chains
    )


def delta_sequence(chain: LSChain) -> tuple[RationalWeight, ...]:
    """Partial-sum weights delta_0 = 0, ..., delta_{l+1} = endpoint."""
    rank = len(chain.shape)
    out = [(Q(0),) * rank]
    prev_cut = Q(0)
    for step, cut in zip(chain.steps, chain.cuts + (Q(1),)):
        width = cut - prev_cut
        out.append(tuple(d + width * s for d, s in zip(out[-1], step)))
        prev_cut = cut
    return tuple(out)


def _integral(w: RationalWeight, what: str) -> Weight:
    if any(x.denominator != 1 for x in w):
        raise InvariantViolation(f"{what} {w} is not an integral weight")
    return tuple(int(x) for x in w)


def chain_endpoint(chain: LSChain) -> Weight:
    """omega(C) = delta_{l+1}, always integral."""
    return _integral(delta_sequence(chain)[-1], "chain endpoint")


def chain_depth(chain: LSChain) -> Weight:
    """Coordinatewise minimum of the delta sequence; integral by theory."""
    deltas = delta_sequence(chain)
    mins = tuple(min(d[i] for d in deltas) for i in range(len(chain.shape)))
    return _integral(mins, "chain depth")


_DECOMP_CACHE: dict[tuple[str, Weight, Weight], dict[Weight, int]] = {}


def _decompose_components(R: RootSystem, mu: Weight, nu: Weight) -> dict[Weight, int]:
    key = (R.label, mu, nu)
    comps = _DECOMP_CACHE.get(key)
    if comps is None:
        comps = {}
        for end, depth in _chain_table(R, mu).packed:
            if all(n + d >= 0 for n, d in zip(nu, depth)):
                lam = tuple(n + w for n, w in zip(nu, end))
                comps[lam] = comps.get(lam, 0) + 1
        _DECOMP_CACHE[key] = comps
    return comps


@dataclass
class TensorDecomposition:
    """Multiset of irreducible components of V(left) (x) V(right)."""

    left: Weight
    right: Weight
    components: dict[Weight, int]

    def multiplicity(self, lam: Weight) -> int:
        return self.components.get(tuple(lam), 0)


def tensor_multiplicity(R: RootSystem, lam, mu, nu) -> int:
    """Chains C of shape mu with nu + depth(C) dominant and nu + omega(C) = lam."""
    lam = dominant_weight(R, lam, "target weight")
    mu = dominant_weight(R, mu, "shape weight")
    nu = dominant_weight(R, nu, "second factor")
    return _decompose_components(R, mu, nu).get(lam, 0)


def tensor_decompose(R: RootSystem, mu, nu) -> TensorDecomposition:
    """Full decomposition of V(mu) (x) V(nu) by the chain-counting rule."""
    mu = dominant_weight(R, mu, "shape weight")
    nu = dominant_weight(R, nu, "second factor")
    comps = _decompose_components(R, mu, nu)
    return TensorDecomposition(mu, nu, dict(sorted(comps.items())))


def chain_record(chain: LSChain) -> dict:
    """JSON-ready record for one chain."""
    return {
        "shape": list(chain.shape),
        "steps": [list(s) for s in chain.steps],
        "cuts": [str(b) for b in chain.cuts],
        "omega": list(chain_endpoint(chain)),
        "delta": list(chain_depth(chain)),
    }
