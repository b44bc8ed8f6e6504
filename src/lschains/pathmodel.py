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

A cut a/d in lowest terms is in a b-order only if d divides the pairing m >= 2 of
a cover, so the cuts of a shape are those a/d, for the pairings that occur.
Enumeration runs on ints and walks upward: from the lowest step mu_0, each next
step comes from the up lists (the transposes of OrbitPoset.down_mask) with a cut
above the last one.  A cut is held as L * b, L the lcm of those pairings, so
L * delta_t is a running prefix sum and integrality a divisibility test by L.  The
tensor rule walks the factor of smaller dimension as the shape mu, and counts
chains with nu + delta_t dominant at every cut, nu the other factor: the walk
starts from L * nu and drops a prefix once a coordinate goes negative, so its cost
follows the multiplicities, not dim V(mu).  Full enumeration is the same walk
under a floor no partial sum reaches.  LSChain objects are built only on request.

One multiplicity needs only the chains that end at lam - nu.  The same walk,
given that endpoint as its goal, also drops a prefix once the rest of the
chain cannot reach it: from a step x the rest adds a convex combination of x
and what x climbs to, bounded on every coroot by a per-shape reach table built
from the orbit poset's own table of pairings.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import islice
from math import gcd, lcm
from operator import add, floordiv, ge, itemgetter, mod, sub
from typing import NamedTuple

from .errors import InputError, InvariantViolation
from .rootsys import (OrbitPoset, RationalWeight, RootSystem, Weight, by_weyl_dim, dominant_weight,
                      memo, weyl_orbit_poset)

__all__ = [
    "LSChain", "TensorDecomposition", "b_order_leq", "enumerate_ls_chains", "delta_sequence",
    "chain_endpoint", "chain_depth", "chain_weights", "tensor_multiplicity", "tensor_decompose",
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
    xi, yi = P.index.get(tuple(x)), P.index.get(tuple(y))
    if xi is None or yi is None:
        raise InputError("both weights must lie in the orbit")
    return bool((P.down_mask(b.denominator)[yi] >> xi) & 1)


def _cuts(P: OrbitPoset) -> tuple[int, list[tuple[int, int]]]:
    """L = lcm of cover pairings m >= 2, and the sorted cuts a/d, d | some m, as (L * a/d, d)."""
    ms = {c.m for c in P.covers if c.m >= 2}
    L = lcm(*ms)
    dens = {d for m in ms for d in range(2, m + 1) if m % d == 0}
    return L, sorted((L // d * a, d) for d in dens for a in range(1, d) if gcd(a, d) == 1)


class _Walker(NamedTuple):
    """One shape in ints: a step is an orbit index, a cut b its scaled int L * b."""

    poset: OrbitPoset
    scale: int  # L, the lcm of the cover pairings m >= 2
    up: list[list[tuple[int, list[int]]]]  # per step x, by increasing cut: (L * b, steps y >_b x)


@memo
def _walker(R: RootSystem, mu: Weight) -> _Walker:
    """mu's orbit poset with its up lists, the transposes of its down masks."""
    P = weyl_orbit_poset(R, mu)
    L, cuts = _cuts(P)
    above = {d: [[] for _ in P.elements] for _, d in cuts}
    for d, ups in above.items():
        for y, mask in enumerate(P.down_mask(d)):
            while mask:
                ups[(mask & -mask).bit_length() - 1].append(y)
                mask &= mask - 1
    up = [[(c, above[d][x]) for c, d in cuts if above[d][x]] for x in range(len(P))]
    return _Walker(P, L, up)


@memo
def _reach(R: RootSystem, mu: Weight) -> tuple[tuple[Weight, ...], list[tuple[Weight, Weight]]]:
    """The pairings of each step of mu's walk with the positive coroots, and their reach.

    pairings is the poset's own table: pairings[x] is <x, alpha_v> over the
    positive roots, simple ones first, so it starts with x itself.  reach[x] is
    the (min, max) of each pairing over x and every step a chain can climb to
    from x.  A chain climbs only through b-orders with b in (0, 1), whose covers
    all have m >= 2, so that set is the closure of those covers.  The covers
    are sorted by their lower element, which comes after its upper one, so one
    pass meets every upper element finished.  Only walks aimed at an endpoint
    read this, so it is built apart from _walker, on the first of them.
    """
    P = _walker(R, mu).poset
    lo, hi = list(P.pairings), list(P.pairings)
    for c in P.covers:
        if c.m >= 2:
            lo[c.lower] = tuple(map(min, lo[c.lower], lo[c.upper]))
            hi[c.lower] = tuple(map(max, hi[c.lower], hi[c.upper]))
    return P.pairings, list(zip(lo, hi))


def _walk(W: _Walker, nu: Weight, goal: Weight | None = None, out=None):
    """(step indices, scaled cuts, endpoint, depth) of each chain with nu + depth dominant.

    Each chain completed goes to out.append, in walk order, and out is
    returned; without a sink out is a new list.  A sink that keeps only some
    chains bounds what the walk holds by what its caller keeps.

    L * (nu + delta_t) is linear in the cut c ending the step: once outside the
    cone it stays out at every later cut, and once the endpoint is inside, every
    cut is.  Each chain completed has its endpoint and depth checked integral.

    With a goal, only the chains ending at it are kept.  The rest of a chain
    entered at step x with L * delta = s at cut c0 adds (L - c0) times a convex
    combination of x and the steps above it, so a prefix whose L * goal - s
    pairs with some coroot outside (L - c0) * [lo, hi] of x's reach is dropped.
    The walk then runs on the pairings with every positive coroot, whose first
    rank entries are the fundamental coordinates.
    """
    P, L, up = W
    n = len(nu)
    vecs, target = P.elements, None
    if goal is not None:
        vecs, reach = _reach(P.system, P.base)
        target = tuple([L * m for m in P.system.pairings(goal)])
    floor = tuple(-L * a for a in nu)
    Ls, Ln = (L,) * (len(vecs[0]) + n), (L,) * n
    out = [] if out is None else out
    emit = out.append

    def walk(x: int, c0: int, steps: tuple, cs: tuple, s: tuple, low: tuple):
        # x starts at scaled cut c0 with L * delta = s (low: its running min)
        w = vecs[x]
        r = L - c0
        if target is not None:
            for t, b, a, h in zip(target, s, *reach[x]):
                if not r * a <= t - b <= r * h:
                    return
        end = tuple([a + r * b for a, b in zip(s, w)])
        inside = all(map(ge, end, floor))
        if inside:
            depth = tuple(map(min, low, end))
            if any(map(mod, end + depth, Ls)):
                raise InvariantViolation(f"chain {steps}, {cs} / {L} of {P.base} is not integral")
            if target is None or end == target:
                emit((steps, cs, tuple(map(floordiv, end, Ln)), tuple(map(floordiv, depth, Ln))))
        for c, ys in islice(up[x], bisect_right(up[x], c0, key=itemgetter(0)), None):
            dc = c - c0
            s2 = tuple([a + dc * b for a, b in zip(s, w)])
            if not inside and not all(map(ge, s2, floor)):
                break
            low2 = tuple(map(min, low, s2))
            for y in ys:
                walk(y, c, steps + (y,), cs + (c,), s2, low2)

    zero = (0,) * len(vecs[0])
    try:
        for x in range(len(vecs)):
            walk(x, 0, (x,), (), zero, zero[:n])
    finally:
        # walk refers to itself through its closure; the cycle would hold out
        # and every chain in it until the cyclic collector next runs
        walk = None
    return out


def _walk_all(W: _Walker, out=None):
    """_walk output for every chain of the shape, in canonical (steps, cuts) order.

    With a sink the chains go to out.append in walk order, unsorted.
    """
    # |delta_t| <= M in every coordinate, so the floor -L * M prunes nothing
    M = max(abs(a) for w in W.poset.elements for a in w)
    chains = _walk(W, (M,) * len(W.poset.base), out=out)
    if out is None:
        chains.sort()
    return chains


def _ls_chain(W: _Walker, steps: tuple, cs: tuple) -> LSChain:
    """The LSChain of one walked chain: orbit weights and Fraction cuts."""
    elements = W.poset.elements
    return LSChain(W.poset.base, tuple(elements[i] for i in steps),
                   tuple(Q(c, W.scale) for c in cs))


def enumerate_ls_chains(R: RootSystem, mu) -> tuple[LSChain, ...]:
    """All LS chains of shape mu, in canonical (steps, cuts) order."""
    W = _walker(R, dominant_weight(R, mu))
    return tuple(_ls_chain(W, steps, cs) for steps, cs, _, _ in _walk_all(W))


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


def _integral(scaled: Weight, L: int, what: str) -> Weight:
    """scaled / L, which must be integral."""
    if any(x % L for x in scaled):
        raise InvariantViolation(f"{what} {tuple(Q(x, L) for x in scaled)} is not an integral weight")
    return tuple(x // L for x in scaled)


def chain_endpoint(chain: LSChain) -> Weight:
    """omega(C) = delta_{l+1}, always integral."""
    return chain_weights(chain)[0]


def chain_depth(chain: LSChain) -> Weight:
    """Coordinatewise minimum of the delta sequence; integral by theory."""
    return chain_weights(chain)[1]


def chain_weights(chain: LSChain) -> tuple[Weight, Weight]:
    """(chain_endpoint, chain_depth): the delta sequence in ints, scaled by L.

    L is the lcm of the cut denominators, so every L * b and L * delta_t is an
    integer; the chain's weights are the endpoint and running minimum over L.
    """
    L = lcm(*(b.denominator for b in chain.cuts))
    delta = low = (0,) * len(chain.shape)
    prev = 0
    for step, cut in zip(chain.steps, [L // b.denominator * b.numerator for b in chain.cuts] + [L]):
        delta = tuple([d + (cut - prev) * s for d, s in zip(delta, step)])
        low = tuple(map(min, low, delta))
        prev = cut
    return _integral(delta, L, "chain endpoint"), _integral(low, L, "chain depth")


@memo
def _decompose_components(R: RootSystem, mu: Weight, nu: Weight) -> dict[Weight, int]:
    return Counter(tuple(map(add, nu, end)) for _, _, end, _ in _walk(_walker(R, mu), nu))


@dataclass
class TensorDecomposition:
    """Multiset of irreducible components of V(left) (x) V(right)."""

    left: Weight
    right: Weight
    components: dict[Weight, int]

    def multiplicity(self, lam: Weight) -> int:
        return self.components.get(tuple(lam), 0)


def tensor_multiplicity(R: RootSystem, lam, mu, nu) -> int:
    """Multiplicity of V(lam) in V(mu) (x) V(nu), by a walk aimed at one endpoint.

    It counts the chains of the shape that tensor_decompose walks with nu + depth
    dominant and endpoint lam - nu, nu the other factor; the walk drops every
    prefix that can no longer end there, so it visits few of the other chains.
    Only the chains this walk completes have their endpoint and depth checked
    integral; tensor_decompose checks every chain it counts.
    """
    lam = dominant_weight(R, lam, "target weight")
    mu = dominant_weight(R, mu, "first factor")
    nu = dominant_weight(R, nu, "second factor")
    shape, other = by_weyl_dim(R, (mu, nu))
    return len(_walk(_walker(R, shape), other, tuple(map(sub, lam, other))))


def tensor_decompose(R: RootSystem, mu, nu) -> TensorDecomposition:
    """Full decomposition of V(mu) (x) V(nu) by the chain-counting rule.

    The chain shape is the factor of smaller (weyl_dim, weight), so both
    orders walk the same chains; left and right keep the caller's order.
    """
    mu = dominant_weight(R, mu, "first factor")
    nu = dominant_weight(R, nu, "second factor")
    shape, other = by_weyl_dim(R, (mu, nu))
    return TensorDecomposition(mu, nu, dict(sorted(_decompose_components(R, shape, other).items())))
