"""Exact root-system data for the finite simple types.

Weights are tuples of coordinates in the fundamental-weight basis: integers
for `Weight`, Fractions for `RationalWeight`.  Ambient Bourbaki epsilon
coordinates appear only at the construction boundary (the simple-root tables)
and in the eps <-> fundamental converters for types B and C.

Root lengths (`Root.d`, `simple_d`) are normalized so short roots have squared
length 2.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from math import prod
from operator import mul
from typing import Iterable, NamedTuple

from .errors import InputError, InvariantViolation
from .ratmat import Mat, inverse, mat, matvec

Weight = tuple[int, ...]
RationalWeight = tuple[Q, ...]

__all__ = [
    "Weight",
    "RationalWeight",
    "Root",
    "RootSystem",
    "OrbitPoset",
    "Cover",
    "build_root_system",
    "pairing",
    "reflect",
    "weyl_orbit_poset",
    "weyl_dim",
    "integral_weight",
    "dominant_weight",
    "dual_weight",
    "weyl_orbit",
    "weyl_group_order",
    "weight_from_eps",
    "weight_to_eps",
]

_MEMO_STORES: list = []


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: None
    currsize: int


def memo(fn):
    """fn behind an unbounded dict, registered for clear_caches().

    `store` maps each positional argument tuple to its value.  A caller may
    read it, or fill it with values computed elsewhere (by a forked sweep
    worker); `cache_info()` and `cache_clear()` work as on functools.lru_cache.
    """
    store: dict = {}
    counts = [0, 0]  # hits, misses

    @functools.wraps(fn)
    def cached(*args):
        try:
            value = store[args]
        except KeyError:
            counts[1] += 1
            value = store[args] = fn(*args)
            return value
        counts[0] += 1
        return value

    def cache_clear() -> None:
        store.clear()
        counts[:] = [0, 0]

    cached.store = store
    cached.cache_info = lambda: CacheInfo(counts[0], counts[1], None, len(store))
    cached.cache_clear = cache_clear
    _MEMO_STORES.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo store, so the next call of any engine runs cold.

    The stores are the functions behind `memo`.  Root systems are identity
    singletons, not a memo, and stay.
    """
    for store in _MEMO_STORES:
        store.cache_clear()


_RANK_RANGE = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _simple_roots_ambient(series: str, rank: int) -> tuple[RationalWeight, ...]:
    """Bourbaki epsilon coordinates of the simple roots."""
    def e(i: int, dim: int, c=1) -> list[Q]:
        v = [Q(0)] * dim
        v[i] = Q(c)
        return v

    if series == "A":
        dim = rank + 1
        return tuple(tuple(Q(a) - Q(b) for a, b in zip(e(i, dim), e(i + 1, dim)))
                     for i in range(rank))
    if series in ("B", "C", "D"):
        dim = rank
        roots = [tuple(Q(x) - Q(y) for x, y in zip(e(i, dim), e(i + 1, dim)))
                 for i in range(rank - 1)]
        if series == "B":
            roots.append(tuple(e(rank - 1, dim)))
        elif series == "C":
            roots.append(tuple(e(rank - 1, dim, 2)))
        else:
            last = e(rank - 2, dim)
            last[rank - 1] = Q(1)
            roots.append(tuple(last))
        return tuple(roots)
    if series == "E":
        half = Q(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = (Q(1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0))
        rows = [a1, a2]
        for k in range(1, 7):
            v = [Q(0)] * 8
            v[k] = Q(1)
            v[k - 1] = Q(-1)
            rows.append(tuple(v))
        return tuple(rows[:rank])
    if series == "F":
        h = Q(1, 2)
        return (
            (Q(0), Q(1), Q(-1), Q(0)),
            (Q(0), Q(0), Q(1), Q(-1)),
            (Q(0), Q(0), Q(0), Q(1)),
            (h, -h, -h, -h),
        )
    if series == "G":
        return ((Q(1), Q(-1), Q(0)), (Q(-2), Q(1), Q(1)))
    raise InputError(f"unknown series {series!r}")


def _dot(x: Iterable[Q], y: Iterable[Q]) -> Q:
    return sum(a * b for a, b in zip(x, y))


class Cover(NamedTuple):
    """One cover relation lower < upper in an orbit poset."""

    lower: int
    upper: int
    root: int
    m: int


@dataclass(frozen=True)
class Root:
    """A positive root with every representation the rest of the code needs.

    coeffs: expansion over the simple roots (nonnegative integers).
    fund:   fundamental-weight coordinates.
    coroot: pairing vector p with <w, root_v> = sum p[i] * w[i].
    ambient: Bourbaki epsilon coordinates.
    d:      half squared length under the short-root-is-2 normalization.
    """

    index: int
    coeffs: Weight
    fund: Weight
    coroot: Weight
    ambient: RationalWeight
    d: int


def _positive_roots_from_cartan(cartan: tuple[tuple[int, ...], ...]) -> list[Weight]:
    """Closure of the simple roots under root strings, in simple-root coords."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known = set(simple)
    level = list(simple)
    out = list(simple)
    while level:
        nxt = []
        for beta in level:
            for i in range(rank):
                pair = sum(beta[k] * cartan[k][i] for k in range(rank))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in known:
                        break
                    p += 1
                if p - pair > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        nxt.sort()
        out.extend(nxt)
        level = nxt
    return out


class RootSystem:
    """Immutable container for one simple type; build via build_root_system."""

    def __init__(self, label: str, series: str, rank: int):
        self.label = label
        self.series = series
        self.rank = rank
        amb = _simple_roots_ambient(series, rank)
        self.ambient_dim = len(amb[0])
        self.simple_roots: tuple[RationalWeight, ...] = amb
        cartan = tuple(
            tuple(int(Q(2) * _dot(amb[i], amb[j]) / _dot(amb[j], amb[j])) for j in range(rank))
            for i in range(rank)
        )
        self.cartan = cartan
        # the Dynkin neighbours (j, a_ij) of each node i, which a simple reflection moves
        self._neighbours = tuple(tuple((j, a) for j, a in enumerate(row) if a and j != i)
                                 for i, row in enumerate(cartan))
        self.cartan_inv: Mat = inverse(mat(cartan))
        # normalize the form so the shortest root has squared length 2
        min_len = min(_dot(a, a) for a in amb)
        scale = Q(2) / min_len
        lengths = [scale * _dot(a, a) / 2 for a in amb]
        if any(d.denominator != 1 for d in lengths):
            raise InvariantViolation(f"non-integral root lengths for {label}")
        self.simple_d = tuple(int(d) for d in lengths)

        roots: list[Root] = []
        for idx, coeffs in enumerate(_positive_roots_from_cartan(cartan)):
            fund = tuple(sum(coeffs[i] * cartan[i][j] for i in range(rank)) for j in range(rank))
            ambient = tuple(
                sum(Q(coeffs[i]) * amb[i][k] for i in range(rank))
                for k in range(self.ambient_dim)
            )
            dsq = scale * _dot(ambient, ambient) / 2
            if dsq.denominator != 1:
                raise InvariantViolation(f"non-integral length for root {coeffs} in {label}")
            d = int(dsq)
            coroot = []
            for i in range(rank):
                p = Q(coeffs[i] * self.simple_d[i], d)
                if p.denominator != 1:
                    raise InvariantViolation(f"non-integral coroot pairing in {label}")
                coroot.append(int(p))
            roots.append(Root(idx, coeffs, fund, tuple(coroot), ambient, d))
        self.positive_roots: tuple[Root, ...] = tuple(roots)
        self.root_by_fund = {r.fund: r.index for r in roots}
        self.weyl_vector: Weight = (1,) * rank
        # columns: ambient coordinates of the fundamental weights
        self._amb_of_fund: Mat = tuple(
            tuple(
                sum(self.cartan_inv[i][k] * amb[k][row] for k in range(rank))
                for i in range(rank)
            )
            for row in range(self.ambient_dim)
        )
        # -w0 permutes the fundamental weights: dual(w)[j] = w[dual_index[j]]
        self.dual_index = tuple(
            self.dominant_rep(tuple(-int(i == j) for j in range(rank))).index(1)
            for i in range(rank)
        )

    def __repr__(self) -> str:
        return f"RootSystem({self.label})"

    # plain identity semantics; instances are memoized singletons per label

    def pairing_root(self, w, root_index: int):
        """<w, alpha_v> for the indexed positive root."""
        p = self.positive_roots[root_index].coroot
        return sum(c * x for c, x in zip(p, w))

    def pairings(self, w) -> Weight:
        """<w, alpha_v> over the positive roots, simple ones first, so it starts with w itself."""
        return tuple([sum(map(mul, r.coroot, w)) for r in self.positive_roots])

    def reflect_root(self, w, root_index: int):
        if root_index < self.rank:  # <w, alpha_i_v> = w[i]; alpha_i.fund is cartan row i
            m, v = w[root_index], list(w)
            v[root_index] = -m
            for j, a in self._neighbours[root_index]:
                v[j] -= m * a
            return tuple(v)
        r = self.positive_roots[root_index]
        m = self.pairing_root(w, root_index)
        return tuple(x - m * a for x, a in zip(w, r.fund))

    def is_dominant(self, w) -> bool:
        return all(x >= 0 for x in w)

    def dominant_rep(self, w):
        """The dominant Weyl-orbit representative of w."""
        v = tuple(w)
        while True:
            i = next((k for k, x in enumerate(v) if x < 0), None)
            if i is None:
                return v
            v = self.reflect_root(v, i)

    def to_ambient(self, w) -> RationalWeight:
        return matvec(self._amb_of_fund, w)

    def from_ambient(self, vec) -> RationalWeight:
        """Fundamental coordinates of an ambient vector in the root span."""
        out = []
        for a in self.simple_roots:
            out.append(Q(2) * _dot(vec, a) / _dot(a, a))
        return tuple(out)


_SYSTEMS: dict[str, RootSystem] = {}

_LABEL_RE = re.compile(r"^([A-Ga-g])[\s_]?(\d+)$")


def build_root_system(label: str) -> RootSystem:
    """Construct (memoized) the root system for a label like 'B2' or 'E7'."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise InputError(f"cannot parse root-system label {label!r}")
    series = m.group(1).upper()
    try:
        rank = int(m.group(2))
    except ValueError:  # past Python's limit on the digits of an int string
        digits = len(m.group(2))
        raise InputError(f"the rank of a {series} label has {digits} digits, too many to read") from None
    lo, hi = _RANK_RANGE[series]
    if rank < lo or (hi is not None and rank > hi):
        raise InputError(f"rank {rank} out of range for series {series}")
    # |Phi+| of A, B/C and D in closed form; past sys.maxsize no list holds the roots
    count = {"A": rank * (rank + 1) // 2, "D": rank * (rank - 1)}.get(series, rank * rank)
    if count > sys.maxsize:
        raise InputError(f"{series}{rank} has {count} positive roots, more than a list can hold")
    key = f"{series}{rank}"
    if key not in _SYSTEMS:
        _SYSTEMS[key] = RootSystem(key, series, rank)
    return _SYSTEMS[key]


def pairing(R: RootSystem, w, root_index: int):
    """<w, alpha_v> for the positive root with this index."""
    if not 0 <= root_index < len(R.positive_roots):
        raise InputError(f"root index {root_index} out of range for {R.label}")
    return R.pairing_root(w, root_index)


def reflect(R: RootSystem, w, root_index: int):
    """Reflection of w in the hyperplane of the indexed positive root."""
    if not 0 <= root_index < len(R.positive_roots):
        raise InputError(f"root index {root_index} out of range for {R.label}")
    return R.reflect_root(w, root_index)


def integral_weight(R: RootSystem, w, name: str = "weight") -> Weight:
    """w as a tuple if it is a weight of R with int entries; else InputError."""
    w = tuple(w)
    if len(w) != R.rank or not all(isinstance(x, int) for x in w):
        raise InputError(f"{name} {w} is not an integral weight of rank {R.rank}")
    return w


def dominant_weight(R: RootSystem, w, name: str = "weight") -> Weight:
    """w as a tuple if it is a dominant weight of R with int entries; else InputError."""
    w = integral_weight(R, w, name)
    if not R.is_dominant(w):
        raise InputError(f"{name} {w} is not dominant")
    return w


def dual_weight(R: RootSystem, w: Weight) -> Weight:
    """Highest weight of the dual representation: dominant rep of -w."""
    w = dominant_weight(R, w)
    return tuple(w[i] for i in R.dual_index)


def _orbit(R: RootSystem, base: Weight) -> list[list[Weight]]:
    """Weyl orbit of a dominant weight as BFS levels from base, each level sorted.

    The level of w is its length l(w) = #{alpha > 0 : <w, alpha_v> < 0}: a
    simple reflection with w[i] > 0 adds exactly one such root.  The last
    level is empty.
    """
    levels = [[base]]
    seen = {base}
    while levels[-1]:
        nxt = set()
        for w in levels[-1]:
            for i in range(R.rank):
                if w[i] > 0:
                    child = R.reflect_root(w, i)
                    if child not in seen:
                        nxt.add(child)
        seen.update(nxt)
        levels.append(sorted(nxt))
    return levels


class OrbitPoset:
    """Weyl orbit of a dominant weight under the orbit Bruhat order.

    elements[0] is the dominant weight (the unique maximum); the rest follow
    level by level, by their length l(w) = #{alpha > 0 : <w, alpha_v> < 0}.
    The order is graded by l (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, Thm 2.5.5), so a reflection relation sigma_alpha(nu) < nu with
    m = <nu, alpha_v> > 0 is a cover iff l(sigma_alpha(nu)) = l(nu) + 1.
    covers hold those relations, labeled by the root and the positive
    integer m.  pairings[i] is R.pairings(elements[i]), the m of every root.
    """

    def __init__(self, R: RootSystem, base: Weight):
        self.system = R
        self.base = base
        levels = _orbit(R, base)
        elements = self.elements = tuple(w for level in levels for w in level)
        index = self.index = {w: i for i, w in enumerate(elements)}
        length = [k for k, level in enumerate(levels) for _ in level]

        self.pairings: tuple[Weight, ...] = tuple(map(R.pairings, elements))
        covers: list[Cover] = []
        for up, (w, ms) in enumerate(zip(elements, self.pairings)):
            for r, m in zip(R.positive_roots, ms):
                if m > 0:
                    low = index[tuple(x - m * a for x, a in zip(w, r.fund))]
                    if length[low] == length[up] + 1:
                        covers.append(Cover(low, up, r.index, m))
        covers.sort()
        self.covers: tuple[Cover, ...] = tuple(covers)
        self._cover_children: list[list[Cover]] = [[] for _ in elements]
        for c in covers:
            self._cover_children[c.upper].append(c)

    def __len__(self) -> int:
        return len(self.elements)

    @memo
    def down_mask(self, denom: int) -> list[int]:
        """Strictly-below reachability through covers whose m is divisible by denom.

        Lower elements sit at higher indices, so a reverse walk meets every
        element after all of those below it.
        """
        masks = [0] * len(self.elements)
        for v in reversed(range(len(masks))):
            acc = 0
            for rel in self._cover_children[v]:
                if rel.m % denom == 0:
                    acc |= (1 << rel.lower) | masks[rel.lower]
            masks[v] = acc
        return masks


_orbit_poset = memo(OrbitPoset)


def weyl_orbit_poset(R: RootSystem, mu) -> OrbitPoset:
    """Memoized orbit poset for a dominant integral weight."""
    return _orbit_poset(R, dominant_weight(R, mu))


def weyl_dim(R: RootSystem, lam) -> int:
    """dim V(lam) = prod <lam+rho, a_v> / <rho, a_v> over positive roots."""
    return _weyl_dim(R, dominant_weight(R, lam))


@memo
def _weyl_dim(R: RootSystem, lam: Weight) -> int:
    dim, rem = divmod(prod(R.pairings([x + 1 for x in lam])), prod(R.pairings(R.weyl_vector)))
    if rem:
        raise InvariantViolation(f"non-integral Weyl dimension for {lam} in {R.label}")
    return dim


def by_weyl_dim(R: RootSystem, ws) -> list[Weight]:
    """Dominant weights ws sorted by (weyl_dim, weight): the smallest is what a product walks."""
    return sorted(ws, key=lambda w: (_weyl_dim(R, w), w))


def weyl_orbit(R: RootSystem, mu) -> tuple[Weight, ...]:
    """The Weyl orbit of a dominant weight, without any order structure."""
    return tuple(sorted(w for level in _orbit(R, dominant_weight(R, mu)) for w in level))


_EXCEPTIONAL_WEYL = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}


def weyl_group_order(R: RootSystem | str) -> int:
    """|W| from the classical closed forms per series."""
    if isinstance(R, str):
        R = build_root_system(R)
    n = R.rank
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    if R.series == "A":
        return fact * (n + 1)
    if R.series in ("B", "C"):
        return fact << n
    if R.series == "D":
        return fact << (n - 1)
    return _EXCEPTIONAL_WEYL[R.label]


def weight_from_eps(R: RootSystem, coords) -> Weight:
    """Fundamental coordinates of an epsilon-coordinate weight (types B, C).

    For B the admissible lattice is {sum a_i eps_i : a_i - a_j in Z}: all
    coordinates integral, or all half-odd-integral.  For C all coordinates
    must be integers.
    """
    if R.series not in ("B", "C"):
        raise InputError("eps coordinates are only supported for types B and C")
    v = tuple(Q(x) for x in coords)
    if len(v) != R.rank:
        raise InputError(f"expected {R.rank} eps coordinates, got {len(v)}")
    if R.series == "C":
        if any(x.denominator != 1 for x in v):
            raise InputError(f"{v} is not in the type C weight lattice")
    else:
        denoms = {x.denominator for x in v}
        if not (denoms <= {1} or denoms == {2}):
            raise InputError(f"{v} is not in the type B weight lattice")
        if denoms == {2} and any(x.denominator != 2 for x in v):
            raise InputError(f"{v} is not in the type B weight lattice")
    fund = R.from_ambient(v)
    if any(x.denominator != 1 for x in fund):
        raise InputError(f"{v} is not a weight of {R.label}")
    return tuple(int(x) for x in fund)


def weight_to_eps(R: RootSystem, w) -> RationalWeight:
    """Epsilon coordinates of a weight (types B, C)."""
    if R.series not in ("B", "C"):
        raise InputError("eps coordinates are only supported for types B and C")
    return R.to_ambient(w)
