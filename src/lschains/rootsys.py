"""Exact root-system data for the finite simple types.

Weights are tuples of coordinates in the fundamental-weight basis: integers
for `Weight`, Fractions for `RationalWeight`.  Every type is built in ints,
from simple-root tables that hold twice the Bourbaki epsilon coordinates, by
exact int divisions.  Fractions appear only at the epsilon boundary:
`Root.ambient`, the values `RootSystem.to_ambient` and `from_ambient`
return, and `weight_from_eps` / `weight_to_eps` for types B and C.

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
from operator import add, mul
from typing import NamedTuple

from .errors import InputError, InvariantViolation

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


def _simple_roots_ambient(series: str, rank: int) -> tuple[Weight, ...]:
    """Twice the Bourbaki epsilon coordinates of the simple roots, so every entry is an int."""
    def diff(i: int, j: int, dim: int) -> Weight:  # 2 (eps_i - eps_j)
        return tuple(2 * ((k == i) - (k == j)) for k in range(dim))

    if series == "A":
        return tuple(diff(i, i + 1, rank + 1) for i in range(rank))
    if series in ("B", "C", "D"):
        last = {"B": (0, 2), "C": (0, 4), "D": (2, 2)}[series]  # eps_l, 2 eps_l, eps_(l-1) + eps_l
        return tuple(diff(i, i + 1, rank) for i in range(rank - 1)) + ((0,) * (rank - 2) + last,)
    if series == "E":
        rows = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
        rows += [diff(k, k - 1, 8) for k in range(1, 7)]
        return tuple(rows[:rank])
    if series == "F":
        return ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))
    if series == "G":
        return ((2, -2, 0), (-4, 2, 2))
    raise InputError(f"unknown series {series!r}")


def _dot(x, y):
    return sum(map(mul, x, y))


def _exact(num: int, den: int, message: str) -> int:
    """num / den, which must be an int; InvariantViolation(message) if it is not."""
    q, r = divmod(num, den)
    if r:
        raise InvariantViolation(message)
    return q


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
    ambient: Bourbaki epsilon coordinates, as Fractions (halves for E, F and spin).
    d:      half squared length under the short-root-is-2 normalization.
    """

    index: int
    coeffs: Weight
    fund: Weight
    coroot: Weight
    ambient: RationalWeight
    d: int


def _positive_roots_from_cartan(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[Weight, Weight]]:
    """Closure of the simple roots under root strings: (simple-root, fundamental) coords.

    Each root carries its fundamental coordinates, fund(beta + alpha_i) =
    fund(beta) + cartan[i], so <beta, alpha_i_v> = fund(beta)[i] needs no sum.
    beta + alpha_i is a root iff p > <beta, alpha_i_v>, with beta - p alpha_i
    the bottom of the alpha_i-string.  Since p <= beta[i], a root with
    beta[i] <= <beta, alpha_i_v> needs no string walk.
    """
    rank = len(cartan)
    level = [(tuple(int(j == i) for j in range(rank)), cartan[i]) for i in range(rank)]
    known = {beta for beta, _ in level}
    out = list(level)
    while level:
        nxt = []
        for beta, fund in level:
            for i, f in enumerate(fund):
                if beta[i] <= f:
                    continue
                p, down = 0, list(beta)
                while p <= f:  # down[i] stays >= beta[i] - f - 1 >= 0
                    down[i] -= 1
                    if tuple(down) not in known:
                        break
                    p += 1
                if p > f:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append((cand, tuple(map(add, fund, cartan[i]))))
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
        amb = self._simple_amb = _simple_roots_ambient(series, rank)  # twice Bourbaki
        self.ambient_dim = dim = len(amb[0])
        norms = [_dot(a, a) for a in amb]
        cartan = tuple(tuple(2 * _dot(a, b) // nb for b, nb in zip(amb, norms)) for a in amb)
        self.cartan = cartan
        # the Dynkin neighbours (j, a_ij) of each node i, which a simple reflection moves
        self._neighbours = tuple(tuple((j, a) for j, a in enumerate(row) if a and j != i)
                                 for i, row in enumerate(cartan))
        # normalize the form so the shortest root has squared length 2
        short = min(norms)
        self.simple_d = tuple(_exact(n, short, f"non-integral root lengths for {label}")
                              for n in norms)
        sparse = [[(k, x) for k, x in enumerate(a) if x] for a in amb]

        roots: list[Root] = []
        for idx, (coeffs, fund) in enumerate(_positive_roots_from_cartan(cartan)):
            ambient = [0] * dim
            for i, c in enumerate(coeffs):
                if c:
                    for k, x in sparse[i]:
                        ambient[k] += c * x
            d = _exact(_dot(ambient, ambient), short,
                       f"non-integral length for root {coeffs} in {label}")
            coroot = tuple(_exact(c * sd, d, f"non-integral coroot pairing in {label}")
                           for c, sd in zip(coeffs, self.simple_d))
            roots.append(Root(idx, coeffs, fund, coroot, tuple(Q(x, 2) for x in ambient), d))
        self.positive_roots: tuple[Root, ...] = tuple(roots)
        self.root_by_fund = {r.fund: r.index for r in roots}
        self.weyl_vector: Weight = (1,) * rank
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

    @functools.cached_property
    def ambient_map(self) -> tuple[int, tuple[Weight, ...]]:
        """(den, rows): the Bourbaki epsilon coordinates of a weight w are rows . w / den.

        The invariant form is unique up to scale, so sum over b > 0 of
        d_b * <w, b_v> * b = kappa * w for one int kappa.  In the simple-root
        basis, kappa * C^-1 = sum over b > 0 of d_b * coroot_b (x) coeffs_b,
        and pairing w = w_0 with alpha_0_v reads off kappa as the sum of
        d_b * coroot_b[0] * fund_b[0].  The simple-root rows are doubled, so
        den = 2 * kappa.
        """
        rank = self.rank
        kappa = sum(r.d * r.coroot[0] * r.fund[0] for r in self.positive_roots)
        m = [[0] * rank for _ in range(rank)]  # kappa * C^-1
        for r in self.positive_roots:
            nz = [(k, c) for k, c in enumerate(r.coeffs) if c]
            for i, p in enumerate(r.coroot):
                if p:
                    row, dp = m[i], r.d * p
                    for k, c in nz:
                        row[k] += dp * c
        amb = list(zip(*self._simple_amb))
        return 2 * kappa, tuple(tuple(_dot(mi, col) for mi in m) for col in amb)

    def to_ambient(self, w) -> RationalWeight:
        """Bourbaki epsilon coordinates of a weight."""
        den, rows = self.ambient_map
        return tuple(Q(_dot(row, w), den) for row in rows)

    def from_ambient(self, vec) -> RationalWeight:
        """Fundamental coordinates of an ambient (Bourbaki) vector in the root span."""
        # 2 (v, a) / (a, a) with a = a2 / 2 for each doubled simple row a2
        return tuple(Q(4 * _dot(vec, a), _dot(a, a)) for a in self._simple_amb)


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
    """Weyl orbit of a dominant weight as BFS levels from base, each made once, unsorted.

    The level of w is its length l(w) = #{alpha > 0 : <w, alpha_v> < 0}: a
    simple reflection at w[i] > 0 adds exactly one such root, and at w[i] < 0
    removes one.  So each non-dominant weight has one canonical parent, its
    reflection at its first negative coordinate, one level up.  From w the
    child s_i(w) is kept only if it has no negative coordinate before i,
    that is, only if w is its canonical parent: every element is made exactly
    once, with no seen set.  s_i changes only i and its Dynkin neighbours, so
    when the first negative coordinate of w lies before i and is not a
    neighbour of i, s_i(w) is not built.  The last level is empty.
    """
    neighbours = R._neighbours
    near = [{j for j, _ in nb} for nb in neighbours]
    levels = [[base]]
    while levels[-1]:
        nxt = []
        for w in levels[-1]:
            first = -1  # the first negative coordinate of w seen so far
            for i, m in enumerate(w):
                if m > 0:
                    if first >= 0 and first not in near[i]:
                        continue
                    child = list(w)
                    child[i] = -m
                    for j, a in neighbours[i]:
                        child[j] -= m * a
                    if first < 0 or min(child[:i]) >= 0:
                        nxt.append(tuple(child))
                elif m < 0 and first < 0:
                    first = i
        levels.append(nxt)
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
    Each level is sorted here, since `_orbit` leaves its levels unsorted and
    the element indices fix the canonical chain order.
    """

    def __init__(self, R: RootSystem, base: Weight):
        self.system = R
        self.base = base
        levels = [sorted(level) for level in _orbit(R, base)]
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


def _eps_number(x) -> Q:
    """One eps coordinate: a number, or the text of an int, p/q or a plain decimal."""
    # Fraction also reads exponents, and builds 10**n for '1en': '1e999999999' never ends
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise InputError(f"bad eps coordinates: {x!r} has an exponent")
    try:
        return Q(x)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad eps coordinates: {x!r}") from None


def _eps_text(v) -> str:
    """Eps coordinates as a user writes them, (3/2, 1/2, 0), not as Fraction reprs."""
    return f"({', '.join(map(str, v))})"


def weight_from_eps(R: RootSystem, coords) -> Weight:
    """Fundamental coordinates of an epsilon-coordinate weight (types B, C).

    Each coordinate is a number or its text, as `_eps_number` reads it.  For
    B the admissible lattice is {sum a_i eps_i : a_i - a_j in Z}: all
    coordinates integral, or all half-odd-integral.  For C all coordinates
    must be integers.
    """
    if R.series not in ("B", "C"):
        raise InputError("eps coordinates are only supported for types B and C")
    v = tuple(map(_eps_number, coords))
    if len(v) != R.rank:
        raise InputError(f"expected {R.rank} eps coordinates, got {len(v)}")
    if R.series == "C":
        if any(x.denominator != 1 for x in v):
            raise InputError(f"{_eps_text(v)} is not in the type C weight lattice")
    else:
        denoms = {x.denominator for x in v}
        if not (denoms <= {1} or denoms == {2}):
            raise InputError(f"{_eps_text(v)} is not in the type B weight lattice")
    fund = R.from_ambient(v)
    if any(x.denominator != 1 for x in fund):
        raise InputError(f"{_eps_text(v)} is not a weight of {R.label}")
    return tuple(int(x) for x in fund)


def weight_to_eps(R: RootSystem, w) -> RationalWeight:
    """Epsilon coordinates of a weight (types B, C)."""
    if R.series not in ("B", "C"):
        raise InputError("eps coordinates are only supported for types B and C")
    return R.to_ambient(w)
