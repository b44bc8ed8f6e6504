"""Integer renormalizations between root systems.

A renormalization from R' (source) to R (target) is an invertible linear map
phi from the source weight space to the target weight space together with
positive integers c(alpha) for the target roots, such that

    R' = { c(alpha) * phi^{-1}(alpha) : alpha in R }

with positive roots matching positive roots.  The matrix `phi` is stored in
fundamental-weight coordinates, columns being the images of the source
fundamental weights.  The key consequence used everywhere is the pairing
identity  <phi(w), alpha_v> = c(alpha) * <w, alpha'_v>  for the matched pair
alpha' = c(alpha) phi^{-1}(alpha).

The builtin registry covers the classical exceptional families (B/C in
residue characteristic 2, the F4 and G2 self-maps) plus Frobenius and
constant scalings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction as Q
from functools import cached_property
from math import lcm
from operator import mul

from .errors import InputError, InvariantViolation
from .pathmodel import LSChain, b_order_leq
from .ratmat import Mat, inverse, mat, matmul, matvec, transpose
from .rootsys import (Root, RootSystem, Weight, build_root_system, integral_weight,
                      weyl_orbit_poset)

__all__ = [
    "Renormalization",
    "CheckResult",
    "RenormReport",
    "validate",
    "map_weight",
    "transport_chain",
    "dual_renormalization",
    "special_exponents",
    "builtin",
    "builtin_catalog",
]


@dataclass(frozen=True)
class Renormalization:
    source: RootSystem
    target: RootSystem
    phi: Mat
    c: tuple[int, ...]
    name: str = ""
    prime: int | None = None
    source_lattice: str | None = None
    target_lattice: str | None = None

    def __post_init__(self):
        if len(self.c) != len(self.target.positive_roots):
            raise InputError("c must assign one value per positive target root")
        if self.source.rank != self.target.rank:
            raise InputError("source and target must have equal rank")

    def phi_inv(self) -> Mat:
        return inverse(self.phi)

    @cached_property
    def _phi_int(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, rows) with phi = rows / den: int rows over the common denominator."""
        den = lcm(*(Q(x).denominator for row in self.phi for x in row))
        return den, tuple(tuple(int(x * den) for x in row) for row in self.phi)

    def root_match(self) -> tuple[int, ...]:
        """For each target positive root index, the matched source root index."""
        inv = self.phi_inv()
        out = []
        for i, r in enumerate(self.target.positive_roots):
            img = matvec(inv, r.fund)
            scaled = tuple(self.c[i] * x for x in img)
            if any(x.denominator != 1 for x in scaled):
                raise InvariantViolation(f"c*phi^-1 of root {i} is not integral")
            idx = self.source.root_by_fund.get(tuple(int(x) for x in scaled))
            if idx is None:
                raise InvariantViolation(f"c*phi^-1 of root {i} is not a source root")
            out.append(idx)
        if len(set(out)) != len(out):
            raise InvariantViolation("root matching is not injective")
        return tuple(out)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RenormReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _reflection(R: RootSystem, root_index: int) -> tuple[tuple[int, ...], ...]:
    """The reflection in a positive root, as an int matrix on fundamental coordinates."""
    r = R.positive_roots[root_index]
    return tuple(tuple((i == j) - f * c for j, c in enumerate(r.coroot))
                 for i, f in enumerate(r.fund))


def _lattice_member(R: RootSystem, tag: str | None, w) -> bool:
    if tag is None:
        return True
    if tag == "eps_int":
        den, rows = R.ambient_map
        return all(sum(map(mul, row, w)) % den == 0 for row in rows)
    raise InputError(f"unknown lattice tag {tag!r}")


def validate(rn: Renormalization) -> RenormReport:
    """Run every renormalization invariant; failures are reported, not raised."""
    checks: list[CheckResult] = []
    n = rn.source.rank

    try:
        inv = rn.phi_inv()
        checks.append(CheckResult("invertible", True))
    except InputError:
        inv = None
        checks.append(CheckResult("invertible", False, "phi is singular"))

    cols = [tuple(row[j] for row in rn.phi) for j in range(n)]
    integral = all(x.denominator == 1 for col in cols for x in col)
    checks.append(
        CheckResult("weight-lattice", integral,
                    "" if integral else "phi does not map weights to weights")
    )
    dom = all(all(x >= 0 for x in col) for col in cols)
    checks.append(
        CheckResult("dominant-images", dom,
                     "" if dom else "some fundamental weight maps outside the dominant cone")
    )
    positive = all(isinstance(v, int) and v >= 1 for v in rn.c)
    checks.append(
        CheckResult("positive-c", positive, "" if positive else "c values must be positive integers")
    )

    match = None
    if inv is not None and positive:
        try:
            match = rn.root_match()
            checks.append(CheckResult("root-bijection", True))
        except InvariantViolation as exc:
            checks.append(CheckResult("root-bijection", False, str(exc)))
    else:
        checks.append(CheckResult("root-bijection", False, "prerequisite check failed"))

    if match is not None:
        lhs = [rn.target.pairings(col) for col in cols]  # lhs[j][i] = <phi(w_j), alpha_i_v>
        bad = [(i, j) for i, k in enumerate(match) for j, p in enumerate(lhs)
               if p[i] != rn.c[i] * rn.source.positive_roots[k].coroot[j]]
        checks.append(
            CheckResult("pairing-identity", not bad,
                        "" if not bad else f"fails at (root, basis) pairs {bad[:4]}")
        )
        _, rows = rn._phi_int  # phi = rows / den, so phi S' = S phi iff rows S' = S rows
        bad_eq = [i for i in range(len(rn.target.positive_roots))
                  if matmul(rows, _reflection(rn.source, match[i]))
                  != matmul(_reflection(rn.target, i), rows)]
        checks.append(
            CheckResult("weyl-equivariance", not bad_eq,
                        "" if not bad_eq else f"fails for target roots {bad_eq[:6]}")
        )
    else:
        checks.append(CheckResult("pairing-identity", False, "no root matching"))
        checks.append(CheckResult("weyl-equivariance", False, "no root matching"))

    if rn.prime is not None:
        try:
            special_exponents(rn)
            checks.append(CheckResult("prime-powers", True))
        except (InputError, InvariantViolation) as exc:
            checks.append(CheckResult("prime-powers", False, str(exc)))

    if rn.source_lattice or rn.target_lattice:
        gens = _lattice_generators(rn.source, rn.source_lattice)
        ok = all(
            _lattice_member(rn.target, rn.target_lattice, matvec(rn.phi, g)) for g in gens
        )
        checks.append(
            CheckResult("lattice-constraints", ok,
                        "" if ok else "phi does not respect the declared sublattices")
        )

    return RenormReport(rn.name or "custom", tuple(checks))


def _lattice_generators(R: RootSystem, tag: str | None) -> list[Weight]:
    if tag is None:
        return [tuple(1 if i == j else 0 for j in range(R.rank)) for i in range(R.rank)]
    if tag == "eps_int":
        units = [[int(i == k) for k in range(R.ambient_dim)] for i in range(R.rank)]
        return [tuple(int(x) for x in R.from_ambient(e)) for e in units]
    raise InputError(f"unknown lattice tag {tag!r}")


def map_weight(rn: Renormalization, w) -> Weight:
    """phi applied to an integral source weight; integrality is enforced."""
    w = integral_weight(rn.source, w)
    if not _lattice_member(rn.source, rn.source_lattice, w):
        raise InputError(f"{w} lies outside the declared source lattice")
    den, rows = rn._phi_int
    img = tuple(sum(a * x for a, x in zip(row, w)) for row in rows)
    if any(x % den for x in img):
        raise InvariantViolation(f"phi({w}) = {matvec(rn.phi, w)} is not an integral weight")
    out = tuple(x // den for x in img)
    if not _lattice_member(rn.target, rn.target_lattice, out):
        raise InvariantViolation(f"phi({w}) lies outside the declared target lattice")
    return out


def transport_chain(rn: Renormalization, chain: LSChain) -> LSChain:
    """Apply phi to every step, keep the cuts, and re-validate in the target."""
    shape = map_weight(rn, chain.shape)
    steps = tuple(map_weight(rn, s) for s in chain.steps)
    poset = weyl_orbit_poset(rn.target, shape)
    for s in steps:
        if s not in poset.index:
            raise InvariantViolation(f"transported step {s} is outside the target orbit")
    for prev, cur, b in zip(steps, steps[1:], chain.cuts):
        if not 0 < b < 1:
            raise InvariantViolation(f"cut {b} outside (0, 1)")
        if not b_order_leq(poset, prev, cur, b):
            raise InvariantViolation(
                f"transported relation {prev} < {cur} fails at cut {b}"
            )
    if any(b2 <= b1 for b1, b2 in zip(chain.cuts, chain.cuts[1:])):
        raise InvariantViolation("cuts are not strictly increasing")
    return LSChain(shape, steps, chain.cuts)


def special_exponents(rn: Renormalization) -> tuple[int, tuple[int, ...]]:
    """(p, d) with c(alpha) = p^d(alpha), for renormalizations carrying a prime.

    InputError without a prime or for one below 2; InvariantViolation when a
    c value is not p^d for any d >= 0.
    """
    if rn.prime is None:
        raise InputError("no prime attached to this renormalization")
    if rn.prime < 2:
        raise InputError(f"attached prime {rn.prime} is below 2")
    exps = []
    for c in rn.c:
        v, d = c, 0
        while v > 1 and v % rn.prime == 0:
            v //= rn.prime
            d += 1
        if v != 1:
            raise InvariantViolation(f"c value {c} is not a power of the attached prime {rn.prime}")
        exps.append(d)
    return rn.prime, tuple(exps)


# ---------------------------------------------------------------------------
# duality: from (phi, c) to (phi^{-1}, c') between the dual root systems

_DUAL_SERIES = {"B": "C", "C": "B"}


def _coroot_images(R: RootSystem) -> tuple[RootSystem, tuple[Root, ...]]:
    """The dual type of R and, per positive root of R, the dual root of its coroot.

    Root.coroot holds a coroot's coefficients over the simple coroots.  Simple
    coroot i is simple root i of the dual type, except that F4 and G2 number
    their nodes the other way round, so there the coefficients are reversed.
    """
    dual = build_root_system(f"{_DUAL_SERIES.get(R.series, R.series)}{R.rank}")
    by_coeffs = {r.coeffs: r for r in dual.positive_roots}
    images = []
    for r in R.positive_roots:
        img = by_coeffs.get(r.coroot[::-1] if R.series in ("F", "G") else r.coroot)
        if img is None:
            raise InvariantViolation("dual coroot image is not a standard root")
        images.append(img)
    return dual, tuple(images)


def dual_renormalization(rn: Renormalization) -> Renormalization:
    """The induced renormalization between the dual root systems.

    The transpose of phi carries the coroot of a target root alpha to
    c(alpha) times the coroot of the matched source root alpha'.  Each coroot
    is read as a root of the dual type through its coefficients over the
    simple coroots (in reversed node order for F4 and G2).  The dual map
    carries the image of the simple coroot alpha_i_v to c(alpha_i) times the
    image of alpha'_i_v, and the image of alpha'_v inherits c(alpha).
    """
    match = rn.root_match()
    new_source, target_images = _coroot_images(rn.target)
    new_target, source_images = _coroot_images(rn.source)
    n = rn.target.rank
    U = transpose(mat(target_images[j].fund for j in range(n)))
    V = transpose(mat([rn.c[j] * x for x in source_images[match[j]].fund] for j in range(n)))
    psi = matmul(V, inverse(U))
    cmap = {source_images[match[i]].index: c for i, c in enumerate(rn.c)}
    if len(cmap) != len(new_target.positive_roots):
        raise InvariantViolation("dual coroot images do not exhaust the positive roots")
    cprime = tuple(cmap[i] for i in range(len(new_target.positive_roots)))
    return Renormalization(
        new_source, new_target, psi, cprime,
        name=f"dual({rn.name})" if rn.name else "dual", prime=rn.prime,
    )


# ---------------------------------------------------------------------------
# builtins

def _c_by_length(R: RootSystem, short_value: int) -> tuple[int, ...]:
    return tuple(short_value if r.d == 1 else 1 for r in R.positive_roots)


def _scaled_identity(R: RootSystem, s: int) -> Mat:
    return tuple(tuple(Q(s) if i == j else Q(0) for j in range(R.rank)) for i in range(R.rank))


def _eps_matrix(source: RootSystem, target: RootSystem, scale: int) -> Mat:
    """phi in fundamental coordinates for 'multiply eps coordinates by scale'."""
    den, rows = source.ambient_map  # column j over den: the eps coordinates of w_j
    cols = [target.from_ambient([scale * row[j] for row in rows]) for j in range(source.rank)]
    return tuple(tuple(col[i] / den for col in cols) for i in range(target.rank))


# Miller-Rabin to the first twelve prime bases is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def _is_prime(p: int) -> bool:
    """Miller-Rabin to _PRIME_BASES, exact for p < _PRIME_BOUND; InputError for a larger p."""
    if p >= _PRIME_BOUND:
        raise InputError(f"primality is decided only below {_PRIME_BOUND}, got {p}")
    if p < 2 or any(p % b == 0 for b in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for b in _PRIME_BASES:
        xs = [pow(b, (p - 1) >> k, p) for k in range(s, 0, -1)]  # b^d, b^2d, ..., b^(2^(s-1) d)
        if xs[0] != 1 and p - 1 not in xs:
            return False
    return True


def _int_param(text: str, usage: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{text!r} is not an integer; usage: {usage}") from None


def builtin(spec: str) -> Renormalization:
    """Construct a builtin renormalization from its CLI name.

    Forms: trivial:LABEL[:c], short_to_dual:LABEL, so_to_sp:L, sp_to_spin:L,
    f4, g2, frobenius:LABEL:P.  short_to_dual:BL is so_to_sp:L under its own name.
    """
    parts = spec.strip().split(":")
    head = parts[0]

    if head == "trivial":
        if len(parts) not in (2, 3):
            raise InputError("usage: trivial:LABEL[:c]")
        R = build_root_system(parts[1])
        c = _int_param(parts[2], "trivial:LABEL[:c]") if len(parts) == 3 else 1
        if c < 1:
            raise InputError("trivial scaling must be a positive integer")
        return Renormalization(R, R, _scaled_identity(R, c),
                               (c,) * len(R.positive_roots), name=spec)

    if head == "frobenius":
        if len(parts) != 3:
            raise InputError("usage: frobenius:LABEL:P")
        build_root_system(parts[1])  # a bad label is reported before a bad prime
        p = _int_param(parts[2], "frobenius:LABEL:P")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        return replace(builtin(f"trivial:{parts[1]}:{p}"), name=spec, prime=p)

    if head == "short_to_dual":
        if len(parts) != 2:
            raise InputError("usage: short_to_dual:LABEL")
        R = build_root_system(parts[1])
        if R.series != "B":
            raise InputError(
                "short_to_dual lands on standard coordinates only for type B; "
                "use sp_to_spin for C, and the f4/g2 builtins for those types"
            )
        return replace(builtin(f"so_to_sp:{R.rank}"), name=spec)

    if head == "so_to_sp":
        if len(parts) != 2:
            raise InputError("usage: so_to_sp:RANK")
        ell = _int_param(parts[1], "so_to_sp:RANK")
        src = build_root_system(f"C{ell}")
        tgt = build_root_system(f"B{ell}")
        return Renormalization(src, tgt, _eps_matrix(src, tgt, 1), _c_by_length(tgt, 2),
                               name=spec, prime=2, target_lattice="eps_int")

    if head == "sp_to_spin":
        if len(parts) != 2:
            raise InputError("usage: sp_to_spin:RANK")
        ell = _int_param(parts[1], "sp_to_spin:RANK")
        src = build_root_system(f"B{ell}")
        tgt = build_root_system(f"C{ell}")
        return Renormalization(src, tgt, _eps_matrix(src, tgt, 2), _c_by_length(tgt, 2),
                               name=spec, prime=2)

    if head == "f4":
        if len(parts) != 1:
            raise InputError("f4 takes no parameters")
        R = build_root_system("F4")
        phi = mat(((0, 0, 0, 1), (0, 0, 1, 0), (0, 2, 0, 0), (2, 0, 0, 0)))
        return Renormalization(R, R, phi, _c_by_length(R, 2), name="f4", prime=2)

    if head == "g2":
        if len(parts) != 1:
            raise InputError("g2 takes no parameters")
        R = build_root_system("G2")
        phi = mat(((0, 3), (1, 0)))
        return Renormalization(R, R, phi, _c_by_length(R, 3), name="g2", prime=3)

    raise InputError(f"unknown renormalization {spec!r}")


def builtin_catalog() -> tuple[str, ...]:
    """Canonical builtin instances used by `renorm list` and the acceptance suite."""
    return (
        "trivial:B2",
        "short_to_dual:B2",
        "so_to_sp:2",
        "so_to_sp:3",
        "sp_to_spin:2",
        "sp_to_spin:3",
        "f4",
        "g2",
        "frobenius:A2:2",
        "frobenius:B2:2",
        "frobenius:G2:3",
    )
