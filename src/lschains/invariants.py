"""Invariant multiplicities and verification sweeps.

The n-fold invariant dimension [l1, ..., ln] is the dimension of the
invariant subspace of V(l1) (x) ... (x) V(ln).  It is computed by a fold:
decompose the smallest factor against the largest, recurse on each
component with the other factors.  The base cases are [l] = 1 iff l = 0
and [l, m] = 1 iff m is the dual of l, so a triple [a, b, c] needs one
coefficient, the multiplicity of V(b*) in V(a) (x) V(c).

Sweeps compare source-side invariant dimensions against target-side ones
through a renormalization; the inequality under test is lhs <= rhs on
every tuple.  A sweep plans, then evaluates.  The plan is every unit the
folds of its rows need and no cache holds, level by level: a pair unit
(a whole decomposition) for each fold step of four or more factors, a
coefficient unit for each triple.  The units are grouped by chain shape
and dealt over the parent and forked workers; each computes a distinct
share, and the parent keeps every result in its cache.  A plan too small
to pay for a fork stays in the parent.  The parent then assembles the rows
from its warm cache in tuple order, so rows do not depend on the worker
count.  This holds for any renormalization, builtin or custom.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from dataclasses import dataclass

from .charoracle import tensor_decompose_oracle
from .errors import InputError
from .pathmodel import tensor_decompose, tensor_multiplicity
from .renorm import Renormalization, builtin, map_weight
from .rootsys import (RootSystem, Weight, _weyl_dim, clear_caches, dominant_weight, dual_weight,
                      memo)

__all__ = [
    "invariant_dim",
    "clear_caches",
    "VerificationRow",
    "VerificationReport",
    "verify_inequality",
    "frobenius_check",
    "SaturationRow",
    "SaturationReport",
    "saturation_scan",
    "dominant_pool",
    "sweep_tuples",
    "effective_workers",
]

_ENGINES = ("chains", "oracle")


def _check_tuple(R: RootSystem, weights) -> tuple[Weight, ...]:
    out = tuple(dominant_weight(R, w) for w in weights)
    if not out:
        raise InputError("at least one weight is required")
    return out


def _check_engine(engine: str) -> None:
    if engine not in _ENGINES:
        raise InputError(f"engine must be one of {_ENGINES}")


@memo
def _unit(R: RootSystem, small: Weight, big: Weight, engine: str, *lam: Weight):
    """One unit of a sweep's plan, by the engine.

    A pair unit (no lam) is V(small) (x) V(big) as {component: multiplicity}; a
    coefficient unit is the multiplicity of V(lam) in it.  The chain engine
    counts a coefficient by its walk aimed at lam; the oracle reads it off the
    pair unit, so one decomposition serves every coefficient of the pair.
    """
    if engine == "chains":
        if lam:
            return tensor_multiplicity(R, *lam, small, big)
        return tensor_decompose(R, small, big).components
    if lam:
        return _unit(R, small, big, engine).get(*lam, 0)
    return tensor_decompose_oracle(R, small, big).components


def _fold_step(R: RootSystem, ws: tuple[Weight, ...], engine: str):
    """The unit one fold step of ws needs, and the factors left beside it.

    The smallest factor by (weyl_dim, weight) is the chain shape, the largest
    the floor that prunes it.  [small, mid, big] is the multiplicity of
    V(mid*) in V(small) (x) V(big), a coefficient unit with nothing left
    beside it; a longer ws needs the pair unit.
    """
    small, *rest, big = sorted(ws, key=lambda w: (_weyl_dim(R, w), w))
    if len(rest) == 1:
        return (R, small, big, engine, dual_weight(R, rest[0])), []
    return (R, small, big, engine), rest


@memo
def _inv(R: RootSystem, ws: tuple[Weight, ...], engine: str) -> int:
    """[ws] for a sorted tuple of dominant weights."""
    zero = (0,) * R.rank
    if len(ws) == 1:
        return 1 if ws[0] == zero else 0
    if len(ws) == 2:
        return 1 if ws[1] == dual_weight(R, ws[0]) else 0
    unit, rest = _fold_step(R, ws, engine)
    if not rest:
        return _unit(*unit)
    return sum(m * _inv(R, tuple(sorted((nu, *rest))), engine) for nu, m in _unit(*unit).items())


def invariant_dim(R: RootSystem, weights, engine: str = "chains") -> int:
    """Dimension of the invariant subspace of the n-fold tensor product."""
    _check_engine(engine)
    return _inv(R, tuple(sorted(_check_tuple(R, weights))), engine)


# ---------------------------------------------------------------------------
# inequality sweeps

@dataclass(frozen=True)
class VerificationRow:
    weights: tuple[Weight, ...]
    images: tuple[Weight, ...]
    lhs: int
    rhs: int

    @property
    def violated(self) -> bool:
        return self.lhs > self.rhs

    @property
    def strict(self) -> bool:
        return self.lhs < self.rhs

    def as_dict(self) -> dict:
        return {
            "weights": [list(w) for w in self.weights],
            "images": [list(w) for w in self.images],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violated": self.violated,
            "strict": self.strict,
        }


@dataclass(frozen=True)
class VerificationReport:
    renormalization: str
    engine: str
    rows: tuple[VerificationRow, ...]

    @property
    def violations(self) -> tuple[VerificationRow, ...]:
        return tuple(r for r in self.rows if r.violated)

    @property
    def strict_count(self) -> int:
        return sum(1 for r in self.rows if r.strict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "renormalization": self.renormalization,
            "engine": self.engine,
            "tuples": len(self.rows),
            "violations": len(self.violations),
            "strict_count": self.strict_count,
            "rows": [r.as_dict() for r in self.rows],
        }


def dominant_pool(R: RootSystem, bound: int, mode: str = "coords") -> tuple[Weight, ...]:
    """Dominant weights with all coordinates <= bound, or summing to <= bound."""
    if bound < 0:
        raise InputError("bound must be nonnegative")
    if mode == "coords":
        return tuple(itertools.product(range(bound + 1), repeat=R.rank))
    if mode == "height":
        return tuple(
            w for w in itertools.product(range(bound + 1), repeat=R.rank)
            if sum(w) <= bound
        )
    raise InputError("pool mode must be 'coords' or 'height'")


def effective_workers(workers: int | None) -> int:
    """Requested worker count clamped by os.cpu_count() and the LSCHAINS_MAX_WORKERS env var."""
    n = 1 if workers is None else max(1, int(workers))
    n = min(n, os.cpu_count() or 1)
    cap = os.environ.get("LSCHAINS_MAX_WORKERS")
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise InputError(f"LSCHAINS_MAX_WORKERS={cap!r} is not an integer") from None
    return n


def _plan(keys) -> list[tuple]:
    """The units the folds of keys (R, ws, engine) need that no cache holds.

    A fold step whose unit is cached is followed to the next level; one whose
    unit is missing stops there, so evaluating the plan and planning again
    reaches one level deeper, until nothing is missing.
    """
    units: dict[tuple, None] = {}
    seen = set()
    todo = list(keys)
    while todo:
        key = todo.pop()
        if len(key[1]) < 3 or key in seen or key in _inv.store:
            continue
        seen.add(key)
        R, ws, engine = key
        unit, rest = _fold_step(R, ws, engine)
        if unit not in _unit.store:
            units[unit] = None
        elif rest:  # a pair unit: each component folds on with the rest
            todo.extend((R, tuple(sorted((nu, *rest))), engine) for nu in _unit.store[unit])
    return list(units)


# The least load (weyl_dim of the chain shape, summed over the work of
# _deal) worth a share of its own.  On 2 vCPUs (Xeon, 2.1 GHz, Python 3.11)
# that is about 0.15 to 0.4 s of pair decompositions and 0.02 s of chain
# coefficients; the G2 triple sweep at bound 2 (load 50,427) ran as fast in
# two processes as in one, and pair units forked for less ran slower.
_SHARE_LOAD = 40_000


def _deal(units: list[tuple], n: int) -> list[list[tuple]]:
    """units grouped by chain shape (R, small), dealt greedily into at most n shares.

    A group weighs weyl_dim(small) per walk or decomposition it makes: the
    chain engine walks once per unit, the oracle decomposes once per pair
    (R, small, big), whatever coefficients of it the units read.  Each group
    goes to the lightest share.  There is one share per _SHARE_LOAD of the
    total, and at least one.
    """
    groups: dict[tuple, list[tuple]] = {}
    for unit in units:
        groups.setdefault(unit[:2], []).append(unit)
    weighed = []
    for shape, g in groups.items():
        work = {u if u[3] == "chains" else u[:4] for u in g}
        weighed.append((_weyl_dim(*shape) * len(work), g))
    weighed.sort(key=lambda item: -item[0])
    total = sum(load for load, _ in weighed)
    count = max(1, min(n, len(groups), total // _SHARE_LOAD))
    shares: list[list[tuple]] = [[] for _ in range(count)]
    loads = [0] * count
    for load, group in weighed:
        i = loads.index(min(loads))
        shares[i] += group
        loads[i] += load
    return shares


def _fork_map(fn, shares: list) -> list:
    """[fn(share) for share in shares]: the first share here, each other in a forked child.

    Each child pickles (True, its result) or (False, the exception fn raised)
    down a pipe, all or nothing, and always ends in os._exit; its exception is
    raised again here, and a child that ends without a result raises
    ChildProcessError.  Every child is reaped on every path; on a failure the
    ones still running are killed first.  One share forks nothing.  The
    package starts no threads, so forking it is safe, and a child starts from
    the parent's warm caches.
    """
    children = []
    done = False
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        result = (True, fn(share))
                    except Exception as exc:
                        result = (False, exc)
                    data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(w, "wb") as out:
                        out.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [fn(shares[0])]
        for pid, pipe in children:
            try:
                ok, payload = pickle.load(pipe)
            except EOFError:
                raise ChildProcessError(f"worker process {pid} ended without a result") from None
            if not ok:
                raise payload
            results.append(payload)
        done = True
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _evaluate(units: list[tuple], workers: int) -> None:
    """Fill the _unit store with every unit, in at most `workers` shares (_deal)."""
    shares = _deal(units, workers)
    values = _fork_map(lambda share: [_unit(*unit) for unit in share], shares)
    for share, vals in zip(shares[1:], values[1:]):
        _unit.store.update(zip(share, vals))


def _sweep(rows, engine: str, workers: int | None) -> list[list[int]]:
    """[[invariant_dim(R, ws, engine) for R, ws in row] for row in rows].

    Plan and evaluate until the folds of every query are cached (at most n - 2
    rounds for n-fold queries), then assemble the values in row order from the
    keys checked once.
    """
    _check_engine(engine)
    workers = effective_workers(workers)  # checked even when every fold is cached
    keys = [(R, tuple(sorted(_check_tuple(R, ws))), engine) for row in rows for R, ws in row]
    while units := _plan(keys):
        _evaluate(units, workers)
    values = (_inv(*key) for key in keys)
    return [[next(values) for _ in row] for row in rows]


def _images(rn: Renormalization, items) -> list[tuple[Weight, ...]]:
    """phi of every tuple of items, mapping each distinct weight once, in first-seen order."""
    phi = {w: map_weight(rn, w) for w in dict.fromkeys(itertools.chain.from_iterable(items))}
    return [tuple(phi[w] for w in ws) for ws in items]


def verify_inequality(
    rn: Renormalization,
    tuples,
    engine: str = "chains",
    workers: int | None = None,
) -> VerificationReport:
    """Check lhs = [tuple] over the source against rhs = [phi(tuple)] over the target."""
    items = [_check_tuple(rn.source, ws) for ws in tuples]
    images = _images(rn, items)
    values = _sweep([((rn.source, ws), (rn.target, im)) for ws, im in zip(items, images)],
                    engine, workers)
    rows = tuple(VerificationRow(ws, im, lhs, rhs)
                 for ws, im, (lhs, rhs) in zip(items, images, values))
    return VerificationReport(rn.name or "custom", engine, rows)


def sweep_tuples(pool, n: int):
    """Deterministic multisets of size n from the pool (order never matters)."""
    if n < 1:
        raise InputError("tuple size must be at least 1")
    return tuple(itertools.combinations_with_replacement(tuple(pool), n))


def frobenius_check(
    label: str,
    tuples,
    p: int,
    engine: str = "chains",
    workers: int | None = None,
) -> VerificationReport:
    """Scaling inequality [l1,...,ln] <= [p*l1,...,p*ln] via the frobenius builtin."""
    return verify_inequality(builtin(f"frobenius:{label}:{p}"), tuples, engine, workers)


# ---------------------------------------------------------------------------
# saturation experiment for the odd-spin / symplectic pair

@dataclass(frozen=True)
class SaturationRow:
    weights: tuple[Weight, ...]       # fundamental coordinates on the spin side
    spin_value: int
    sp_value: int | None              # same ambient weights on the Sp side, when integral
    sp_doubled: int                   # ambient doubling, always integral

    @property
    def witness(self) -> int | None:
        """Smallest scaling N in {1, 2} putting the tuple on the Sp side."""
        if self.spin_value == 0:
            return None
        if self.sp_value is not None and self.sp_value > 0:
            return 1
        return 2 if self.sp_doubled > 0 else None

    @property
    def violates_sp_to_spin(self) -> bool:
        return self.sp_value is not None and self.sp_value > 0 and self.spin_value == 0

    @property
    def violates_spin_to_sp(self) -> bool:
        return self.spin_value > 0 and self.sp_doubled == 0

    @property
    def genuine_witness(self) -> bool:
        """Integral, on the spin side, off the Sp side at N = 1 but on at N = 2."""
        return self.sp_value == 0 and self.spin_value > 0 and self.sp_doubled > 0

    def as_dict(self) -> dict:
        return {
            "weights": [list(w) for w in self.weights],
            "spin_value": self.spin_value,
            "sp_value": self.sp_value,
            "sp_doubled": self.sp_doubled,
            "witness": self.witness,
            "violates_sp_to_spin": self.violates_sp_to_spin,
            "violates_spin_to_sp": self.violates_spin_to_sp,
            "genuine_witness": self.genuine_witness,
        }


@dataclass(frozen=True)
class SaturationReport:
    rank: int
    n: int
    bound: int
    rows: tuple[SaturationRow, ...]

    @property
    def counterexamples(self) -> tuple[SaturationRow, ...]:
        return tuple(
            r for r in self.rows if r.violates_sp_to_spin or r.violates_spin_to_sp
        )

    @property
    def genuine_witnesses(self) -> tuple[SaturationRow, ...]:
        return tuple(r for r in self.rows if r.genuine_witness)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "n": self.n,
            "bound": self.bound,
            "tuples": len(self.rows),
            "counterexamples": len(self.counterexamples),
            "genuine_witnesses": len(self.genuine_witnesses),
            "rows": [r.as_dict() for r in self.rows],
        }


def saturation_scan(
    rank: int,
    n: int,
    bound: int,
    engine: str = "chains",
    workers: int | None = None,
) -> SaturationReport:
    """Compare spin-side and symplectic-side membership over a small sweep.

    For every size-n multiset of dominant spin weights with coordinates
    <= bound: a positive symplectic value at the same ambient weights must
    come with a positive spin value, and a positive spin value must come
    with a positive symplectic value after doubling.  The witness per row
    records which scaling (1 or 2) lands on the symplectic side.
    """
    if rank < 2:
        raise InputError("rank must be at least 2 for the B/C pair")
    if n < 1:
        raise InputError("tuple size must be at least 1")
    rn = builtin(f"sp_to_spin:{rank}")  # the doubling of ambient coordinates
    items = sweep_tuples(dominant_pool(rn.source, bound, "coords"), n)
    queries = []
    for ws, im in zip(items, _images(rn, items)):
        row = [(rn.source, ws), (rn.target, im)]
        if not any(x % 2 for w in im for x in w):  # the same ambient weights, when integral
            row.append((rn.target, tuple(tuple(x // 2 for x in w) for w in im)))
        queries.append(row)
    rows = tuple(SaturationRow(ws, v[0], v[2] if len(v) == 3 else None, v[1])
                 for ws, v in zip(items, _sweep(queries, engine, workers)))
    return SaturationReport(rank, n, bound, rows)
