"""Invariant multiplicities and verification sweeps.

The n-fold invariant dimension [l1, ..., ln] is the dimension of the
invariant subspace of V(l1) (x) ... (x) V(ln).  It is computed by a left
fold: decompose the first two factors, recurse on each component.  The
base cases are [l] = 1 iff l = 0 and [l, m] = 1 iff m is the dual of l.

Sweeps compare source-side invariant dimensions against target-side ones
through a renormalization; the inequality under test is lhs <= rhs on
every tuple.  Sweeps run in forked worker processes when asked, for any
renormalization, builtin or custom; reports keep tuple order and do not
depend on the worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import dataclass

from .charoracle import tensor_decompose_oracle
from .errors import InputError
from .pathmodel import tensor_decompose
from .renorm import Renormalization, builtin, map_weight
from .rootsys import (RootSystem, Weight, clear_caches, dominant_weight, dual_weight, memo,
                      weyl_dim)

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


def _pair_components(R: RootSystem, a: Weight, b: Weight, engine: str):
    if engine == "chains":
        return tensor_decompose(R, a, b).components
    return tensor_decompose_oracle(R, a, b).components


@memo
def _inv(R: RootSystem, ws: tuple[Weight, ...], engine: str) -> int:
    """[ws] for a sorted tuple of dominant weights."""
    zero = (0,) * R.rank
    if len(ws) == 1:
        return 1 if ws[0] == zero else 0
    if len(ws) == 2:
        return 1 if ws[1] == dual_weight(R, ws[0]) else 0
    # the smallest factor is the chain shape, the largest the floor that prunes it
    small, *rest, big = sorted(ws, key=lambda w: (weyl_dim(R, w), w))
    comps = _pair_components(R, small, big, engine)
    return sum(m * _inv(R, tuple(sorted((nu, *rest))), engine) for nu, m in comps.items())


def invariant_dim(R: RootSystem, weights, engine: str = "chains") -> int:
    """Dimension of the invariant subspace of the n-fold tensor product."""
    if engine not in _ENGINES:
        raise InputError(f"engine must be one of {_ENGINES}")
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


def _verify_row(rn: Renormalization, ws: tuple[Weight, ...], engine: str) -> VerificationRow:
    images = tuple(map_weight(rn, w) for w in ws)
    lhs = invariant_dim(rn.source, ws, engine)
    rhs = invariant_dim(rn.target, images, engine)
    return VerificationRow(ws, images, lhs, rhs)


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


_MAP_FN = None  # the function _parallel_map runs; forked workers inherit it


def _call_map_fn(item):
    return _MAP_FN(item)


def _parallel_map(fn, items, workers: int | None) -> list:
    """[fn(x) for x in items], across forked worker processes when workers allow.

    Forked workers inherit fn, closures included, and the parent's warm memo
    caches; spawned ones would re-import the package and rebuild those caches
    on every sweep.  pool.map keeps input order, so results do not depend on
    the worker count.
    """
    global _MAP_FN
    n = min(effective_workers(workers), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    _MAP_FN = fn
    try:
        with multiprocessing.get_context("fork").Pool(n) as pool:
            return pool.map(_call_map_fn, items, chunksize=max(1, len(items) // (4 * n)))
    finally:
        _MAP_FN = None


def verify_inequality(
    rn: Renormalization,
    tuples,
    engine: str = "chains",
    workers: int | None = None,
) -> VerificationReport:
    """Check lhs = [tuple] over the source against rhs = [phi(tuple)] over the target."""
    if engine not in _ENGINES:
        raise InputError(f"engine must be one of {_ENGINES}")
    items = [_check_tuple(rn.source, ws) for ws in tuples]
    rows = _parallel_map(lambda ws: _verify_row(rn, ws, engine), items, workers)
    return VerificationReport(rn.name or "custom", engine, tuple(rows))


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


def _saturation_row(rn: Renormalization, ws, engine: str) -> SaturationRow:
    """One row of the scan; rn is sp_to_spin, the doubling of ambient coordinates."""
    row = _verify_row(rn, ws, engine)
    sp_value = None
    if not any(x % 2 for w in row.images for x in w):
        same = tuple(tuple(x // 2 for x in w) for w in row.images)
        sp_value = invariant_dim(rn.target, same, engine)
    return SaturationRow(ws, row.lhs, sp_value, row.rhs)


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
    rn = builtin(f"sp_to_spin:{rank}")
    items = sweep_tuples(dominant_pool(rn.source, bound, "coords"), n)
    rows = _parallel_map(lambda ws: _saturation_row(rn, ws, engine), items, workers)
    return SaturationReport(rank, n, bound, tuple(rows))
