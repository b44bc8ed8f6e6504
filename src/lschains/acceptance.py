"""Acceptance suite: the checks the whole package is judged by.

Each criterion is a named function returning pass/fail plus a one-line
detail.  Bounds are overridable so the suite can be shrunk (bound 0 makes
the sweeps vacuous) or grown; the defaults are the shipped contract.
Criteria never raise: an unexpected error is reported as a failure.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import partial

from .charoracle import tensor_decompose_oracle, weyl_dim
from .errors import InputError
from .invariants import (
    dominant_pool,
    frobenius_check,
    saturation_scan,
    sweep_tuples,
    verify_inequality,
)
from .pathmodel import chain_weights, delta_sequence, enumerate_ls_chains, tensor_decompose
from .renorm import (
    builtin,
    builtin_catalog,
    dual_renormalization,
    map_weight,
    transport_chain,
    validate,
)
from .rootsys import build_root_system

__all__ = ["CriterionResult", "CRITERIA", "DEFAULT_BOUNDS", "run_criterion", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:20s} {self.seconds:7.2f}s  {self.detail}"


def _oracle_equivalence(bound, engine, workers):
    small = bound
    large = min(1, bound)
    plan = [("A1", small), ("A2", small), ("B2", small), ("G2", small),
            ("A3", large), ("B3", large), ("C3", large)]
    pairs = 0
    for label, b in plan:
        R = build_root_system(label)
        pool = dominant_pool(R, b, "coords")
        for mu, nu in itertools.product(pool, repeat=2):
            got = tensor_decompose(R, mu, nu).components
            want = tensor_decompose_oracle(R, mu, nu).components
            if got != want:
                return False, f"{label}: decompositions differ at ({mu}, {nu})"
            pairs += 1
    return True, f"{pairs} ordered pairs across {', '.join(l for l, _ in plan)} agree"


def _ls_chain_sanity(bound, engine, workers):
    A1 = build_root_system("A1")
    for m in range(bound + 1):
        chains = enumerate_ls_chains(A1, (m,))
        if len(chains) != m + 1:
            return False, f"|LS(A1, {m}w1)| = {len(chains)}, expected {m + 1}"
    s, l = min(2, bound), min(1, bound)
    plan = [("A1", s), ("A2", s), ("B2", s), ("G2", s), ("A3", l), ("B3", l), ("C3", l)]
    checked = 0
    for label, b in plan:
        R = build_root_system(label)
        for shape in dominant_pool(R, b, "coords"):
            chains, dim = enumerate_ls_chains(R, shape), weyl_dim(R, shape)
            if len(chains) != dim:
                return False, f"|LS({label}, {shape})| = {len(chains)}, expected {dim}"
            for chain in chains:
                deltas = delta_sequence(chain)
                if any(x.denominator != 1 for x in deltas[-1]):
                    return False, f"{label} chain {chain} has fractional endpoint"
                depth = tuple(min(d[i] for d in deltas) for i in range(R.rank))
                if any(x.denominator != 1 for x in depth):
                    return False, f"{label} chain {chain} has fractional depth"
                checked += 1
    return True, f"A1 counts m=0..{bound} and integrality of {checked} chains"


def _sweep_criterion(spec, mode, bound, engine, workers):
    rn = builtin(spec)
    pool = dominant_pool(rn.source, bound, mode)
    rep = verify_inequality(rn, sweep_tuples(pool, 3), engine, workers)
    detail = f"{spec}: {len(rep.rows)} triples, {len(rep.violations)} violations, {rep.strict_count} strict"
    if rep.strict_count == 0 and rep.ok and bound > 0:
        rep2 = verify_inequality(
            rn, sweep_tuples(dominant_pool(rn.source, bound + 1, mode), 3), engine, workers
        )
        detail += (f"; raised bound to {bound + 1}: {len(rep2.violations)} violations, "
                   f"{rep2.strict_count} strict")
        return rep.ok and rep2.ok, detail
    return rep.ok, detail


def _f4_self(bound, engine, workers):
    rn = builtin("f4")
    pool = [(0, 0, 0, 0)]
    if bound >= 1:
        pool.append((0, 0, 0, 1))
    if bound >= 2:
        pool.append((0, 0, 1, 0))
    rep = verify_inequality(rn, sweep_tuples(tuple(pool), 3), engine, workers)
    detail = (f"pool of {len(pool)} weights, {len(rep.rows)} triples, "
              f"{len(rep.violations)} violations, {rep.strict_count} strict")
    return rep.ok, detail


def _chain_transport(bound, engine, workers):
    total = 0
    for spec in ("g2", "frobenius:A2:2"):
        rn = builtin(spec)
        for shape in dominant_pool(rn.source, bound, "coords"):
            chains = enumerate_ls_chains(rn.source, shape)
            moved = [transport_chain(rn, c) for c in chains]
            keys = [(t.steps, t.cuts) for t in moved]
            if len(set(keys)) != len(chains):
                return False, f"{spec}: transport not injective on shape {shape}"
            targets = {(t.steps, t.cuts) for t in enumerate_ls_chains(rn.target, map_weight(rn, shape))}
            for c, t, key in zip(chains, moved, keys):
                if key not in targets:
                    return False, f"{spec}: image of {c} is not a chain of the image shape"
                (end, depth), (t_end, t_depth) = chain_weights(c), chain_weights(t)
                if t_end != map_weight(rn, end):
                    return False, f"{spec}: endpoint does not commute on {c}"
                if t_depth != map_weight(rn, depth):
                    return False, f"{spec}: depth does not commute on {c}"
            total += len(chains)
    return True, f"{total} chains transported injectively; endpoint and depth commute"


def _frobenius_scaling(bound, engine, workers):
    details = []
    for label in ("A2", "B2"):
        R = build_root_system(label)
        tuples = sweep_tuples(dominant_pool(R, bound, "coords"), 3)
        for p in (2, 3):
            rep = frobenius_check(label, tuples, p, engine, workers)
            if not rep.ok:
                return False, f"{label} p={p}: {len(rep.violations)} violations"
            details.append(f"{label} p={p}: {len(rep.rows)} triples, {rep.strict_count} strict")
    return True, "; ".join(details)


def _saturation_bc(bound, engine, workers):
    rep = saturation_scan(2, 3, bound, engine, workers)
    ns = [r.witness for r in rep.rows if r.witness is not None]
    detail = (f"{len(rep.rows)} tuples, {len(rep.counterexamples)} counterexamples, "
              f"witness N=1 x{ns.count(1)}, N=2 x{ns.count(2)}, "
              f"{len(rep.genuine_witnesses)} genuine saturation witnesses")
    return rep.ok, detail


def _renorm_validate(bound, engine, workers):
    if bound == 0:
        return True, "vacuous (bound 0)"
    names = []
    for spec in builtin_catalog():
        rn = builtin(spec)
        rep = validate(rn)
        if not rep.ok:
            return False, f"{spec} fails {[c.name for c in rep.failures()]}"
        dual = dual_renormalization(rn)
        drep = validate(dual)
        if not drep.ok:
            return False, f"dual({spec}) fails {[c.name for c in drep.failures()]}"
        names.append(spec)
    return True, f"{len(names)} builtins and their duals pass every check"


CRITERIA: dict[str, tuple] = {
    "oracle-equivalence": (_oracle_equivalence, 2),
    "ls-chain-sanity": (_ls_chain_sanity, 6),
    "so-to-sp": (partial(_sweep_criterion, "so_to_sp:2", "height"), 2),
    "spin-to-sp": (partial(_sweep_criterion, "sp_to_spin:2", "height"), 2),
    "g2-self": (partial(_sweep_criterion, "g2", "coords"), 2),
    "f4-self": (_f4_self, 2),
    "chain-transport": (_chain_transport, 2),
    "frobenius-scaling": (_frobenius_scaling, 2),
    "saturation-bc": (_saturation_bc, 1),
    "renorm-validate": (_renorm_validate, 1),
}

DEFAULT_BOUNDS = {name: bound for name, (_, bound) in CRITERIA.items()}


def run_criterion(
    name: str,
    bound: int | None = None,
    engine: str = "chains",
    workers: int | None = None,
) -> CriterionResult:
    entry = CRITERIA.get(name)
    if entry is None:
        raise InputError(f"unknown criterion {name!r}; known: {', '.join(CRITERIA)}")
    func, default_bound = entry
    b = default_bound if bound is None else bound
    if b < 0:
        raise InputError("bound must be nonnegative")
    start = time.monotonic()
    try:
        passed, detail = func(b, engine, workers)
    except Exception as exc:
        passed, detail = False, f"error: {exc!r}"
    return CriterionResult(name, passed, detail, time.monotonic() - start)


def run_all(
    config: dict[str, int] | None = None,
    engine: str = "chains",
    workers: int | None = None,
) -> tuple[CriterionResult, ...]:
    config = dict(config or {})
    for key in config:
        if key not in CRITERIA:
            raise InputError(f"unknown criterion {key!r}; known: {', '.join(CRITERIA)}")
    return tuple(
        run_criterion(name, config.get(name), engine, workers) for name in CRITERIA
    )
