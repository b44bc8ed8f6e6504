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
from fractions import Fraction as Q
from functools import partial
from math import gcd

from .charoracle import tensor_decompose_oracle, weyl_dim
from .errors import InputError, InvariantViolation
from .invariants import (
    _fork_map,
    dominant_pool,
    effective_workers,
    frobenius_check,
    saturation_scan,
    sweep_tuples,
    verify_inequality,
)
from .pathmodel import (
    _ls_chain,
    _walk_all,
    _walker,
    chain_weights,
    enumerate_ls_chains,
    tensor_decompose,
)
from .renorm import (
    builtin,
    builtin_catalog,
    dual_renormalization,
    map_weight,
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
                try:
                    chain_weights(chain)
                except InvariantViolation as exc:
                    return False, f"{label} chain {chain}: {exc}"
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


class _Keep(dict):
    """A walk sink: {(steps, cuts): (endpoint, depth)} of the walked chains whose key is wanted."""

    def __init__(self, wanted: set):
        super().__init__()
        self.wanted = wanted

    def append(self, chain):
        if (key := chain[:2]) in self.wanted:
            self[key] = chain[2:]


def _transport_shape(rn, shape):
    """The chains of shape and their images under phi, on orbit indices and scaled cuts.

    A chain is the walker's (step indices, scaled cuts, endpoint, depth).  phi
    carries a source step to a target orbit index through map_weight, and a
    scaled cut L_s * b to L_t * b.  Each image is checked as transport_chain
    checks it, and a failure raises the same InvariantViolation: a step outside
    the target orbit, a consecutive pair outside the b-order (a cut L_t * b that
    is not an int, or whose denominator no target cover pairing is divisible
    by, fails here too), or cuts that do not increase.

    Returns the source and target walkers, the source chains in canonical
    order, their images as (steps, cuts), and {(steps, cuts): (endpoint,
    depth)} over the images the target walk enumerates.  That walk still
    enumerates, and checks integral, every chain of the image shape; it
    keeps only the images.
    """
    Ws = _walker(rn.source, shape)
    Wt = _walker(rn.target, map_weight(rn, shape))
    Pt, Ls, Lt = Wt.poset, Ws.scale, Wt.scale
    step = [Pt.index.get(map_weight(rn, w)) for w in Ws.poset.elements]
    chains = _walk_all(Ws)
    images = []
    for steps, cs, _, _ in chains:
        ts = tuple(step[x] for x in steps)
        if None in ts:
            s = map_weight(rn, Ws.poset.elements[steps[ts.index(None)]])
            raise InvariantViolation(f"transported step {s} is outside the target orbit")
        tcs = []
        for x, y, c in zip(ts, ts[1:], cs):
            t, r = divmod(c * Lt, Ls)
            if r or not (Pt.down_mask(Lt // gcd(t, Lt))[y] >> x) & 1:
                raise InvariantViolation(
                    f"transported relation {Pt.elements[x]} < {Pt.elements[y]} "
                    f"fails at cut {Q(c, Ls)}")
            tcs.append(t)
        if any(b <= a for a, b in zip(tcs, tcs[1:])):
            raise InvariantViolation("cuts are not strictly increasing")
        images.append((ts, tuple(tcs)))
    targets = _walk_all(Wt, _Keep(set(images)))
    return Ws, Wt, chains, images, targets


def _chain_transport(bound, engine, workers):
    total = 0
    for spec in ("g2", "frobenius:A2:2"):
        rn = builtin(spec)
        for shape in dominant_pool(rn.source, bound, "coords"):
            Ws, _, chains, images, targets = _transport_shape(rn, shape)
            if len(set(images)) != len(chains):
                return False, f"{spec}: transport not injective on shape {shape}"
            weights = {w for _, _, end, depth in chains for w in (end, depth)}
            phi = {w: map_weight(rn, w) for w in weights}
            for (steps, cs, end, depth), key in zip(chains, images):
                if key not in targets:
                    c = _ls_chain(Ws, steps, cs)
                    return False, f"{spec}: image of {c} is not a chain of the image shape"
                t_end, t_depth = targets[key]
                if t_end != phi[end]:
                    return False, f"{spec}: endpoint does not commute on {_ls_chain(Ws, steps, cs)}"
                if t_depth != phi[depth]:
                    return False, f"{spec}: depth does not commute on {_ls_chain(Ws, steps, cs)}"
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


def _check_bound(bound: int) -> None:
    if bound < 0:
        raise InputError("bound must be nonnegative")


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
    _check_bound(b)
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
    names: list[str] | None = None,
) -> tuple[CriterionResult, ...]:
    """Run the named criteria (default: all), in their order, with config's bounds.

    The names are dealt round-robin into one share per worker, at most one per
    name; each share runs in its own process.  Every criterion keeps `workers`
    for its own sweeps.  Names, bounds and the worker cap are checked before
    any criterion runs.
    """
    config = dict(config or {})
    names = list(CRITERIA if names is None else names)
    for key in [*names, *config]:
        if key not in CRITERIA:
            raise InputError(f"unknown criterion {key!r}; known: {', '.join(CRITERIA)}")
    for bound in config.values():
        _check_bound(bound)
    n = max(1, min(effective_workers(workers), len(names)))

    def run(share):
        return [run_criterion(name, config.get(name), engine, workers) for name in share]

    results = [None] * len(names)
    for i, done in enumerate(_fork_map(run, [names[i::n] for i in range(n)])):
        results[i::n] = done
    return tuple(results)
