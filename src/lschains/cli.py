"""Command-line front end.

Every subcommand prints an aligned text report by default and a versioned
JSON document with --json; --out additionally writes whichever form was
printed to a file.  Exit status: 0 success, 1 input error or a worker
process that ended without a result, 2 when a sweep finds violations or an
internal invariant breaks.  A reader that closes the pipe early (`| head`)
cuts the report short without an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as Q

from .acceptance import run_all
from .charoracle import tensor_decompose_oracle, weyl_dim
from .errors import InputError, InvariantViolation
from .invariants import (
    dominant_pool,
    invariant_dim,
    saturation_scan,
    sweep_tuples,
    verify_inequality,
)
from .pathmodel import _walk_all, _walker, tensor_decompose
from .renorm import (
    builtin,
    builtin_catalog,
    dual_renormalization,
    map_weight,
    validate,
)
from .rootsys import build_root_system, by_weyl_dim, dominant_weight, dual_weight, weight_from_eps

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our contract says 1
        raise InputError(message)


def parse_weight(R, text: str):
    """Weight syntax: '1,0,2' in fundamental coordinates, or 'eps:3/2,1/2'."""
    text = text.strip()
    if text.startswith("eps:"):
        return weight_from_eps(R, text[4:].split(","))
    try:
        w = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(
            f"bad weight {text!r}: expected comma-separated integers or eps:... form"
        )
    if len(w) != R.rank:
        raise InputError(f"weight {text!r} has {len(w)} coordinates, {R.label} needs {R.rank}")
    return w


def _wstr(w) -> str:
    return ",".join(str(x) for x in w)


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument("--out", metavar="PATH", help="also write the output to a file")


def _add_engine(p):
    p.add_argument("--engine", choices=("chains", "oracle"), default="chains",
                   help="tensor decomposition engine (default: chains)")


def _add_workers(p, what="parallel workers for the sweep"):
    p.add_argument("--workers", type=int, default=None,
                   help=f"{what} (capped by the CPU count and LSCHAINS_MAX_WORKERS)")


def _add_max_chains(p, what: str):
    p.add_argument("--max-chains", type=int, default=1_000_000, metavar="N",
                   help=f"refuse {what} with more than N chains, i.e. dim V > N (default 1000000)")


def _add_sweep(p):
    """The options shared by verify and frobenius, which run the same sweep."""
    p.add_argument("--n", type=int, default=3, help="tuple size (default 3)")
    p.add_argument("--bound", type=int, default=None,
                   help="pool bound (default 2; for f4 without --bound, --pool and "
                        "--weights the pool is 0, w3, w4)")
    p.add_argument("--pool", choices=("coords", "height"), default=None,
                   help="pool mode: per-coordinate bound (default) or coordinate-sum bound")
    p.add_argument("--full", action="store_true", help="print every row, not a summary")
    _add_engine(p)
    _add_workers(p)
    _add_common(p)


def _build_parser() -> _Parser:
    top = _Parser(prog="lschains",
                  description="Tensor and invariant multiplicities via chains of "
                              "Weyl orbit weights, with renormalization sweeps.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="root system data for a type label")
    p.add_argument("type")
    _add_common(p)

    p = sub.add_parser("chains", help="enumerate the chains of a dominant shape")
    p.add_argument("type")
    p.add_argument("shape")
    p.add_argument("--limit", type=int, default=None, help="print at most N chains")
    _add_max_chains(p, "shapes")
    _add_common(p)

    p = sub.add_parser("mult", help="multiplicity of a target in a tensor product")
    p.add_argument("type")
    p.add_argument("target")
    p.add_argument("factors", nargs="+", help="factor weights (after an optional --)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the character-theoretic engine")
    _add_max_chains(p, "the weights it walks")
    _add_common(p)

    p = sub.add_parser("tensor", help="full decomposition of a two-factor product")
    p.add_argument("type")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the character-theoretic engine")
    _add_max_chains(p, "the smaller factor")
    _add_common(p)

    p = sub.add_parser("invdim", help="dimension of the invariant subspace")
    p.add_argument("type")
    p.add_argument("weights", nargs="+")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the character-theoretic engine")
    _add_max_chains(p, "the weights it walks")
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser("renorm", help="renormalization catalog, checks, weight maps")
    rsub = p.add_subparsers(dest="action", required=True)
    q = rsub.add_parser("list", help="catalog of builtin renormalizations")
    _add_common(q)
    q = rsub.add_parser("check", help="run every validation check on a builtin")
    q.add_argument("spec")
    _add_common(q)
    q = rsub.add_parser("map", help="apply the weight map to source weights")
    q.add_argument("spec")
    q.add_argument("weights", nargs="+")
    _add_common(q)

    p = sub.add_parser("verify", help="inequality sweep for a renormalization")
    p.add_argument("spec")
    p.add_argument("--weights", nargs="*", default=None,
                   help="explicit pool of source weights (overrides --bound/--pool)")
    _add_sweep(p)

    p = sub.add_parser("frobenius", help="scaling-inequality sweep at a prime: "
                                         "verify frobenius:TYPE:P")
    p.add_argument("type")
    p.add_argument("p", type=int)
    _add_sweep(p)

    p = sub.add_parser("saturation", help="spin-side vs symplectic-side membership scan")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--bound", type=int, default=1)
    _add_engine(p)
    _add_workers(p)
    _add_common(p)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--criterion", action="append", default=None,
                   help="run only this criterion (repeatable)")
    p.add_argument("--bound", action="append", default=None, metavar="NAME=VALUE",
                   help="override a criterion's sweep bound (repeatable)")
    _add_engine(p)
    _add_workers(p, "processes the criteria are dealt over, round-robin; each criterion's "
                    "sweeps may use as many again, so at most N*N run at once")
    _add_common(p)

    return top


# ---------------------------------------------------------------------------
# handlers: each returns (payload, lines, violated)

def _cmd_roots(args):
    R = build_root_system(args.type)
    lines = [f"{R.label}: rank {R.rank}, {2 * len(R.positive_roots)} roots, "
             f"Weyl vector {_wstr(R.weyl_vector)}"]
    lines.append("Cartan matrix:")
    for row in R.cartan:
        lines.append("  " + " ".join(f"{x:3d}" for x in row))
    lines.append(f"{'idx':>3} {'fund':>12} {'ht':>3} {'len2':>4} {'coroot':>12}")
    for r in R.positive_roots:
        lines.append(f"{r.index:>3} {_wstr(r.fund):>12} {sum(r.coeffs):>3} "
                     f"{2 * r.d:>4} {_wstr(r.coroot):>12}")
    payload = {
        "label": R.label,
        "rank": R.rank,
        "cartan": [list(row) for row in R.cartan],
        "positive_roots": [
            {"index": r.index, "fund": list(r.fund), "coeffs": list(r.coeffs),
             "coroot": list(r.coroot), "length_squared": 2 * r.d}
            for r in R.positive_roots
        ],
    }
    return payload, lines, False


def _check_budget_sign(budget: int) -> None:
    if budget < 0:
        raise InputError(f"--max-chains must be nonnegative, got {budget}")


def _check_chain_budget(R, shape, budget: int) -> int:
    """dim V(shape), the number of chains of shape, known before any is walked.

    InputError when it is over the --max-chains budget.
    """
    _check_budget_sign(budget)
    dim = weyl_dim(R, shape)
    if dim > budget:
        try:
            count = str(dim)
        except ValueError:  # more digits than Python prints: give their number
            digits = int((dim.bit_length() - 1) * 0.30102999566398120)  # <= log10(dim)
            while 10 ** digits <= dim:
                digits += 1
            count = f"a {digits}-digit number of"
        raise InputError(f"{R.label} shape {_wstr(shape)} has {count} chains, "
                         f"over --max-chains {budget}")
    return dim


def _check_fold_budget(R, ws, budget: int) -> None:
    """The invariant fold of ws: check every weight but the two largest.

    For any n weights, invariant_dim walks no shape of larger weyl_dim than one
    checked.  By induction: a fold step walks its smallest weight, which is
    checked, and leaves a component nu and the n - 2 middle weights, of which
    the induction covers all but the two largest.  Adding nu only lowers their
    order statistics, and the n - 3 smallest middle weights were checked.
    """
    _check_budget_sign(budget)
    for w in by_weyl_dim(R, [dominant_weight(R, w) for w in ws])[:-2]:
        _check_chain_budget(R, w, budget)


def _fold_value(R, ws, engine: str, args) -> int:
    """[ws] through engine within --max-chains; with --oracle, checked through the other engine."""
    _check_fold_budget(R, ws, args.max_chains)
    value = invariant_dim(R, ws, engine)
    if args.oracle and invariant_dim(R, ws, "oracle" if engine == "chains" else "chains") != value:
        raise InvariantViolation("chain and oracle engines disagree")
    return value


class _Head:
    """A walk sink: the n first chains in canonical (steps, cuts) order, and how many came."""

    def __init__(self, n: int):
        self.n, self.count, self.kept = n, 0, []

    def append(self, chain):
        self.count += 1
        self.kept.append(chain)
        if len(self.kept) > 2 * self.n + 64:  # trim now and then, not on every chain
            self.kept = self.chains()

    def chains(self) -> list:
        return sorted(self.kept)[: self.n]


def _cmd_chains(args):
    if args.limit is not None and args.limit < 0:
        raise InputError(f"--limit must be nonnegative, got {args.limit}")
    R = build_root_system(args.type)
    shape = parse_weight(R, args.shape)
    dim = _check_chain_budget(R, shape, args.max_chains)
    W = _walker(R, shape)
    if args.limit is None:
        shown = _walk_all(W)
        count = len(shown)
    else:
        head = _walk_all(W, _Head(args.limit))
        shown, count = head.chains(), head.count
    lines = [f"{R.label} shape {_wstr(shape)}: {count} chains (dim V = {dim})"]
    records = [{"shape": list(shape), "steps": [list(W.poset.elements[x]) for x in steps],
                "cuts": [str(Q(c, W.scale)) for c in cs], "omega": list(end), "delta": list(depth)}
               for steps, cs, end, depth in shown]
    for rec in records:
        steps = " > ".join(_wstr(s) for s in reversed(rec["steps"]))
        cuts = ",".join(rec["cuts"]) or "-"
        lines.append(f"  steps {steps}  cuts {cuts}  endpoint {_wstr(rec['omega'])} "
                     f"depth {_wstr(rec['delta'])}")
    if args.limit is not None and count > args.limit:
        lines.append(f"  ... {count - args.limit} more")
    payload = {
        "label": R.label,
        "shape": list(shape),
        "count": count,
        "dimension": dim,
        "chains": records,
    }
    return payload, lines, False


def _cmd_mult(args):
    R = build_root_system(args.type)
    target = dominant_weight(R, parse_weight(R, args.target), "target weight")
    factors = [parse_weight(R, f) for f in args.factors]
    if len(factors) < 2:
        raise InputError("mult needs at least two factor weights")
    # m(target; f1..fn) is the invariant dimension of the product with V(target)*
    value = _fold_value(R, [dual_weight(R, target), *factors], "chains", args)
    payload = {"label": R.label, "target": list(target),
               "factors": [list(f) for f in factors], "multiplicity": value}
    return payload, [str(value)], False


def _cmd_tensor(args):
    R = build_root_system(args.type)
    mu = parse_weight(R, args.mu)
    nu = parse_weight(R, args.nu)
    # the rule walks the smaller factor's chains
    _check_chain_budget(R, by_weyl_dim(R, [dominant_weight(R, w) for w in (mu, nu)])[0],
                        args.max_chains)
    dec = tensor_decompose(R, mu, nu)
    if args.oracle and tensor_decompose_oracle(R, mu, nu).components != dec.components:
        raise InvariantViolation(f"chain and oracle decompositions disagree for {mu} (x) {nu}")
    total = sum(m * weyl_dim(R, lam) for lam, m in dec.components.items())
    lines = [f"{R.label}: V({_wstr(mu)}) (x) V({_wstr(nu)}) = "
             f"{sum(dec.components.values())} components, total dim {total}"]
    for lam, m in dec.components.items():
        lines.append(f"  {m:>4} x V({_wstr(lam)})   dim {weyl_dim(R, lam)}")
    payload = {"label": R.label, "mu": list(mu), "nu": list(nu),
               "components": [{"weight": list(l), "multiplicity": m}
                              for l, m in dec.components.items()],
               "total_dimension": total}
    return payload, lines, False


def _cmd_invdim(args):
    R = build_root_system(args.type)
    ws = [parse_weight(R, w) for w in args.weights]
    value = _fold_value(R, ws, args.engine, args)
    payload = {"label": R.label, "weights": [list(w) for w in ws],
               "engine": args.engine, "invariant_dim": value}
    return payload, [str(value)], False


def _cmd_renorm(args):
    if args.action == "list":
        lines = [f"{'name':18} {'source':>7} {'target':>7} {'prime':>5}"]
        rows = []
        for spec in builtin_catalog():
            rn = builtin(spec)
            prime = rn.prime if rn.prime is not None else "-"
            lines.append(f"{spec:18} {rn.source.label:>7} {rn.target.label:>7} {prime:>5}")
            rows.append({"name": spec, "source": rn.source.label,
                         "target": rn.target.label, "prime": rn.prime})
        return {"builtins": rows}, lines, False

    if args.action == "check":
        rn = builtin(args.spec)
        rep = validate(rn)
        lines = [f"{rn.name}: {rn.source.label} -> {rn.target.label}"]
        rows = []
        for c in rep.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  {status}  {c.name:20} {c.detail}")
            rows.append({"check": c.name, "passed": c.passed, "detail": c.detail})
        dual_ok, dual_detail = True, ""
        try:
            drep = validate(dual_renormalization(rn))
            dual_ok = drep.ok
            if not dual_ok:
                dual_detail = "; ".join(c.name for c in drep.failures())
        except InvariantViolation as exc:
            dual_ok, dual_detail = False, str(exc)
        lines.append(f"  {'PASS' if dual_ok else 'FAIL'}  {'dual-construction':20} {dual_detail}")
        rows.append({"check": "dual-construction", "passed": dual_ok, "detail": dual_detail})
        violated = not (rep.ok and dual_ok)
        return {"name": rn.name, "source": rn.source.label, "target": rn.target.label,
                "checks": rows, "ok": not violated}, lines, violated

    rn = builtin(args.spec)
    ws = [parse_weight(rn.source, w) for w in args.weights]
    images = [map_weight(rn, w) for w in ws]
    lines = [f"{_wstr(w)} -> {_wstr(v)}" for w, v in zip(ws, images)]
    payload = {"name": rn.name, "weights": [list(w) for w in ws],
               "images": [list(v) for v in images]}
    return payload, lines, False


def _report_lines(rep, full: bool):
    lines = [f"{rep.renormalization}: {len(rep.rows)} tuples, engine {rep.engine}, "
             f"{len(rep.violations)} violations, {rep.strict_count} strict"]
    shown = rep.rows if full else rep.violations
    for r in shown:
        mark = "VIOLATION" if r.violated else ("strict" if r.strict else "equal")
        ws = " ".join(_wstr(w) for w in r.weights)
        im = " ".join(_wstr(w) for w in r.images)
        lines.append(f"  [{ws}] = {r.lhs} <= {r.rhs} = [{im}]  {mark}")
    return lines


def _cmd_verify(args):
    rn = builtin(args.spec)
    if args.weights is not None:
        pool = tuple(parse_weight(rn.source, w) for w in args.weights)
    elif args.bound is None and args.pool is None and args.spec.split(":")[0] == "f4":
        # F4 orbits are big: default to the zero weight and the two smallest
        # fundamentals rather than a coordinate box
        pool = ((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    else:
        pool = dominant_pool(rn.source, 2 if args.bound is None else args.bound,
                             args.pool or "coords")
    rep = verify_inequality(rn, sweep_tuples(pool, args.n), args.engine, args.workers)
    payload = {"pool_size": len(pool), **rep.as_dict()}
    return payload, _report_lines(rep, args.full), not rep.ok


def _cmd_frobenius(args):
    args.spec, args.weights = f"frobenius:{args.type}:{args.p}", None
    return _cmd_verify(args)


def _cmd_saturation(args):
    rep = saturation_scan(args.rank, args.n, args.bound, args.engine, args.workers)
    lines = [f"B{args.rank}/C{args.rank}, n={args.n}, bound {args.bound}: "
             f"{len(rep.rows)} tuples, {len(rep.counterexamples)} counterexamples, "
             f"{len(rep.genuine_witnesses)} genuine witnesses"]
    for r in rep.rows:
        if r.spin_value == 0 and not r.violates_sp_to_spin:
            continue
        ws = " ".join(_wstr(w) for w in r.weights)
        sp = "-" if r.sp_value is None else str(r.sp_value)
        flags = []
        if r.violates_sp_to_spin:
            flags.append("VIOLATION(sp->spin)")
        if r.violates_spin_to_sp:
            flags.append("VIOLATION(spin->sp)")
        if r.genuine_witness:
            flags.append("saturation-witness")
        lines.append(f"  [{ws}] spin {r.spin_value}  sp {sp}  doubled {r.sp_doubled}  "
                     f"N={r.witness} {' '.join(flags)}")
    return rep.as_dict(), lines, not rep.ok


def _cmd_accept(args):
    config: dict[str, int] = {}
    for item in args.bound or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise InputError(f"--bound expects NAME=VALUE, got {item!r}")
        try:
            config[name] = int(value)
        except ValueError:
            raise InputError(f"--bound value in {item!r} is not an integer")
    results = run_all(config, args.engine, args.workers, args.criterion)
    lines = [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    payload = {
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 3)}
            for r in results
        ],
        "passed": len(failed) == 0,
    }
    return payload, lines, bool(failed)


_HANDLERS = {
    "roots": _cmd_roots,
    "chains": _cmd_chains,
    "mult": _cmd_mult,
    "tensor": _cmd_tensor,
    "invdim": _cmd_invdim,
    "renorm": _cmd_renorm,
    "verify": _cmd_verify,
    "frobenius": _cmd_frobenius,
    "saturation": _cmd_saturation,
    "accept": _cmd_accept,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, lines, violated = _HANDLERS[args.command](args)
        if args.json:
            doc = {"schema": SCHEMA, "command": args.command, **payload}
            text = json.dumps(doc, indent=2)
        else:
            text = "\n".join(lines)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (InputError, ChildProcessError) as exc:  # ChildProcessError: a worker died
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Python turns no int of more digits than its limit into text; the limit stays,
        # since it also keeps int() from reading a long argument in quadratic time
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a result has more than {sys.get_int_max_str_digits()} digits, "
              "more than Python prints", file=sys.stderr)
        return 1
    try:
        out = open(args.out, "w") if args.out else None
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if out is not None:
        with out:
            out.write(text + "\n")
    return 2 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
