"""Acceptance gate: every shipped criterion runs here at its default bound.

Each test prints the one-line PASS/FAIL summary for its criterion, so
`pytest -sv tests/test_acceptance.py` reads as a checklist.
"""

import json
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Q
from pathlib import Path

import pytest

from lschains import acceptance, invariants, pathmodel, renorm
from lschains.acceptance import CRITERIA, DEFAULT_BOUNDS, _transport_shape, run_all, run_criterion
from lschains.errors import InputError, InvariantViolation
from lschains.invariants import clear_caches, dominant_pool
from lschains.pathmodel import LSChain, chain_weights, enumerate_ls_chains
from lschains.renorm import builtin, transport_chain

CRITERION_NAMES = list(CRITERIA)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "accept_reference.json"


def test_every_criterion_is_covered_here():
    # parametrization below must track the shipped list exactly
    assert CRITERION_NAMES == [
        "oracle-equivalence",
        "ls-chain-sanity",
        "so-to-sp",
        "spin-to-sp",
        "g2-self",
        "f4-self",
        "chain-transport",
        "frobenius-scaling",
        "saturation-bc",
        "renorm-validate",
    ]


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(name):
    result = run_criterion(name, bound=DEFAULT_BOUNDS[name])
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == json.loads(REFERENCE.read_text())["full"][name]


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion_details_under_the_oracle_engine(name):
    result = run_criterion(name, DEFAULT_BOUNDS[name], "oracle")
    assert result.detail == json.loads(REFERENCE.read_text())["full"][name]


def test_ls_chain_sanity_fails_on_a_fractional_endpoint(monkeypatch):
    # moving the cut of the A1 chain (-2,) < (2,) from 1/2 to 1/3 puts its endpoint at 2/3
    real = pathmodel._ls_chain

    def moved(W, steps, cs):
        chain = real(W, steps, cs)
        if chain.shape == (2,) and chain.cuts == (Q(1, 2),):
            return replace(chain, cuts=(Q(1, 3),))
        return chain

    monkeypatch.setattr(pathmodel, "_ls_chain", moved)
    result = run_criterion("ls-chain-sanity", 2)
    assert not result.passed
    bad = LSChain((2,), ((-2,), (2,)), (Q(1, 3),))
    assert result.detail.startswith(f"A1 chain {bad}: ")
    assert "chain endpoint" in result.detail


def test_run_all_validates_configuration():
    with pytest.raises(InputError):
        run_all({"no-such-criterion": 1})
    with pytest.raises(InputError):
        run_criterion("oracle-equivalence", bound=-1)
    with pytest.raises(InputError):
        run_criterion("not-a-criterion")


def test_run_all_checks_every_bound_before_any_criterion_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance, "CRITERIA", {
        "first": (lambda bound, engine, workers: ran.append(bound) or (True, ""), 1),
        "second": (lambda bound, engine, workers: (True, ""), 1),
    })
    with pytest.raises(InputError, match="nonnegative"):
        run_all({"second": -1})
    assert ran == []


# ---------------------------------------------------------------------------
# parallel accept: criteria dealt round-robin over forked workers

def _summary(results):
    return [(r.name, r.passed, r.detail) for r in results]


@pytest.mark.parametrize("engine", ["chains", "oracle"])
def test_criteria_report_the_same_at_one_and_two_workers(four_cpus, engine):
    clear_caches()
    serial = run_all(engine=engine, workers=1)
    clear_caches()
    parallel = run_all(engine=engine, workers=2)
    assert _summary(parallel) == _summary(serial)
    reference = json.loads(REFERENCE.read_text())["full"]
    assert _summary(parallel) == [(name, True, reference[name]) for name in CRITERION_NAMES]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_criteria_run_in_different_processes(four_cpus, monkeypatch):
    def pid(bound, engine, workers):
        return True, str(os.getpid())

    monkeypatch.setattr(acceptance, "CRITERIA", {"a": (pid, 1), "b": (pid, 1)})
    a, b = run_all(workers=2)
    assert (a.name, b.name) == ("a", "b")
    assert a.detail == str(os.getpid()) != b.detail
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_criteria_are_dealt_round_robin_and_reported_in_the_order_given(four_cpus, monkeypatch):
    def pid(bound, engine, workers):
        return True, str(os.getpid())

    monkeypatch.setattr(acceptance, "CRITERIA", {name: (pid, 1) for name in "abcde"})
    results = run_all(workers=3, names=["e", "a", "d", "b", "c"])
    assert [r.name for r in results] == ["e", "a", "d", "b", "c"]
    pids = [r.detail for r in results]
    assert pids[0] == pids[3] == str(os.getpid())
    assert pids[1] == pids[4] != pids[2] and len(set(pids)) == 3


def test_a_forked_criterion_forks_its_own_sweep(forking, monkeypatch, tmp_path):
    # a share load of 1 forks every sweep inside each criterion's worker; each
    # process that deals a sweep appends its pid and share count to a log
    log = tmp_path / "sweeps"
    real = invariants._fork_map

    def logged(fn, shares):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {len(shares)}\n")
        return real(fn, shares)

    monkeypatch.setattr(invariants, "_fork_map", logged)
    config = {name: 1 for name in CRITERION_NAMES}
    clear_caches()
    serial = run_all(config, workers=1)
    clear_caches()
    log.unlink(missing_ok=True)
    assert _summary(run_all(config, workers=2)) == _summary(serial)
    sweeps = [line.split() for line in log.read_text().splitlines()]
    assert any(pid != str(os.getpid()) and shares == "2" for pid, shares in sweeps)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_zero_bounds_are_vacuous_but_run():
    results = run_all({name: 0 for name in CRITERION_NAMES})
    assert [r.name for r in results] == CRITERION_NAMES
    assert all(r.passed for r in results)


# ---------------------------------------------------------------------------
# chain-transport: the integer images against the Fraction transport_chain

@pytest.mark.parametrize("spec", ["g2", "frobenius:A2:2"])
def test_integer_transport_equals_transport_chain(spec):
    rn = builtin(spec)
    checked = 0
    for shape in dominant_pool(rn.source, 2, "coords"):
        Ws, Wt, chains, images, targets = _transport_shape(rn, shape)
        sources = enumerate_ls_chains(rn.source, shape)
        assert len(chains) == len(images) == len(sources)
        for (steps, cs, _, _), (ts, tcs), c in zip(chains, images, sources):
            assert tuple(Ws.poset.elements[i] for i in steps) == c.steps
            assert tuple(Q(c_, Ws.scale) for c_ in cs) == c.cuts
            moved = transport_chain(rn, c)
            assert tuple(Wt.poset.elements[i] for i in ts) == moved.steps
            assert tuple(Q(c_, Wt.scale) for c_ in tcs) == moved.cuts
            assert targets[ts, tcs] == chain_weights(moved)
            checked += 1
    assert checked == {"g2": 1394, "frobenius:A2:2": 84}[spec]  # 1478 in all, as `accept` reports


def test_chain_transport_fails_on_a_target_chain_missing_from_the_enumeration(monkeypatch):
    # (2, 0) is the image of the A2 shape (1, 0) and no source shape at bound 1;
    # its top chain is the image of (1, 0)'s top chain, dropped on its way into the sink
    walk_all = acceptance._walk_all

    class DropTopChain:
        def __init__(self, sink):
            self.sink = sink

        def append(self, chain):
            if chain[:2] != ((0,), ()):
                self.sink.append(chain)

    def drop_top_chain(W, out=None):
        if out is not None and W.poset.system.label == "A2" and W.poset.base == (2, 0):
            walk_all(W, DropTopChain(out))
            return out
        return walk_all(W, out)

    monkeypatch.setattr(acceptance, "_walk_all", drop_top_chain)
    result = run_criterion("chain-transport", bound=1)
    assert not result.passed
    assert result.detail == ("frobenius:A2:2: image of LSChain(shape=(1, 0), steps=((1, 0),), "
                             "cuts=()) is not a chain of the image shape")


def test_chain_transport_holds_only_the_images_of_the_target_walk():
    # listing every chain of each image shape peaked at 5.56 MB here
    clear_caches()
    tracemalloc.start()
    try:
        assert run_criterion("chain-transport", 2).passed
        assert tracemalloc.get_traced_memory()[1] < 2_500_000
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bound, weight, detail", [
    # (3, 0) is a weight of the A2 shape (2, 2), and at bound 2 no shape, step or depth
    (2, (3, 0), "endpoint does not commute on LSChain(shape=(2, 2),"),
    # (-2, 0) is the depth of a chain of shape (1, 1), and at bound 1 nothing else
    (1, (-2, 0), "depth does not commute on LSChain(shape=(1, 1),"),
])
def test_chain_transport_fails_on_a_map_weight_that_shifts_an_endpoint_or_depth(
        monkeypatch, bound, weight, detail):
    real = acceptance.map_weight

    def shifted(rn, w):
        out = real(rn, w)
        return (out[0] + 1, out[1]) if rn.name == "frobenius:A2:2" and w == weight else out

    monkeypatch.setattr(acceptance, "map_weight", shifted)
    result = run_criterion("chain-transport", bound=bound)
    assert not result.passed
    assert result.detail.startswith(f"frobenius:A2:2: {detail}")


def test_chain_transport_fails_on_a_step_map_that_is_not_injective(monkeypatch):
    # the A2 shape (1, 0) is minuscule: its three chains are single steps, so
    # sending (-1, 1) to the image of (1, 0) breaks only injectivity
    real = acceptance.map_weight

    def merged(rn, w):
        return real(rn, (1, 0) if rn.name == "frobenius:A2:2" and w == (-1, 1) else w)

    monkeypatch.setattr(acceptance, "map_weight", merged)
    result = run_criterion("chain-transport", bound=1)
    assert not result.passed
    assert result.detail == "frobenius:A2:2: transport not injective on shape (1, 0)"


@pytest.mark.parametrize("moves, broken", [
    ({(-1, -1): (2, -1), (2, -1): (-1, -1)},
     "transported relation (-4, 2) < (-2, -2) fails at cut 1/2"),
    ({(-1, 2): (-1, 3)}, "transported step (-2, 6) is outside the target orbit"),
])
def test_chain_transport_fails_as_transport_chain_does(monkeypatch, moves, broken):
    # steps of the A2 shape (1, 1) moved before phi; no smaller shape has them
    real = renorm.map_weight

    def moved(rn, w):
        return real(rn, moves.get(w, w) if rn.name == "frobenius:A2:2" else w)

    monkeypatch.setattr(renorm, "map_weight", moved)
    monkeypatch.setattr(acceptance, "map_weight", moved)
    rn = builtin("frobenius:A2:2")
    with pytest.raises(InvariantViolation) as exc:
        for c in enumerate_ls_chains(rn.source, (1, 1)):
            transport_chain(rn, c)
    assert str(exc.value) == broken
    assert run_criterion("chain-transport", bound=1).detail == f"error: {exc.value!r}"
