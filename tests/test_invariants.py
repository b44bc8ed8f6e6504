"""Invariant dimensions, inequality sweeps, and the saturation scan."""

import itertools
import os
import time
from collections import Counter
from dataclasses import replace

import pytest

from lschains import invariants, rootsys
from lschains.charoracle import weight_multiplicities, weyl_dim
from lschains.errors import InputError, InvariantViolation
from lschains.invariants import (
    clear_caches,
    dominant_pool,
    effective_workers,
    frobenius_check,
    invariant_dim,
    saturation_scan,
    sweep_tuples,
    verify_inequality,
)
from lschains.pathmodel import enumerate_ls_chains, tensor_decompose
from lschains.renorm import builtin, map_weight
from lschains.rootsys import build_root_system, dual_weight


def test_single_factor():
    R = build_root_system("B2")
    assert invariant_dim(R, [(0, 0)]) == 1
    assert invariant_dim(R, [(1, 0)]) == 0


def test_two_factors_pair_with_the_dual():
    for label, lam in [("A2", (2, 1)), ("B2", (1, 1)), ("D4", (1, 0, 1, 0))]:
        R = build_root_system(label)
        assert invariant_dim(R, [lam, dual_weight(R, lam)]) == 1
        assert invariant_dim(R, [lam, lam if lam != dual_weight(R, lam) else (0,) * R.rank]) == 0


def test_rank_one_values():
    R = build_root_system("A1")
    assert invariant_dim(R, [(1,), (1,)]) == 1
    assert invariant_dim(R, [(1,), (1,), (1,)]) == 0
    assert invariant_dim(R, [(1,), (1,), (1,), (1,)]) == 2
    assert invariant_dim(R, [(2,), (2,), (2,)]) == 1
    assert invariant_dim(R, [(2,), (2,), (2,), (2,)]) == 3


def test_sl3_determinant_and_adjoint_cube():
    R = build_root_system("A2")
    assert invariant_dim(R, [(1, 0), (1, 0), (1, 0)]) == 1
    assert invariant_dim(R, [(0, 1), (0, 1), (0, 1)]) == 1
    # adjoint appears twice inside adjoint squared, so the cube has two
    assert invariant_dim(R, [(1, 1), (1, 1), (1, 1)]) == 2


def test_symplectic_and_orthogonal_forms():
    assert invariant_dim(build_root_system("C2"), [(1, 0), (1, 0)]) == 1
    assert invariant_dim(build_root_system("B2"), [(1, 0), (1, 0)]) == 1


def test_permutation_invariance_without_cache_help():
    R = build_root_system("A2")
    ws = [(2, 0), (1, 1), (0, 1), (1, 0)]
    values = set()
    for perm in itertools.permutations(ws):
        clear_caches()
        values.add(invariant_dim(R, perm))
    assert len(values) == 1


def test_clear_caches_empties_every_store_and_results_hold_cold():
    R = build_root_system("G2")
    warm = tensor_decompose(R, (1, 1), (2, 0)).components
    poset = rootsys.weyl_orbit_poset(R, (1, 1))
    poset.down_mask(2)
    enumerate_ls_chains(R, (1, 0))
    weight_multiplicities(R, (1, 0))
    weyl_dim(R, (2, 1))
    invariant_dim(R, [(1, 0), (1, 0), (1, 0)])
    stores = rootsys._MEMO_STORES
    assert all(store.cache_info().currsize > 0 for store in stores)
    clear_caches()
    assert all(store.cache_info().currsize == 0 for store in stores)
    # root systems are identity singletons, not a memo: a clear keeps them
    assert build_root_system("G2") is R
    assert tensor_decompose(R, (1, 1), (2, 0)).components == warm


def test_memo_store_is_read_and_filled_in_place():
    calls = []

    @rootsys.memo
    def double(x):
        calls.append(x)
        return 2 * x

    try:
        assert (double(2), double(2), calls) == (4, 4, [2])
        double.store[(3,)] = 7  # a value computed elsewhere, as a forked worker's
        assert (double(3), calls) == (7, [2])
        assert double.cache_info() == (2, 1, None, 2)
        clear_caches()
        assert double.cache_info() == (0, 0, None, 0)
    finally:
        rootsys._MEMO_STORES.remove(double)


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_engines_agree(label):
    R = build_root_system(label)
    pool = dominant_pool(R, 1)
    for ws in sweep_tuples(pool, 3):
        assert invariant_dim(R, ws, "chains") == invariant_dim(R, ws, "oracle")


def test_engine_name_checked():
    R = build_root_system("A1")
    with pytest.raises(InputError):
        invariant_dim(R, [(0,)], engine="guess")


def test_weights_are_validated():
    R = build_root_system("A2")
    with pytest.raises(InputError):
        invariant_dim(R, [])
    with pytest.raises(InputError):
        invariant_dim(R, [(1, -1)])
    with pytest.raises(InputError):
        invariant_dim(R, [(1, 0, 0)])


# ---------------------------------------------------------------------------
# pools and sweeps

def test_dominant_pool_modes():
    R = build_root_system("B2")
    assert dominant_pool(R, 1) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert set(dominant_pool(R, 2, "height")) == {
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)
    }
    with pytest.raises(InputError):
        dominant_pool(R, -1)
    with pytest.raises(InputError):
        dominant_pool(R, 1, "area")


def test_sweep_tuples_counts():
    pool = dominant_pool(build_root_system("B2"), 1)
    assert len(sweep_tuples(pool, 2)) == 10
    assert len(sweep_tuples(pool, 3)) == 20
    with pytest.raises(InputError):
        sweep_tuples(pool, 0)


# ---------------------------------------------------------------------------
# inequality sweeps

def test_identity_map_gives_equality_everywhere():
    rn = builtin("trivial:A2")
    pool = dominant_pool(rn.source, 1)
    report = verify_inequality(rn, sweep_tuples(pool, 2))
    assert report.ok
    assert all(row.lhs == row.rhs for row in report.rows)
    assert report.strict_count == 0


def test_orthogonal_to_symplectic_sweep_holds_with_slack():
    # pairs always tie (both sides test duality), so slack needs triples
    rn = builtin("so_to_sp:2")
    pool = dominant_pool(rn.source, 2, "height")
    report = verify_inequality(rn, sweep_tuples(pool, 3))
    assert report.ok
    assert report.strict_count > 0
    for row in report.rows:
        assert row.images == tuple(map_weight(rn, w) for w in row.weights)
        assert row.lhs <= row.rhs


def test_row_values_match_direct_computation():
    rn = builtin("so_to_sp:2")
    ws = ((1, 0), (1, 0), (0, 0))
    report = verify_inequality(rn, [ws])
    row = report.rows[0]
    assert row.lhs == invariant_dim(rn.source, ws) == 1
    assert row.rhs == invariant_dim(rn.target, row.images) == 1
    assert not row.strict and not row.violated


def test_frobenius_scaling_has_strict_rows():
    tuples = [((1,), (1,)), ((1,), (1,), (1,))]
    report = frobenius_check("A1", tuples, 2)
    assert report.ok
    assert report.rows[0].lhs == 1 and report.rows[0].rhs == 1
    assert report.rows[1].lhs == 0 and report.rows[1].rhs == 1
    assert report.rows[1].strict


def test_report_serialization_round_trip():
    rn = builtin("g2")
    report = verify_inequality(rn, [((1, 0), (1, 0))])
    data = report.as_dict()
    assert data["renormalization"] == "g2"
    assert data["tuples"] == 1
    assert data["violations"] == 0
    assert data["rows"][0]["weights"] == [[1, 0], [1, 0]]
    assert data["rows"][0]["lhs"] <= data["rows"][0]["rhs"]


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_runs_the_first_share_here_and_each_other_in_a_child():
    results = invariants._fork_map(lambda share: (share, os.getpid()), ["a", "b", "c"])
    assert [share for share, _ in results] == ["a", "b", "c"]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    _assert_no_child_is_left()


def test_fork_map_with_one_share_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert invariants._fork_map(len, [[1, 2]]) == [2]


def test_fork_map_raises_a_childs_exception_and_kills_the_others():
    parent = os.getpid()

    def fn(share):
        if share == "fail":
            raise InvariantViolation("planted in a child")
        if share == "slow" and os.getpid() != parent:
            time.sleep(60)  # killed, not waited for
        return share

    start = time.monotonic()
    with pytest.raises(InvariantViolation, match="^planted in a child$"):
        invariants._fork_map(fn, ["here", "fail", "slow"])
    assert time.monotonic() - start < 30
    _assert_no_child_is_left()


def test_fork_map_kills_every_child_when_the_parents_share_fails():
    def fn(share):
        if share == "here":
            raise InputError("planted in the parent")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(InputError, match="planted in the parent"):
        invariants._fork_map(fn, ["here", "slow", "slow"])
    assert time.monotonic() - start < 30
    _assert_no_child_is_left()


def test_fork_map_reports_a_child_that_ends_without_a_result():
    parent = os.getpid()

    def fn(share):
        if os.getpid() != parent:
            os._exit(0)  # as the OOM killer would leave it: no result in the pipe
        return share

    with pytest.raises(ChildProcessError, match="ended without a result"):
        invariants._fork_map(fn, ["here", "gone"])
    _assert_no_child_is_left()


@pytest.mark.parametrize("engine", ["chains", "oracle"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rn", [builtin("so_to_sp:2"), replace(builtin("so_to_sp:2"), name="")],
                         ids=["builtin", "custom"])
def test_parallel_rows_match_serial(forking, rn, n, engine):
    # pairs need no decomposition; triples and 4-tuples plan one and two levels
    tuples = sweep_tuples(dominant_pool(rn.source, 1), n)
    clear_caches()
    parallel = verify_inequality(rn, tuples, engine, workers=3)
    clear_caches()
    serial = verify_inequality(rn, tuples, engine, workers=1)
    assert parallel.rows == serial.rows


@pytest.mark.parametrize("n", [3, 4])
def test_a_unit_failing_in_a_worker_fails_the_sweep_and_leaves_no_child(forking, monkeypatch, n):
    # triples plan coefficient units only; 4-tuples plan pair units, then coefficient units
    parent = os.getpid()

    def failing_in_a_child(real):
        def unit(R, *factors):
            if os.getpid() != parent:
                raise InvariantViolation(f"planted failure at {factors}")
            return real(R, *factors)
        return unit

    for entry in ("tensor_decompose", "tensor_multiplicity"):
        monkeypatch.setattr(invariants, entry, failing_in_a_child(getattr(invariants, entry)))
    rn = builtin("so_to_sp:2")
    clear_caches()
    with pytest.raises(InvariantViolation, match="planted failure at"):
        verify_inequality(rn, sweep_tuples(dominant_pool(rn.source, 1), n), workers=3)
    _assert_no_child_is_left()


def test_a_sweep_plans_every_decomposition_it_needs(forking, monkeypatch):
    rounds = []
    real = invariants._evaluate
    monkeypatch.setattr(invariants, "_evaluate",
                        lambda units, workers: rounds.append(units) or real(units, workers))
    rn = builtin("so_to_sp:2")
    clear_caches()
    verify_inequality(rn, sweep_tuples(dominant_pool(rn.source, 1), 4), workers=3)
    # 4-tuples fold in n - 2 = 2 levels, and the rows are assembled from the plan alone
    assert len(rounds) == 2
    assert set(itertools.chain(*rounds)) == set(invariants._unit.store)


@pytest.mark.parametrize("engine", ["chains", "oracle"])
def test_deal_weighs_chain_units_per_walk_and_oracle_units_per_pair(monkeypatch, engine):
    # on G2, weyl_dim (1, 0) = 7 and (0, 1) = 14.  One pair of the 7-dim shape
    # read as itself and four coefficients: five walks (35) through chains, one
    # decomposition (7) through the oracle.  One pair of the 14-dim shape: 14.
    G2 = build_root_system("G2")
    light = [(G2, (1, 0), (2, 2), engine)]
    light += [(G2, (1, 0), (2, 2), engine, lam) for lam in ((1, 2), (2, 1), (3, 2), (2, 2))]
    heavy = [(G2, (0, 1), (2, 2), engine)]
    monkeypatch.setattr(invariants, "_SHARE_LOAD", 1)  # the heaviest group goes first
    assert invariants._deal(light + heavy, 2) == ([light, heavy] if engine == "chains"
                                                  else [heavy, light])
    monkeypatch.setattr(invariants, "_SHARE_LOAD", 22)  # loads 49 and 21
    assert len(invariants._deal(light + heavy, 2)) == (2 if engine == "chains" else 1)


def test_a_repeated_sweep_forks_nothing(forking, monkeypatch):
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    rn = builtin("so_to_sp:2")
    tuples = sweep_tuples(dominant_pool(rn.source, 1), 4)
    clear_caches()
    first = verify_inequality(rn, tuples, workers=3)
    assert forks
    forks.clear()
    assert verify_inequality(rn, tuples, workers=3) == first
    assert forks == []


def test_worker_env_cap(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setenv("LSCHAINS_MAX_WORKERS", "1")
    assert effective_workers(8) == 1
    monkeypatch.delenv("LSCHAINS_MAX_WORKERS")
    assert effective_workers(8) == 8
    assert effective_workers(None) == 1
    assert effective_workers(0) == 1


def test_workers_capped_at_cpu_count(monkeypatch):
    # computes the count only; no process is started
    monkeypatch.delenv("LSCHAINS_MAX_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert effective_workers(10_000) == 4
    assert effective_workers(3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert effective_workers(10_000) == 1


def test_worker_env_cap_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("LSCHAINS_MAX_WORKERS", "abc")
    with pytest.raises(InputError):
        effective_workers(2)


def test_a_cached_sweep_still_checks_the_worker_cap(monkeypatch):
    rn = builtin("g2")
    tuples = sweep_tuples(dominant_pool(rn.source, 1), 3)
    verify_inequality(rn, tuples)
    monkeypatch.setenv("LSCHAINS_MAX_WORKERS", "abc")
    with pytest.raises(InputError, match="LSCHAINS_MAX_WORKERS"):
        verify_inequality(rn, tuples, workers=2)


# ---------------------------------------------------------------------------
# saturation scan

def test_saturation_scan_rank_two_regression():
    report = saturation_scan(2, 3, 1)
    assert len(report.rows) == 20
    assert report.ok
    assert not report.counterexamples
    assert not report.genuine_witnesses
    hist = Counter(r.witness for r in report.rows if r.witness is not None)
    assert hist == {1: 2, 2: 5}


def test_saturation_scan_oracle_engine_agrees():
    chains = saturation_scan(2, 2, 1)
    oracle = saturation_scan(2, 2, 1, engine="oracle")
    assert chains.rows == oracle.rows


def test_saturation_transfer_is_per_weight():
    # the spin weight (0,1) is half-integral in ambient coordinates, so any
    # tuple containing it has no undoubled symplectic counterpart
    report = saturation_scan(2, 2, 1)
    by_ws = {r.weights: r for r in report.rows}
    assert by_ws[((1, 0), (1, 0))].sp_value == 1
    assert by_ws[((0, 1), (0, 1))].sp_value is None
    assert by_ws[((0, 1), (0, 1))].witness == 2
    assert by_ws[((0, 0), (0, 1))].sp_value is None


def test_saturation_scan_serialization():
    report = saturation_scan(2, 1, 1)
    data = report.as_dict()
    assert data["rank"] == 2 and data["n"] == 1 and data["bound"] == 1
    assert data["tuples"] == len(report.rows)
    assert all("witness" in row for row in data["rows"])


def test_saturation_scan_validates_arguments():
    with pytest.raises(InputError):
        saturation_scan(1, 2, 1)
    with pytest.raises(InputError):
        saturation_scan(2, 0, 1)


@pytest.mark.parametrize("engine", ["chains", "oracle"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_saturation_parallel_rows_match_serial(forking, n, engine):
    clear_caches()
    parallel = saturation_scan(2, n, 1, engine, workers=3)
    clear_caches()
    serial = saturation_scan(2, n, 1, engine, workers=1)
    assert parallel.rows == serial.rows
