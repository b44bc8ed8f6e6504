"""Command line interface: output shapes, JSON contract, exit codes."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lschains import acceptance, cli, clear_caches, invariants, pathmodel
from lschains.invariants import VerificationReport, VerificationRow, invariant_dim
from lschains.rootsys import build_root_system, weyl_dim


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# basic queries

def test_mult_prints_a_single_number(capsys):
    code, out, _ = run(capsys, "mult", "A1", "2", "--", "1", "1")
    assert code == 0
    assert out.strip() == "1"


def test_mult_with_three_factors(capsys):
    code, out, _ = run(capsys, "mult", "A2", "0,0", "--", "1,0", "1,0", "1,0")
    assert code == 0
    assert out.strip() == "1"


def test_mult_rejects_non_dominant_target(capsys):
    code, out, err = run(capsys, "mult", "A2", "1,-1", "--", "1,0", "0,1")
    assert code == 1
    assert "dominant" in err


def test_invdim_text_and_json_agree(capsys):
    code, out, _ = run(capsys, "invdim", "A2", "1,0", "0,1")
    assert code == 0 and out.strip() == "1"
    code, doc, _ = run_json(capsys, "invdim", "A2", "1,0", "0,1")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["command"] == "invdim"
    assert doc["invariant_dim"] == invariant_dim(build_root_system("A2"), [(1, 0), (0, 1)])


def test_roots_json_shape(capsys):
    code, doc, _ = run_json(capsys, "roots", "B2")
    assert code == 0
    assert doc["label"] == "B2"
    assert doc["cartan"] == [[2, -2], [-1, 2]]
    assert len(doc["positive_roots"]) == 4
    assert doc["rank"] == 2


def test_chains_listing(capsys):
    code, out, _ = run(capsys, "chains", "A1", "2")
    assert code == 0
    assert "3 chains" in out
    assert out.count("steps") == 3
    assert "1/2" in out


def test_chains_rejects_negative_limit(capsys):
    code, out, err = run(capsys, "chains", "A1", "2", "--limit", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--limit" in err


def test_chains_refuses_shapes_over_the_budget_before_enumerating(capsys, monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("a shape over the budget was enumerated")

    monkeypatch.setattr(cli, "_walker", enumerate_nothing)
    monkeypatch.setattr(cli, "_walk_all", enumerate_nothing)
    code, out, err = run(capsys, "chains", "E8", "1,1,1,1,1,1,1,1")  # weyl_dim about 1.3e36
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "over --max-chains 1000000" in err
    code, out, err = run(capsys, "chains", "G2", "3,3", "--max-chains", "4095")
    assert code == 1
    assert err.startswith("error:") and "4096 chains" in err


def test_chains_prints_from_the_walk_without_building_ls_chains(capsys, monkeypatch):
    def no_chain(*args):
        raise AssertionError("chains built an LSChain")

    monkeypatch.setattr(pathmodel, "_ls_chain", no_chain)
    code, out, _ = run(capsys, "chains", "G2", "3,3", "--limit", "1")
    assert code == 0
    assert out.startswith("G2 shape 3,3: 4096 chains") and "... 4095 more" in out


@pytest.mark.parametrize("label, shape", [("G2", "3,3"), ("F4", "0,0,1,1"), ("A1", "7")])
def test_chains_limit_prints_the_head_of_the_full_listing(capsys, label, shape):
    code, full, _ = run(capsys, "chains", label, shape)
    _, doc, _ = run_json(capsys, "chains", label, shape)
    count = doc["count"]
    lines = full.splitlines()
    for k in (0, 1, 5, count, count + 1):
        code, out, _ = run(capsys, "chains", label, shape, "--limit", str(k))
        more = [f"  ... {count - k} more"] if k < count else []
        assert code == 0 and out.splitlines() == lines[: k + 1] + more
        code, head, _ = run_json(capsys, "chains", label, shape, "--limit", str(k))
        assert code == 0 and head == {**doc, "chains": doc["chains"][:k]}


def test_chains_budget_admits_a_shape_at_the_limit(capsys):
    code, doc, _ = run_json(capsys, "chains", "G2", "1,0", "--max-chains", "7")
    assert code == 0
    assert doc["count"] == 7


def test_chains_rejects_negative_max_chains(capsys):
    code, out, err = run(capsys, "chains", "A1", "2", "--max-chains", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--max-chains" in err


def test_chains_json_counts(capsys):
    code, doc, _ = run_json(capsys, "chains", "G2", "1,0")
    assert code == 0
    assert doc["count"] == 7
    assert len(doc["chains"]) == 7


def test_tensor_lists_components(capsys):
    code, out, _ = run(capsys, "tensor", "B2", "1,0", "0,1")
    assert code == 0
    assert "2 components" in out
    assert "total dim 20" in out


def test_tensor_walks_the_smaller_factor_in_either_order(capsys):
    # as the chain shape, 10**20 - 1 would need a cut a/d for each d dividing it: 10**20 - 2 cuts
    n = 10**20 - 1
    want = [{"weight": [n + k], "multiplicity": 1} for k in (-3, -1, 1, 3)]
    for args in ((str(n), "3"), ("3", str(n))):
        code, doc, _ = run_json(capsys, "tensor", "A1", *args)
        assert code == 0
        assert doc["components"] == want


@pytest.mark.parametrize("argv", [
    ("tensor", "A1", "99999999999999999999", "99999999999999999999"),
    ("mult", "A1", *["99999999999999999999"] * 3),
    ("tensor", "E7", "1,1,1,1,1,1,1", "1,1,1,1,1,1,1"),
    ("tensor", "G2", "3,3", "3,3", "--max-chains", "4095"),
    ("mult", "A1", "0", "3", "3", "--max-chains", "-1"),
    ("mult", "A1", "0", *["99999999999999999998"] * 3),
    ("invdim", "A1", *["99999999999999999998"] * 3),
    ("invdim", "A1", *["99999999999999999998"] * 3, "--engine", "oracle"),
    ("invdim", "A1", "1", "1", "--max-chains", "-1"),
    ("invdim", "A1", "1", "1", "--max-chains", "-1", "--engine", "oracle"),
])
def test_products_over_the_chain_budget_fail_before_walking(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--max-chains" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("roots", "A99999999999999999999"),
    ("roots", "A100000000000000000"),
    ("roots", "A" + "9" * 5000),
    ("renorm", "map", "so_to_sp:99999999999999999998", "1,1"),
    ("saturation", "--rank", "99999999999999999999"),
])
def test_huge_ranks_fail_before_anything_is_built(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


ORACLE_CHECKED = [  # every branch of --oracle: a pair, a fold, invdim through either engine
    ("tensor", "B2", "1,0", "0,1"),
    ("mult", "B2", "1,1", "--", "1,0", "0,1"),
    ("mult", "A2", "0,0", "--", "1,0", "1,0", "1,0"),
    ("invdim", "B2", "1,0", "1,0", "0,2", "--engine", "chains"),
    ("invdim", "B2", "1,0", "1,0", "0,2", "--engine", "oracle"),
]


@pytest.mark.parametrize("argv", ORACLE_CHECKED)
def test_oracle_cross_check_passes_and_prints_the_plain_result(capsys, argv):
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, checked, err = run(capsys, argv[0], "--oracle", *argv[1:])
    assert (code, checked, err) == (0, plain, "")


@pytest.mark.parametrize("argv", ORACLE_CHECKED)
def test_oracle_cross_check_reports_a_planted_disagreement(capsys, monkeypatch, argv):
    real = cli.invariant_dim
    monkeypatch.setattr(cli, "tensor_decompose_oracle",
                        lambda R, mu, nu: pathmodel.TensorDecomposition(mu, nu, {}))
    monkeypatch.setattr(cli, "invariant_dim",
                        lambda R, ws, engine: real(R, ws, engine) + (engine == "oracle"))
    code, out, err = run(capsys, argv[0], "--oracle", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation:")


def test_two_factor_mult_walks_the_smallest_of_the_target_dual_and_the_factors(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "mult", "A1", "0", *["99999999999999999999"] * 2)
    assert time.monotonic() - start < 1
    assert (code, out.strip(), err) == (0, "1", "")


def test_product_budget_checks_the_smaller_factor(capsys):
    code, doc, _ = run_json(capsys, "tensor", "A1", "2000", "2000")
    assert code == 0 and len(doc["components"]) == 2001
    code, out, _ = run(capsys, "mult", "A1", "3", "99999999999999999999", "3", "--max-chains", "4")
    assert code == 0 and out.strip() == "0"
    code, _, err = run(capsys, "tensor", "G2", "3,3", "1,0", "--max-chains", "6")
    assert code == 1 and "G2 shape 1,0 has 7 chains, over --max-chains 6" in err


@pytest.mark.parametrize("argv, value", [
    (("3", "--", "N", "N", "1"), "2"),
    (("0", "--", "1", "N", "N"), "0"),
])
def test_multi_factor_budget_skips_the_two_largest_weights(capsys, argv, value):
    # the fold never walks the two largest of the target's dual and the factors
    argv = [a.replace("N", "99999999999999999998") for a in argv]
    code, out, err = run(capsys, "mult", "A1", *argv)
    assert (code, out.strip(), err) == (0, value, "")


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_fold_budget_covers_every_shape_walked_for_six_and_seven_weights(monkeypatch, label):
    # the induction in _check_fold_budget's docstring, past the five weights it once claimed
    R = build_root_system(label)
    walked, checked = [], []
    walker = pathmodel._walker
    monkeypatch.setattr(pathmodel, "_walker", lambda R, mu: walked.append(mu) or walker(R, mu))
    monkeypatch.setattr(cli, "_check_chain_budget", lambda R, w, budget: checked.append(w))
    pool = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
    for n in (6, 7):
        for ws in itertools.islice(itertools.combinations_with_replacement(pool, n), 0, None, 11):
            clear_caches()
            walked.clear()
            checked.clear()
            cli._check_fold_budget(R, ws, 0)
            invariant_dim(R, ws)
            assert walked and len(checked) == n - 2
            assert max(weyl_dim(R, mu) for mu in walked) <= max(weyl_dim(R, w) for w in checked)


def test_eps_weight_syntax(capsys):
    code, out, _ = run(capsys, "invdim", "B2", "eps:1/2,1/2", "eps:1/2,1/2")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("spin", ["eps:0.5,.5", "eps:2/4, 0.50", "eps:.5,0.5"])
def test_eps_weight_reads_plain_decimals(capsys, spin):
    code, out, _ = run(capsys, "invdim", "B2", spin, "eps:1/2,1/2")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("coord", ["1e10000000", "1e999999999", "1e5000", "1E0", "2.5e-1"])
def test_eps_coordinates_with_an_exponent_fail_fast(capsys, coord):
    start = time.monotonic()
    code, out, err = run(capsys, "tensor", "B2", f"eps:{coord},0", "1,0")
    assert time.monotonic() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: bad eps coordinates")


@pytest.mark.parametrize("argv", [
    ("tensor", "B2", "9" * 4000 + ",0", "0,0"),
    ("tensor", "B2", "9" * 4000 + ",0", "0,0", "--json"),
    ("tensor", "B2", "0,0", "9" * 4000 + ",0", "--oracle"),
])
def test_results_past_the_int_digit_limit_exit_1(capsys, argv):
    # dim V(lam) of B2 has about 12,000 digits here, past what Python prints
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: a result has more than 4300 digits")


def test_a_refusal_names_the_budget_when_the_chain_count_is_too_long_to_print(capsys):
    shape = "9" * 4000 + ",0"
    code, out, err = run(capsys, "chains", "B2", shape)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: B2 shape {shape} has a ") and "over --max-chains 1000000" in err
    digits = int(err.split("has a ")[1].split("-digit number of chains")[0])
    dim = weyl_dim(build_root_system("B2"), (int("9" * 4000), 0))
    assert 10 ** (digits - 1) <= dim < 10 ** digits


@pytest.mark.parametrize("label, eps, text", [
    ("C3", "eps:1.5,0.5,0", "(3/2, 1/2, 0) is not in the type C weight lattice"),
    ("B2", "eps:1,0.5", "(1, 1/2) is not in the type B weight lattice"),
])
def test_eps_lattice_errors_print_the_coordinates_as_written(capsys, label, eps, text):
    code, out, err = run(capsys, "tensor", label, eps, eps)
    assert (code, out) == (1, "")
    assert err == f"error: {text}\n"


def test_eps_weight_outside_lattice(capsys):
    code, _, err = run(capsys, "invdim", "B2", "eps:1/3,0")
    assert code == 1
    assert err.strip() != ""


# ---------------------------------------------------------------------------
# renormalizations

def test_renorm_list_contains_catalog(capsys):
    code, out, _ = run(capsys, "renorm", "list")
    assert code == 0
    for name in ("trivial:B2", "so_to_sp:2", "sp_to_spin:3", "f4", "g2"):
        assert name in out


def test_renorm_check_passes_for_g2(capsys):
    code, out, _ = run(capsys, "renorm", "check", "g2")
    assert code == 0
    assert "FAIL" not in out
    assert "dual-construction" in out


def test_renorm_check_rejects_non_prime(capsys):
    code, _, err = run(capsys, "renorm", "check", "frobenius:A2:4")
    assert code == 1
    assert "prime" in err


def test_renorm_map_output(capsys):
    code, out, _ = run(capsys, "renorm", "map", "g2", "1,0")
    assert code == 0
    assert out.strip() == "1,0 -> 0,1"


@pytest.mark.parametrize("spec", ["so_to_sp:abc", "trivial:B2:x", "frobenius:A2:two"])
def test_renorm_map_rejects_non_integer_builtin_parameter(capsys, spec):
    code, out, err = run(capsys, "renorm", "map", spec, "1,0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not an integer" in err


def test_renorm_map_eps_input(capsys):
    code, out, _ = run(capsys, "renorm", "map", "sp_to_spin:2", "eps:1/2,1/2")
    assert code == 0
    assert out.strip().endswith("-> 0,1")


# ---------------------------------------------------------------------------
# sweeps

def test_verify_trivial_sweep(capsys):
    code, out, _ = run(capsys, "verify", "trivial:A2", "--bound", "1")
    assert code == 0
    assert "0 violations" in out


def test_verify_explicit_weights(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "so_to_sp:2", "--weights", "1,0", "0,0", "--n", "2"
    )
    assert code == 0
    assert doc["violations"] == 0
    assert doc["tuples"] == 3


def test_verify_f4_honours_an_explicit_bound(capsys):
    code, doc, _ = run_json(capsys, "verify", "f4", "--bound", "0")
    assert code == 0
    assert (doc["pool_size"], doc["tuples"]) == (1, 1)
    # without --bound or --weights, f4 keeps its small pool {0, w3, w4}
    code, doc, _ = run_json(capsys, "verify", "f4", "--n", "2")
    assert (doc["pool_size"], doc["tuples"]) == (3, 6)


def test_verify_f4_honours_an_explicit_pool(capsys):
    code, doc, _ = run_json(capsys, "verify", "f4", "--pool", "height", "--n", "2")
    assert code == 0
    assert (doc["pool_size"], doc["tuples"]) == (15, 120)


def test_verify_bound_defaults_to_two(capsys):
    code, doc, _ = run_json(capsys, "verify", "trivial:A1", "--n", "2")
    assert doc["pool_size"] == 3


def test_verify_exit_code_on_violation(capsys, monkeypatch):
    row = VerificationRow(((1, 0),), ((1, 0),), lhs=2, rhs=1)
    fake = VerificationReport("trivial:A2", "chains", (row,))
    monkeypatch.setattr(cli, "verify_inequality", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "trivial:A2", "--bound", "1")
    assert code == 2
    assert "1 violations" in out


def test_verify_rejects_non_integer_worker_cap(capsys, monkeypatch):
    monkeypatch.setenv("LSCHAINS_MAX_WORKERS", "abc")
    code, out, err = run(capsys, "verify", "g2", "--workers", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "LSCHAINS_MAX_WORKERS" in err


def test_accept_rejects_non_integer_worker_cap_before_any_criterion(capsys, monkeypatch):
    monkeypatch.setenv("LSCHAINS_MAX_WORKERS", "abc")
    code, out, err = run(capsys, "accept", "--workers", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "LSCHAINS_MAX_WORKERS" in err


def _dies_in_a_child(real):
    parent = os.getpid()

    def fn(*args):
        if os.getpid() != parent:
            os._exit(1)  # as the OOM killer would leave it: no result in the pipe
        return real(*args)
    return fn


def test_a_sweep_worker_that_dies_exits_1_without_a_traceback(capsys, monkeypatch, forking):
    monkeypatch.setattr(invariants, "tensor_multiplicity",
                        _dies_in_a_child(invariants.tensor_multiplicity))
    invariants.clear_caches()
    code, out, err = run(capsys, "verify", "so_to_sp:2", "--bound", "1", "--workers", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: worker process ") and "ended without a result" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_accept_worker_that_dies_exits_1_without_a_traceback(capsys, monkeypatch, four_cpus):
    passing = (_dies_in_a_child(lambda bound, engine, workers: (True, "ok")), 1)
    monkeypatch.setattr(acceptance, "CRITERIA", {"here": passing, "there": passing})
    code, out, err = run(capsys, "accept", "--workers", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: worker process ") and "ended without a result" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_frobenius_sweep(capsys):
    code, out, _ = run(capsys, "frobenius", "A1", "2", "--bound", "2")
    assert code == 0
    assert "0 violations" in out
    assert "2 strict" in out


@pytest.mark.parametrize("label, p, flags", [
    ("A2", "2", ["--bound", "2"]),
    ("A2", "3", ["--bound", "1", "--full", "--json"]),
    ("B2", "2", ["--pool", "height", "--json"]),
])
def test_frobenius_is_verify_of_the_frobenius_builtin(capsys, label, p, flags):
    code, out, err = run(capsys, "frobenius", label, p, *flags)
    want = run(capsys, "verify", f"frobenius:{label}:{p}", *flags)
    out = out.replace('"command": "frobenius"', '"command": "verify"')
    assert (code, out, err) == want


def test_saturation_json_deterministic_across_workers(capsys):
    code1, doc1, _ = run_json(capsys, "saturation", "--rank", "2", "--n", "2",
                              "--bound", "1", "--workers", "1")
    code2, doc2, _ = run_json(capsys, "saturation", "--rank", "2", "--n", "2",
                              "--bound", "1", "--workers", "3")
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["counterexamples"] == 0


# ---------------------------------------------------------------------------
# acceptance driver

def test_accept_single_criterion(capsys):
    code, out, _ = run(capsys, "accept", "--criterion", "ls-chain-sanity",
                       "--bound", "ls-chain-sanity=1")
    assert code == 0
    assert out.startswith("PASS")
    assert "1/1 criteria passed" in out


def test_accept_unknown_criterion(capsys):
    code, _, err = run(capsys, "accept", "--criterion", "no-such-thing")
    assert code == 1
    assert "unknown criterion" in err


def test_accept_checks_bound_names_with_a_criterion_given(capsys):
    want = run(capsys, "accept", "--bound", "nope=1")
    assert want[0] == 1 and "unknown criterion 'nope'" in want[2]
    assert run(capsys, "accept", "--criterion", "g2-self", "--bound", "nope=1") == want


def test_accept_bad_bound_syntax(capsys):
    code, _, err = run(capsys, "accept", "--bound", "oracle-equivalence")
    assert code == 1


# ---------------------------------------------------------------------------
# shared wiring

def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "roots.json"
    code, out, _ = run(capsys, "roots", "A2", "--json", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_out_to_unwritable_path_fails_before_printing(capsys, tmp_path):
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "tensor", "B2", "1,0", "0,1", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert not path.exists()


def test_reader_closing_the_pipe_early_leaves_stderr_empty():
    # 4096 chain lines overflow the pipe buffer, so the write fails once the reader is gone
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "lschains.cli", "chains", "G2", "3,3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"G2 shape 3,3: 4096 chains")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "roots" in out and "accept" in out


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_malformed_weight(capsys):
    code, _, err = run(capsys, "chains", "A2", "1,banana")
    assert code == 1


def test_wrong_rank_weight(capsys):
    code, _, err = run(capsys, "chains", "A2", "1,0,0")
    assert code == 1


# ---------------------------------------------------------------------------
# fuzzing: every command line ends in an exit code, never in an exception

_HUGE = "99999999999999999999"
_LONG = "9" * 4000  # Python reads it, but not every int it leads to can be printed
_SWEEP_SPECS = ["g2", "so_to_sp:2", "sp_to_spin:2", "short_to_dual:B2", "trivial:A2",
                "trivial:B2:2", "frobenius:C2:5", "frobenius:G2:7"]
_BAD_SPECS = ["trivial:A1:0", "frobenius:G2:4", "so_to_sp:" + _HUGE, "bogus", ""]
_SPECS = _SWEEP_SPECS + ["f4", "so_to_sp:3", "frobenius:A1:2305843009213693951"]


def _mostly(good, bad):
    """One of good three times in four, else one of bad."""
    return st.one_of(*[st.sampled_from(good)] * 3, st.sampled_from(bad))


def _weights(lo, hi, sweep=False):
    """lo to hi weight arguments, mostly valid ones of rank 2, else malformed or huge ones.

    A sweep's weights keep their coordinates at most 1 and are never huge.
    """
    good = st.lists(st.sampled_from(["0", "1"] + ["2"] * (not sweep)), min_size=2, max_size=2)
    good = good.map(",".join)
    coord = st.sampled_from(["0", "1", "-1", "", "1/2", "3/2", "x"] + [_HUGE, _LONG] * (not sweep))
    other = st.tuples(st.sampled_from(["", "eps:"]), st.lists(coord, min_size=1, max_size=3))
    weight = st.one_of(good, good, good, other.map(lambda w: w[0] + ",".join(w[1])))
    return st.lists(weight, min_size=lo, max_size=hi)


def _options(*choices):
    """Any subset of the choices, each an argument list, in order."""
    return st.lists(st.sampled_from(choices), max_size=len(choices), unique_by=lambda o: o[0]).map(
        lambda opts: [a for o in opts for a in o])


def _command(*parts):
    """The concatenation of parts, each a strategy for an argument list."""
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _one(strategy):
    return strategy.map(lambda v: [v])


_LABEL = _one(_mostly(["A2", "B2", "C2", "G2"], ["A1", "A" + _HUGE, "D" + _HUGE, "A0", "E9", ""]))
_SCAN = _command(st.sampled_from([["--bound", "1"], ["--bound", "0"], ["--bound", "-1"]]),
                 _options(["--n", "2"], ["--n", "0"], ["--engine", "oracle"], ["--workers", "2"],
                          ["--json"]))
_SWEEP = _command(_SCAN, _options(["--pool", "height"], ["--full"]))
_PRIME = _one(_mostly(["2", "3", "5", "7"], ["4", "1", "-3", "x", _HUGE]))
_PRODUCT = _options(["--json"], ["--oracle"], ["--max-chains", "50"], ["--max-chains", "-1"])
_COMMANDS = st.one_of(
    _command(st.just(["roots"]), _LABEL, _options(["--json"])),
    _command(st.just(["chains"]), _options(["--json"], ["--limit", "2"], ["--limit", "-1"]),
             _LABEL, _weights(1, 1)),
    _command(st.just(["tensor"]), _PRODUCT, _LABEL, _weights(2, 2)),
    _command(st.just(["mult"]), _PRODUCT, _LABEL, _weights(1, 1), st.just(["--"]), _weights(2, 4)),
    _command(st.just(["invdim"]), _PRODUCT, _options(["--engine", "oracle"]), _LABEL,
             _weights(1, 5)),
    _command(st.just(["renorm"]), st.one_of(
        st.just(["list"]),
        _command(st.just(["check"]), _one(_mostly(_SPECS, _BAD_SPECS))),
        _command(st.just(["map"]), _one(_mostly(_SPECS, _BAD_SPECS)), _weights(1, 3)))),
    _command(st.just(["verify"]), _one(_mostly(_SWEEP_SPECS, _BAD_SPECS)), _SWEEP,
             st.one_of(st.just([]), _command(st.just(["--weights"]), _weights(0, 3, sweep=True)))),
    _command(st.just(["frobenius"]), _LABEL, _PRIME, _SWEEP),
    _command(st.just(["saturation"]), _SCAN,
             _options(["--rank", "2"], ["--rank", "1"], ["--rank", _HUGE], ["--rank", "x"])),
)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(_COMMANDS)
def test_every_command_line_ends_in_an_exit_code(argv):
    # sweeps stay at rank 2 or less, bound 1, n 3 and primes up to 7, so each command is quick;
    # an F4 frobenius sweep at bound 1 would take seconds of real work
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
