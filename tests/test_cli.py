"""Command line interface: output shapes, JSON contract, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lschains import acceptance, cli, invariants
from lschains.invariants import VerificationReport, VerificationRow, invariant_dim
from lschains.rootsys import build_root_system


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

    monkeypatch.setattr(cli, "enumerate_ls_chains", enumerate_nothing)
    code, out, err = run(capsys, "chains", "E8", "1,1,1,1,1,1,1,1")  # weyl_dim about 1.3e36
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "over --max-chains 1000000" in err
    code, out, err = run(capsys, "chains", "G2", "3,3", "--max-chains", "4095")
    assert code == 1
    assert err.startswith("error:") and "4096 chains" in err


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
    # as the chain shape, 10**20 - 1 would need a Farey table of that order
    n = 10**20 - 1
    want = [{"weight": [n + k], "multiplicity": 1} for k in (-3, -1, 1, 3)]
    for args in ((str(n), "3"), ("3", str(n))):
        code, doc, _ = run_json(capsys, "tensor", "A1", *args)
        assert code == 0
        assert doc["components"] == want


@pytest.mark.parametrize("argv", [
    ("tensor", "A1", "99999999999999999999", "99999999999999999999"),
    ("mult", "A1", "0", "99999999999999999999", "99999999999999999999"),
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


def test_eps_weight_syntax(capsys):
    code, out, _ = run(capsys, "invdim", "B2", "eps:1/2,1/2", "eps:1/2,1/2")
    assert code == 0 and out.strip() == "1"


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
