"""Tests of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python -m pytest -q perfbench

Every workload must print every metric of BENCHMARK.json with its unit, in
plain and in traced mode; a wrong output or a corrupted reference must count
as failed; and without the program the run must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(checkout: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )


def _copy_benchmark(dest: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "fail_ratio" in proc.stdout


def test_corrupted_accept_reference_gives_a_nonzero_fail_ratio(tmp_path):
    checkout = _copy_benchmark(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src")
    ref_file = checkout / "perfbench" / "accept_reference.json"
    ref = json.loads(ref_file.read_text())
    ref["tiny"]["g2-self"] = ref["tiny"]["g2-self"].replace("20 triples", "21 triples")
    ref_file.write_text(json.dumps(ref))
    proc = _run(checkout, "accept-cli", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    ratio = next(line for line in proc.stdout.splitlines() if line.startswith("fail_ratio"))
    assert float(ratio.split()[1]) > 0


@pytest.mark.parametrize("workload", ["sweep-chains", "tensor-oracle"])
def test_corrupted_reference_fails_one_operation(workload):
    wl = workloads.WORKLOADS[workload]
    ops = wl.inputs(3, "tiny")
    outputs = wl.run(ops, wl.setup())[0]
    expected = wl.reference(ops)
    assert all(wl.agrees(o, e) for o, e in zip(outputs, expected))
    if workload == "sweep-chains":
        lhs, rhs = expected[0]
        expected[0] = (lhs + 1, rhs + 1)
    else:
        label, dim_product, swapped, chains = expected[0]
        expected[0] = (label, dim_product + 1, swapped, chains)
    assert sum(not wl.agrees(o, e) for o, e in zip(outputs, expected)) == 1


def test_tensor_oracle_is_checked_against_the_chain_engine():
    wl = workloads.WORKLOADS["tensor-oracle"]
    ops = wl.inputs(3, "tiny")
    outputs = wl.run(ops, wl.setup())[0]
    expected = wl.reference(ops)
    checked = [i for i, e in enumerate(expected) if e[3] is not None]
    assert checked
    i = checked[0]
    label, dim_product, swapped, chains = expected[i]
    lam = next(iter(chains))
    expected[i] = (label, dim_product, swapped, {**chains, lam: chains[lam] + 1})
    assert not wl.agrees(outputs[i], expected[i])


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    proc = _run(_copy_benchmark(tmp_path), "sweep-chains", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    for name, wl in workloads.WORKLOADS.items():
        assert wl.inputs(5, "full") == wl.inputs(5, "full")
        if name != "accept-cli":
            assert wl.inputs(5, "full") != wl.inputs(6, "full")


def test_every_seed_does_the_same_cold_work():
    # sweep-chains: the same first factors, each with distinct second factors
    firsts = Counter(t[0] for t in workloads.sweep_inputs(1, "full"))
    assert sum(firsts.values()) == workloads.SWEEP_TRIPLES["full"]
    for seed in (2, 3):
        triples = workloads.sweep_inputs(seed, "full")
        assert Counter(t[0] for t in triples) == firsts
        assert len({t[:2] for t in triples}) == len(triples)
    # tensor-oracle: every pool weight is queried against the pool's largest,
    # and every seed folds the same tables the same number of times
    folded = []
    for seed in (1, 2):
        queries = workloads.oracle_inputs(seed, "full")
        assert len(queries) == workloads.ORACLE_QUERIES["full"]
        for label, pool in workloads.ORACLE_POOLS.items():
            for w in pool:
                assert (label, w, pool[-1]) in queries
        rank = {(label, w): i for label, pool in workloads.ORACLE_POOLS.items()
                for i, w in enumerate(pool)}
        folded.append(Counter(min((label, mu), (label, nu), key=rank.get)
                              for label, mu, nu in queries))
    assert folded[0] == folded[1]
