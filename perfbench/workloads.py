"""The benchmark's workloads: seeded inputs, the timed run and the output checks.

Each workload is a `Workload` of these functions:

- `inputs(seed, size)` builds the operations from the seed alone, without
  calling lschains, so the program receives only generated inputs;
- `setup()` builds what the run needs before it is timed;
- `run(ops, ctx)` performs them through the public API; this is the timed
  phase.  It returns one output per operation, the latency (seconds) of each
  query a user would wait for, and any per-layer values the program reports
  itself (the accept command's seconds per criterion);
- `reference(ops)` gives the expected output per operation, computed another
  way or recorded, and `agrees(output, expected)` judges one operation.

lschains is looked up through module attributes at call time, so that the
traced mode's wrappers (see tracing.py) see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SIZES = ("full", "tiny")

# ---------------------------------------------------------------------------
# sweep-chains: the paper's core experiment, the G2 self-map inequality sweep

SWEEP_BOUND = {"full": 3, "tiny": 1}
SWEEP_TRIPLES = {"full": 40, "tiny": 6}


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Split `total` in proportion to `weights`, rounding by largest remainder."""
    whole = sum(weights)
    exact = [total * w / whole for w in weights]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: (quotas[i] - exact[i], i))
    for i in by_remainder[: total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def sweep_inputs(seed: int, size: str) -> list[tuple]:
    """A seeded draw of triples from the G2 sweep at coordinate bound 3.

    The sweep's tuples are the sorted multisets of size 3 from the pool of
    weights with coordinates <= bound.  The chain engine's cost is set by the
    first factor of a triple (its chains are enumerated and scanned once per
    distinct second factor), so the draw is stratified on it: every first
    factor gets its proportional share of triples, and within a stratum the
    seed picks distinct second factors and any third factor.  Every seed thus
    enumerates the same shapes and makes the same number of decompositions;
    a plain uniform draw costs anywhere from 3 to 12 s on the same machine.
    """
    bound = SWEEP_BOUND[size]
    pool = list(itertools.product(range(bound + 1), repeat=2))
    strata: dict[tuple, list[tuple]] = {}
    for t in itertools.combinations_with_replacement(pool, 3):
        strata.setdefault(t[0], []).append(t)
    firsts = list(strata)
    quotas = _largest_remainder(SWEEP_TRIPLES[size], [len(strata[f]) for f in firsts])
    rng = random.Random(seed)
    triples = []
    for first, quota in zip(firsts, quotas):
        seconds = sorted({t[1] for t in strata[first]})
        for second in rng.sample(seconds, quota):
            third = rng.choice([t[2] for t in strata[first] if t[1] == second])
            triples.append((first, second, third))
    return sorted(triples)


def sweep_setup():
    import lschains

    return lschains.builtin("g2")


def sweep_run(triples, rn):
    """One sweep over all the triples, as a user runs it: a single query."""
    import lschains

    start = time.perf_counter()
    try:
        rows = lschains.verify_inequality(rn, triples, "chains", 1).rows
        outputs = [(row.lhs, row.rhs) for row in rows]
    except Exception as exc:  # every triple counts as failed
        outputs = [repr(exc)] * len(triples)
    return outputs, [time.perf_counter() - start], {}


def sweep_reference(triples):
    """Every row re-evaluated with the character oracle."""
    import lschains

    rep = lschains.verify_inequality(lschains.builtin("g2"), triples, "oracle", 1)
    return [(row.lhs, row.rhs) for row in rep.rows]


def sweep_agrees(out, expected) -> bool:
    return out == expected and out[0] <= out[1]


# ---------------------------------------------------------------------------
# tensor-oracle: a stream of character-oracle tensor queries

# Per type: the 10 (or fewer) dominant weights of height 1 or 2 with the
# smallest weyl_dim, all at most 3000, in increasing dimension.  Fixed here
# so that the inputs do not depend on the program under test.
ORACLE_POOLS = {
    "B4": [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0),
           (0, 0, 0, 2), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 0, 1), (0, 2, 0, 0)],
    "C4": [(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
           (1, 1, 0, 0), (1, 0, 0, 1), (0, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 2)],
    "D5": [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0),
           (2, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 2), (0, 0, 0, 2, 0),
           (1, 0, 0, 0, 1), (1, 0, 0, 1, 0)],
    "F4": [(0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2), (1, 0, 0, 1),
           (2, 0, 0, 0), (0, 1, 0, 0)],
    "E6": [(0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
           (0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0),
           (2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1),
           (1, 1, 0, 0, 0, 0)],
    "E7": [(0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0),
           (0, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, 1, 0)],
}
ORACLE_POOL_SIZE = {"full": 10, "tiny": 2}
ORACLE_QUERIES = {"full": 200, "tiny": 30}


def oracle_inputs(seed: int, size: str) -> list[tuple]:
    """A seeded stream of (type, mu, nu) queries over the pools.

    The oracle folds the table of the factor with the smaller dimension.
    Each pool weight is queried once against the largest weight of its pool,
    so every table is built exactly once on every seed and the cold
    Freudenthal work does not depend on the seed.  The remaining queries
    fold a table already built: one factor is skewed towards the smallest
    weights, with geometric weights on its rank, and the other is drawn from
    the weights at or above it, so the skewed one is the folded one.  A warm
    query's cost is set by the table it folds, so which tables are folded
    how often is fixed, split by largest remainder over the types and then
    over the ranks; with a plain draw the mix changed with the seed, and
    query_p50_ms sits on a steep part of the latency distribution.  The seed
    picks the other factor, the factor order and the order of the stream.
    """
    rng = random.Random(seed)
    pools = {label: pool[: ORACLE_POOL_SIZE[size]] for label, pool in ORACLE_POOLS.items()}
    queries = [(label, w, pool[-1]) for label, pool in pools.items() for w in pool]
    labels = sorted(pools)
    warm = _largest_remainder(ORACLE_QUERIES[size] - len(queries), [1] * len(labels))
    for label, count in zip(labels, warm):
        pool = pools[label]
        ranks = [math.exp(-k) - math.exp(-k - 1) for k in range(len(pool) - 1)]
        ranks.append(math.exp(1 - len(pool)))
        for k, quota in enumerate(_largest_remainder(count, ranks)):
            for _ in range(quota):
                other = rng.choice(pool[k:])
                pair = (pool[k], other) if rng.random() < 0.5 else (other, pool[k])
                queries.append((label,) + pair)
    rng.shuffle(queries)
    return queries


def oracle_setup():
    import lschains

    return {label: lschains.build_root_system(label) for label in ORACLE_POOLS}


def oracle_run(queries, systems):
    import lschains

    outputs, latencies = [], []
    for label, mu, nu in queries:
        R = systems[label]
        start = time.perf_counter()
        try:
            out = lschains.tensor_decompose_oracle(R, mu, nu).components
        except Exception as exc:  # counted as a failed operation
            out = repr(exc)
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, latencies, {}


# The chain engine re-computes the queries whose factors are both among the
# first CHAIN_CHECK_RANK weights of a B4, C4 or D5 pool: an independent
# check, since the swapped oracle query folds the same table unless the two
# factors have the same dimension.  These take milliseconds each.
CHAIN_CHECK_TYPES = ("B4", "C4", "D5")
CHAIN_CHECK_RANK = 4


def _chain_checked(label, mu, nu) -> bool:
    small = ORACLE_POOLS[label][:CHAIN_CHECK_RANK] if label in CHAIN_CHECK_TYPES else []
    return mu in small and nu in small


def oracle_reference(queries):
    """dim(mu) * dim(nu), the decomposition with the factors swapped, and
    on small B4/C4/D5 pairs the chain engine's decomposition (else None)."""
    import lschains

    refs = []
    for label, mu, nu in queries:
        R = lschains.build_root_system(label)
        swapped = lschains.tensor_decompose_oracle(R, nu, mu).components
        chains = (lschains.tensor_decompose(R, mu, nu).components
                  if _chain_checked(label, mu, nu) else None)
        refs.append((label, lschains.weyl_dim(R, mu) * lschains.weyl_dim(R, nu), swapped, chains))
    return refs


def oracle_agrees(out, expected) -> bool:
    import lschains

    label, dim_product, swapped, chains = expected
    if not isinstance(out, dict):
        return False
    R = lschains.build_root_system(label)
    total = sum(m * lschains.weyl_dim(R, lam) for lam, m in out.items())
    return total == dim_product and out == swapped and chains in (None, out)


# ---------------------------------------------------------------------------
# accept-cli: `lschains accept --json --workers 2` end to end

ACCEPT_REFERENCE = Path(__file__).with_name("accept_reference.json")
ACCEPT_WORKERS = "2"


def accept_reference_table() -> dict[str, dict[str, str]]:
    """Recorded detail string of every criterion, per input size."""
    return json.loads(ACCEPT_REFERENCE.read_text())


def accept_argv(size: str) -> list[str]:
    """The full size runs the default bounds; the tiny size lowers all to 1."""
    argv = ["accept", "--json", "--workers", ACCEPT_WORKERS]
    if size == "tiny":
        for name in accept_reference_table()["tiny"]:
            argv += ["--bound", f"{name}=1"]
    return argv


# The root systems of the oracle-equivalence plan; `builtin` builds those of
# the renormalizations.  Root systems are memoized, so accept reuses the ones
# set-up built; renormalizations are not, so accept rebuilds those.
ACCEPT_SYSTEMS = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")


def accept_setup():
    import lschains

    renorms = [lschains.builtin(spec) for spec in lschains.builtin_catalog()]
    systems = [lschains.build_root_system(label) for label in ACCEPT_SYSTEMS]
    return renorms, systems


def accept_inputs(seed: int, size: str) -> list[tuple]:
    """One operation per criterion; the command line does not depend on the seed."""
    return [(name, size) for name in accept_reference_table()[size]]


def accept_run(ops, _ctx):
    """One accept command: a single query; each criterion is checked as an operation."""
    import lschains.cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = lschains.cli.main(accept_argv(ops[0][1]))
    elapsed = time.perf_counter() - start
    try:
        doc = json.loads(buf.getvalue())
        results = {r["name"]: r for r in doc["results"]}
        whole_ok = code == 0 and doc["passed"] is True and len(results) == len(ops)
    except (ValueError, KeyError, TypeError):
        results, whole_ok = {}, False
    outputs = [(whole_ok and results[name]["passed"], results[name]["detail"])
               if name in results else None for name, _ in ops]
    seconds = {f"acceptance.{name}.s": r["seconds"] for name, r in results.items()}
    return outputs, [elapsed], seconds


def accept_reference(ops):
    table = accept_reference_table()
    return [(True, table[size][name]) for name, size in ops]


def accept_agrees(out, expected) -> bool:
    return out == expected


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    setup: Callable  # builds the root systems and renormalizations run needs
    run: Callable
    reference: Callable
    agrees: Callable


WORKLOADS = {
    "sweep-chains": Workload(sweep_inputs, sweep_setup, sweep_run, sweep_reference, sweep_agrees),
    "tensor-oracle": Workload(oracle_inputs, oracle_setup, oracle_run, oracle_reference,
                              oracle_agrees),
    "accept-cli": Workload(accept_inputs, accept_setup, accept_run, accept_reference,
                           accept_agrees),
}
