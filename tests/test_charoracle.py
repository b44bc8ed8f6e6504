"""Dimension formula, weight multiplicities, and the signed-folding product."""

import ast
import itertools
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lschains import clear_caches
from lschains.charoracle import (
    _fold_with_sign,
    tensor_decompose_oracle,
    weight_multiplicities,
    weyl_dim,
)
from lschains.errors import InputError, InvariantViolation
from lschains.pathmodel import chain_endpoint, enumerate_ls_chains
from lschains.rootsys import build_root_system, weyl_orbit

KNOWN_DIMS = [
    ("A1", (0,), 1),
    ("A1", (5,), 6),
    ("A2", (1, 0), 3),
    ("A2", (0, 1), 3),
    ("A2", (1, 1), 8),
    ("A2", (3, 0), 10),
    ("A3", (0, 1, 0), 6),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (0, 2), 10),
    ("B3", (0, 0, 1), 8),
    ("C3", (1, 0, 0), 6),
    ("C3", (0, 1, 0), 14),
    ("D4", (1, 0, 0, 0), 8),
    ("D4", (0, 0, 1, 0), 8),
    ("D4", (0, 0, 0, 1), 8),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("F4", (0, 0, 0, 1), 26),
    ("F4", (1, 0, 0, 0), 52),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
]


@pytest.mark.parametrize("label,lam,dim", KNOWN_DIMS)
def test_known_dimensions(label, lam, dim):
    assert weyl_dim(build_root_system(label), lam) == dim


def test_rank_one_dimension_is_linear():
    R = build_root_system("A1")
    for m in range(10):
        assert weyl_dim(R, (m,)) == m + 1


def test_a_series_symmetric_powers():
    # V(m*w1) for A_{n} is the m-th symmetric power of the vector rep
    for n in (2, 3, 4):
        R = build_root_system(f"A{n}")
        for m in range(4):
            lam = (m,) + (0,) * (n - 1)
            assert weyl_dim(R, lam) == comb(n + m, m)


def test_dimension_rejects_bad_input():
    R = build_root_system("A2")
    with pytest.raises(InputError):
        weyl_dim(R, (-1, 0))
    with pytest.raises(InputError):
        weyl_dim(R, (1, 0, 0))


# ---------------------------------------------------------------------------
# weight multiplicities

def test_highest_weight_has_multiplicity_one():
    for label, lam in [("A2", (1, 1)), ("B2", (2, 0)), ("G2", (1, 0))]:
        R = build_root_system(label)
        assert weight_multiplicities(R, lam).multiplicity(lam) == 1


def test_rank_one_weight_string():
    R = build_root_system("A1")
    table = weight_multiplicities(R, (4,))
    for k in range(-6, 7):
        expect = 1 if abs(k) <= 4 and k % 2 == 0 else 0
        assert table.multiplicity((k,)) == expect


def test_adjoint_zero_multiplicity_is_rank():
    # adjoint rep: every root once, zero weight with multiplicity = rank
    cases = [("A2", (1, 1)), ("B2", (0, 2)), ("G2", (0, 1)), ("A3", (1, 0, 1))]
    for label, adjoint in cases:
        R = build_root_system(label)
        table = weight_multiplicities(R, adjoint)
        assert table.multiplicity((0,) * R.rank) == R.rank
        for r in R.positive_roots:
            assert table.multiplicity(r.fund) == 1


def test_b2_vector_rep_weights():
    R = build_root_system("B2")
    table = weight_multiplicities(R, (1, 0))
    assert table.multiplicity((0, 0)) == 1
    assert table.multiplicity((1, 0)) == 1
    assert table.multiplicity((-1, 2)) == 1
    assert table.multiplicity((0, 1)) == 0


@pytest.mark.parametrize(
    "label,lam",
    [("A2", (2, 1)), ("B2", (1, 1)), ("C3", (0, 1, 0)), ("G2", (1, 0)), ("F4", (0, 0, 0, 1)),
     ("E8", (1, 0, 0, 0, 0, 0, 0, 0)), ("E7", (0, 0, 0, 0, 0, 0, 2))],
)
def test_multiplicities_sum_to_dimension(label, lam):
    R = build_root_system(label)
    table = weight_multiplicities(R, lam)
    assert sum(table.entries.values()) == weyl_dim(R, lam)
    assert all(m > 0 for m in table.entries.values())


def test_e8_w1_table():
    # V(w1) of E8, 3875-dim: orbits of w1 (2160), w8 (the 240 roots) and 0
    R = build_root_system("E8")
    w1, w8, zero = (1,) + (0,) * 7, (0,) * 7 + (1,), (0,) * 8
    table = weight_multiplicities(R, w1)
    dominant = {w: m for w, m in table.entries.items() if R.is_dominant(w)}
    assert dominant == {w1: 1, w8: 7, zero: 35}
    assert len(table.entries) == 2401


def test_misscaled_form_trips_the_integrality_guard(monkeypatch):
    R = build_root_system("G2")
    clear_caches()
    monkeypatch.setattr(R, "simple_d", (3, 1))
    with pytest.raises(InvariantViolation, match=r"Freudenthal failure at \(0, 0\)"):
        weight_multiplicities(R, (1, 0))


def _cross_engine_shapes():
    pools = [("A1", 4)] + [(label, 2) for label in ("A2", "B2", "C2", "G2")]
    pools += [(label, 1) for label in ("A3", "B3", "C3", "D4", "F4")]
    shapes = []
    for label, bound in pools:
        R = build_root_system(label)
        for lam in itertools.product(range(bound + 1), repeat=R.rank):
            if weyl_dim(R, lam) <= 2000:
                shapes.append((label, lam))
    return shapes


# the first four tensor-oracle benchmark pool weights of B4, C4 and D5, and a
# minuscule or quasi-minuscule weight of E6, E7 and F4
_POOL_SHAPES = [
    ("B4", (1, 0, 0, 0)), ("B4", (0, 0, 0, 1)), ("B4", (0, 1, 0, 0)), ("B4", (2, 0, 0, 0)),
    ("C4", (1, 0, 0, 0)), ("C4", (0, 1, 0, 0)), ("C4", (2, 0, 0, 0)), ("C4", (0, 0, 0, 1)),
    ("D5", (1, 0, 0, 0, 0)), ("D5", (0, 0, 0, 0, 1)), ("D5", (0, 0, 0, 1, 0)),
    ("D5", (0, 1, 0, 0, 0)),
    ("E6", (1, 0, 0, 0, 0, 0)), ("E7", (0, 0, 0, 0, 0, 0, 1)), ("F4", (0, 0, 0, 1)),
]


@pytest.mark.parametrize("label,lam", _cross_engine_shapes() + _POOL_SHAPES)
def test_table_is_the_path_model_character(label, lam):
    # the endpoints of the LS chains of shape lam are the weights of V(lam)
    R = build_root_system(label)
    endpoints = Counter(chain_endpoint(c) for c in enumerate_ls_chains(R, lam))
    assert weight_multiplicities(R, lam).entries == endpoints


def _oracle_pool_weights():
    """The 52 pool weights of the tensor-oracle benchmark workload, as perfbench/workloads.py lists them."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    pools = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "ORACLE_POOLS")
    return [(label, w) for label, pool in pools.items() for w in pool]


def _table_by_pairing_root(R, lam):
    """Reference Freudenthal: each root-string step paired by pairing_root, each orbit from weyl_orbit."""
    depth, frontier = {lam: (0,) * R.rank}, [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for r in R.positive_roots:
                child = tuple(x - a for x, a in zip(mu, r.fund))
                if R.is_dominant(child) and child not in depth:
                    depth[child] = tuple(k + c for k, c in zip(depth[mu], r.coeffs))
                    nxt.append(child)
        frontier = nxt
    entries = dict.fromkeys(weyl_orbit(R, lam), 1)
    for nu, n in sorted(depth.items(), key=lambda item: (sum(item[1]), item[0]))[1:]:
        total = 0
        for r in R.positive_roots:
            w = tuple(x + a for x, a in zip(nu, r.fund))
            while w in entries:
                total += entries[w] * r.d * R.pairing_root(w, r.index)
                w = tuple(x + a for x, a in zip(w, r.fund))
        denom = sum(k * d * (a + b + 2) for k, d, a, b in zip(n, R.simple_d, lam, nu))
        entries.update(dict.fromkeys(weyl_orbit(R, nu), 2 * total // denom))
    return entries


@pytest.mark.parametrize("label,lam", _oracle_pool_weights())
def test_benchmark_pool_tables_equal_the_pairing_root_reference(label, lam):
    R = build_root_system(label)
    assert weight_multiplicities(R, lam).entries == _table_by_pairing_root(R, lam)


def test_multiplicity_is_weyl_invariant():
    R = build_root_system("B2")
    table = weight_multiplicities(R, (1, 1))
    for w, m in table.entries.items():
        for v in weyl_orbit(R, R.dominant_rep(w)):
            assert table.multiplicity(v) == m


def test_multiplicity_outside_support_is_zero():
    R = build_root_system("A2")
    table = weight_multiplicities(R, (1, 0))
    assert table.multiplicity((5, 5)) == 0
    assert table.multiplicity((2, 0)) == 0


# ---------------------------------------------------------------------------
# tensor decomposition

def test_rank_one_products():
    R = build_root_system("A1")
    assert tensor_decompose_oracle(R, (1,), (1,)).components == {(2,): 1, (0,): 1}
    assert tensor_decompose_oracle(R, (2,), (1,)).components == {(3,): 1, (1,): 1}


def test_a2_products():
    R = build_root_system("A2")
    assert tensor_decompose_oracle(R, (1, 0), (0, 1)).components == {
        (1, 1): 1,
        (0, 0): 1,
    }
    assert tensor_decompose_oracle(R, (1, 0), (1, 0)).components == {
        (2, 0): 1,
        (0, 1): 1,
    }
    # adjoint square of sl3
    adj = tensor_decompose_oracle(R, (1, 1), (1, 1)).components
    assert adj == {
        (2, 2): 1,
        (3, 0): 1,
        (0, 3): 1,
        (1, 1): 2,
        (0, 0): 1,
    }


def test_b2_spin_square():
    R = build_root_system("B2")
    dec = tensor_decompose_oracle(R, (0, 1), (0, 1)).components
    assert dec == {(0, 2): 1, (1, 0): 1, (0, 0): 1}
    assert sum(m * weyl_dim(R, l) for l, m in dec.items()) == 16


def test_product_with_trivial():
    R = build_root_system("C3")
    lam = (1, 0, 1)
    dec = tensor_decompose_oracle(R, lam, (0, 0, 0))
    assert dec.components == {lam: 1}


def _first_negative_fold(R, v):
    """The fold by definition: reflect at the first negative coordinate, by the coroot formula."""
    sign = 1
    while True:
        if any(x == 0 for x in v):
            return 0, None
        i = next((k for k, x in enumerate(v) if x < 0), None)
        if i is None:
            return sign, v
        alpha = R.positive_roots[i]
        m = sum(c * x for c, x in zip(alpha.coroot, v))
        v = tuple(x - m * a for x, a in zip(v, alpha.fund))
        sign = -sign


@given(st.sampled_from(["A3", "B3", "C4", "D5", "E6", "E8", "F4", "G2"]), st.data())
@settings(max_examples=200, deadline=None)
def test_fold_with_sign_is_the_first_negative_fold(label, data):
    R = build_root_system(label)
    v = data.draw(st.tuples(*[st.integers(-5, 5)] * R.rank))
    assert _fold_with_sign(R, v) == _first_negative_fold(R, v)


def test_product_is_symmetric():
    R = build_root_system("B2")
    pool = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for mu, nu in itertools.combinations(pool, 2):
        assert (
            tensor_decompose_oracle(R, mu, nu).components
            == tensor_decompose_oracle(R, nu, mu).components
        )


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_product_dimension_consistency(label):
    R = build_root_system(label)
    pool = list(itertools.product(range(2), repeat=2))
    for mu, nu in itertools.combinations_with_replacement(pool, 2):
        dec = tensor_decompose_oracle(R, mu, nu)
        total = sum(m * weyl_dim(R, l) for l, m in dec.components.items())
        assert total == weyl_dim(R, mu) * weyl_dim(R, nu)
        assert all(m > 0 for m in dec.components.values())


def test_decomposition_object_fields():
    R = build_root_system("A1")
    dec = tensor_decompose_oracle(R, (2,), (2,))
    assert dec.left == (2,) and dec.right == (2,)
    assert dec.multiplicity((0,)) == 1
    assert dec.multiplicity((1,)) == 0


@given(st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_rank_one_clebsch_gordan_oracle(a, b):
    R = build_root_system("A1")
    dec = tensor_decompose_oracle(R, (a,), (b,))
    assert dec.components == {(k,): 1 for k in range(abs(a - b), a + b + 1, 2)}
