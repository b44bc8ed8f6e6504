"""Chain enumeration, cuts, partial sums, and the counting rule.

The headline check is a brute-force oracle: enumerate every candidate
(step sequence, cut tuple) pair directly from the orbit poset, with its
own BFS notion of cut-admissible comparability, and compare the full set
against the library's enumeration.
"""

import gc
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction as Q
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lschains import clear_caches, pathmodel
from lschains.charoracle import tensor_decompose_oracle, weyl_dim
from lschains.errors import InputError, InvariantViolation
from lschains.invariants import dominant_pool
from lschains.pathmodel import (
    LSChain,
    _reach,
    _walk,
    _walk_all,
    _walker,
    b_order_leq,
    chain_depth,
    chain_endpoint,
    chain_weights,
    delta_sequence,
    enumerate_ls_chains,
    tensor_decompose,
    tensor_multiplicity,
)
from lschains.ratmat import inverse, matvec
from lschains.rootsys import build_root_system, pairing, weyl_orbit_poset


def _brute_leq(poset, xi, yi, b):
    """x < y through covers with b*m integral, by plain BFS (no masks)."""
    ups = {}
    for cov in poset.covers:
        ups.setdefault(cov.upper, []).append(cov)
    seen = {yi}
    stack = [yi]
    while stack:
        cur = stack.pop()
        for cov in ups.get(cur, []):
            if (b * cov.m).denominator == 1 and cov.lower not in seen:
                seen.add(cov.lower)
                stack.append(cov.lower)
    return xi in seen and xi != yi


def brute_chains(R, mu):
    """Every (steps, cuts) pair that satisfies the definition, by exhaustion."""
    poset = weyl_orbit_poset(R, mu)
    n = len(poset.elements)
    top = max((c.m for c in poset.covers), default=0)
    bvals = sorted({Q(a, d) for d in range(2, top + 1) for a in range(1, d)})
    sequences = [[k] for k in range(n)]
    frontier = [[k] for k in range(n)]
    while frontier:
        nxt = []
        for seq in frontier:
            for k in range(n):
                if _brute_leq(poset, seq[-1], k, Q(1)):
                    continue  # only ascend
                if k != seq[-1] and _brute_leq(poset, k, seq[-1], Q(1)):
                    nxt.append(seq + [k])
        sequences.extend(nxt)
        frontier = nxt
    out = set()
    for seq in sequences:
        ell = len(seq) - 1
        rev = list(reversed(seq))  # ascending order mu_0 < ... < mu_l
        for cuts in itertools.combinations(bvals, ell):
            if all(
                _brute_leq(poset, rev[t], rev[t + 1], cuts[t]) for t in range(ell)
            ):
                out.add(
                    (tuple(poset.elements[k] for k in rev), tuple(cuts))
                )
    return out


BRUTE_CASES = [
    ("A1", (0,)), ("A1", (1,)), ("A1", (2,)), ("A1", (3,)), ("A1", (4,)),
    ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 1)),
    ("B2", (1, 0)), ("B2", (0, 1)), ("B2", (1, 1)), ("B2", (0, 2)),
    ("C2", (1, 1)), ("G2", (1, 0)), ("G2", (0, 1)),
    ("A3", (1, 0, 1)),
    ("B2", (2, 1)), ("C2", (2, 1)),
]


@pytest.mark.parametrize("label,mu", BRUTE_CASES)
def test_enumeration_matches_brute_force(label, mu):
    R = build_root_system(label)
    got = {(c.steps, c.cuts) for c in enumerate_ls_chains(R, mu)}
    assert got == brute_chains(R, mu)


@pytest.mark.parametrize("label,mu", BRUTE_CASES)
def test_chain_count_is_dimension(label, mu):
    R = build_root_system(label)
    assert len(enumerate_ls_chains(R, mu)) == weyl_dim(R, mu)


def test_chain_counts_rank_one():
    R = build_root_system("A1")
    for m in range(7):
        assert len(enumerate_ls_chains(R, (m,))) == m + 1


def test_zero_shape_single_chain():
    R = build_root_system("B2")
    chains = enumerate_ls_chains(R, (0, 0))
    assert len(chains) == 1
    assert chains[0].steps == ((0, 0),)
    assert chains[0].cuts == ()


def test_rank_one_chains_explicit():
    R = build_root_system("A1")
    one = enumerate_ls_chains(R, (1,))
    assert {c.steps for c in one} == {((1,),), ((-1,),)}
    assert all(c.cuts == () for c in one)
    two = enumerate_ls_chains(R, (2,))
    keyed = {(c.steps, c.cuts) for c in two}
    assert keyed == {
        (((2,),), ()),
        (((-2,),), ()),
        (((-2,), (2,)), (Q(1, 2),)),
    }


def test_enumeration_is_sorted_and_duplicate_free():
    # canonical order: orbit-poset indices of the steps, then the cuts
    R = build_root_system("B2")
    P = weyl_orbit_poset(R, (1, 1))
    chains = enumerate_ls_chains(R, (1, 1))
    keys = [(tuple(P.index[s] for s in c.steps), c.cuts) for c in chains]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumeration_rejects_non_dominant():
    R = build_root_system("A2")
    with pytest.raises(InputError):
        enumerate_ls_chains(R, (-1, 0))


def test_chain_needs_matching_cut_count():
    with pytest.raises(InputError):
        LSChain((2,), ((-2,), (2,)), ())


# ---------------------------------------------------------------------------
# the cut order

def test_b_order_is_strict():
    R = build_root_system("B2")
    P = weyl_orbit_poset(R, (1, 1))
    for x in P.elements:
        for b in (Q(1, 2), Q(1)):
            assert not b_order_leq(P, x, x, b)


def test_b_order_rank_one_doubling():
    R = build_root_system("A1")
    P = weyl_orbit_poset(R, (2,))
    for b, expect in [(Q(1, 3), False), (Q(1, 2), True), (Q(2, 3), False), (Q(1), True)]:
        assert b_order_leq(P, (-2,), (2,), b) is expect


def test_b_order_at_one_is_plain_reachability():
    R = build_root_system("B2")
    P = weyl_orbit_poset(R, (2, 1))
    for xi, yi in itertools.product(range(len(P.elements)), repeat=2):
        got = b_order_leq(P, P.elements[xi], P.elements[yi], Q(1))
        assert got is _brute_leq(P, xi, yi, Q(1))


def test_b_order_validates_inputs():
    R = build_root_system("A1")
    P = weyl_orbit_poset(R, (1,))
    with pytest.raises(InputError):
        b_order_leq(P, (1,), (-1,), Q(0))
    with pytest.raises(InputError):
        b_order_leq(P, (1,), (-1,), Q(3, 2))
    with pytest.raises(InputError):
        b_order_leq(P, (5,), (-1,), Q(1, 2))


# ---------------------------------------------------------------------------
# partial sums, endpoint, depth

def test_delta_of_trivial_chain():
    c = LSChain((2, 0), ((2, 0),), ())
    assert delta_sequence(c) == ((0, 0), (2, 0))
    assert chain_endpoint(c) == (2, 0)
    assert chain_depth(c) == (0, 0)


def test_delta_of_folded_rank_one_chain():
    c = LSChain((2,), ((-2,), (2,)), (Q(1, 2),))
    assert delta_sequence(c) == ((0,), (-1,), (0,))
    assert chain_endpoint(c) == (0,)
    assert chain_depth(c) == (-1,)


def test_depth_of_lowest_chain():
    # -mu is the orbit minimum for B2, so the one-step chain there bottoms out
    c = LSChain((1, 1), ((-1, -1),), ())
    assert chain_depth(c) == (-1, -1)
    assert chain_endpoint(c) == (-1, -1)


def test_chain_weights_are_the_delta_sequence_endpoint_and_minimum():
    # the ls-chain-sanity plan at its default bound: chain_weights runs on scaled
    # ints, delta_sequence on Fractions
    checked = 0
    for label, bound in [("A1", 2), ("A2", 2), ("B2", 2), ("G2", 2),
                         ("A3", 1), ("B3", 1), ("C3", 1)]:
        R = build_root_system(label)
        for shape in dominant_pool(R, bound, "coords"):
            for chain in enumerate_ls_chains(R, shape):
                deltas = delta_sequence(chain)
                assert chain_weights(chain) == (deltas[-1], tuple(map(min, zip(*deltas))))
                checked += 1
    assert checked == 3445


def test_delta_alternative_expression():
    # delta_t = b_t*mu_{t-1} - sum_{j<t} b_j*(mu_j - mu_{j-1}), pure algebra
    R = build_root_system("G2")
    for chain in enumerate_ls_chains(R, (1, 1)):
        deltas = delta_sequence(chain)
        cuts = (Q(0),) + chain.cuts + (Q(1),)
        for t in range(1, len(chain.steps) + 1):
            direct = tuple(
                cuts[t] * chain.steps[t - 1][i]
                - sum(
                    cuts[j] * (chain.steps[j][i] - chain.steps[j - 1][i])
                    for j in range(1, t)
                )
                for i in range(R.rank)
            )
            assert deltas[t] == direct


@pytest.mark.parametrize("label,mu", [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 0))])
def test_endpoint_congruent_to_shape_mod_root_lattice(label, mu):
    R = build_root_system(label)
    cartan_inv = inverse(tuple(tuple(Q(x) for x in row) for row in R.cartan))
    for chain in enumerate_ls_chains(R, mu):
        diff = tuple(a - b for a, b in zip(chain_endpoint(chain), mu))
        coords = matvec(tuple(zip(*cartan_inv)), diff)
        assert all(x.denominator == 1 for x in coords)


@pytest.mark.parametrize("label,mu", [("B2", (1, 1)), ("G2", (0, 1)), ("C3", (1, 0, 1))])
def test_every_chain_satisfies_definition(label, mu):
    R = build_root_system(label)
    P = weyl_orbit_poset(R, mu)
    for chain in enumerate_ls_chains(R, mu):
        assert chain.shape == mu
        assert all(s in P.index for s in chain.steps)
        assert all(0 < b < 1 for b in chain.cuts)
        assert all(b1 < b2 for b1, b2 in zip(chain.cuts, chain.cuts[1:]))
        for prev, cur, b in zip(chain.steps, chain.steps[1:], chain.cuts):
            assert b_order_leq(P, prev, cur, b)
        # runtime integrality contract
        chain_endpoint(chain)
        chain_depth(chain)


@pytest.mark.parametrize("label,mu", [("G2", (3, 3)), ("B3", (1, 1, 1))])
def test_packed_endpoint_and_depth_match_fraction_path(label, mu):
    # nu = (100, ...) lies deep enough in the cone that the walk prunes nothing
    R = build_root_system(label)
    W = _walker(R, mu)
    walked = sorted(_walk(W, (100,) * R.rank))
    chains = enumerate_ls_chains(R, mu)
    assert len(walked) == len(chains) == weyl_dim(R, mu)
    for chain, (steps, _, end, depth) in zip(chains, walked):
        assert chain.steps == tuple(W.poset.elements[i] for i in steps)
        assert (end, depth) == (chain_endpoint(chain), chain_depth(chain))


def test_cut_scale_is_lcm_of_the_cover_pairings():
    # a Farey table up to the largest pairing, 15, would be scaled by lcm(2..15) = 360360
    W = _walker(build_root_system("G2"), (3, 3))
    assert sorted({c.m for c in W.poset.covers if c.m >= 2}) == [3, 6, 9, 12, 15]
    L, cuts = pathmodel._cuts(W.poset)
    assert W.scale == L == 180
    cs = [c for c, _ in cuts]
    assert 0 < cs[0] and cs[-1] < L
    assert all(a < b for a, b in zip(cs, cs[1:]))
    assert {Q(c, L) for c in cs} == {Q(a, d) for d in (2, 3, 4, 5, 6, 9, 12, 15)
                                     for a in range(1, d)}
    for ups in W.up:
        assert all(a < b for (a, _), (b, _) in zip(ups, ups[1:]))


def test_a1_cut_table_is_scaled_by_its_one_pairing():
    # a Farey table up to 2000 would be scaled by lcm(2..2000), a 2,878-bit int
    A1 = build_root_system("A1")
    assert _walker(A1, (2000,)).scale == 2000
    assert len(tensor_decompose(A1, (2000,), (2000,)).components) == 2001


def test_non_integral_chain_raises(monkeypatch):
    # with L doubled, the scaled cut 1 reads b = 1/4, not 1/2: A1 (2,) gets depth -1/2
    clear_caches()
    monkeypatch.setattr(pathmodel, "_cuts", lambda P: (4, [(1, 2)]))
    A1 = build_root_system("A1")
    try:
        with pytest.raises(InvariantViolation):
            enumerate_ls_chains(A1, (2,))
        # (2,) has the smaller dimension, so it is the shape; nu = (3,) keeps
        # nu + delta_t dominant, so the chain is counted and checked
        with pytest.raises(InvariantViolation):
            tensor_decompose(A1, (2,), (3,))
        # the same chain is the one the walk aimed at (4,) = (3,) + endpoint (1,) keeps
        with pytest.raises(InvariantViolation):
            tensor_multiplicity(A1, (4,), (2,), (3,))
    finally:
        clear_caches()  # drop the walker built under the mis-scaled cut table


def test_dominant_initial_step_has_zero_depth():
    R = build_root_system("B2")
    for chain in enumerate_ls_chains(R, (2, 1)):
        if chain.steps[-1] == (2, 1) and len(chain.steps) == 1:
            assert chain_depth(chain) == (0, 0)


# ---------------------------------------------------------------------------
# the counting rule

def test_tensor_with_trivial_factor():
    R = build_root_system("B2")
    assert tensor_multiplicity(R, (1, 1), (1, 1), (0, 0)) == 1
    assert tensor_multiplicity(R, (1, 0), (1, 1), (0, 0)) == 0
    dec = tensor_decompose(R, (1, 1), (0, 0))
    assert dec.components == {(1, 1): 1}


def test_rank_one_squares():
    R = build_root_system("A1")
    assert tensor_multiplicity(R, (2,), (1,), (1,)) == 1
    assert tensor_multiplicity(R, (0,), (1,), (1,)) == 1
    assert tensor_multiplicity(R, (1,), (1,), (1,)) == 0


def test_a2_bifundamental_product():
    R = build_root_system("A2")
    dec = tensor_decompose(R, (1, 0), (0, 1))
    assert dec.components == {(1, 1): 1, (0, 0): 1}
    assert 3 * 3 == sum(m * weyl_dim(R, l) for l, m in dec.components.items())


def test_b2_mixed_product_matches_oracle():
    R = build_root_system("B2")
    dec = tensor_decompose(R, (1, 0), (0, 1))
    assert dec.components == tensor_decompose_oracle(R, (1, 0), (0, 1)).components
    assert dec.components == {(1, 1): 1, (0, 1): 1}


def test_g2_fundamental_square_dimension():
    R = build_root_system("G2")
    dec = tensor_decompose(R, (1, 0), (1, 0))
    total = sum(m * weyl_dim(R, l) for l, m in dec.components.items())
    assert total == weyl_dim(R, (1, 0)) ** 2 == 49


@pytest.mark.parametrize("label,bound", [("A1", 3), ("A2", 2), ("B2", 2), ("C2", 2)])
def test_oracle_equivalence_sweep(label, bound):
    R = build_root_system(label)
    pool = list(itertools.product(range(bound + 1), repeat=R.rank))
    for mu, nu in itertools.product(pool, repeat=2):
        assert (
            tensor_decompose(R, mu, nu).components
            == tensor_decompose_oracle(R, mu, nu).components
        )


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_tensor_dimension_consistency(label):
    R = build_root_system(label)
    pool = list(itertools.product(range(3), repeat=2))
    for mu, nu in itertools.combinations_with_replacement(pool, 2):
        dec = tensor_decompose(R, mu, nu)
        total = sum(m * weyl_dim(R, l) for l, m in dec.components.items())
        assert total == weyl_dim(R, mu) * weyl_dim(R, nu)
        assert all(m > 0 for m in dec.components.values())
        assert all(R.is_dominant(l) for l in dec.components)


def test_multiplicity_of_highest_piece():
    # the top component mu+nu always appears exactly once
    R = build_root_system("G2")
    for mu, nu in [((1, 0), (0, 1)), ((2, 0), (1, 1))]:
        top = tuple(a + b for a, b in zip(mu, nu))
        assert tensor_multiplicity(R, top, mu, nu) == 1


def _small_shapes(label):
    R = build_root_system(label)
    return [w for w in itertools.product(range(4), repeat=R.rank) if weyl_dim(R, w) <= 300]


SMALL_PAIRS = st.sampled_from(["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"]).flatmap(
    lambda label: st.tuples(st.just(label), st.sampled_from(_small_shapes(label)),
                            st.sampled_from(_small_shapes(label)))
)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_pruned_decomposition_matches_filtered_full_enumeration(label):
    # the counting rule applied after the fact to every chain of the shape, against
    # the pruned decomposition and the count aimed at one endpoint
    R = build_root_system(label)
    shapes = _small_shapes(label)
    for mu in shapes:
        full = _walk(_walker(R, mu), (100,) * R.rank)
        assert len(full) == weyl_dim(R, mu)
        for nu in shapes:
            kept = Counter(tuple(map(add, nu, end)) for _, _, end, depth in full
                           if all(n + d >= 0 for n, d in zip(nu, depth)))
            assert tensor_decompose(R, mu, nu).components == kept
            if (weyl_dim(R, mu), mu) > (weyl_dim(R, nu), nu):
                continue  # nu is the shape: its own pass checks the aimed count
            for lam, m in kept.items():
                assert tensor_multiplicity(R, lam, mu, nu) == m
            # a dominant weight some chain ends at that the dominance filter drops
            missed = sorted({lam for lam in (tuple(map(add, nu, end)) for _, _, end, _ in full)
                             if R.is_dominant(lam) and lam not in kept})
            lam = missed[0] if missed else tuple(a + b + 1 for a, b in zip(mu, nu))
            assert tensor_multiplicity(R, lam, mu, nu) == tensor_multiplicity(R, lam, nu, mu) == 0


@pytest.mark.parametrize("label,mu,nu", [
    ("G2", (3, 3), (1, 0)), ("G2", (2, 1), (0, 0)), ("B3", (1, 1, 1), (0, 1, 0)),
    ("C3", (0, 2, 1), (1, 0, 1)),
])
def test_aimed_walk_keeps_exactly_the_chains_ending_at_the_goal(label, mu, nu):
    R = build_root_system(label)
    W = _walker(R, mu)
    full = sorted(_walk(W, nu))
    for goal in sorted({end for _, _, end, _ in full}) + [(0,) * R.rank, tuple(-a for a in mu)]:
        assert sorted(_walk(W, nu, goal)) == [c for c in full if c[2] == goal]


def test_a_dropped_walk_is_freed_without_the_cycle_collector():
    # the recursive walk closure refers to itself; left as a cycle it would hold
    # every chain walked (3.1 MB here) until the collector ran
    W = _walker(build_root_system("G2"), (6, 2))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert len(_walk_all(W)) == weyl_dim(W.poset.system, (6, 2))
        assert tracemalloc.get_traced_memory()[0] < 1_000_000
    finally:
        tracemalloc.stop()
        gc.enable()


def test_a_sink_takes_every_chain_in_walk_order():
    W = _walker(build_root_system("G2"), (2, 1))
    sink = []
    assert _walk_all(W, sink) is sink
    assert sink == _walk(W, (100, 100)) and sorted(sink) == _walk_all(W)


def _brute_reach(R, poset):
    """Min and max pairings over x and all it climbs to through covers with m >= 2, by BFS."""
    ups = {}
    for cov in poset.covers:
        if cov.m >= 2:
            ups.setdefault(cov.lower, []).append(cov.upper)
    out = []
    for x in range(len(poset.elements)):
        seen, stack = {x}, [x]
        while stack:
            for y in ups.get(stack.pop(), []):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        pairs = [[pairing(R, poset.elements[y], i) for i in range(len(R.positive_roots))]
                 for y in seen]
        out.append((tuple(map(min, zip(*pairs))), tuple(map(max, zip(*pairs)))))
    return out


@pytest.mark.parametrize("label,mu", [
    ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)), ("B2", (1, 1)),
    ("G2", (1, 0)), ("G2", (1, 1)), ("A3", (1, 0, 1)), ("B3", (1, 0, 1)),
    ("C3", (0, 1, 1)), ("D4", (1, 0, 1, 1)), ("F4", (0, 0, 0, 1)), ("G2", (2, 1)),
    ("E6", (1, 0, 0, 0, 0, 0)),
])
def test_reach_table_against_brute_force_closure(label, mu):
    # the shapes of test_covers_against_brute_force, and one of type E
    R = build_root_system(label)
    poset = weyl_orbit_poset(R, mu)
    pairings, reach = _reach(R, mu)
    assert pairings is poset.pairings
    assert pairings == tuple(tuple(pairing(R, w, i) for i in range(len(R.positive_roots)))
                             for w in poset.elements)
    assert all(p[:R.rank] == w for p, w in zip(pairings, poset.elements))
    assert reach == _brute_reach(R, poset)


@given(SMALL_PAIRS)
@settings(max_examples=40, deadline=None)
def test_chain_engine_matches_oracle_on_random_pairs(pair):
    label, mu, nu = pair
    R = build_root_system(label)
    comps = tensor_decompose(R, mu, nu).components
    assert comps == tensor_decompose_oracle(R, mu, nu).components
    assert sum(m * weyl_dim(R, lam) for lam, m in comps.items()) == weyl_dim(R, mu) * weyl_dim(R, nu)
    assert comps == tensor_decompose(R, nu, mu).components


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_rank_one_clebsch_gordan(a, b):
    # V(a) (x) V(b) = sum of V(k) for k = |a-b|, |a-b|+2, ..., a+b
    R = build_root_system("A1")
    dec = tensor_decompose(R, (a,), (b,))
    expected = {(k,): 1 for k in range(abs(a - b), a + b + 1, 2)}
    assert dec.components == expected


def test_tensor_rejects_bad_weights():
    R = build_root_system("A2")
    with pytest.raises(InputError):
        tensor_decompose(R, (1, -1), (0, 0))
    with pytest.raises(InputError):
        tensor_multiplicity(R, (1, 0, 0), (1, 0), (0, 0))
