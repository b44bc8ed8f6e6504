"""Root system construction, orbits, and cover structure.

The reference data here comes from two independent sources: classical
count/order tables, and a reflection-closure oracle that works purely in
ambient coordinates (no Cartan matrices), implemented locally.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lschains.charoracle import tensor_decompose_oracle, weight_multiplicities, weyl_dim
from lschains.errors import InputError
from lschains.invariants import invariant_dim
from lschains.pathmodel import enumerate_ls_chains, tensor_decompose, tensor_multiplicity
from lschains.rootsys import (
    OrbitPoset,
    build_root_system,
    dual_weight,
    pairing,
    reflect,
    weight_from_eps,
    weight_to_eps,
    weyl_group_order,
    weyl_orbit,
    weyl_orbit_poset,
)

ALL_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
              "D4", "D5", "E6", "E7", "E8", "F4", "G2"]

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "C2": 4, "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}

WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C2": 8, "C3": 48,
    "D4": 192, "F4": 1152, "G2": 12,
}


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reflect_ambient(v, root):
    coef = Q(2) * _dot(v, root) / _dot(root, root)
    return tuple(x - coef * r for x, r in zip(v, root))


def closure_oracle(simple_ambient):
    """All roots, ambient only: the simples closed under the simple reflections.

    Every root is W-conjugate to a simple root, and the simple reflections
    generate W (s_{w a} = w s_a w^-1), so this is the closure of the simples
    under reflection in every root.
    """
    simples = [tuple(Q(x) for x in r) for r in simple_ambient]
    roots = set(simples)
    frontier = roots
    while frontier:
        frontier = {_reflect_ambient(r, s) for r in frontier for s in simples} - roots
        roots |= frontier
    return roots


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_root_counts(label):
    R = build_root_system(label)
    assert len(R.positive_roots) == POSITIVE_COUNTS[label]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_set_matches_reflection_closure(label):
    R = build_root_system(label)
    expected = closure_oracle([r.ambient for r in R.positive_roots[: R.rank]])
    got = {r.ambient for r in R.positive_roots}
    got |= {tuple(-x for x in r.ambient) for r in R.positive_roots}
    assert got == expected


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_matrix_shape(label):
    R = build_root_system(label)
    for i in range(R.rank):
        assert R.cartan[i][i] == 2
        for j in range(R.rank):
            if i != j:
                assert R.cartan[i][j] <= 0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_roots_are_nonnegative_combinations(label):
    R = build_root_system(label)
    for r in R.positive_roots:
        assert all(c >= 0 for c in r.coeffs)
        assert any(c > 0 for c in r.coeffs)
    # simples come first, as unit coefficient vectors
    for i in range(R.rank):
        assert R.positive_roots[i].coeffs == tuple(
            1 if j == i else 0 for j in range(R.rank)
        )


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_paired_with_own_coroot_is_two(label):
    R = build_root_system(label)
    for r in R.positive_roots:
        assert sum(c * f for c, f in zip(r.coroot, r.fund)) == 2


def test_a1_data():
    R = build_root_system("A1")
    assert len(R.positive_roots) == 1
    assert R.cartan == ((2,),)


def test_b2_pairings_with_long_first_root():
    # first simple root e1-e2 is long, second e2 is short; pairing the long
    # root against the short coroot gives -2, the short against the long -1
    R = build_root_system("B2")
    assert R.positive_roots[0].d == 2
    assert R.positive_roots[1].d == 1
    assert R.cartan[0][1] == -2
    assert R.cartan[1][0] == -1


def test_g2_highest_root():
    R = build_root_system("G2")
    assert R.positive_roots[0].d == 1  # first simple short
    theta = R.positive_roots[-1]
    assert theta.coeffs == (3, 2)
    assert theta.fund == (0, 1)
    assert pairing(R, (0, 1), theta.index) == 2


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "F4"])
def test_fundamental_weights_pair_kronecker(label):
    R = build_root_system(label)
    for i in range(R.rank):
        unit = tuple(1 if j == i else 0 for j in range(R.rank))
        for j in range(R.rank):
            assert pairing(R, unit, j) == (1 if i == j else 0)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_weyl_vector_pairings_positive(label):
    R = build_root_system(label)
    for r in R.positive_roots:
        val = pairing(R, R.weyl_vector, r.index)
        assert val == sum(r.coroot) and val >= 1


def test_reflection_fixes_orthogonal_weight():
    R = build_root_system("B2")
    # (0,2) pairs to zero against e1-e2's coroot
    assert pairing(R, (2, 0), 1) == 0
    assert reflect(R, (2, 0), 1) == (2, 0)


def test_reflection_rank_one():
    R = build_root_system("A1")
    for m in range(5):
        assert reflect(R, (m,), 0) == (-m,)


@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), st.integers(0, 5))
def test_reflection_is_involution(w, idx):
    R = build_root_system("B2")
    idx %= len(R.positive_roots)
    assert reflect(R, reflect(R, w, idx), idx) == w


@given(st.sampled_from(ALL_LABELS), st.data())
def test_simple_reflection_is_the_coroot_formula(label, data):
    # reflect_root moves only node i and its Dynkin neighbours; the definition moves all
    R = build_root_system(label)
    w = data.draw(st.tuples(*[st.integers(-6, 6)] * R.rank))
    for i in range(R.rank):
        alpha = R.positive_roots[i]
        m = sum(c * x for c, x in zip(alpha.coroot, w))
        assert R.reflect_root(w, i) == tuple(x - m * a for x, a in zip(w, alpha.fund))


@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_dominant_rep_idempotent_and_orbit_stable(w):
    R = build_root_system("G2")
    rep = R.dominant_rep(w)
    assert R.is_dominant(rep)
    assert R.dominant_rep(rep) == rep
    for i in range(len(R.positive_roots)):
        assert R.dominant_rep(reflect(R, w, i)) == rep


# ---------------------------------------------------------------------------
# orbits and their posets

def _stabilizer_order(R, mu):
    """Order of the subgroup generated by simple reflections fixing mu.

    The subgroup acts freely on the regular weight rho, so the orbit of
    rho under those generators has exactly the subgroup's size.
    """
    gens = [i for i in range(R.rank) if pairing(R, mu, i) == 0]
    seen = {R.weyl_vector}
    frontier = [R.weyl_vector]
    while frontier:
        nxt = []
        for v in frontier:
            for i in gens:
                img = reflect(R, v, i)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4"])
def test_orbit_times_stabilizer_is_group_order(label):
    R = build_root_system(label)
    order = weyl_group_order(label)
    assert order == WEYL_ORDERS[label]
    pools = [w for w in itertools.product(range(3), repeat=R.rank) if sum(w) <= 3]
    if R.rank >= 4:
        pools = [w for w in pools if sum(w) <= 1]
    for mu in pools:
        assert len(weyl_orbit(R, mu)) * _stabilizer_order(R, mu) == order


def test_weyl_group_order_matches_rho_orbit():
    for label in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]:
        R = build_root_system(label)
        assert weyl_group_order(label) == len(weyl_orbit(R, R.weyl_vector))


def test_orbit_of_zero():
    R = build_root_system("B2")
    poset = weyl_orbit_poset(R, (0, 0))
    assert poset.elements == ((0, 0),)
    assert poset.covers == ()


def test_a1_orbit_poset():
    R = build_root_system("A1")
    poset = weyl_orbit_poset(R, (1,))
    assert set(poset.elements) == {(1,), (-1,)}
    assert len(poset.covers) == 1
    cov = poset.covers[0]
    assert cov.m == 1
    assert poset.elements[cov.upper] == (1,)
    assert poset.elements[cov.lower] == (-1,)


def test_b2_vector_orbit_is_a_chain():
    R = build_root_system("B2")
    poset = weyl_orbit_poset(R, (1, 0))
    assert len(poset.elements) == 4
    assert len(poset.covers) == 3
    # single descending chain with pairings 1, 2, 1
    ms = {}
    for cov in poset.covers:
        ms[poset.elements[cov.upper]] = cov.m
    assert ms == {(1, 0): 1, (-1, 2): 2, (1, -2): 1}


def _brute_relations(R, elements):
    """All order relations x < y from single reflections, by transitive closure."""
    index = {e: k for k, e in enumerate(elements)}
    direct = {k: set() for k in range(len(elements))}
    for k, y in enumerate(elements):
        for i in range(len(R.positive_roots)):
            m = pairing(R, y, i)
            if m > 0:
                direct[k].add(index[reflect(R, y, i)])
    closure = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for k in closure:
            extra = set()
            for below in closure[k]:
                extra |= closure[below]
            if not extra <= closure[k]:
                closure[k] |= extra
                changed = True
    return direct, closure


@pytest.mark.parametrize("label,mu", [
    ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)), ("B2", (1, 1)),
    ("G2", (1, 0)), ("G2", (1, 1)), ("A3", (1, 0, 1)), ("B3", (1, 0, 1)),
    ("C3", (0, 1, 1)), ("D4", (1, 0, 1, 1)), ("F4", (0, 0, 0, 1)), ("G2", (2, 1)),
])
def test_covers_against_brute_force(label, mu):
    R = build_root_system(label)
    poset = weyl_orbit_poset(R, mu)
    direct, closure = _brute_relations(R, poset.elements)
    # cover = direct relation with no intermediate element
    expected = set()
    for upper, lowers in direct.items():
        for lower in lowers:
            if not any(lower in closure[z] for z in lowers if z != lower):
                expected.add((lower, upper))
    got = {(c.lower, c.upper) for c in poset.covers}
    assert got == expected
    # the cover-generated order matches the closure
    masks = poset.down_mask(1)
    for k in range(len(poset.elements)):
        assert {j for j in range(len(poset.elements)) if (masks[k] >> j) & 1} == closure[k]


@pytest.mark.parametrize("label,mu", [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 1))])
def test_cover_steps_are_root_multiples(label, mu):
    R = build_root_system(label)
    poset = weyl_orbit_poset(R, mu)
    for cov in poset.covers:
        y = poset.elements[cov.upper]
        x = poset.elements[cov.lower]
        root = R.positive_roots[cov.root]
        assert cov.m == pairing(R, y, cov.root) > 0
        assert tuple(a - b for a, b in zip(y, x)) == tuple(cov.m * f for f in root.fund)
        assert reflect(R, y, cov.root) == x


@pytest.mark.parametrize("label,mu", [
    ("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 1)), ("F4", (0, 0, 0, 1)),
])
def test_orbit_poset_is_graded(label, mu):
    R = build_root_system(label)
    poset = weyl_orbit_poset(R, mu)
    ups = {k: [] for k in range(len(poset.elements))}
    for cov in poset.covers:
        ups[cov.lower].append(cov.upper)
    top = poset.index[mu]
    longest = {top: 0}
    shortest = {top: 0}
    # <w, 2 rho_v> strictly decreases down every cover
    def height(w):
        return sum(pairing(R, w, i) for i in range(len(R.positive_roots)))
    order = sorted(range(len(poset.elements)), key=lambda k: -height(poset.elements[k]))
    for k in order:
        if k == top:
            continue
        assert ups[k], "non-maximal element must be covered"
        longest[k] = 1 + max(longest[u] for u in ups[k])
        shortest[k] = 1 + min(shortest[u] for u in ups[k])
        assert longest[k] == shortest[k]
        # the rank is the length: the number of positive roots w pairs negatively with
        w = poset.elements[k]
        assert longest[k] == sum(pairing(R, w, i) < 0 for i in range(len(R.positive_roots)))


def test_unique_maximum_is_dominant():
    R = build_root_system("B2")
    poset = weyl_orbit_poset(R, (2, 1))
    uppers = {c.lower for c in poset.covers}
    maxima = [e for k, e in enumerate(poset.elements) if k not in uppers]
    assert maxima == [(2, 1)]


def test_orbit_poset_requires_dominant():
    R = build_root_system("B2")
    with pytest.raises(InputError):
        weyl_orbit_poset(R, (-1, 0))


# ---------------------------------------------------------------------------
# duals, labels, eps coordinates

def test_dual_weight_examples():
    A2 = build_root_system("A2")
    assert dual_weight(A2, (1, 0)) == (0, 1)
    assert dual_weight(A2, (0, 0)) == (0, 0)
    for label in ["B2", "C3", "G2", "F4"]:
        R = build_root_system(label)
        for w in itertools.product(range(2), repeat=R.rank):
            assert dual_weight(R, w) == w  # -1 lies in these Weyl groups


def test_dual_weight_is_involution():
    for label in ["A2", "A3", "D5"]:
        R = build_root_system(label)
        for w in itertools.product(range(2), repeat=R.rank):
            assert dual_weight(R, dual_weight(R, w)) == w


@pytest.mark.parametrize("label", ["A1", "A4", "B3", "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2"])
def test_dual_weight_is_the_dominant_rep_of_the_negative(label):
    R = build_root_system(label)
    units = [tuple(int(i == j) for j in range(R.rank)) for i in range(R.rank)]
    for w in units + [(1,) * R.rank, tuple(range(R.rank))]:
        assert dual_weight(R, w) == R.dominant_rep(tuple(-x for x in w))


def test_dual_weight_rejects_non_dominant():
    with pytest.raises(InputError):
        dual_weight(build_root_system("A2"), (-1, 0))


# every public entry point that takes highest weights, with its weight count
WEIGHT_ENTRY_POINTS = {
    "weyl_orbit_poset": (weyl_orbit_poset, 1),
    "weyl_orbit": (weyl_orbit, 1),
    "dual_weight": (dual_weight, 1),
    "enumerate_ls_chains": (enumerate_ls_chains, 1),
    "tensor_decompose": (tensor_decompose, 2),
    "tensor_multiplicity": (tensor_multiplicity, 3),
    "weyl_dim": (weyl_dim, 1),
    "weight_multiplicities": (weight_multiplicities, 1),
    "tensor_decompose_oracle": (tensor_decompose_oracle, 2),
    "invariant_dim": (lambda R, *ws: invariant_dim(R, ws), 3),
}
BAD_WEIGHTS = {"wrong-rank": (1,), "fraction": (Q(1), 0), "non-dominant": (1, -1)}


@pytest.mark.parametrize("bad", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS)
@pytest.mark.parametrize("name", WEIGHT_ENTRY_POINTS)
def test_entry_points_reject_bad_weights(name, bad):
    # warm every memo cache with (1, 0) first: the integral Fraction (1, 0)
    # hashes like it, so the check must run before any cache lookup
    fn, arity = WEIGHT_ENTRY_POINTS[name]
    R = build_root_system("A2")
    fn(R, *[(1, 0)] * arity)
    for pos in range(arity):
        args = [(1, 0)] * arity
        args[pos] = bad
        with pytest.raises(InputError):
            fn(R, *args)


def test_label_parsing():
    assert build_root_system("a2").label == "A2"
    assert build_root_system("B 3").label == "B3"
    assert build_root_system("C_2").label == "C2"
    for bad in ["H4", "B1", "C1", "D3", "E9", "F3", "G3", "A0", "", "B"]:
        with pytest.raises(InputError):
            build_root_system(bad)


def test_eps_roundtrip():
    for label in ["B2", "B3", "C2", "C3"]:
        R = build_root_system(label)
        for w in itertools.product(range(3), repeat=R.rank):
            assert weight_from_eps(R, weight_to_eps(R, w)) == w


def test_spin_weight_eps():
    B2 = build_root_system("B2")
    assert weight_from_eps(B2, (Q(1, 2), Q(1, 2))) == (0, 1)
    assert weight_to_eps(B2, (0, 1)) == (Q(1, 2), Q(1, 2))
    C2 = build_root_system("C2")
    assert weight_from_eps(C2, (2, 1)) == (1, 1)


def test_eps_lattice_validation():
    B2 = build_root_system("B2")
    C2 = build_root_system("C2")
    with pytest.raises(InputError):
        weight_from_eps(C2, (Q(1, 2), Q(1, 2)))  # half-integers not symplectic
    with pytest.raises(InputError):
        weight_from_eps(B2, (1, Q(1, 2)))  # mixed integral and half-odd
    with pytest.raises(InputError):
        weight_from_eps(build_root_system("A2"), (1, 0, 0))
    # non-dominant eps data is still a weight, just not dominant
    assert weight_from_eps(B2, (0, 1)) == (-1, 2)


@given(st.tuples(st.integers(0, 3), st.integers(0, 3)),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=30)
def test_dominant_cone_closed_under_addition(v, w):
    R = build_root_system("C2")
    assert R.is_dominant(tuple(a + b for a, b in zip(v, w)))
