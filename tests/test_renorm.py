"""Renormalization validation, weight/chain transport, and duality."""

import itertools
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from lschains.errors import InputError, InvariantViolation
from lschains.pathmodel import LSChain, chain_depth, chain_endpoint, enumerate_ls_chains
from lschains.ratmat import identity, matmul, matvec
from lschains.renorm import (
    CheckResult,
    Renormalization,
    builtin,
    builtin_catalog,
    dual_renormalization,
    map_weight,
    special_exponents,
    transport_chain,
    validate,
)
from lschains.rootsys import build_root_system, weight_to_eps


def _rn(label, phi, c=None, **kw):
    R = build_root_system(label)
    if c is None:
        c = (1,) * len(R.positive_roots)
    return Renormalization(R, R, tuple(tuple(Q(x) for x in row) for row in phi), c, **kw)


# ---------------------------------------------------------------------------
# builtin construction and weight images

def test_catalog_entries_all_validate():
    for name in builtin_catalog():
        rn = builtin(name)
        report = validate(rn)
        assert report.ok, (name, report.failures())


def test_duals_of_catalog_entries_validate():
    for name in builtin_catalog():
        dual = dual_renormalization(builtin(name))
        report = validate(dual)
        assert report.ok, (name, report.failures())


def test_g2_weight_images():
    rn = builtin("g2")
    assert map_weight(rn, (1, 0)) == (0, 1)
    assert map_weight(rn, (0, 1)) == (3, 0)
    assert map_weight(rn, (0, 0)) == (0, 0)
    assert matmul(rn.phi, rn.phi) == tuple(
        tuple(Q(3) if i == j else Q(0) for j in range(2)) for i in range(2)
    )


def test_f4_weight_images():
    rn = builtin("f4")
    assert map_weight(rn, (1, 0, 0, 0)) == (0, 0, 0, 2)
    assert map_weight(rn, (0, 1, 0, 0)) == (0, 0, 2, 0)
    assert map_weight(rn, (0, 0, 1, 0)) == (0, 1, 0, 0)
    assert map_weight(rn, (0, 0, 0, 1)) == (1, 0, 0, 0)
    assert matmul(rn.phi, rn.phi) == tuple(
        tuple(Q(2) if i == j else Q(0) for j in range(4)) for i in range(4)
    )


def test_frobenius_scales_everything():
    rn = builtin("frobenius:A2:3")
    assert map_weight(rn, (2, 1)) == (6, 3)
    assert rn.prime == 3
    assert set(rn.c) == {3}


def test_frobenius_requires_prime():
    with pytest.raises(InputError):
        builtin("frobenius:A2:4")
    with pytest.raises(InputError):
        builtin("frobenius:A2:1")
    with pytest.raises(InputError, match="cannot parse root-system label 'X9'"):
        builtin("frobenius:X9:4")


def test_orthogonal_to_symplectic_images():
    # identity on ambient coordinates
    rn = builtin("so_to_sp:2")
    assert rn.source.label == "C2" and rn.target.label == "B2"
    assert map_weight(rn, (1, 0)) == (1, 0)
    assert map_weight(rn, (0, 1)) == (0, 2)


def test_symplectic_to_spin_images():
    # doubling on ambient coordinates
    rn = builtin("sp_to_spin:2")
    assert rn.source.label == "B2" and rn.target.label == "C2"
    assert map_weight(rn, (1, 0)) == (2, 0)
    img = map_weight(rn, (0, 1))
    assert img == (0, 1)
    assert weight_to_eps(rn.target, img) == (Q(1), Q(1))


def test_short_to_dual_is_b_series_only():
    rn = builtin("short_to_dual:B3")
    assert rn.source.label == "C3" and rn.target.label == "B3"
    assert rn == replace(builtin("so_to_sp:3"), name="short_to_dual:B3")
    with pytest.raises(InputError):
        builtin("short_to_dual:C3")
    with pytest.raises(InputError):
        builtin("short_to_dual:A2")


def test_matched_roots_are_coroots_of_the_target():
    # c(a) * phi^-1(a) realizes the coroot system of the target
    rn = builtin("short_to_dual:B2")
    match = rn.root_match()
    for i, r in enumerate(rn.target.positive_roots):
        norm = sum(x * x for x in r.ambient)
        co = tuple(2 * x / norm for x in r.ambient)
        assert rn.source.positive_roots[match[i]].ambient == co


def test_unknown_builtin_rejected():
    with pytest.raises(InputError):
        builtin("nope")
    with pytest.raises(InputError):
        builtin("so_to_sp")
    with pytest.raises(InputError):
        builtin("g2:extra")


def test_rank_mismatch_rejected():
    A1 = build_root_system("A1")
    A2 = build_root_system("A2")
    with pytest.raises(InputError):
        Renormalization(A1, A2, identity(2), (1, 1, 1))
    with pytest.raises(InputError):
        Renormalization(A2, A2, identity(2), (1,))


# ---------------------------------------------------------------------------
# validation of broken maps

def test_wrong_c_breaks_root_matching_without_raising():
    base = builtin("so_to_sp:2")
    bad = Renormalization(base.source, base.target, base.phi,
                          (2,) * len(base.target.positive_roots), name="bad-c")
    report = validate(bad)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert failed == {"root-bijection", "pairing-identity", "weyl-equivariance"}


def _fraction_equivariance(rn, match):
    """The weyl-equivariance check on Fraction matrices: phi S' == S phi per matched root."""
    def reflection(R, k):
        r = R.positive_roots[k]
        n = R.rank
        return tuple(tuple(Q((1 if i == j else 0) - r.fund[i] * r.coroot[j]) for j in range(n))
                     for i in range(n))

    bad = [i for i in range(len(rn.target.positive_roots))
           if matmul(rn.phi, reflection(rn.source, match[i]))
           != matmul(reflection(rn.target, i), rn.phi)]
    return CheckResult("weyl-equivariance", not bad,
                       "" if not bad else f"fails for target roots {bad[:6]}")


def _equivariance(report):
    return next(c for c in report.checks if c.name == "weyl-equivariance")


@pytest.mark.parametrize("spec", builtin_catalog())
def test_integer_equivariance_equals_the_fraction_reference(spec):
    for rn in (builtin(spec), dual_renormalization(builtin(spec))):
        check = _equivariance(validate(rn))
        assert check.passed
        assert check == _fraction_equivariance(rn, rn.root_match())


def test_integer_equivariance_equals_the_fraction_reference_on_a_broken_match(monkeypatch):
    # a custom so_to_sp:3 whose root matching is rotated by one: nine target
    # roots, so the detail lists the first six that fail
    rn = replace(builtin("so_to_sp:3"), name="")
    real = rn.root_match()
    rotated = real[1:] + real[:1]
    monkeypatch.setattr(Renormalization, "root_match", lambda self: rotated)
    report = validate(rn)
    assert {c.name for c in report.failures()} == {"pairing-identity", "weyl-equivariance"}
    check = _equivariance(report)
    assert check == _fraction_equivariance(rn, rotated)
    assert check.detail.startswith("fails for target roots [")


def test_singular_map_fails_invertibility():
    report = validate(_rn("A1", ((0,),)))
    failed = {c.name for c in report.failures()}
    assert "invertible" in failed


def test_fractional_map_fails_weight_lattice():
    report = validate(_rn("A1", ((Q(1, 2),),)))
    assert "weight-lattice" in {c.name for c in report.failures()}


def test_non_dominant_image_detected():
    report = validate(_rn("A2", ((1, 0), (-1, 1))))
    assert "dominant-images" in {c.name for c in report.failures()}


def test_non_prime_power_c_detected():
    base = builtin("g2")
    bad = Renormalization(base.source, base.target, base.phi,
                          tuple(2 if v == 3 else v for v in base.c),
                          name="bad-exponents", prime=3)
    report = validate(bad)
    assert "prime-powers" in {c.name for c in report.failures()}


def test_zero_c_value_fails_prime_powers():
    bad = replace(builtin("frobenius:A1:2"), c=(0,))
    assert "prime-powers" in {c.name for c in validate(bad).failures()}
    with pytest.raises(InvariantViolation):
        special_exponents(bad)


def test_prime_below_two_fails_prime_powers():
    bad = replace(builtin("frobenius:A1:2"), prime=1)
    assert "prime-powers" in {c.name for c in validate(bad).failures()}
    with pytest.raises(InputError):
        special_exponents(bad)


@pytest.mark.parametrize("bad, detail", [
    (replace(builtin("frobenius:A1:2"), prime=1), "attached prime 1 is below 2"),
    (replace(builtin("frobenius:A1:2"), c=(6,)), "c value 6 is not a power of the attached prime 2"),
])
def test_prime_powers_detail_names_the_fault(bad, detail):
    assert {c.name: c.detail for c in validate(bad).failures()}["prime-powers"] == detail


def test_lattice_constraint_detected():
    # the identity on B2 does not carry the full weight lattice into eps-integers
    report = validate(_rn("B2", ((1, 0), (0, 1)), target_lattice="eps_int"))
    assert "lattice-constraints" in {c.name for c in report.failures()}


# ---------------------------------------------------------------------------
# special exponents

def test_g2_exponents_track_short_roots():
    rn = builtin("g2")
    p, d = special_exponents(rn)
    assert p == 3
    for exp, root in zip(d, rn.target.positive_roots):
        assert exp == (1 if root.d == 1 else 0)


def test_so_to_sp_exponents_track_short_roots():
    rn = builtin("so_to_sp:3")
    p, d = special_exponents(rn)
    assert p == 2
    for exp, root in zip(d, rn.target.positive_roots):
        assert exp == (1 if root.d == 1 else 0)


def test_frobenius_exponents_all_one():
    p, d = special_exponents(builtin("frobenius:B2:2"))
    assert p == 2 and set(d) == {1}


def test_exponents_need_a_prime():
    with pytest.raises(InputError):
        special_exponents(builtin("trivial:A2"))


# ---------------------------------------------------------------------------
# weight transport errors

def test_map_weight_checks_rank():
    with pytest.raises(InputError):
        map_weight(builtin("g2"), (1, 0, 0))


@pytest.mark.parametrize("w", [(Q(1, 2), 0), ("1", 0), (Q(2), 0)])
def test_map_weight_rejects_non_int_entries(w):
    with pytest.raises(InputError, match="not an integral weight"):
        map_weight(builtin("g2"), w)


@pytest.mark.parametrize("spec", builtin_catalog())
def test_map_weight_equals_the_fraction_matvec(spec):
    rn = builtin(spec)
    for w in itertools.product(range(-2, 3), repeat=rn.source.rank):
        try:
            got = map_weight(rn, w)
        except InputError:  # outside the declared source lattice
            continue
        assert got == tuple(matvec(rn.phi, w))


def test_map_weight_over_a_common_denominator():
    rn = _rn("A2", ((Q(1, 2), Q(1, 2)), (Q(-1, 2), Q(3, 2))))
    for w in itertools.product(range(-3, 4), repeat=2):
        img = matvec(rn.phi, w)
        if all(x.denominator == 1 for x in img):
            assert map_weight(rn, w) == img
        else:
            with pytest.raises(InvariantViolation, match=r"is not an integral weight"):
                map_weight(rn, w)


def test_fractional_image_is_an_invariant_violation():
    rn = _rn("A1", ((Q(1, 2),),))
    with pytest.raises(InvariantViolation):
        map_weight(rn, (1,))


def test_source_lattice_is_an_input_constraint():
    rn = _rn("B2", ((1, 0), (0, 1)), source_lattice="eps_int")
    assert map_weight(rn, (1, 0)) == (1, 0)
    with pytest.raises(InputError):
        map_weight(rn, (0, 1))  # eps coords (1/2, 1/2)


def test_target_lattice_is_an_invariant():
    rn = _rn("B2", ((1, 0), (0, 1)), target_lattice="eps_int")
    with pytest.raises(InvariantViolation):
        map_weight(rn, (0, 1))


# ---------------------------------------------------------------------------
# chain transport

def test_transport_scales_rank_one_chain():
    rn = builtin("frobenius:A1:2")
    chain = LSChain((2,), ((-2,), (2,)), (Q(1, 2),))
    out = transport_chain(rn, chain)
    assert out.shape == (4,)
    assert out.steps == ((-4,), (4,))
    assert out.cuts == (Q(1, 2),)
    assert chain_endpoint(out) == (0,)
    assert chain_depth(out) == (-2,)


def test_transport_rejects_invalid_cut():
    rn = builtin("trivial:A1")
    bad = LSChain((2,), ((-2,), (2,)), (Q(1, 3),))
    with pytest.raises(InvariantViolation):
        transport_chain(rn, bad)


def test_transport_of_g2_fundamental_orbit():
    rn = builtin("g2")
    chains = enumerate_ls_chains(rn.source, (1, 0))
    assert len(chains) == 7
    images = [transport_chain(rn, c) for c in chains]
    assert len({(c.steps, c.cuts) for c in images}) == 7
    for before, after in zip(chains, images):
        assert after.shape == (0, 1)
        assert after.cuts == before.cuts
        assert chain_endpoint(after) == map_weight(rn, chain_endpoint(before))
        # phi is a positively scaled coordinate swap, so depth transports too
        assert chain_depth(after) == map_weight(rn, chain_depth(before))


def test_transported_chains_are_genuine_target_chains():
    rn = builtin("frobenius:A2:2")
    target_keys = {
        (c.steps, c.cuts) for c in enumerate_ls_chains(rn.target, (2, 2))
    }
    for c in enumerate_ls_chains(rn.source, (1, 1)):
        out = transport_chain(rn, c)
        assert (out.steps, out.cuts) in target_keys


# ---------------------------------------------------------------------------
# duality

def test_special_families_are_self_dual():
    for name in ("so_to_sp:2", "so_to_sp:3", "sp_to_spin:2", "sp_to_spin:3",
                  "short_to_dual:B2", "f4", "g2"):
        rn = builtin(name)
        dual = dual_renormalization(rn)
        assert dual.source.label == rn.source.label
        assert dual.target.label == rn.target.label
        assert dual.phi == rn.phi
        assert dual.c == rn.c


def test_dual_of_frobenius_lives_on_the_dual_type():
    rn = builtin("frobenius:B2:2")
    dual = dual_renormalization(rn)
    assert dual.source.label == "C2" and dual.target.label == "C2"
    assert dual.phi == tuple(tuple(Q(2) if i == j else Q(0) for j in range(2)) for i in range(2))
    assert set(dual.c) == {2}
    assert dual.prime == 2
    again = dual_renormalization(dual)
    assert again.source.label == "B2" and again.phi == rn.phi


@pytest.mark.parametrize("name", builtin_catalog() + (
    "trivial:G2:2", "frobenius:F4:2", "frobenius:C3:3", "so_to_sp:4", "sp_to_spin:4",
))
def test_dual_of_the_dual_is_the_original(name):
    rn = builtin(name)
    again = dual_renormalization(dual_renormalization(rn))
    assert (again.source, again.target, again.phi, again.c) == (rn.source, rn.target, rn.phi, rn.c)


@pytest.mark.parametrize("label,dual_label", [
    ("A3", "A3"), ("B3", "C3"), ("C3", "B3"), ("D4", "D4"), ("E6", "E6"), ("F4", "F4"),
    ("G2", "G2"),
])
def test_dual_of_the_identity_is_the_identity(label, dual_label):
    # pins the node order of the coroot images without the special maps
    dual = dual_renormalization(builtin(f"trivial:{label}"))
    assert dual.source.label == dual.target.label == dual_label
    assert dual.phi == identity(dual.source.rank)
    assert set(dual.c) == {1}


def test_special_compositions_scale_by_the_prime():
    # the two B/C maps compose to multiplication by 2, either way around
    double = tuple(tuple(Q(2) if i == j else Q(0) for j in range(2)) for i in range(2))
    assert matmul(builtin("so_to_sp:2").phi, builtin("sp_to_spin:2").phi) == double
    assert matmul(builtin("sp_to_spin:2").phi, builtin("so_to_sp:2").phi) == double
    # the exceptional self-maps square to multiplication by their prime
    for name in ("f4", "g2"):
        rn = builtin(name)
        n = rn.source.rank
        scaled = tuple(
            tuple(Q(rn.prime) if i == j else Q(0) for j in range(n)) for i in range(n)
        )
        assert matmul(rn.phi, rn.phi) == scaled


def test_transport_through_so_to_sp_preserves_eps_coordinates():
    rn = builtin("so_to_sp:2")
    for w in [(1, 0), (0, 2), (2, 2)]:
        img = map_weight(rn, w)
        assert weight_to_eps(rn.target, img) == weight_to_eps(rn.source, w)
