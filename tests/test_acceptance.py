"""Acceptance gate: eleven criteria, each a single test with exact equality.

Each test is self-contained and rebuilds its own catalogue; nothing here
depends on the unit tests. Heavy jobs (dense meet-in-the-middle at t = 3)
live in criteria 2 and 4 and dominate the runtime.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qflab import (
    CountJob,
    GKTriple,
    IncoherentCollection,
    Place,
    QuaternionAlgebra,
    SymMat,
    base_diagonal,
    base_space,
    chi_tilde,
    classify_component,
    count_solutions,
    density_oracle,
    density_value,
    diff_set,
    e_p,
    gross_keating_exponents,
    incidence_counts,
    involution_tensor_type,
    kitaoka_ternary_poly,
    least_nonsquare,
    positive_involution_criterion,
    quaternion_with_discriminant,
    reduced_distinguished_space,
    reduced_superspecial_space,
    represents_local,
    signature,
    split_diagonal,
    transversal,
    twisted_complement_diagonal,
    twisted_density,
    twisted_diagonal,
    twisted_space,
    vb_space,
    verify_ratio_identity,
    check_spin_compatibility,
    whittaker_derivative,
)

F = Fraction


def _unit(eps: int, p: int) -> int:
    return 1 if eps == 1 else least_nonsquare(p)


def _ordered_triples(a_max):
    return itertools.combinations_with_replacement(range(a_max + 1), 3)


def _sign_patterns():
    return itertools.product((1, -1), repeat=3)


def _ternary_matrix(triple: GKTriple) -> SymMat:
    p = triple.p
    return SymMat.diag(
        *(
            _unit(s, p) * p ** a
            for a, s in zip(triple.exponents, triple.signs)
        )
    )


def _quaternary_matrix(triple: GKTriple) -> SymMat:
    p = triple.p
    return SymMat.diag(
        1,
        *(
            _unit(s, p) * p ** a
            for a, s in zip(triple.exponents, triple.signs)
        ),
    )


def test_criterion_01_unary_oracle_matches_closed_form():
    for p in (3, 5):
        for r in (0, 1):
            for eps in (1, -1):
                target = SymMat.diag(_unit(eps, p))
                got = density_oracle(base_diagonal(r), target, p).value
                assert got == 1 + F(eps, p ** (2 + r))


def test_criterion_02_ternary_closed_form_matches_oracle():
    # full grid with a3 <= 1 at t = 2, then one deep spot check at t = 3
    p = 3
    for a in _ordered_triples(1):
        for signs in _sign_patterns():
            triple = GKTriple(*a, *signs, p)
            job = CountJob(split_diagonal(4), _ternary_matrix(triple), p, 2)
            got = density_value(job, count_solutions(job))
            assert got == kitaoka_ternary_poly(triple).evaluate(F(1)), triple
    spot = GKTriple(0, 1, 2, 1, 1, -1, p)
    job = CountJob(split_diagonal(4), _ternary_matrix(spot), p, 3)
    got = density_value(job, count_solutions(job))
    assert got == F(128, 81)
    assert got == kitaoka_ternary_poly(spot).evaluate(F(1))


def test_criterion_03_central_identity_with_witnesses():
    for p in (3, 5):
        for a in _ordered_triples(3):
            for signs in _sign_patterns():
                triple = GKTriple(*a, *signs, p)
                if chi_tilde(triple) != -1:
                    continue
                report = verify_ratio_identity(_quaternary_matrix(triple), p)
                assert report.equal, triple
    first = verify_ratio_identity(SymMat.diag(1, 1, 1, 3), 3)
    assert first.lhs.coeff == 10 and first.rhs == 10
    # the analogous p = 5 witness needs a nonsquare entry: chi_5(-1) = +1
    # makes diag(1,1,1,5) represented at 5, so it is rejected outright
    with pytest.raises(ValueError, match="requires p in Diff"):
        verify_ratio_identity(SymMat.diag(1, 1, 1, 5), 5)
    second = verify_ratio_identity(SymMat.diag(1, 1, 2, 5), 5)
    assert second.lhs.coeff == 52 and second.rhs == 52


def test_criterion_04_twisted_density_against_oracle():
    p = 3
    unary = density_oracle(twisted_diagonal(p), SymMat.diag(1), p).value
    assert unary == F(2, 3)
    complement = density_oracle(
        twisted_complement_diagonal(p), SymMat.diag(1, 1, 3), p
    ).value
    assert complement == F(32, 3)
    product = unary * complement
    assert product == F(64, 9)
    assert product == twisted_density(SymMat.diag(1, 1, 1, 3), p)
    assert product == 2 * (1 - F(1, p * p)) * (p + 1)
    # the rejected reading drops the character from the unary factor
    erroneous = (1 + F(1, p)) * complement
    assert erroneous == F(128, 9)
    assert product != erroneous


def test_criterion_05_dichotomy_on_random_targets():
    rng = random.Random(90210)
    checked = 0
    while checked < 200:
        entries = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1):
                entries[i][j] = entries[j][i] = rng.randint(-50, 50)
        T = SymMat(entries)
        if not T.is_nonsingular:
            continue
        checked += 1
        for p in (3, 5, 7):
            in_base = represents_local(base_space(), T, Place(p))
            in_twisted = represents_local(twisted_space(p), T, Place(p))
            assert in_base != in_twisted


def test_criterion_06_diff_parity_on_definite_targets():
    rng = random.Random(8128)
    collections = (
        IncoherentCollection.split(),
        IncoherentCollection(quaternion_with_discriminant(6)),
    )
    for _ in range(100):
        A = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        gram = [
            [sum(A[k][i] * A[k][j] for k in range(4)) + (3 if i == j else 0) for j in range(4)]
            for i in range(4)
        ]
        T = SymMat(gram)
        assert signature(T) == (4, 0)
        for C in collections:
            assert len(diff_set(T, C)) % 2 == 1


def test_criterion_07_multiplicity_table():
    anchors = {(0, 0, 1): F(1), (0, 1, 1): F(2), (0, 0, 3): F(2)}
    for p in (3, 5, 7):
        for a in _ordered_triples(4):
            value = e_p(*a, p)
            if a in anchors:
                assert value == anchors[a]
            assert (value == 1) == (sum(a) == 1)
        assert e_p(1, 1, 1, p) == 3 + p
    # transversality is the e = 1 regime
    assert transversal(SymMat.diag(1, 1, 1, 3), 3)
    assert not transversal(SymMat.diag(1, 1, 3, 3), 3)


def test_criterion_08_derivative_bridges_to_multiplicity():
    from qflab import assemble_A, derivative_at_1

    for p in (3, 5):
        scale = (1 - F(1, p ** 2)) * (1 - F(1, p ** 4))
        for a in _ordered_triples(3):
            for signs in _sign_patterns():
                triple = GKTriple(*a, *signs, p)
                if chi_tilde(triple) != -1:
                    continue
                T = _quaternary_matrix(triple)
                assert -derivative_at_1(assemble_A(T, p)) == scale * e_p(*a, p), triple
                assert whittaker_derivative(T, p).coeff == scale * e_p(*a, p)


def test_criterion_09_appendix_suite():
    rng = random.Random(4104)
    names = ("e0", "e1", "v0", "f0", "f1")
    words = [
        tuple(rng.choice(names) for _ in range(rng.randint(1, 6))) for _ in range(100)
    ]
    assert check_spin_compatibility(words) is True
    assert signature(vb_space(QuaternionAlgebra(1, 1))) == (3, 2)
    assert signature(vb_space(quaternion_with_discriminant(6))) == (3, 2)
    assert signature(vb_space(QuaternionAlgebra(-1, -1))) == (5, 0)
    assert involution_tensor_type("main", "neben") == "main"
    assert involution_tensor_type("neben", "main") == "main"
    assert involution_tensor_type("main", "main") == "neben"
    assert involution_tensor_type("neben", "neben") == "neben"
    assert positive_involution_criterion("division", 1)
    assert not positive_involution_criterion("division", -1)
    assert positive_involution_criterion("split", -1, -1)
    assert not positive_involution_criterion("split", -1, 1)
    assert not positive_involution_criterion("split", 1, 1)


def test_criterion_10_component_decision_suite():
    no = {"represents_one": False, "has_radical_line": False}
    rad = {"represents_one": False, "has_radical_line": True}
    yes = {"represents_one": True, "has_radical_line": False}
    assert classify_component(2, 2, yes, 3).label == "isolated"
    assert classify_component(0, 0, no, 3).label == "p_plus_one_lines"
    assert classify_component(0, 1, rad, 3).label == "one_line"
    assert classify_component(1, 1, no, 3).label == "two_lines"
    assert classify_component(1, 2, rad, 3).label == "one_line"
    for p in (3, 5, 7, 11):
        sup = reduced_superspecial_space(p)
        assert all(sup.represents(c) for c in range(1, p))
        assert not reduced_distinguished_space(p).represents(1)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        assert incidence_counts(p) == (p + 1, p * p + 1)


def test_criterion_11_oracle_self_consistency():
    rng = random.Random(65537)
    done = 0
    while done < 50:
        p = rng.choice((3, 5))
        t = rng.choice((1, 2))
        m = rng.randint(1, 4)
        n = rng.randint(1, m)
        if (p ** t) ** (m * n) > 10 ** 6:
            continue
        s = tuple(rng.choice((1, -1, 2, p)) for _ in range(m))
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                entries[i][j] = entries[j][i] = rng.randint(-6, 6)
        T = SymMat(entries)
        naive = count_solutions(CountJob(s, T, p, t, "naive"))
        mitm = count_solutions(CountJob(s, T, p, t, "mitm"))
        assert naive == mitm
        done += 1
