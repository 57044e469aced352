"""Component classification, reduced special fibers, and intersection bookkeeping."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from qflab import (
    ComponentClassification,
    FiniteFieldQuadSpace,
    SymMat,
    chi,
    classify_component,
    is_isolated,
    reduced_distinguished_space,
    reduced_superspecial_space,
)
from qflab.cycles import _fp2_log_tables
from qflab.quadform import least_nonsquare


# ---------------------------------------------------------------- isolation


def test_is_isolated_examples():
    assert is_isolated(SymMat.diag(1, 1, 1, 3), 3)
    assert is_isolated(SymMat.diag(2, 2, 3, 3), 3)
    assert not is_isolated(SymMat.diag(2, 6, 3, 9), 3)  # misses the unit 1
    assert not is_isolated(SymMat.diag(1, 1, 1, 0), 3)  # singular


def test_is_isolated_requires_integral_entries():
    from fractions import Fraction

    with pytest.raises(ValueError, match="p-integral"):
        is_isolated(SymMat.diag(Fraction(1, 3), 1, 1, 1), 3)


def test_is_isolated_against_brute_force():
    # a unit value has a unit gradient, so mod 27 decides representing 1
    rng = random.Random(515)
    xs = np.indices((27,) * 4).reshape(4, -1).T.astype(np.int64)
    checked = 0
    while checked < 200:
        M = np.zeros((4, 4), dtype=np.int64)
        for i in range(4):
            for j in range(i + 1):
                M[i][j] = M[j][i] = rng.randint(-9, 9)
        T = SymMat(M.tolist())
        if not T.is_nonsingular:
            continue
        checked += 1
        vals = ((xs @ M) * xs).sum(axis=1) % 27
        assert is_isolated(T, 3) == bool((vals == 1).any())


# ---------------------------------------------------------------- classification


def test_classification_labels():
    got = classify_component(2, 2, {"represents_one": True, "has_radical_line": False}, 3)
    assert isinstance(got, ComponentClassification)
    assert got.label == "isolated"
    assert classify_component(0, 0, {"represents_one": False, "has_radical_line": False}, 3).label == "p_plus_one_lines"
    assert classify_component(0, 1, {"represents_one": False, "has_radical_line": True}, 3).label == "one_line"
    assert classify_component(1, 1, {"represents_one": False, "has_radical_line": False}, 3).label == "two_lines"
    assert classify_component(1, 2, {"represents_one": False, "has_radical_line": True}, 3).label == "one_line"


def test_classification_case_refs_are_distinct():
    a = classify_component(0, 0, {"represents_one": False, "has_radical_line": False}, 3)
    b = classify_component(1, 1, {"represents_one": False, "has_radical_line": False}, 3)
    assert a.case_ref != b.case_ref


def test_classification_inconsistencies():
    with pytest.raises(ValueError, match="inconsistent case"):
        classify_component(4, 2, {"represents_one": False, "has_radical_line": False}, 3)
    with pytest.raises(ValueError, match="inconsistent case"):
        classify_component(2, 4, {"represents_one": False, "has_radical_line": False}, 3)
    with pytest.raises(ValueError, match="inconsistent case"):
        classify_component(2, 1, {"represents_one": False, "has_radical_line": False}, 3)
    with pytest.raises(ValueError, match="inconsistent case"):
        classify_component(0, 0, {"represents_one": True, "has_radical_line": False}, 3)
    with pytest.raises(ValueError, match="inconsistent case"):
        classify_component(1, 1, {"represents_one": False, "has_radical_line": True}, 3)
    with pytest.raises(ValueError, match="inconsistent case"):
        classify_component(0, 2, {"represents_one": False, "has_radical_line": True}, 3)


@pytest.mark.parametrize("m_data, error, message", [
    ({"represents_one": "no"}, TypeError, "m_data flag 'represents_one' must be a bool, got 'no'"),
    ({"has_radical_line": 1}, TypeError, "m_data flag 'has_radical_line' must be a bool, got 1"),
    ({"has_radical": True}, ValueError, "unknown m_data flag 'has_radical'"),
])
def test_classification_flags_are_bools_under_known_keys(m_data, error, message):
    # before, "no" read as True (so "isolated") and an unknown key was ignored
    with pytest.raises(error) as info:
        classify_component(0, 0, m_data, 3)
    assert str(info.value) == message


# ---------------------------------------------------------------- reduced fibers


def test_finite_field_space_construction():
    space = FiniteFieldQuadSpace.diagonal(3, (1, 2))
    assert space.dim == 2
    assert space.evaluate((1, 0)) == 1
    assert space.represents(2)
    assert 0 in space.values()


def test_finite_field_space_reads_fractions_mod_p():
    assert FiniteFieldQuadSpace.diagonal(3, (Fraction(1, 2),)).gram == ((2,),)
    assert FiniteFieldQuadSpace(5, ((Fraction(-1, 3), 1), (1, 0))).gram == ((3, 1), (1, 0))
    assert FiniteFieldQuadSpace.diagonal(3, (Fraction(7, 1),)).gram == ((1,),)
    space = FiniteFieldQuadSpace.diagonal(5, (1,))
    assert space.evaluate((Fraction(1, 2),)) == 4  # (1/2)^2 = 3^2 mod 5
    assert space.represents(Fraction(1, 4)) and not space.represents(Fraction(1, 2))


def test_finite_field_evaluate_refuses_unreadable_coordinates():
    space = FiniteFieldQuadSpace.diagonal(3, (1, 1))
    with pytest.raises(ValueError, match=r"^coordinate 1 2/3 has no residue mod 3"):
        space.evaluate((1, Fraction(2, 3)))
    with pytest.raises(TypeError):
        space.evaluate((0.5, 1))
    with pytest.raises(ValueError, match=r"^value 1/3 has no residue mod 3"):
        space.represents(Fraction(1, 3))


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_values_match_brute_force_on_dense_forms(p):
    rng = random.Random(p)
    for dim in (1, 2, 3):
        for _ in range(12):
            gram = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i + 1):
                    gram[i][j] = gram[j][i] = rng.randrange(-2 * p, 2 * p)
            space = FiniteFieldQuadSpace(p, gram)
            brute = {space.evaluate(x) for x in itertools.product(range(p), repeat=dim)}
            assert space.values() == brute


def test_superspecial_space_is_universal():
    for p in (3, 5, 7, 11):
        space = reduced_superspecial_space(p)
        assert space.dim == 3
        for c in range(1, p):
            assert space.represents(c)


def test_superspecial_center_square_class_is_nonsquare():
    # odd part of the Clifford center: its square falls in the nonsquare class
    for p in (3, 5, 7, 11):
        d = [reduced_superspecial_space(p).gram[i][i] for i in range(3)]
        zsq = (-d[0] * d[1] * d[2]) % p
        assert chi(zsq, p) == -1


def test_distinguished_space_never_represents_one():
    for p in (3, 5, 7, 11, 13):
        assert not reduced_distinguished_space(p).represents(1)
    assert sorted(reduced_distinguished_space(5).values()) == [0, 2, 3]


# ---------------------------------------------------------------- incidence


def _fp2_product(x, y, p, u):
    # (x0 + x1 d)(y0 + y1 d) with d^2 = u, on the int encoding x0 + p x1
    (x1, x0), (y1, y0) = divmod(x, p), divmod(y, p)
    return (x0 * y0 + u * x1 * y1) % p + p * ((x0 * y1 + x1 * y0) % p)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23))
def test_fp2_log_tables(p):
    u = least_nonsquare(p)
    antilog, log = _fp2_log_tables(p, u)
    order = p * p - 1
    assert len(antilog) == order and sorted(antilog) == list(range(1, p * p))
    assert log[0] == -1 and all(antilog[log[x]] == x for x in range(1, p * p))
    assert all(log[antilog[k]] == k for k in range(order))
    # antilog[k + 1] = g * antilog[k] for the one generator g = antilog[1]
    g = antilog[1]
    assert all(antilog[(k + 1) % order] == _fp2_product(antilog[k], g, p, u)
               for k in range(order))
    rng = random.Random(p)
    for _ in range(300):
        x, y = rng.randrange(1, p * p), rng.randrange(1, p * p)
        assert antilog[(log[x] + log[y]) % order] == _fp2_product(x, y, p, u)
