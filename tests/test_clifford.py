"""Quaternion arithmetic, ramification, and the spin generator compatibility checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qflab import (
    INFINITE_PLACE,
    IncoherentCollection,
    Place,
    QuaternionAlgebra,
    discriminant,
    hasse_invariant,
    involution_tensor_type,
    positive_involution_criterion,
    quaternion_with_discriminant,
    ramified_places,
    signature,
    spin_generators,
    check_spin_compatibility,
    vb_space,
    witt_index_rank5,
)

F = Fraction


def _units(B):
    return B.basis()


# ---------------------------------------------------------------- quaternions


def test_defining_relations():
    B = QuaternionAlgebra(-1, -1)
    one, i, j, k = _units(B)
    assert i * i == B.quaternion(-1, 0, 0, 0)
    assert j * j == B.quaternion(-1, 0, 0, 0)
    assert i * j == k
    assert j * i == -k
    # k^2 = -ab
    assert k * k == B.quaternion(-B.a * B.b, 0, 0, 0)


def test_k_squared_in_indefinite_algebra():
    B = QuaternionAlgebra(-1, 3)
    _, _, _, k = _units(B)
    assert k * k == B.quaternion(3, 0, 0, 0)


def test_norm_and_trace():
    B = QuaternionAlgebra(-1, -1)
    one, i, j, k = _units(B)
    x = B.quaternion(1, 1, 1, 1)
    assert x.norm() == 4
    assert x.trace() == 2
    assert i.trace() == 0
    assert x.conj() == B.quaternion(1, -1, -1, -1)
    # x * conj(x) is the norm as a scalar
    assert x * x.conj() == B.quaternion(4, 0, 0, 0)


def test_norm_is_multiplicative():
    rng = random.Random(12)
    B = QuaternionAlgebra(-1, 3)
    for _ in range(40):
        x = B.quaternion(*(F(rng.randint(-5, 5)) for _ in range(4)))
        y = B.quaternion(*(F(rng.randint(-5, 5)) for _ in range(4)))
        assert (x * y).norm() == x.norm() * y.norm()


def test_multiplication_is_associative():
    rng = random.Random(13)
    for a, b in ((-1, -1), (-1, 3), (2, 5)):
        B = QuaternionAlgebra(a, b)
        for _ in range(15):
            x, y, z = (
                B.quaternion(*(rng.randint(-3, 3) for _ in range(4)))
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)


def test_addition_and_subtraction_are_coefficientwise():
    B = QuaternionAlgebra(-1, 3)
    x, y = B.quaternion(1, 2, 3, 4), B.quaternion(0, 1, -1, F(1, 2))
    assert (x + y).coeffs == (1, 3, 2, F(9, 2))
    assert (x - y).coeffs == (1, 1, 4, F(7, 2))


def test_mismatched_algebras_rejected():
    x = QuaternionAlgebra(-1, -1).quaternion(1, 0, 0, 0)
    y = QuaternionAlgebra(-1, 3).quaternion(1, 0, 0, 0)
    with pytest.raises(ValueError, match="mismatched quaternion algebras"):
        x * y


# ---------------------------------------------------------------- ramification


def test_ramified_places_examples():
    assert ramified_places(QuaternionAlgebra(-1, -1)) == frozenset({Place(2), INFINITE_PLACE})
    assert ramified_places(QuaternionAlgebra(-1, 3)) == frozenset({Place(2), Place(3)})
    assert ramified_places(QuaternionAlgebra(1, 1)) == frozenset()
    assert ramified_places(QuaternionAlgebra(-1, 1)) == frozenset()


def test_ramified_places_has_even_cardinality():
    rng = random.Random(77)
    for _ in range(60):
        a = rng.randint(-20, 20) or 1
        b = rng.randint(-20, 20) or 1
        assert len(ramified_places(QuaternionAlgebra(a, b))) % 2 == 0


def test_discriminants():
    assert discriminant(QuaternionAlgebra(-1, -1)) == 2
    assert discriminant(QuaternionAlgebra(-1, 3)) == 6
    assert discriminant(QuaternionAlgebra(1, 1)) == 1


def test_quaternion_with_discriminant_is_deterministic():
    assert quaternion_with_discriminant(1) == QuaternionAlgebra(-1, 1)
    assert quaternion_with_discriminant(2) == QuaternionAlgebra(-1, -1)
    assert quaternion_with_discriminant(6) == QuaternionAlgebra(-1, 3)
    for d in (1, 2, 3, 5, 6, 10):
        B = quaternion_with_discriminant(d)
        assert discriminant(B) == d


# ---------------------------------------------------------------- the rank-5 space


def test_split_collection_is_shared():
    assert IncoherentCollection.split() is IncoherentCollection.split()


def test_vb_space_signatures():
    assert signature(vb_space(QuaternionAlgebra(1, 1))) == (3, 2)
    assert signature(vb_space(QuaternionAlgebra(-1, -1))) == (5, 0)
    assert signature(vb_space(QuaternionAlgebra(-1, 3))) == (3, 2)


def test_vb_space_hasse_tracks_ramification():
    # the rank-5 space is <1,1> plus the pure norm part; Hasse flips exactly
    # where the algebra ramifies at finite odd places
    for pair in ((-1, 3), (2, 3), (-1, -1)):
        B = QuaternionAlgebra(*pair)
        V = vb_space(B)
        for p in (3, 5, 7):
            ram = Place(p) in ramified_places(B)
            assert (hasse_invariant(V, Place(p)) == -1) == ram


def test_witt_index_examples():
    assert witt_index_rank5(vb_space(QuaternionAlgebra(1, 1))) == 2
    assert witt_index_rank5(vb_space(QuaternionAlgebra(-1, 3))) == 1
    assert witt_index_rank5(vb_space(QuaternionAlgebra(-1, -1))) == 0


# ---------------------------------------------------------------- spin generators


def test_spin_generator_shapes():
    gens = spin_generators()
    assert np.array_equal(gens.matrix("v0"), np.diag([1, -1, 1, -1]))
    assert np.array_equal(gens.word_matrix(("e0", "e0")), np.zeros((4, 4), dtype=int))
    with pytest.raises(ValueError, match="unknown generator"):
        gens.matrix("e7")


def test_clifford_relations_for_all_pairs():
    gens = spin_generators()
    names = ("e0", "e1", "v0", "f0", "f1")
    eye = np.eye(4, dtype=int)
    for i, x in enumerate(names):
        for y_idx, y in enumerate(names):
            left = gens.matrix(x) @ gens.matrix(y) + gens.matrix(y) @ gens.matrix(x)
            assert np.array_equal(left, int(gens.gram[i, y_idx]) * eye), (x, y)


def test_pairing_of_generators():
    # order: e0, e1, v0, f0, f1; the e/f pairs are dual, v0 has norm 2
    gram = spin_generators().gram
    assert gram[0, 3] == 1 and gram[3, 0] == 1
    assert gram[1, 4] == 1 and gram[4, 1] == 1
    assert gram[2, 2] == 2
    assert gram[0, 1] == 0 and gram[0, 2] == 0


def test_involution_compatibility_short_words():
    assert check_spin_compatibility([("e0",), ("f1",), ("v0",)]) is True
    assert check_spin_compatibility([("e0", "f0"), ("e1", "v0"), ("f0", "f1")]) is True


def test_involution_compatibility_random_words():
    rng = random.Random(4104)
    names = ("e0", "e1", "v0", "f0", "f1")
    words = [
        tuple(rng.choice(names) for _ in range(rng.randint(1, 6))) for _ in range(100)
    ]
    assert check_spin_compatibility(words) is True


def test_involution_compatibility_failure_names_word():
    with pytest.raises(ValueError, match="unknown generator"):
        check_spin_compatibility((("e0", "does_not_exist"),))


# ---------------------------------------------------------------- involution bookkeeping


def test_involution_tensor_type_table():
    # mixed pairs produce the main type, like pairs the other one
    assert involution_tensor_type("main", "neben") == "main"
    assert involution_tensor_type("neben", "main") == "main"
    assert involution_tensor_type("main", "main") == "neben"
    assert involution_tensor_type("neben", "neben") == "neben"
    with pytest.raises(ValueError, match="involution type"):
        involution_tensor_type("main", "other")


def test_positive_involution_criterion():
    assert positive_involution_criterion("division", 1)
    assert not positive_involution_criterion("division", -1)
    assert positive_involution_criterion("split", -1, -1)
    assert not positive_involution_criterion("split", -1, 1)
    assert not positive_involution_criterion("split", 1, -1)
    with pytest.raises(ValueError, match="sign of the square"):
        positive_involution_criterion("split", -1)
