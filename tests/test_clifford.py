"""Quaternion algebras, ramification, and the spin generator compatibility checks."""

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
    hilbert,
    involution_tensor_type,
    positive_involution_criterion,
    quaternion_with_discriminant,
    ramified_places,
    SymMat,
    signature,
    check_spin_compatibility,
    vb_space,
    witt_index_rank5,
)
from qflab.clifford import _EYE, _GRAM, _J, _MATRICES, GENERATOR_ORDER


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


# (a, b) pairs: split, definite, indefinite and ramified, 2 ramified or not,
# and non-integral structure constants
PAIRS = [
    (1, 1), (-1, 1), (-1, -1), (-1, 3), (2, 3), (-2, -5),
    (3, 5), (-3, 7), (Fraction(2, 3), -5), (-7, -11), (6, -10), (5, Fraction(-1, 2)),
]


# every place where a pair of PAIRS can ramify, and some where none does
PLACES = (INFINITE_PLACE, *map(Place, (2, 3, 5, 7, 11, 13)))


@pytest.mark.parametrize("a, b", PAIRS)
def test_isomorphic_presentations_ramify_alike(a, b):
    # (b, a), (a c^2, b d^2), (a, -ab) (k^2 = -ab) and (a, b N(x + y sqrt a))
    # all present the same algebra
    B = QuaternionAlgebra(a, b)
    same = [(b, a), (4 * a, 9 * b), (Fraction(a, 4), b), (a, -a * b), (a, b * (1 - 4 * a))]
    if a != 1:
        same.append((a, b * (1 - a)))
    for pair in same:
        C = QuaternionAlgebra(*pair)
        assert ramified_places(C) == ramified_places(B), pair
        assert discriminant(C) == discriminant(B), pair


@pytest.mark.parametrize("a, b", PAIRS)
def test_ramified_exactly_where_the_norm_form_is_anisotropic(a, b):
    # the reduced norm <1, -a, -b, ab> has square determinant, so it is
    # anisotropic at v exactly when its Hasse invariant differs from (-1, -1)_v
    B = QuaternionAlgebra(a, b)
    norm = SymMat.diag(1, -B.a, -B.b, B.a * B.b)
    ramified = ramified_places(B)
    for v in PLACES:
        assert (hilbert(a, b, v) == -1) == (v in ramified), v
        assert (hasse_invariant(norm, v) != hilbert(-1, -1, v)) == (v in ramified), v
    # at the real place, anisotropic means definite
    assert (signature(norm) == (4, 0)) == (INFINITE_PLACE in ramified)


@pytest.mark.parametrize("a, b", PAIRS)
def test_witt_index_of_vb_space_reads_the_algebra(a, b):
    # 2 for M_2(Q), 0 for a definite algebra, 1 for an indefinite division algebra
    B = QuaternionAlgebra(a, b)
    ramified = ramified_places(B)
    want = 2 if not ramified else 0 if INFINITE_PLACE in ramified else 1
    assert witt_index_rank5(vb_space(B)) == want


@pytest.mark.parametrize("a, b", PAIRS)
def test_incoherent_collection_of_a_pair(a, b):
    B = QuaternionAlgebra(a, b)
    ramified = ramified_places(B)
    if INFINITE_PLACE in ramified:
        with pytest.raises(ValueError, match="^incoherent collection requires an indefinite"):
            IncoherentCollection(B)
        return
    C = IncoherentCollection(B)
    assert C.space == vb_space(B)
    assert C.finite_ramified == tuple(sorted(v.prime for v in ramified))


# every d up to 40 that some algebra with |a|, |b| <= 12 has as its discriminant
FOUND_DISCRIMINANTS = (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 21, 22, 30, 33, 35)


@pytest.mark.parametrize("d", FOUND_DISCRIMINANTS)
def test_quaternion_with_discriminant_ramifies_at_the_primes_of_d(d):
    B = quaternion_with_discriminant(d)
    assert 0 < abs(B.a) <= 12 and 0 < abs(B.b) <= 12
    primes = {q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))}
    ramified = ramified_places(B)
    assert {v.prime for v in ramified if v.is_finite} == primes
    # reciprocity: an odd number of finite ramified primes needs the real place
    assert (INFINITE_PLACE in ramified) == (len(primes) % 2 == 1)


def test_quaternion_with_discriminant_refuses_the_rest():
    # a d <= 40 not listed is not squarefree or needs a coefficient beyond 12
    for d in range(1, 41):
        if d in FOUND_DISCRIMINANTS:
            continue
        with pytest.raises(ValueError, match=f"^no small-coefficient algebra has discriminant {d}$"):
            quaternion_with_discriminant(d)


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


def test_spin_generator_values():
    assert np.array_equal(_MATRICES["v0"], np.diag([1, -1, 1, -1]))
    assert np.array_equal(_MATRICES["e0"] @ _MATRICES["e0"], np.zeros((4, 4), dtype=int))
    assert np.array_equal(_EYE, np.eye(4, dtype=int))


def test_spin_constants_are_read_only():
    for a in (_EYE, _GRAM, _J, *_MATRICES.values()):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 7


def test_clifford_relations_for_all_pairs():
    eye = np.eye(4, dtype=int)
    for i, x in enumerate(GENERATOR_ORDER):
        for j, y in enumerate(GENERATOR_ORDER):
            left = _MATRICES[x] @ _MATRICES[y] + _MATRICES[y] @ _MATRICES[x]
            assert np.array_equal(left, int(_GRAM[i, j]) * eye), (x, y)


def test_pairing_of_generators():
    # order: e0, e1, v0, f0, f1; the e/f pairs are dual, v0 has norm 2
    assert GENERATOR_ORDER == ("e0", "e1", "v0", "f0", "f1")
    assert _GRAM[0, 3] == 1 and _GRAM[3, 0] == 1
    assert _GRAM[1, 4] == 1 and _GRAM[4, 1] == 1
    assert _GRAM[2, 2] == 2
    assert _GRAM[0, 1] == 0 and _GRAM[0, 2] == 0


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
    with pytest.raises(ValueError, match="^unknown generator: does_not_exist$"):
        check_spin_compatibility((("e0", "does_not_exist"),))
    with pytest.raises(ValueError, match="^unknown generator: e7$"):
        check_spin_compatibility([("e7",)])


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
