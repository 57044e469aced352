"""The refusal tables of the closed-form entry points.

Every entry point that reads T's Jordan data at p passes T through one gate,
gkmult.complement_triple, so each refuses the same nine inputs with the same
messages, in the gate's order: p, rank, p-integral and nonsingular (the
Jordan form's own checks), represents 1. Each cell pins the exact exception
type and message, so a check that moves between functions or changes order
shows up here. Past the gate, the two Diff-side entry points refuse a
target represented at p, each in its own words. The finite-field forms
have their own row: an entry they cannot read mod p. The last table holds
one call for each input check of the other entry points that no other test
reaches.
"""

from fractions import Fraction

import pytest

from qflab import (
    INFINITE_PLACE,
    CountJob,
    FiniteFieldQuadSpace,
    Place,
    Quaternion,
    QuaternionAlgebra,
    SymMat,
    assemble_A,
    base_space,
    chi,
    density_oracle,
    diff_set,
    e_p_of_form,
    gross_keating_exponents,
    hasse_invariant,
    hilbert,
    is_local_square,
    positive_involution_criterion,
    represents_local,
    split_diagonal,
    transversal,
    twisted_density,
    verify_ratio_identity,
    whittaker_derivative,
    whittaker_twisted_value,
    whittaker_value,
    witt_index_rank5,
)
from qflab.gkmult import complement_triple

INPUTS = {
    "rank 3": (SymMat.diag(1, 1, 3), 3),
    "rank 5": (SymMat.diag(1, 1, 1, 1, 3), 3),
    "not p-integral": (SymMat.diag(Fraction(1, 3), 1, 1, 3), 3),
    "singular": (SymMat.diag(1, 1, 3, 0), 3),
    "no unimodular entry": (SymMat.diag(3, 3, 3, 9), 3),
    "does not represent 1": (SymMat.diag(2, 6, 3, 9), 3),
    "p = 2": (SymMat.diag(1, 1, 1, 3), 2),
    # two faults at once: the first check in the gate's order wins
    "singular, not p-integral": (SymMat.diag(Fraction(1, 3), 1, 1, 0), 3),
    "rank 3, not p-integral": (SymMat.diag(Fraction(1, 3), 1, 3), 3),
}

RANK3 = "T must have rank 4, got rank 3"
ONE = "T must represent 1 over Z_3"
INTEGRAL = "Jordan form requires p-integral entries"

# one message per input, in the order of INPUTS
GATE = (
    RANK3, "T must have rank 4, got rank 5", INTEGRAL,
    "Jordan form requires nonsingular input",
    ONE, ONE, "expected an odd prime, got 2", INTEGRAL, RANK3,
)

REFUSALS = {fn: GATE for fn in (
    assemble_A,
    complement_triple,
    e_p_of_form,
    gross_keating_exponents,
    transversal,
    twisted_density,
    verify_ratio_identity,
    whittaker_derivative,
    whittaker_twisted_value,
)}


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("fn", REFUSALS, ids=lambda fn: fn.__name__)
def test_refusal_table(fn, kind):
    T, p = INPUTS[kind]
    message = REFUSALS[fn][list(INPUTS).index(kind)]
    for _ in range(2):  # a refusal is raised again on a second call with the same T
        with pytest.raises(ValueError) as info:
            fn(T, p)
        assert str(info.value) == message


@pytest.mark.parametrize("fn, message", [
    (whittaker_derivative, "derivative identity requires Diff(T) ∋ p"),
    (verify_ratio_identity, "ratio identity requires p in Diff(T): the target is "
                            "represented by the base space at p"),
], ids=["whittaker_derivative", "verify_ratio_identity"])
def test_diff_side_refusals(fn, message):
    # diag(1,1,1,1) passes the gate but is represented by the base space at 3
    with pytest.raises(ValueError) as info:
        fn(SymMat.diag(1, 1, 1, 1), 3)
    assert str(info.value) == message


def test_whittaker_derivative_refuses_missing_closed_form_in_diff():
    # 3 is in Diff(T), but T has no unimodular entry, so the gate refuses it
    with pytest.raises(ValueError) as info:
        whittaker_derivative(SymMat.diag(3, 3, 3, 6), 3)
    assert str(info.value) == ONE


@pytest.mark.parametrize("gram, p, error, message", [
    (((1.7,),), 3, TypeError, "expected an integer or Fraction, got 1.7"),
    ((("1/2",),), 3, TypeError, "expected an integer or Fraction, got '1/2'"),
    (((Fraction(1, 3),),), 3, ValueError,
     "entry (0, 0) 1/3 has no residue mod 3: p divides its denominator"),
    (((1, Fraction(2, 5)), (Fraction(2, 5), 1)), 5, ValueError,
     "entry (0, 1) 2/5 has no residue mod 5: p divides its denominator"),
])
def test_finite_field_space_refusals(gram, p, error, message):
    with pytest.raises(error) as info:
        FiniteFieldQuadSpace(p, gram)
    assert str(info.value) == message


B3, B5 = QuaternionAlgebra(-1, 3), QuaternionAlgebra(-1, 5)

# one call per input check that no other test reaches: (call, error, message)
CHECKS = {
    "represents_local space rank": (
        lambda: represents_local(SymMat.diag(1, 1, -1, 1), SymMat.diag(1), Place(3)),
        ValueError, "representation test requires a rank-5 space"),
    "represents_local target rank": (
        lambda: represents_local(base_space(), SymMat.diag(1, 1, 1, 1, 1), Place(3)),
        ValueError, "target rank must be between 1 and 4"),
    "represents_local singular target": (
        lambda: represents_local(base_space(), SymMat.diag(1, 0), Place(3)),
        ValueError, "target must be nonsingular"),
    "diff_set": (
        lambda: diff_set(SymMat.diag(1, 1, 3), None),
        ValueError, "Diff requires a nonsingular rank-4 form"),
    "SymMat.from_json size": (
        lambda: SymMat.from_json({"n": 2, "entries": [["1"]]}),
        ValueError, "matrix size does not match declared n"),
    "split_diagonal odd rank": (
        lambda: split_diagonal(3), ValueError, "split form has even rank"),
    "chi of zero": (lambda: chi(0, 3), ValueError, "chi requires a p-adic unit"),
    "hilbert of a zero": (
        lambda: hilbert(2, 0, Place(3)), ValueError, "hilbert symbol requires nonzero arguments"),
    "is_local_square of zero": (
        lambda: is_local_square(0, INFINITE_PLACE), ValueError, "square class of zero undefined"),
    "witt_index_rank5": (
        lambda: witt_index_rank5(SymMat.diag(1, 1, -1, 1)),
        ValueError, "Witt index helper expects a rank-5 space"),
    "hasse_invariant singular form": (
        lambda: hasse_invariant(SymMat.diag(1, 0), Place(3)),
        ValueError, "Hasse invariant requires a nonsingular form"),
    "CountJob rank-0 target": (
        lambda: CountJob((1, -1), SymMat([]), 3, 1),
        ValueError, "expected a target T of rank >= 1, got rank 0"),
    "density_oracle rank-0 target": (
        lambda: density_oracle((1, -1), SymMat([]), 3),
        ValueError, "expected a target T of rank >= 1, got rank 0"),
    "whittaker_value rank-0 target": (
        lambda: whittaker_value(SymMat([]), 3),
        ValueError, "expected a target T of rank >= 1, got rank 0"),
    "Quaternion length": (
        lambda: Quaternion((1, 2, 3), B3), ValueError, "quaternion needs four coefficients"),
    "Quaternion.__add__": (
        lambda: B3.quaternion(1) + B5.quaternion(1), ValueError, "mismatched quaternion algebras"),
    "Quaternion.__sub__": (
        lambda: B3.quaternion(1) - B5.quaternion(1), ValueError, "mismatched quaternion algebras"),
    "FiniteFieldQuadSpace shape": (
        lambda: FiniteFieldQuadSpace(3, ((1, 0), (0,))),
        ValueError, "finite-field form must be square of dimension 1..3"),
    "FiniteFieldQuadSpace dimension": (
        lambda: FiniteFieldQuadSpace(3, ()),
        ValueError, "finite-field form must be square of dimension 1..3"),
    "FiniteFieldQuadSpace symmetry": (
        lambda: FiniteFieldQuadSpace(3, ((1, 1), (0, 1))),
        ValueError, "finite-field form must be symmetric"),
    "positive_involution_criterion b_type": (
        lambda: positive_involution_criterion("real", 1),
        ValueError, "algebra type must be 'split' or 'division': 'real'"),
    "positive_involution_criterion conj_sign": (
        lambda: positive_involution_criterion("division", 0),
        ValueError, "expected an integer conj_sign of +1 or -1, got 0"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
