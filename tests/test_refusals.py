"""The refusal tables of the closed-form entry points.

Every entry point that reads T's Jordan data at p refuses the same seven
kinds of input. Each cell pins the exact exception type and message, so a
check that moves between functions or changes order shows up here. The
finite-field forms have their own row: an entry they cannot read mod p.
"""

from fractions import Fraction

import pytest

from qflab import (
    FiniteFieldQuadSpace,
    SymMat,
    assemble_A,
    e_p_of_form,
    gross_keating_exponents,
    twisted_density,
    verify_ratio_identity,
    whittaker_derivative,
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
    # two faults at once: the first check in each function's order wins
    "singular, not p-integral": (SymMat.diag(Fraction(1, 3), 1, 1, 0), 3),
    "rank 3, not p-integral": (SymMat.diag(Fraction(1, 3), 1, 3), 3),
}

RANK4 = "normal form requires a rank-4 input"
JORDAN_INTEGRAL = "Jordan form requires p-integral entries"
NORMAL_INTEGRAL = "normal form requires p-integral entries"
NORMAL_ONE = "normal form requires a form that represents 1 over Z_p"
TWISTED = "twisted density requires a nonsingular rank-4 target"
TWISTED_ONE = ("twisted closed form requires a target representing 1; "
               "use the counting oracle for other targets")
RATIO = "ratio identity requires a nonsingular rank-4 target"
RATIO_ONE = "ratio identity requires a target representing 1 over Z_p"
IN_DIFF = "derivative identity requires Diff(T) ∋ p"
ODD = "expected an odd prime, got 2"
DERIV_INTEGRAL = "Whittaker derivative requires a p-integral target"
DERIV_SINGULAR = "Whittaker derivative requires a nonsingular target"

# one message per input, in the order of INPUTS
REFUSALS = {
    assemble_A: (
        RANK4, RANK4, JORDAN_INTEGRAL,
        "Jordan form requires nonsingular input",
        "reduction formula requires a unimodular entry",
        "Kitaoka closed form requires represented 1",
        ODD, JORDAN_INTEGRAL, JORDAN_INTEGRAL,
    ),
    complement_triple: (
        RANK4, RANK4, NORMAL_INTEGRAL,
        "normal form requires nonsingular input",
        NORMAL_ONE, NORMAL_ONE, ODD, NORMAL_INTEGRAL, RANK4,
    ),
    gross_keating_exponents: (
        RANK4, RANK4, NORMAL_INTEGRAL,
        "normal form requires nonsingular input",
        NORMAL_ONE, NORMAL_ONE, ODD, NORMAL_INTEGRAL, RANK4,
    ),
    e_p_of_form: (
        RANK4, RANK4, NORMAL_INTEGRAL,
        "normal form requires nonsingular input",
        NORMAL_ONE, NORMAL_ONE, ODD, NORMAL_INTEGRAL, RANK4,
    ),
    twisted_density: (
        TWISTED, TWISTED, JORDAN_INTEGRAL,
        TWISTED, TWISTED_ONE, TWISTED_ONE, ODD, TWISTED, TWISTED,
    ),
    verify_ratio_identity: (
        RATIO, RATIO,
        "ratio identity requires a p-integral target",
        RATIO, RATIO_ONE, RATIO_ONE, ODD, RATIO, RATIO,
    ),
    whittaker_derivative: (
        IN_DIFF,
        "target rank must be between 1 and 4",
        DERIV_INTEGRAL, DERIV_SINGULAR,
        IN_DIFF, IN_DIFF, ODD, DERIV_SINGULAR, DERIV_INTEGRAL,
    ),
}


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("fn", REFUSALS, ids=lambda fn: fn.__name__)
def test_refusal_table(fn, kind):
    T, p = INPUTS[kind]
    message = REFUSALS[fn][list(INPUTS).index(kind)]
    for _ in range(2):  # a refusal is raised again on a second call with the same T
        with pytest.raises(ValueError) as info:
            fn(T, p)
        assert str(info.value) == message


def test_whittaker_derivative_refuses_missing_closed_form_in_diff():
    # 3 is in Diff(T), but T has no unimodular entry, so the series refuses
    with pytest.raises(ValueError) as info:
        whittaker_derivative(SymMat.diag(3, 3, 3, 6), 3)
    assert str(info.value) == "reduction formula requires a unimodular entry"


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
