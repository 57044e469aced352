"""A prime p given as any integer with __index__, numpy's included.

Every exported callable that takes p answers a numpy int32 or int64 p as it
answers the plain int, whichever of the two is asked first, and refuses a
bool, a float or a str. The repr is compared as well as the value, so a
numpy scalar that leaks into an output or a per-prime cache shows up.
"""

from fractions import Fraction

import numpy as np
import pytest

from qflab import (
    CountJob,
    FiniteFieldQuadSpace,
    GKTriple,
    JordanDiagonal,
    LogPMultiple,
    Place,
    SymMat,
    assemble_A,
    chi,
    chi_tilde,
    classify_component,
    count_solutions,
    counting,
    density_oracle,
    e_p,
    e_p_of_form,
    gk_table_csv,
    gross_keating_exponents,
    hasse_invariant,
    hilbert,
    incidence_counts,
    is_isolated,
    jordan_diagonalize,
    kitaoka_ternary_poly,
    least_nonsquare,
    quadform,
    ratio_audit_constant,
    reduced_distinguished_space,
    reduced_superspecial_space,
    represents_one_over_Zp,
    transversal,
    twisted_complement_diagonal,
    twisted_density,
    twisted_diagonal,
    twisted_space,
    valuation,
    verify_ratio_identity,
    whittaker_derivative,
    whittaker_twisted_value,
    whittaker_value,
)


def _form():  # a fresh SymMat each call, so no per-prime data is kept on it yet
    return SymMat([[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])


NO_LINE = {"represents_one": False, "has_radical_line": False}

# one call per exported callable that takes p, from fresh inputs
CALLS = {
    "valuation": lambda p: valuation(Fraction(18, 5), p),
    "chi": lambda p: chi(2, p),
    "Place": lambda p: (Place(p), hilbert(3, 2, Place(p))),
    "least_nonsquare": lambda p: least_nonsquare(p),
    "twisted_diagonal": lambda p: twisted_diagonal(p),
    "twisted_complement_diagonal": lambda p: twisted_complement_diagonal(p),
    "twisted_space": lambda p: (twisted_space(p), hasse_invariant(twisted_space(p), Place(3))),
    "SymMat.is_p_integral": lambda p: SymMat.diag(Fraction(1, 3), 1).is_p_integral(p),
    "jordan_diagonalize": lambda p: jordan_diagonalize(_form(), p),
    "JordanDiagonal": lambda p: JordanDiagonal(((0, -1), (1, -1)), p).diagonal_rep(),
    "represents_one_over_Zp": lambda p: represents_one_over_Zp(_form(), p),
    "CountJob": lambda p: CountJob((1, -1, 1), SymMat.diag(2), p, 2).to_json(),
    "count_solutions": lambda p: [count_solutions(CountJob(split, SymMat.diag(1, 2), p, 1, how))
                                  for split in ((1, -1, 1, -1), (1, 1, 1, -1))
                                  for how in ("naive", "mitm")],
    "density_oracle": lambda p: density_oracle((1, -1, 1, -1), SymMat.diag(1, 3), p),
    "GKTriple": lambda p: (GKTriple(0, 1, 2, 1, -1, 1, p), chi_tilde(GKTriple(0, 1, 2, 1, -1, 1, p)),
                           kitaoka_ternary_poly(GKTriple(0, 1, 2, 1, -1, 1, p))),
    "assemble_A": lambda p: assemble_A(_form(), p),
    "twisted_density": lambda p: twisted_density(SymMat.diag(1, 1, 1, 3), p),
    "e_p": lambda p: e_p(0, 1, 3, p),
    "e_p_of_form": lambda p: e_p_of_form(_form(), p),
    "gross_keating_exponents": lambda p: gross_keating_exponents(_form(), p),
    "transversal": lambda p: transversal(_form(), p),
    "gk_table_csv": lambda p: gk_table_csv(p, 2),
    "whittaker_value": lambda p: (whittaker_value(_form(), p), whittaker_value(_form(), p, 1)),
    "whittaker_derivative": lambda p: whittaker_derivative(SymMat.diag(1, 1, 1, 3), p),
    "whittaker_twisted_value": lambda p: whittaker_twisted_value(SymMat.diag(1, 1, 1, 3), p),
    "ratio_audit_constant": lambda p: ratio_audit_constant(p),
    "verify_ratio_identity": lambda p: verify_ratio_identity(SymMat.diag(1, 1, 1, 3), p),
    "LogPMultiple": lambda p: LogPMultiple(Fraction(2, 3), p),
    "is_isolated": lambda p: is_isolated(_form(), p),
    "classify_component": lambda p: classify_component(0, 0, NO_LINE, p),
    "incidence_counts": lambda p: incidence_counts(p),
    "FiniteFieldQuadSpace": lambda p: FiniteFieldQuadSpace.diagonal(p, (1, 2)).values(),
    "reduced_distinguished_space": lambda p: reduced_distinguished_space(p),
    "reduced_superspecial_space": lambda p: reduced_superspecial_space(p),
}


def _forget():
    """Drop what the package keeps per prime across calls."""
    least_nonsquare.cache_clear()
    quadform._twisted_space.cache_clear()
    counting._RESIDENT.clear()


@pytest.mark.parametrize("kind", [np.int32, np.int64])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_numpy_prime_answers_as_int(name, kind):
    call = CALLS[name]
    for first in ("int", "numpy"):  # both call orders, each from nothing kept
        _forget()
        if first == "int":
            want, got = call(3), call(kind(3))
        else:
            got, want = call(kind(3)), call(3)
        assert got == want and repr(got) == repr(want), (name, first)


@pytest.mark.parametrize("p", [True, 3.0, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_prime_that_is_not_an_integer_is_refused(name, p):
    _forget()
    with pytest.raises((TypeError, ValueError)):
        CALLS[name](p)
