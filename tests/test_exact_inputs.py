"""A rational value given as an integer, a numpy integer or a Fraction, and
an integer parameter given as an integer or a numpy integer.

Every constructor and method that reads a rational scalar answers a numpy
int32 or int64 and a Fraction as it answers the plain int, and refuses a
float or a str with TypeError: no float ever becomes a binary fraction such
as 3602879701896397/36028797018963968. Every integer parameter answers a
numpy integer as the plain int and refuses a float, a bool or a str with
TypeError naming the parameter. The repr is compared as well as the value,
so a numpy scalar that leaks into an output shows up. The JSON readers
still parse text such as "1/3".
"""

from fractions import Fraction

import numpy as np
import pytest

from qflab import (
    CountJob,
    DensityPolynomial,
    LogPMultiple,
    QuaternionAlgebra,
    GKTriple,
    SymMat,
    density_oracle,
    e_p,
    extract_blocks,
    frac_str,
    proper_intersection_sum,
    quaternion_with_discriminant,
    ramified_places,
)

# one call per constructor or method that takes the rational x, from fresh inputs
CALLS = {
    "CountJob": lambda x: CountJob((x, 1, -1), SymMat.diag(1), 3, 1).s_diag,
    "density_oracle": lambda x: density_oracle((x, 1, -1, 1, -1), SymMat.diag(1), 3),
    "LogPMultiple": lambda x: LogPMultiple(x, 3),
    "LogPMultiple.__mul__": lambda x: LogPMultiple(Fraction(1, 3), 3) * x,
    "LogPMultiple.__truediv__": lambda x: LogPMultiple(Fraction(1, 3), 3) / x,
    "DensityPolynomial": lambda x: DensityPolynomial((1, x)),
    "DensityPolynomial.evaluate": lambda x: DensityPolynomial((1, Fraction(1, 3))).evaluate(x),
    "QuaternionAlgebra": lambda x: (QuaternionAlgebra(x, 3), ramified_places(QuaternionAlgebra(x, 3))),
    "Quaternion": lambda x: QuaternionAlgebra(-1, 3).quaternion(1, x).norm(),
    "frac_str": frac_str,
}


@pytest.mark.parametrize("kind", [np.int32, np.int64, Fraction])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_exact_rational_answers_as_int(name, kind):
    want, got = CALLS[name](2), CALLS[name](kind(2))
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("x", [0.5, 2.0, np.float64(2.0), "2", "1/2"],
                         ids=["float", "integral float", "numpy float", "str", "fraction str"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_float_or_str_is_refused(name, x):
    with pytest.raises(TypeError, match="expected an integer or Fraction"):
        CALLS[name](x)


# one call per integer parameter, with the parameter named in the refusal and
# a value it accepts; before, each of these read 2.0 or True as an integer
INTEGER_CALLS = {
    "extract_blocks sizes": (
        "block size", 2, lambda n: extract_blocks(SymMat.diag(1, 1, 1, 3), (n, 2))),
    "proper_intersection_sum count": (
        "point count in entry 0", 2,
        lambda n: proper_intersection_sum([(SymMat.diag(1, 1, 1, 3), n)], 3)),
    "GKTriple a1": ("a1", 0, lambda n: GKTriple(n, 1, 1, 1, 1, 1, 3)),
    "GKTriple eps3": ("eps3", 1, lambda n: GKTriple(0, 1, 1, 1, 1, n, 3)),
    "e_p a1": ("a1", 1, lambda n: e_p(n, 1, 1, 3)),
    "e_p a3": ("a3", 2, lambda n: e_p(1, 1, n, 3)),
    "quaternion_with_discriminant": ("discriminant d", 6, quaternion_with_discriminant),
}


@pytest.mark.parametrize("kind", [np.int32, np.int64])
@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
def test_numpy_integer_answers_as_int(name, kind):
    _, n, call = INTEGER_CALLS[name]
    want, got = call(n), call(kind(n))
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("bad", ["float", "numpy float", "bool", "str"])
@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
def test_integer_parameter_refuses_float_bool_and_str(name, bad):
    what, n, call = INTEGER_CALLS[name]
    x = {"float": float(n), "numpy float": np.float64(n), "bool": bool(n), "str": str(n)}[bad]
    with pytest.raises(TypeError) as info:
        call(x)
    assert str(info.value) == f"expected an integer {what}, got {x!r}"


def test_json_readers_parse_fraction_text():
    job = CountJob.from_json({"s": ["1/2", "1", "-1"], "T": SymMat.diag(1).to_json(), "p": 3, "t": 1})
    assert job.s_diag == (Fraction(1, 2), 1, -1)
    poly = DensityPolynomial.from_json({"coeffs": ["1", "1/3"]})
    assert poly == DensityPolynomial((1, Fraction(1, 3)))
    assert DensityPolynomial.from_json(poly.to_json()) == poly
