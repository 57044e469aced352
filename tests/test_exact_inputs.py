"""A rational value given as an integer, a numpy integer or a Fraction.

Every constructor and method that reads a rational scalar answers a numpy
int32 or int64 and a Fraction as it answers the plain int, and refuses a
float or a str with TypeError: no float ever becomes a binary fraction such
as 3602879701896397/36028797018963968. The repr is compared as well as the
value, so a numpy scalar that leaks into an output shows up. The JSON
readers still parse text such as "1/3".
"""

from fractions import Fraction

import numpy as np
import pytest

from qflab import (
    CountJob,
    DensityPolynomial,
    LogPMultiple,
    QuaternionAlgebra,
    SymMat,
    density_oracle,
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


def test_json_readers_parse_fraction_text():
    job = CountJob.from_json({"s": ["1/2", "1", "-1"], "T": SymMat.diag(1).to_json(), "p": 3, "t": 1})
    assert job.s_diag == (Fraction(1, 2), 1, -1)
    poly = DensityPolynomial.from_json({"coeffs": ["1", "1/3"]})
    assert poly == DensityPolynomial((1, Fraction(1, 3)))
    assert DensityPolynomial.from_json(poly.to_json()) == poly
