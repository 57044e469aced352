"""A rational value given as an integer, a numpy integer or a Fraction, and
an integer parameter given as an integer or a numpy integer.

Every constructor and method that reads a rational scalar answers a numpy
int32 or int64 and a Fraction as it answers the plain int, and refuses a
float or a str with TypeError: no float ever becomes a binary fraction such
as 3602879701896397/36028797018963968. Every integer parameter answers a
numpy integer as the plain int and refuses a float, a bool or a str with
TypeError naming the parameter; a bool is neither an integer nor a
rational. An integer parameter with a lower bound refuses a value below it,
and a +-1 sign anything else, with ValueError naming the parameter. The repr
is compared as well as the value, so a numpy scalar that leaks into an
output shows up. The JSON readers still parse text such as "1/3".
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
    JordanDiagonal,
    SymMat,
    base_diagonal,
    classify_component,
    density_oracle,
    e_p,
    frac_str,
    gk_table_csv,
    normalization_exponent,
    positive_involution_criterion,
    quaternion_with_discriminant,
    ramified_places,
    split_diagonal,
    valuation,
    whittaker_value,
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
    "frac_str": frac_str,
}


@pytest.mark.parametrize("kind", [np.int32, np.int64, Fraction])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_exact_rational_answers_as_int(name, kind):
    want, got = CALLS[name](2), CALLS[name](kind(2))
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("x", [0.5, 2.0, np.float64(2.0), True, "2", "1/2"],
                         ids=["float", "integral float", "numpy float", "bool", "str", "fraction str"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_float_or_str_is_refused(name, x):
    with pytest.raises(TypeError, match="expected an integer or Fraction"):
        CALLS[name](x)


SIGN = "+1 or -1"

# one call per integer parameter: the name its refusals give, a value it
# accepts, the call, and the values it accepts beyond its type (None for
# every integer, a number for a lower bound, or SIGN); before, each of these
# read 2.0 or True as an integer, or refused a value below its bound or a
# sign in words of its own
INTEGER_CALLS = {
    "GKTriple a1": ("a1", 0, lambda n: GKTriple(n, 1, 1, 1, 1, 1, 3), 0),
    "GKTriple eps1": ("eps1", -1, lambda n: GKTriple(0, 1, 1, n, 1, 1, 3), SIGN),
    "GKTriple eps2": ("eps2", 1, lambda n: GKTriple(0, 1, 1, 1, n, 1, 3), SIGN),
    "GKTriple eps3": ("eps3", 1, lambda n: GKTriple(0, 1, 1, 1, 1, n, 3), SIGN),
    "e_p a1": ("a1", 1, lambda n: e_p(n, 1, 1, 3), 0),
    "e_p a3": ("a3", 2, lambda n: e_p(1, 1, n, 3), None),
    "quaternion_with_discriminant": ("discriminant d", 6, quaternion_with_discriminant, 1),
    "classify_component rank_t_mod_p": (
        "rank_t_mod_p", 1, lambda n: classify_component(n, 1, {}, 3), 0),
    "classify_component dim_m": ("dim_m", 1, lambda n: classify_component(1, n, {}, 3), 0),
    "valuation p": ("prime", 3, lambda n: valuation(18, n), 2),
    "SymMat.is_p_integral p": (
        "prime", 3, lambda n: SymMat.diag(Fraction(1, 3), 1).is_p_integral(n), 2),
    "CountJob t": (
        "modulus exponent t", 1, lambda n: CountJob((1, 1, -1), SymMat.diag(1), 3, n).t, 1),
    "JordanDiagonal exponent": (
        "term exponent", 1, lambda n: JordanDiagonal(((0, 1), (n, -1)), 3).diagonal_rep(), 0),
    "JordanDiagonal sign": (
        "term sign", -1, lambda n: JordanDiagonal(((0, 1), (1, n)), 3).terms, SIGN),
    "normalization_exponent m": ("m", 4, lambda n: normalization_exponent(n, 3, 1), None),
    "normalization_exponent n": ("n", 3, lambda n: normalization_exponent(4, n, 1), None),
    "normalization_exponent t": ("t", 2, lambda n: normalization_exponent(4, 3, n), None),
    "base_diagonal r": ("r", 1, base_diagonal, 0),
    "split_diagonal rank": ("split form rank", 2, split_diagonal, 0),
    "whittaker_value r": ("r", 1, lambda n: whittaker_value(SymMat.diag(1, 1, 1, 3), 3, n), 0),
    "density_oracle t_start": (
        "t_start", 1, lambda n: density_oracle(base_diagonal(), SymMat.diag(1), 3, t_start=n), 1),
    "density_oracle t_max": (
        "t_max", 2,
        lambda n: density_oracle(base_diagonal(), SymMat.diag(1), 3, t_start=1, t_max=n), 1),
    "gk_table_csv a_max": ("a_max", 1, lambda n: gk_table_csv(3, n), 0),
    "positive_involution_criterion conj_sign": (
        "conj_sign", -1, lambda n: positive_involution_criterion("split", n, -1), SIGN),
    "positive_involution_criterion square_sign": (
        "square_sign", -1, lambda n: positive_involution_criterion("split", -1, n), SIGN),
}
BOUNDED = sorted(name for name, row in INTEGER_CALLS.items() if isinstance(row[3], int))
SIGNS = sorted(name for name, row in INTEGER_CALLS.items() if row[3] == SIGN)


@pytest.mark.parametrize("kind", [np.int32, np.int64])
@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
def test_numpy_integer_answers_as_int(name, kind):
    _, n, call, _ = INTEGER_CALLS[name]
    want, got = call(n), call(kind(n))
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("bad", ["float", "numpy float", "bool", "str"])
@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
def test_integer_parameter_refuses_float_bool_and_str(name, bad):
    what, n, call, _ = INTEGER_CALLS[name]
    x = {"float": float(n), "numpy float": np.float64(n), "bool": bool(n), "str": str(n)}[bad]
    with pytest.raises(TypeError) as info:
        call(x)
    assert str(info.value) == f"expected an integer {what}, got {x!r}"


@pytest.mark.parametrize("name", BOUNDED)
def test_integer_parameter_refuses_a_value_below_its_bound(name):
    what, _, call, least = INTEGER_CALLS[name]
    with pytest.raises(ValueError) as info:
        call(least - 1)
    assert str(info.value) == f"expected an integer {what} >= {least}, got {least - 1}"


@pytest.mark.parametrize("x", [0, 2, -2])
@pytest.mark.parametrize("name", SIGNS)
def test_sign_parameter_refuses_anything_but_plus_or_minus_one(name, x):
    what, _, call, _ = INTEGER_CALLS[name]
    with pytest.raises(ValueError) as info:
        call(x)
    assert str(info.value) == f"expected an integer {what} of +1 or -1, got {x}"


def _job_json(**fields):
    data = {"s": [1, 1, -1], "T": SymMat.diag(1).to_json(), "p": 3, "t": 1}
    return CountJob.from_json({**data, **fields})


# the integer fields of the JSON readers: (what, good value, read): a JSON
# true was read as 1, and an integral number such as 3.0 stays accepted
JSON_FIELDS = {
    "CountJob.from_json p": ("job field 'p'", 3, lambda x: _job_json(p=x).p),
    "CountJob.from_json t": ("job field 't'", 1, lambda x: _job_json(t=x).t),
    "SymMat.from_json n": (
        "matrix size n", 1, lambda x: SymMat.from_json({"n": x, "entries": [["1"]]}).n),
}


@pytest.mark.parametrize("name", sorted(JSON_FIELDS))
def test_json_integer_field_refuses_a_bool(name):
    what, n, read = JSON_FIELDS[name]
    assert all(type(read(x)) is int and read(x) == n for x in (n, float(n), Fraction(n)))
    with pytest.raises(TypeError) as info:
        read(True)
    assert str(info.value) == f"expected an integer {what}, got True"
    with pytest.raises(ValueError) as info:
        read(Fraction(2 * n + 1, 2))
    assert str(info.value) == f"{what} must be an integer, got {Fraction(2 * n + 1, 2)}"


# every field a JSON reader needs: (reader, complete object, its name in messages)
JSON_READERS = {
    "SymMat": (SymMat.from_json, {"n": 1, "entries": [["1"]]}, "matrix"),
    "CountJob": (CountJob.from_json, {"s": [1, -1], "T": {"n": 1, "entries": [["1"]]},
                                      "p": 3, "t": 1}, "job"),
    "DensityPolynomial": (DensityPolynomial.from_json, {"coeffs": ["1"]}, "density polynomial"),
}


@pytest.mark.parametrize("reader, key", [(name, key) for name, (_, data, _) in JSON_READERS.items()
                                         for key in data])
def test_json_reader_names_a_missing_field(reader, key):
    read, data, what = JSON_READERS[reader]
    read(data)
    with pytest.raises(ValueError) as info:
        read({k: v for k, v in data.items() if k != key})
    assert str(info.value) == f"{what} JSON is missing the field {key!r}"


@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_json_reader_refuses_a_non_object(reader):
    read, data, what = JSON_READERS[reader]
    with pytest.raises(ValueError) as info:
        read(list(data.values()))
    assert str(info.value) == f"{what} JSON must be an object, got list"


def test_json_readers_parse_fraction_text():
    job = CountJob.from_json({"s": ["1/2", "1", "-1"], "T": SymMat.diag(1).to_json(), "p": 3, "t": 1})
    assert job.s_diag == (Fraction(1, 2), 1, -1)
    poly = DensityPolynomial.from_json({"coeffs": ["1", "1/3"]})
    assert poly == DensityPolynomial((1, Fraction(1, 3)))
    assert DensityPolynomial.from_json(poly.to_json()) == poly
