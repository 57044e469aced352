"""Whittaker-type values, log-scaled derivatives, and the audited ratio identity."""

from fractions import Fraction

import numpy as np
import pytest

from qflab import (
    INFINITE_PLACE,
    LogPMultiple,
    Place,
    SymMat,
    derivative_at_1,
    e_p,
    ratio_audit_constant,
    verify_ratio_identity,
    whittaker_derivative,
    whittaker_twisted_value,
    whittaker_value,
)

F = Fraction


# ---------------------------------------------------------------- values


def test_value_examples():
    assert whittaker_value(SymMat.diag(1, 1, 1, 1), 3) == F(640, 729)
    assert whittaker_value(SymMat.diag(1, 1, 1, 3), 3) == 0
    fractional = SymMat.diag(F(1, 3), 1, 1, 1)
    assert whittaker_value(fractional, 3) == 0


def test_value_refuses_negative_r():
    # diag(3, 3) has no closed form, so r reached the oracle as r = 0; the
    # closed path failed on p^-1 in the evaluation point
    for T in (SymMat.diag(3, 3), SymMat.diag(1, 1, 1, 1)):
        with pytest.raises(ValueError, match=r"^expected an integer r >= 0, got -1$"):
            whittaker_value(T, 3, -1)


def test_value_rejects_singular():
    with pytest.raises(ValueError):
        whittaker_value(SymMat.diag(1, 1, 1, 0), 3)


def test_value_at_higher_level_matches_series():
    from qflab import assemble_A

    T = SymMat.diag(1, 1, 1, 1)
    assert whittaker_value(T, 3, 1) == assemble_A(T, 3).evaluate(F(1, 3))


def test_value_without_closed_form_vanishes_off_represented_side():
    # no unimodular square witness, so the series assembly refuses; the value
    # is still exactly 0 because 3 lies in Diff here
    from qflab import assemble_A

    T = SymMat.diag(2, 6, 6, 3)
    with pytest.raises(ValueError):
        assemble_A(T, 3)
    assert whittaker_value(T, 3) == 0


def test_value_without_closed_form_on_represented_side_needs_budget():
    # represented target with no witness: only the oracle applies, and a
    # rank-4 stabilization at t = 3 is beyond the configured state budget
    T = SymMat.diag(2, 6, 3, 9)
    with pytest.raises(RuntimeError, match="state budget exceeded"):
        whittaker_value(T, 3)


# ---------------------------------------------------------------- derivatives


def test_derivative_example():
    d = whittaker_derivative(SymMat.diag(1, 1, 1, 3), 3)
    assert isinstance(d, LogPMultiple)
    assert d.coeff == F(640, 729)
    assert d.p == 3


def test_derivative_bridges_to_multiplicity():
    d = whittaker_derivative(SymMat.diag(1, 1, 3, 27), 3)
    assert d.coeff == (1 - F(1, 9)) * (1 - F(1, 81)) * e_p(0, 1, 3, 3)


def test_derivative_rejects_represented_targets():
    with pytest.raises(ValueError, match="derivative identity requires Diff"):
        whittaker_derivative(SymMat.diag(1, 1, 1, 1), 3)


# ---------------------------------------------------------------- twisted values


def test_twisted_value_examples():
    assert whittaker_twisted_value(SymMat.diag(1, 1, 1, 3), 3) == F(64, 729)
    assert whittaker_twisted_value(SymMat.diag(1, 1, 1, 1), 3) == 0


def test_twisted_value_of_a_numpy_prime_is_plain():
    # before, p**4 of a numpy p left a numpy denominator inside the Fraction
    value = whittaker_twisted_value(SymMat.diag(1, 1, 1, 3), np.int64(3))
    assert value == F(64, 729) and type(value.denominator) is int


# ---------------------------------------------------------------- log-p arithmetic


def test_log_multiple_arithmetic():
    a = LogPMultiple(F(3, 2), 3)
    b = LogPMultiple(F(1, 2), 3)
    assert (a + b).coeff == 2
    assert (2 * a).coeff == 3
    assert (a * 2).coeff == 3
    assert (a / 2).coeff == F(3, 4)
    assert (-a).coeff == F(-3, 2)
    assert "log(3)" in repr(a)


def test_log_multiple_guards():
    a = LogPMultiple(F(1), 3)
    with pytest.raises(ValueError, match="mismatched primes in log-p arithmetic"):
        a + LogPMultiple(F(1), 5)
    with pytest.raises(ZeroDivisionError):
        a / 0


# ---------------------------------------------------------------- ratio identity


def test_ratio_identity_first_witness():
    report = verify_ratio_identity(SymMat.diag(1, 1, 1, 3), 3)
    assert report.equal
    assert report.lhs.coeff == 10
    assert report.rhs == 10
    assert report.multiplicity == 1
    assert report.diff == (Place(3),)


def test_ratio_identity_doubled_multiplicity():
    report = verify_ratio_identity(SymMat.diag(1, 1, 3, 3), 3)
    assert report.equal
    assert report.lhs.coeff == 20
    assert report.multiplicity == 2


def test_ratio_identity_second_witness():
    # at 5 the analogous diagonal needs a nonsquare entry: chi_5(-1) = +1 puts
    # diag(1,1,1,5) on the represented side, so it must be rejected outright
    with pytest.raises(ValueError, match="ratio identity requires p in Diff"):
        verify_ratio_identity(SymMat.diag(1, 1, 1, 5), 5)
    report = verify_ratio_identity(SymMat.diag(1, 1, 2, 5), 5)
    assert report.equal
    assert report.lhs.coeff == 52
    assert report.multiplicity == 1


def test_ratio_identity_indefinite_target():
    report = verify_ratio_identity(SymMat.diag(1, 1, 1, -3), 3)
    assert report.equal
    assert report.lhs.coeff == 10
    data = report.to_json()
    assert "oo" in data["diff"]
    assert 3 in data["diff"]


def test_ratio_identity_validation():
    with pytest.raises(ValueError, match="T must have rank 4, got rank 3"):
        verify_ratio_identity(SymMat.diag(1, 1, 3), 3)
    with pytest.raises(ValueError, match="Jordan form requires p-integral entries"):
        verify_ratio_identity(SymMat.diag(F(1, 3), 1, 1, 3), 3)
    with pytest.raises(ValueError, match="T must represent 1 over Z_3"):
        verify_ratio_identity(SymMat.diag(2, 6, 3, 9), 3)


def test_ratio_report_json_shape():
    data = verify_ratio_identity(SymMat.diag(1, 1, 1, 3), 3).to_json()
    assert set(data) == {"T", "p", "lhs_coeff", "rhs", "equal", "e_p", "diff"}
    assert data["lhs_coeff"] == "10/1"
    assert data["rhs"] == "10/1"
    assert data["equal"] is True
    assert data["e_p"] == 1
    assert data["diff"] == [3]
    assert data["T"]["n"] == 4


def test_audit_constant():
    assert ratio_audit_constant(3) == 10
    assert ratio_audit_constant(5) == 52
    for p in (3, 5, 7, 11):
        assert ratio_audit_constant(p) == F((p * p + 1) * (p - 1), 2)


# ---------------------------------------------------------------- shared local data


def _count_calls(monkeypatch, name: str, modules) -> list:
    """Wrap `name` in every module that binds it; the returned list grows by one per call."""
    calls = []
    for mod in modules:
        if hasattr(mod, name):
            def wrapped(*args, _f=getattr(mod, name), **kwargs):
                calls.append(args)
                return _f(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapped)
    return calls


@pytest.mark.parametrize("call", ["verify_ratio_identity", "whittaker_derivative",
                                  "assemble_A", "gross_keating_exponents",
                                  "e_p_of_form", "transversal"])
def test_public_call_computes_jordan_and_normal_form_once(monkeypatch, call):
    # A SymMat keeps its Jordan data per prime. Every elimination is counted
    # by wrapping quadform._eliminate, after T's rational diagonal is taken
    # (T.det): a fresh T is Jordan-diagonalized once at p by its first call
    # and not again by a second. An equal but new SymMat is diagonalized
    # again, so no memo is keyed by T's value. A witness is counted by its
    # lift, _sqrt_mod_p_power; gross_keating_exponents searches on every call.
    import qflab
    from qflab import counting, cycles, densities, gkmult, quadform, whittaker

    fn = getattr(qflab, call)
    fn(SymMat.diag(1, 1, 1, 3), 3)  # builds the shared spaces first
    rows = [[1, 1, 0, 0], [1, 4, 0, 0], [0, 0, 3, 3], [0, 0, 3, 12]]
    T, same = SymMat(rows), SymMat(rows)
    assert T.det == same.det == 81
    eliminations = _count_calls(monkeypatch, "_eliminate", (quadform,))
    modules = (quadform, gkmult, densities, whittaker, counting, cycles)
    lifts = _count_calls(monkeypatch, "_sqrt_mod_p_power", modules)
    lift = 1 if call == "gross_keating_exponents" else 0
    fn(T, 3)
    assert (len(eliminations), len(lifts)) == (1, lift)
    fn(T, 3)
    assert (len(eliminations), len(lifts)) == (1, 2 * lift)
    fn(same, 3)
    assert (len(eliminations), len(lifts)) == (2, 3 * lift)


def test_ratio_job_builds_the_density_series_once(monkeypatch):
    # a ratio job reads A(X) in verify_ratio_identity, assemble_A and
    # whittaker_derivative; the series is kept on T per prime, a refusal is not
    from qflab import assemble_A, densities

    builds = _count_calls(monkeypatch, "_ternary_numerator", (densities,))
    T = SymMat.diag(1, 1, 1, 3)
    verify_ratio_identity(T, 3)
    A = assemble_A(T, np.int64(3))
    assert whittaker_derivative(T, 3).coeff == -derivative_at_1(A)
    assert len(builds) == 1 and assemble_A(T, 3) is A
    with pytest.raises(TypeError):
        assemble_A(T, 3.0)  # a float p is refused, though 3.0 == 3 keys the kept series
    missing = SymMat.diag(2, 6, 3, 9)  # does not represent 1 over Z_3
    for _ in range(2):
        with pytest.raises(ValueError, match="^T must represent 1 over Z_3$"):
            assemble_A(missing, 3)
    assert missing._series == {} and len(builds) == 1
