"""Acceptance gate: eleven criteria, each one check of `qflab.acceptance` at full size.

`qflab sweep` runs the same checks; a check passes when it names no
failure, and each test shows every failure it names. Heavy jobs (dense
meet-in-the-middle at t = 3) live in criteria 2 and 4 and dominate the
runtime.
"""

from qflab import acceptance


def _passes(check):
    _, failures = check(fast=False)
    assert failures == [], "\n".join(failures)


def test_criterion_01_unary_oracle_matches_closed_form():
    _passes(acceptance.check_unary)


def test_criterion_02_ternary_closed_form_matches_oracle():
    _passes(acceptance.check_kitaoka)


def test_criterion_03_central_identity_with_witnesses():
    _passes(acceptance.check_central)


def test_criterion_04_twisted_density_against_oracle():
    _passes(acceptance.check_twisted)


def test_criterion_05_dichotomy_on_random_targets():
    _passes(acceptance.check_dichotomy)


def test_criterion_06_diff_parity_on_definite_targets():
    _passes(acceptance.check_diff_parity)


def test_criterion_07_multiplicity_table():
    _passes(acceptance.check_gk)


def test_criterion_08_derivative_bridges_to_multiplicity():
    _passes(acceptance.check_bridge)


def test_criterion_09_appendix_suite():
    _passes(acceptance.check_appendix)


def test_criterion_10_component_decision_suite():
    _passes(acceptance.check_components)


def test_criterion_11_oracle_self_consistency():
    _passes(acceptance.check_oracle)
