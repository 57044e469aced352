"""Gross-Keating triples, witness normal forms and the closed-form intersection multiplicity."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflab import (
    CountJob,
    SymMat,
    count_solutions,
    e_p,
    e_p_of_form,
    gk_table_csv,
    gross_keating_exponents,
    jordan_diagonalize,
    represents_one_over_Zp,
    split_diagonal,
    transversal,
)

F = Fraction


# ---------------------------------------------------------------- normal form


def test_normal_form_diagonal_example():
    nf = gross_keating_exponents(SymMat.diag(1, 1, 1, 3), 3)
    assert nf.triple.exponents == (0, 0, 1)
    assert nf.triple.signs == (1, 1, 1)
    assert nf.witness == (0, 0, 1, 0)


def test_normal_form_needs_rescaled_witness():
    # no entry is 1, yet 2 + 2 + x*... finds a unit square at (1,1,0,0) direction
    nf = gross_keating_exponents(SymMat.diag(2, 2, 3, 3), 3)
    assert nf.triple.exponents == (0, 1, 1)
    assert nf.witness == (13, 13, 0, 0)
    assert nf.witness_depth == 3


def test_normal_form_all_unimodular():
    nf = gross_keating_exponents(SymMat.diag(1, 1, 1, 1), 3)
    assert nf.triple.exponents == (0, 0, 0)
    assert nf.witness == (0, 0, 0, 1)


def test_normal_form_with_off_diagonal_block():
    T = SymMat([[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 9]])
    nf = gross_keating_exponents(T, 3)
    assert nf.triple.exponents == (0, 1, 2)
    assert nf.witness == (1, 0, 0, 0)


def test_witness_is_deterministic_and_lex_minimal():
    T = SymMat.diag(2, 2, 3, 3)
    first = gross_keating_exponents(T, 3)
    second = gross_keating_exponents(T, 3)
    assert first.witness == second.witness
    # no lexicographically earlier residue takes a unit square value mod 3
    w0 = tuple(x % 3 for x in first.witness)
    for cand in itertools.product(range(3), repeat=4):
        if cand >= w0:
            break
        assert int(T.apply(cand)) % 3 != 1


def test_witness_value_is_one_to_depth():
    for diag in ((1, 1, 1, 3), (2, 2, 3, 3), (1, 2, 9, 27), (1, 1, 1, 1)):
        nf = gross_keating_exponents(SymMat.diag(*diag), 3)
        value = SymMat.diag(*diag).apply(nf.witness)
        assert (value - 1) % 3 ** nf.witness_depth == 0


def test_normal_form_preserves_counts():
    # input and witness-plus-complement diagonal represent identically mod p
    for diag in ((1, 1, 1, 3), (2, 2, 3, 3), (1, 5, 7, 9)):
        T = SymMat.diag(*diag)
        nf = gross_keating_exponents(T, 3)
        u = 2  # nonsquare class representative at 3
        rebuilt = SymMat.diag(
            1,
            *(
                (1 if s == 1 else u) * 3 ** a
                for a, s in zip(nf.triple.exponents, nf.triple.signs)
            ),
        )
        job_a = CountJob(split_diagonal(4), T, 3, 1)
        job_b = CountJob(split_diagonal(4), rebuilt, 3, 1)
        assert count_solutions(job_a) == count_solutions(job_b)
        jd_a = jordan_diagonalize(T, 3)
        jd_b = jordan_diagonalize(rebuilt, 3)
        assert jd_a.exponents == jd_b.exponents


def test_normal_form_validation():
    with pytest.raises(ValueError, match="T must have rank 4, got rank 3"):
        gross_keating_exponents(SymMat.diag(1, 1, 1), 3)
    with pytest.raises(ValueError, match="Jordan form requires p-integral entries"):
        gross_keating_exponents(SymMat.diag(F(1, 3), 1, 1, 1), 3)
    with pytest.raises(ValueError, match="Jordan form requires nonsingular input"):
        gross_keating_exponents(SymMat.diag(1, 1, 1, 0), 3)
    with pytest.raises(ValueError, match="T must represent 1 over Z_3"):
        gross_keating_exponents(SymMat.diag(2, 6, 3, 9), 3)


def _witness_complement(T: SymMat, witness, p: int) -> SymMat:
    """Gram matrix of the complement of the witness w: T restricted to w-perp,
    on the basis e_i - (B(e_i, w) / Q(w)) w for i != i0, where w_i0 is a unit."""
    value = T.apply(witness)
    i0 = next(i for i in range(4) if witness[i] % p)
    tw = [sum(T[i, j] * witness[j] for j in range(4)) for i in range(4)]
    rest = [i for i in range(4) if i != i0]
    return SymMat([[T[i, j] - tw[i] * tw[j] / value for j in rest] for i in rest])


@st.composite
def represented_forms(draw):
    """(T, p) with T = g^T D g, D = diag(u_i p^a_i), a_i <= 3, det g possibly divisible by p."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    D = [draw(st.integers(1, p - 1)) * p ** draw(st.integers(0, 3)) for _ in range(4)]
    g = draw(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                      min_size=4, max_size=4))
    T = SymMat([[sum(g[k][i] * D[k] * g[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)])
    assume(T.is_nonsingular and represents_one_over_Zp(T, p))
    return T, p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(represented_forms())
def test_complement_triple_matches_witness_complement(case):
    # the triple read off T's Jordan data equals the Jordan data of the
    # complement of the returned witness, built the long way
    T, p = case
    nf = gross_keating_exponents(T, p)
    assert (T.apply(nf.witness) - 1) % p**nf.witness_depth == 0
    jd = jordan_diagonalize(_witness_complement(T, nf.witness, p), p)
    assert (jd.exponents, jd.signs) == (nf.triple.exponents, nf.triple.signs)
    mult = e_p(*nf.triple.exponents, p)
    assert e_p_of_form(T, p) == mult
    assert transversal(T, p) == (mult == 1)


# ---------------------------------------------------------------- multiplicity


def test_multiplicity_anchors():
    for p in (3, 5, 7):
        assert e_p(0, 0, 1, p) == 1
        assert e_p(0, 1, 1, p) == 2
        assert e_p(0, 0, 3, p) == 2
        assert e_p(1, 1, 1, p) == 3 + p


def test_multiplicity_zero_triple_is_half():
    for p in (3, 5):
        assert e_p(0, 0, 0, p) == F(1, 2)


def test_multiplicity_is_strictly_monotone():
    for a in itertools.combinations_with_replacement(range(7), 3):
        base = e_p(*a, 3)
        for i in range(3):
            bumped = list(a)
            bumped[i] += 1
            if tuple(bumped) == tuple(sorted(bumped)):
                assert e_p(*bumped, 3) > base


def test_multiplicity_rejects_unordered():
    with pytest.raises(ValueError, match="0 <= a1 <= a2 <= a3"):
        e_p(2, 1, 3, 3)
    with pytest.raises(ValueError, match=r"^expected an integer a1 >= 0, got -1$"):
        e_p(-1, 0, 0, 3)


def test_multiplicity_of_form():
    assert e_p_of_form(SymMat.diag(1, 1, 1, 3), 3) == 1
    assert e_p_of_form(SymMat.diag(1, 1, 3, 3), 3) == 2
    assert e_p_of_form(SymMat.diag(1, 1, 3, 27), 3) == 4


# ---------------------------------------------------------------- transversality


def test_transversal_examples():
    assert transversal(SymMat.diag(1, 1, 1, 3), 3)
    assert not transversal(SymMat.diag(1, 1, 3, 3), 3)
    assert not transversal(SymMat.diag(1, 1, 1, 1), 3)


def test_transversal_matches_valuation_of_det():
    from qflab import valuation

    for diag in ((1, 1, 1, 3), (1, 1, 3, 3), (1, 2, 1, 3), (1, 1, 1, 9), (2, 2, 2, 15)):
        T = SymMat.diag(*diag)
        expect = valuation(T.det, 3) == 1
        assert transversal(T, 3) == expect


# ---------------------------------------------------------------- table export


def test_table_csv_shape_and_values():
    csv = gk_table_csv(3, 2)
    lines = csv.strip().splitlines()
    assert lines[0] == "a1,a2,a3,p,e"
    body = lines[1:]
    assert len(body) == len(list(itertools.combinations_with_replacement(range(3), 3)))
    rows = {tuple(line.split(",")[:3]): line.split(",")[4] for line in body}
    assert rows[("0", "0", "0")] == "1/2"
    assert rows[("0", "0", "1")] == "1"
    assert rows[("0", "1", "1")] == "2"
    assert rows[("1", "1", "1")] == "6"
