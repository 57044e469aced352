"""Local invariants depend only on the class of a form, not on how it is written.

Property tests over rescalings that change numerators and denominators but
not the rational class: T -> g^T T g for g in GL_4(Q), diagonal or not, and
(a, b) -> (a x^2, b y^2) for quaternion algebras. Jordan data is checked
under integral changes of basis with det g prime to p. The Hilbert symbol and
Hasse invariant kernels are checked against the textbook pairwise formulas.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflab import (
    INFINITE_PLACE,
    IncoherentCollection,
    Place,
    QuaternionAlgebra,
    SymMat,
    diff_set,
    hasse_invariant,
    hilbert,
    jordan_diagonalize,
    ramified_places,
    witt_index_rank5,
)
from qflab.padic import _class_hilbert, hasse_of_diagonal, is_local_square
from qflab.quadform import _local_classes, rational_diagonalization

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

small_int = st.integers(-6, 6).filter(bool)
scale = st.builds(Fraction, st.sampled_from((1, 2, 3, 5, 7, 9)), st.sampled_from((1, 3, 5, 7, 25)))
rational = st.builds(Fraction, small_int, st.integers(1, 12))
entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 5, 7)))
incoherent = st.sampled_from(
    (IncoherentCollection.split(), IncoherentCollection.from_pair(-1, 3))
)


@st.composite
def rank4_targets(draw):
    """A positive definite integral rank-4 form A^T A + c I with small entries."""
    row = st.lists(st.integers(-3, 3), min_size=4, max_size=4)
    A = draw(st.lists(row, min_size=4, max_size=4))
    c = draw(st.integers(1, 4))
    return SymMat(
        [[sum(A[k][i] * A[k][j] for k in range(4)) + (c if i == j else 0) for j in range(4)]
         for i in range(4)]
    )


def _diagonal(values) -> list:
    return [[values[i] if i == j else 0 for j in range(4)] for i in range(4)]


# a rational diagonal g, or a general one that is invertible unless assume() drops it
change_of_basis = st.one_of(
    st.lists(scale, min_size=4, max_size=4).map(_diagonal),
    st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4),
)


def _congruent(T: SymMat, g) -> SymMat:
    """g^T T g."""
    n = T.n
    Tg = [[sum(T[i, k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return SymMat([[sum(g[k][i] * Tg[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)])


@SETTINGS
@given(rank4_targets(), change_of_basis, incoherent)
def test_diff_set_invariant_under_change_of_basis(T, g, C):
    S = _congruent(T, g)
    assume(S.is_nonsingular)
    places = diff_set(T, C)
    assert diff_set(S, C) == places
    assert len(places) % 2 == 1  # T is positive definite


@st.composite
def jordan_pairs(draw):
    """p, a diagonal D of entries u p^a (u a unit), and an integral g with det g prime to p."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(2, 4))
    unit = st.integers(1, p - 1)
    sign = st.sampled_from((1, -1))
    D = [draw(sign) * draw(unit) * p ** draw(st.integers(0, 2)) for _ in range(n)]
    g = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(_congruent(SymMat.diag(*[1] * n), g).det % p)  # det(g^T g) = det(g)^2
    return p, SymMat.diag(*D), g


@SETTINGS
@given(jordan_pairs())
def test_jordan_data_invariant_under_change_of_basis(pair):
    p, D, g = pair
    jd = jordan_diagonalize(D, p)
    assert jordan_diagonalize(_congruent(D, g), p) == jd
    assert jordan_diagonalize(SymMat.diag(*jd.diagonal_rep()), p) == jd


def test_jordan_data_ignores_entry_order():
    jd = jordan_diagonalize(SymMat.diag(1, 2), 3)
    assert jd == jordan_diagonalize(SymMat.diag(2, 1), 3)
    assert jd.terms == ((0, 1), (0, -1))  # the block's product sits on its last sign


@SETTINGS
@given(rational, rational, scale, scale)
def test_ramified_places_invariant_under_square_scaling(a, b, x, y):
    ram = ramified_places(QuaternionAlgebra(a, b))
    assert ramified_places(QuaternionAlgebra(a * x * x, b * y * y)) == ram
    if INFINITE_PLACE not in ram:
        before = IncoherentCollection.from_pair(a, b).finite_ramified
        assert IncoherentCollection.from_pair(a * x * x, b * y * y).finite_ramified == before


# about one diagonal in 200 of this shape has primes that cancel out of its
# determinant and a Hasse invariant that depends on them
witt_entry = st.builds(
    Fraction, st.sampled_from((1, -1, 2, -2, 3, -3, 5, -5, 7, -7)), st.sampled_from((1, 3, 5, 7))
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(witt_entry, min_size=5, max_size=5), st.lists(scale, min_size=5, max_size=5))
def test_witt_index_invariant_under_square_scaling(diag, g):
    index = witt_index_rank5(SymMat.diag(*diag))
    scaled = [d * x * x for d, x in zip(diag, g)]
    assert witt_index_rank5(SymMat.diag(*scaled)) == index
    integral = [d.numerator * d.denominator for d in diag]  # d times a square
    assert witt_index_rank5(SymMat.diag(*integral)) == index


def test_candidate_prime_cancellation_examples():
    third = Fraction(1, 3)
    assert diff_set(SymMat.diag(third, 3, 1, 1), IncoherentCollection.split()) == {Place(3)}
    assert ramified_places(QuaternionAlgebra(third, 3)) == frozenset({Place(2), Place(3)})
    assert witt_index_rank5(SymMat.diag(1, 1, -5, -third, Fraction(3, 5))) == 1


# ---------------------------------------------------------------- kernel against the definition


def _reference_split(x: Fraction, p: int) -> tuple[int, Fraction]:
    v = 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v, x


def _reference_hilbert(a: Fraction, b: Fraction, v: Place) -> int:
    """(a, b)_v from Serre, A Course in Arithmetic, III.1.2, Theorem 1."""
    if not v.is_finite:
        return -1 if a < 0 and b < 0 else 1
    p = v.prime
    (alpha, u), (beta, w) = _reference_split(a, p), _reference_split(b, p)
    if p == 2:
        def residue(x):
            return x.numerator * pow(x.denominator, -1, 8) % 8

        eps = [(residue(x) - 1) // 2 % 2 for x in (u, w)]
        omega = [(residue(x) ** 2 - 1) // 8 % 2 for x in (u, w)]
        return (-1) ** (eps[0] * eps[1] + alpha * omega[1] + beta * omega[0])

    def legendre(x):
        r = x.numerator * pow(x.denominator, -1, p) % p
        return 1 if pow(r, (p - 1) // 2, p) == 1 else -1

    return (-1) ** (alpha * beta * (p - 1) // 2 % 2) * legendre(u) ** (beta % 2) * legendre(w) ** (alpha % 2)


def _reference_hasse(diag, v: Place) -> int:
    s = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            s *= _reference_hilbert(diag[i], diag[j], v)
    return s


nonzero_rational = st.builds(
    Fraction, st.integers(-300, 300).filter(bool), st.integers(1, 300)
)
kernel_place = st.sampled_from(
    (INFINITE_PLACE, Place(2), Place(3), Place(5), Place(7), Place(11), Place(13))
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(nonzero_rational, nonzero_rational, kernel_place)
def test_hilbert_matches_definition(a, b, v):
    assert hilbert(a, b, v) == _reference_hilbert(a, b, v)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(nonzero_rational, nonzero_rational, kernel_place)
def test_hilbert_of_kept_square_classes_matches_definition(a, b, v):
    # the classes the local tests read: each is kept on a SymMat as the
    # square class of its determinant, and is 0 exactly for a local square
    x, y = (_local_classes(SymMat.diag(d), v)[1] for d in (a, b))
    assert (x == 0) == is_local_square(a, v) and (y == 0) == is_local_square(b, v)
    assert _class_hilbert(x, y, v) == hilbert(a, b, v) == _reference_hilbert(a, b, v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(nonzero_rational, min_size=1, max_size=6), kernel_place)
def test_hasse_of_diagonal_matches_definition(diag, v):
    assert hasse_of_diagonal(diag, v) == _reference_hasse(diag, v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(nonzero_rational, min_size=1, max_size=5), nonzero_rational, kernel_place)
def test_one_more_entry_adds_the_determinant_symbol(diag, x, v):
    # represents_local's rank-3 step: prod_i (d_i, x)_v = (d_1 ... d_n, x)_v
    want = _reference_hasse(diag, v) * _reference_hilbert(math.prod(diag), x, v)
    assert hasse_of_diagonal(diag + [x], v) == want


@SETTINGS
@given(st.lists(nonzero_rational, min_size=1, max_size=6), st.lists(kernel_place, min_size=1, max_size=4))
def test_cached_space_hasse_matches_diagonal(diag, places):
    space = SymMat.diag(*diag)
    for v in places + places:  # the second round reads the kept value
        assert (hasse_invariant(space, v) == hasse_of_diagonal(rational_diagonalization(space), v)
                == _reference_hasse(diag, v))
