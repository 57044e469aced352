"""Symmetric matrices, Jordan splitting, Hasse invariants, and local representability."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qflab import (
    INFINITE_PLACE,
    CountJob,
    IncoherentCollection,
    Place,
    QuaternionAlgebra,
    SymMat,
    base_diagonal,
    base_space,
    chi,
    count_solutions,
    diff_set,
    frac_str,
    hasse_invariant,
    hilbert,
    is_local_square,
    jordan_diagonalize,
    least_nonsquare,
    quaternion_with_discriminant,
    rational_diagonalization,
    represents_local,
    represents_one_over_Zp,
    signature,
    split_diagonal,
    twisted_space,
    vb_space,
    witt_index_rank5,
)
from qflab.padic import _candidate_primes, hasse_of_diagonal


def _random_symmetric(rng, n, bound=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return SymMat(m)


def _random_nonsingular(rng, n, bound=9):
    while True:
        T = _random_symmetric(rng, n, bound)
        if T.is_nonsingular:
            return T


# ---------------------------------------------------------------- SymMat


def test_symmat_basics():
    T = SymMat.diag(1, 2, 3)
    assert T.n == 3 and T.det == 6
    assert T[1, 1] == 2 and T[0, 2] == 0
    assert T.apply((1, 1, 1)) == 6
    assert T.is_p_integral(3)
    assert not SymMat.diag(Fraction(1, 3)).is_p_integral(3)
    assert SymMat.diag(Fraction(1, 3)).is_p_integral(5)


def test_symmat_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SymMat([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="square"):
        SymMat([[1, 2]])


def test_symmat_rejects_floats():
    with pytest.raises(TypeError, match="0.1"):
        SymMat([[0.1]])
    with pytest.raises(TypeError, match="2.0"):
        SymMat.diag(1, 2.0)
    import numpy as np

    exact = SymMat([[np.int64(2), Fraction(1, 2)], [Fraction(1, 2), "1/3"]])
    assert exact == SymMat([[2, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])


def test_symmat_json_round_trip():
    T = SymMat([[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
    data = T.to_json()
    assert data["n"] == 2
    assert all(isinstance(x, str) for row in data["entries"] for x in row)
    assert SymMat.from_json(data) == T


def test_frac_str_round_trip():
    for x in (Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(10, 9)):
        assert Fraction(frac_str(x)) == x


def test_signature():
    assert signature(SymMat.diag(1, 1, 1, 1)) == (4, 0)
    assert signature(SymMat.diag(1, 1, -1, -1)) == (2, 2)
    assert signature(SymMat([[0, 1], [1, 0]])) == (1, 1)


def _leibniz_det(T):
    # sum over permutations of sign * product, independent of any elimination
    n = T.n
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total += (-1) ** inversions * math.prod((T[i, perm[i]] for i in range(n)), start=Fraction(1))
    return total


def test_rational_diagonalization_is_congruent():
    # congruence moves have determinant +-1, so the diagonal's product is det T
    rng = random.Random(31)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        T = _random_symmetric(rng, n, rng.choice((1, 2, 9)))
        d = rational_diagonalization(T)
        assert len(d) == n
        det = _leibniz_det(T)
        assert T.det == math.prod(d, start=Fraction(1)) == det
        assert T.is_nonsingular == (det != 0) == (0 not in d)
        singular += det == 0
    assert singular >= 20


def test_det_is_kept_beside_the_diagonal():
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randint(1, 5)
        T = _random_symmetric(rng, n, rng.choice((1, 2, 9)))
        det = T.det  # read before anything else diagonalizes T
        assert det == _leibniz_det(T)
        assert T.det is det
        assert rational_diagonalization(T) and T.det is det


def test_hasse_at_2_is_the_pairwise_hilbert_product():
    rng = random.Random(33)
    two = Place(2)
    for _ in range(400):
        diag = [
            Fraction(rng.choice((1, -1)) * rng.randint(1, 200), rng.randint(1, 200))
            for _ in range(rng.randint(1, 5))
        ]
        pairwise = math.prod(hilbert(a, b, two) for a, b in itertools.combinations(diag, 2))
        assert hasse_of_diagonal(diag, two) == pairwise


@pytest.mark.parametrize("v", [Place(2), Place(3), INFINITE_PLACE], ids=["2", "3", "oo"])
def test_hasse_of_a_diagonal_with_a_zero_entry_is_refused(v):
    # one refusal at every place, before any place's arithmetic runs
    for diag in ((1, -2, 0, 3), (0,), (1, 0), (Fraction(1, 3), Fraction(0))):
        with pytest.raises(ValueError) as info:
            hasse_of_diagonal(diag, v)
        assert str(info.value) == "hilbert symbol requires nonzero arguments"
    with pytest.raises(TypeError, match="got 0.0"):  # a float is refused as a float
        hasse_of_diagonal((1, 0.0), v)


@pytest.mark.parametrize("entries, diagonal", [
    ([[1, 1], [1, 1]], (1, 0)),
    ([[0, 0], [0, 0]], (0, 0)),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (2, Fraction(-1, 2), 0)),
    # an off-diagonal pivot, then a diagonal one swapped to the front
    ([[0, 0, 3], [0, 0, 0], [3, 0, 0]], (6, Fraction(-3, 2), 0)),
    # an off-diagonal pivot off the first row, swapped to the front
    ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], (2, Fraction(-1, 2), 0)),
])
def test_rational_diagonalization_radical(entries, diagonal):
    T = SymMat(entries)
    assert rational_diagonalization(T) == diagonal
    assert T.det == 0 and not T.is_nonsingular
    with pytest.raises(ValueError, match="signature requires a nonsingular form"):
        signature(T)


def _principal_minor(T, rows):
    return _leibniz_det(SymMat([[T[i, j] for j in rows] for i in rows]))


def test_rational_diagonalization_is_the_ratio_of_leading_minors():
    # with every leading principal minor D_k nonzero, each pivot is the first
    # entry of its block, no swap occurs, and the k-th entry is D_k / D_(k-1)
    rng = random.Random(34)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 5)
        entries = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                x = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 9)))
                entries[i][j] = entries[j][i] = x
        T = SymMat(entries)
        minors = [Fraction(1)] + [_principal_minor(T, range(k)) for k in range(1, n + 1)]
        if 0 in minors:
            continue
        assert rational_diagonalization(T) == tuple(b / a for a, b in zip(minors, minors[1:]))
        checked += 1


@pytest.mark.parametrize("entries, diagonal", [
    ([[0, 1], [1, 0]], (2, Fraction(-1, 2))),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (2, Fraction(-1, 2), -2)),
    ([[1, 0, 1], [0, 0, 2], [1, 2, 1]], (1, 4, -1)),
])
def test_rational_diagonalization_off_diagonal_pivot(entries, diagonal):
    # worked by hand: x_i -> x_i + x_j on the first nonzero off-diagonal
    # entry once the block's diagonal is zero
    assert rational_diagonalization(SymMat(entries)) == diagonal


def test_rational_diagonalization_with_zero_diagonal_or_radical():
    # Sylvester's law, against rules that share nothing with the elimination:
    # zeros = n - rank, where the rank is the largest order of a nonzero
    # principal minor; the signs are the eigenvalue signs; and the nonzero
    # entries' product lies in the square class of any nonzero principal
    # minor of that order. Entries are integers of size at most 5, so a
    # nonzero eigenvalue (at most 25 in size, its product with the others a
    # nonzero integer) is at least 25^-4 in size, far above float error.
    import numpy as np

    rng = random.Random(35)
    zero_diagonal = radical = 0
    for trial in range(300):
        n = rng.randint(2, 5)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                entries[i][j] = entries[j][i] = rng.randint(-5, 5)
        if trial % 2:  # a radical: the last coordinate repeats a combination
            a, b = rng.sample(range(n - 1), 2) if n > 2 else (0, 0)
            for i in range(n):
                entries[i][i] = rng.randint(-5, 5) if i < n - 1 else 0
            combo = [entries[a][t] + entries[b][t] for t in range(n)]
            for t in range(n):
                entries[n - 1][t] = entries[t][n - 1] = combo[t]
            entries[n - 1][n - 1] = sum(entries[s][t] for s in (a, b) for t in (a, b))
        T = SymMat(entries)
        d = rational_diagonalization(T)
        rank = max(k for k in range(n + 1)
                   if any(_principal_minor(T, rows) for rows in itertools.combinations(range(n), k)))
        eig = np.linalg.eigvalsh(np.array(entries, dtype=float))
        assert d.count(0) == n - rank
        assert sum(x > 0 for x in d) == int(np.sum(eig > 1e-9))
        assert sum(x < 0 for x in d) == int(np.sum(eig < -1e-9))
        nonzero = math.prod((x for x in d if x), start=Fraction(1))
        minor = next(m for rows in itertools.combinations(range(n), rank)
                     if (m := _principal_minor(T, rows)))
        ratio = nonzero / minor
        assert ratio > 0 and all(math.isqrt(x) ** 2 == x for x in (ratio.numerator, ratio.denominator))
        zero_diagonal += all(entries[i][i] == 0 for i in range(n))
        radical += rank < n
    assert zero_diagonal >= 100 and radical >= 150


def test_least_nonsquare():
    assert least_nonsquare(3) == 2
    assert least_nonsquare(5) == 2
    assert least_nonsquare(7) == 3
    assert least_nonsquare(11) == 2


# ---------------------------------------------------------------- Jordan form


def test_jordan_diagonal_example():
    jd = jordan_diagonalize(SymMat.diag(1, 1, 1, 3), 3)
    assert jd.exponents == (0, 0, 0, 1)
    assert jd.signs == (1, 1, 1, 1)


def test_jordan_hyperbolic_plane():
    jd = jordan_diagonalize(SymMat([[0, 1], [1, 0]]), 3)
    assert jd.exponents == (0, 0)
    # one block: every sign is +1 but the last, which carries the product
    assert jd.signs == (1, chi(-1, 3))


def test_jordan_off_diagonal_pivot():
    jd = jordan_diagonalize(SymMat([[2, 1], [1, 2]]), 3)
    assert jd.exponents == (0, 1)
    assert jd.signs[0] == chi(2, 3)


def test_jordan_rejects_singular_and_non_integral():
    singular = (SymMat.diag(1, 0), SymMat([[3, 3], [3, 3]]), SymMat([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    for T in singular:
        with pytest.raises(ValueError, match="Jordan form requires nonsingular input"):
            jordan_diagonalize(T, 3)
    with pytest.raises(ValueError, match="p-integral"):
        jordan_diagonalize(SymMat.diag(Fraction(1, 3)), 3)


def test_jordan_diagonal_rep_preserves_counts():
    # the diagonal representative and the original represent identically mod p^t
    rng = random.Random(47)
    for _ in range(12):
        n = rng.choice((2, 3))
        T = _random_nonsingular(rng, n, 5)
        rep = SymMat.diag(*jordan_diagonalize(T, 3).diagonal_rep())
        s = split_diagonal(4)
        for t in (1, 2) if n == 2 else (1,):
            a = count_solutions(CountJob(s, T, 3, t))
            b = count_solutions(CountJob(s, rep, 3, t))
            assert a == b


def test_jordan_invariants_under_scaling():
    jd = jordan_diagonalize(SymMat.diag(9, 18, 5), 3)
    assert jd.exponents == (0, 2, 2)
    assert jd.rank == 3
    assert len(jd.unimodular_terms) == 1


# ---------------------------------------------------------------- Hasse invariant


def test_hasse_examples():
    assert hasse_invariant(SymMat.diag(1, 1, 1, 1, 1), Place(3)) == 1
    assert hasse_invariant(SymMat.diag(1, 1, -1, -1, 1), Place(3)) == 1
    for p in (3, 5):
        u = least_nonsquare(p)
        ramified = SymMat.diag(1, -u, -p, u * p)
        assert hasse_invariant(ramified, Place(p)) == -1


def test_hasse_independent_of_diagonalization():
    rng = random.Random(11)
    places = [Place(2), Place(3), Place(5), Place(7), INFINITE_PLACE]
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        T = _random_nonsingular(rng, n, 6)
        # congruent Gram matrices present the same space
        while True:
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            M2 = [
                [
                    sum(A[k][i] * T[k, l] * A[l][j] for k in range(n) for l in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            T2 = SymMat(M2)
            if T2.is_nonsingular:
                break
        for v in places:
            assert hasse_invariant(T, v) == hasse_invariant(T2, v)


def test_kept_hasse_invariant_is_hasse_of_diagonal():
    # at 2, an odd p and the real place; computed once per place, then read:
    # the kept record is the Hasse invariant and the class of det T, the one
    # that is trivial exactly when det T is a local square
    rng = random.Random(34)
    places = (Place(2), Place(3), INFINITE_PLACE)
    for _ in range(50):
        T = _random_nonsingular(rng, rng.choice((1, 3, 5)), 6)
        for v in places:
            want = hasse_of_diagonal(rational_diagonalization(T), v)
            assert hasse_invariant(T, v) == want
            hasse, det_class = T._local[v.prime]
            assert hasse == want and hasse_invariant(T, v) == want
            assert (det_class == 0) == is_local_square(T.det, v)
        assert set(T._local) == {v.prime for v in places}


SINGULAR_RANK5 = SymMat([[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                         [0, 0, 0, -1, 0], [0, 0, 0, 0, 3]])


@pytest.mark.parametrize("v", [Place(2), Place(3), INFINITE_PLACE], ids=str)
def test_represents_local_refuses_a_singular_space_at_every_place(v):
    # a finite place never reads S for a target of rank <= 2
    for T in (SymMat.diag(1), SymMat.diag(1, 1, 3), SymMat.diag(1, 1, 1, 3)):
        with pytest.raises(ValueError, match="^representation test requires a nonsingular space$"):
            represents_local(SINGULAR_RANK5, T, v)


def test_witt_index_refuses_a_singular_space():
    with pytest.raises(ValueError, match="^Witt index helper expects a nonsingular space$"):
        witt_index_rank5(SINGULAR_RANK5)


def test_is_local_square():
    assert is_local_square(4, INFINITE_PLACE)
    assert not is_local_square(-4, INFINITE_PLACE)
    assert is_local_square(Fraction(1, 9), Place(3))
    assert not is_local_square(2, Place(3))
    assert not is_local_square(3, Place(3))
    assert is_local_square(-1, Place(5))
    assert is_local_square(17, Place(2))
    assert not is_local_square(5, Place(2))


# ---------------------------------------------------------------- fixed spaces


def test_fixed_diagonals():
    assert base_diagonal() == (1, 1, -1, 1, -1)
    assert base_diagonal(1) == (1, 1, -1, 1, -1, 1, -1)
    assert split_diagonal(4) == (1, -1, 1, -1)
    assert base_space().n == 5


def test_fixed_diagonals_refuse_negative_sizes():
    # (1, -1) * -1 is empty: a negative size was read as 0
    with pytest.raises(ValueError, match=r"^expected an integer r >= 0, got -1$"):
        base_diagonal(-1)
    with pytest.raises(ValueError, match=r"^expected an integer split form rank >= 0, got -2$"):
        split_diagonal(-2)


def test_twisted_space_is_the_other_class_at_p():
    # the local isometry class at p is (dim, det class, Hasse); only Hasse flips
    for p in (3, 5, 7):
        V = base_space()
        W = twisted_space(p)
        assert W.n == V.n == 5
        assert is_local_square(W.det / V.det, Place(p))
        assert hasse_invariant(W, Place(p)) == -hasse_invariant(V, Place(p)) == -1


# ---------------------------------------------------------------- representability


def test_represents_local_examples():
    assert represents_local(base_space(), SymMat.diag(1, 1, 1, 1), Place(3))
    assert not represents_local(base_space(), SymMat.diag(1, 1, 1, 3), Place(3))
    posdef = SymMat.diag(1, 1, 1, 1, 1)
    assert represents_local(posdef, SymMat.diag(1, 1, 1, 3), INFINITE_PLACE)
    assert not represents_local(posdef, SymMat.diag(-1), INFINITE_PLACE)


def _square_class_reps(v):
    if v.prime == 2:
        return (1, 3, 5, 7, 2, 6, 10, 14)
    u = least_nonsquare(v.prime)
    return (1, u, v.prime, u * v.prime)


def _direct_sum(T, a):
    n = T.n
    return SymMat([[T[i, j] if i < n and j < n else (a if i == j else 0)
                    for j in range(n + 1)] for i in range(n + 1)])


def test_represents_local_rank_three_by_a_fourth_vector():
    # S represents a ternary T at v exactly when it represents T + <a> for
    # some a: the binary complement of T in S represents some a, and conversely
    rng = random.Random(1301)
    spaces = [base_space(), vb_space(QuaternionAlgebra(-1, -1)), vb_space(QuaternionAlgebra(-1, 3))]
    seen = set()
    for _ in range(150):
        T = _random_nonsingular(rng, 3, 12)
        if rng.random() < 0.5:  # rational entries, still symmetric
            scale = [rng.choice((1, 2, 3, 5, 7)) for _ in range(3)]
            T = SymMat([[Fraction(T[i, j], scale[i] * scale[j]) for j in range(3)] for i in range(3)])
        for p in (2, 3, 5, 7):
            v = Place(p)
            for S in spaces + ([twisted_space(p)] if p != 2 else []):
                got = represents_local(S, T, v)
                assert got == any(
                    represents_local(S, _direct_sum(T, a), v) for a in _square_class_reps(v)
                )
                seen.add(got)
    assert seen == {True, False}


def test_represents_local_rank_at_most_two_through_rank_three():
    # a rank-5 space represents every form of rank <= 2 over Q_p; checked
    # through the rank-3 branch: S represents T exactly when it represents
    # T + <a_1> + ... for some square-class representatives a_i up to rank 3
    rng = random.Random(1501)
    spaces = [base_space(), vb_space(QuaternionAlgebra(-1, -1)), vb_space(QuaternionAlgebra(-1, 3))]
    extensions_seen = set()
    for _ in range(40):
        n = rng.choice((1, 2))
        T = _random_nonsingular(rng, n, 12)
        if rng.random() < 0.5:  # rational entries, still symmetric
            scale = [rng.choice((1, 2, 3, 5, 7)) for _ in range(n)]
            T = SymMat([[Fraction(T[i, j], scale[i] * scale[j]) for j in range(n)] for i in range(n)])
        for p in (2, 3, 5, 7):
            v = Place(p)
            for S in spaces + ([twisted_space(p)] if p != 2 else []):
                assert represents_local(S, T, v)
                reps = _square_class_reps(v)
                ternaries = [T]
                while ternaries[0].n < 3:
                    ternaries = [_direct_sum(U, a) for U in ternaries for a in reps]
                outcomes = [represents_local(S, U, v) for U in ternaries]
                assert any(outcomes)
                extensions_seen.update(outcomes)
    assert extensions_seen == {True, False}


def test_dichotomy_sample():
    rng = random.Random(307)
    for _ in range(40):
        T = _random_nonsingular(rng, 4, 50)
        for p in (3, 5, 7):
            a = represents_local(base_space(), T, Place(p))
            b = represents_local(twisted_space(p), T, Place(p))
            assert a != b


def test_represents_one_examples():
    assert represents_one_over_Zp(SymMat.diag(1, 5, 7, 9), 3)
    assert not represents_one_over_Zp(SymMat.diag(2, 6, 3, 9), 3)
    assert represents_one_over_Zp(SymMat.diag(2, 2, 3, 3), 3)


def test_represents_one_against_enumeration():
    # unit values force a unit gradient, so mod p^3 already decides Z_p
    q = 27
    rng = random.Random(99)
    for _ in range(40):
        n = rng.choice((2, 3))
        T = _random_nonsingular(rng, n, 9)
        found = False
        for idx in range(q ** n):
            x = [(idx // q ** k) % q for k in range(n)]
            if T.apply(x) % q == 1:
                found = True
                break
        assert represents_one_over_Zp(T, 3) == found


# ---------------------------------------------------------------- Diff sets


def test_diff_examples():
    C = IncoherentCollection.split()
    assert diff_set(SymMat.diag(1, 1, 1, 3), C) == {Place(3)}
    assert diff_set(SymMat.diag(1, 1, 1, 1), C) == {Place(2)}
    indefinite = diff_set(SymMat.diag(1, 1, 1, -3), C)
    assert INFINITE_PLACE in indefinite
    assert len(indefinite) % 2 == 1


def test_diff_parity_sample():
    rng = random.Random(8128)
    collections = [IncoherentCollection.split(), IncoherentCollection(QuaternionAlgebra(-1, 3))]
    for _ in range(25):
        A = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        M = [
            [sum(A[k][i] * A[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        T = SymMat([[M[i][j] + (4 if i == j else 0) for j in range(4)] for i in range(4)])
        assert signature(T) == (4, 0)
        for C in collections:
            assert len(diff_set(T, C)) % 2 == 1


def _unimodular(rng, n):
    # a product of elementary moves and sign changes: determinant +-1 over Z
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in g:
            row[j] += c * row[i]
    for j in rng.sample(range(n), rng.randint(0, n)):
        for row in g:
            row[j] = -row[j]
    return g


def _congruent(T, g):
    n = T.n
    return SymMat([[sum(g[k][i] * T[k, l] * g[l][j] for k in range(n) for l in range(n))
                    for j in range(n)] for i in range(n)])


def test_local_tests_read_kept_invariants_in_a_class_invariant_way():
    # a fresh T, a T whose Hasse invariants are kept first, and g^T T g for a
    # unimodular g give the same answers; entries may have denominators
    rng = random.Random(2604)
    places = [Place(2), Place(3), Place(5), Place(7), INFINITE_PLACE]
    spaces = [base_space(), twisted_space(3), twisted_space(5), twisted_space(7)]
    collections = [IncoherentCollection.split(), IncoherentCollection(QuaternionAlgebra(-1, 3))]
    for _ in range(60):
        n = rng.choice((3, 4, 4))
        T = _random_nonsingular(rng, n, 12)
        d = [Fraction(1, rng.choice((1, 1, 2, 3, 5))) for _ in range(n)]
        entries = [[d[i] * T[i, j] * d[j] for j in range(n)] for i in range(n)]
        fresh = SymMat(entries)
        kept = SymMat(entries)
        for v in places:
            hasse_invariant(kept, v)
        moved = _congruent(fresh, _unimodular(rng, n))
        for S in spaces:
            for v in places:
                want = represents_local(S, fresh, v)
                assert represents_local(S, kept, v) == want
                assert represents_local(S, moved, v) == want
                assert represents_local(S, fresh, v) == want  # now read from kept data
        if n == 4:
            for C in collections:
                want = diff_set(SymMat(entries), C)
                assert diff_set(kept, C) == want and diff_set(moved, C) == want


def _hilbert_rule(S, T, v):
    # represents_local written out from Fractions: signature containment at
    # the real place; at a finite one hasse(T) (det T, -det S)_v against
    # hasse(S), with the rank-3 clause on -det S det T being a local square
    if not v.is_finite:
        (tp, tn), (sp, sn) = signature(T), signature(S)
        return tp <= sp and tn <= sn
    if T.n <= 2:
        return True
    forced = hasse_invariant(T, v) * hilbert(T.det, -S.det, v)
    if T.n == 4:
        return forced == hasse_invariant(S, v)
    return not (is_local_square(-S.det * T.det, v) and forced * hasse_invariant(S, v) == -1)


def _diff_rule(T, C):
    # diff_set written out: every prime of D(B), of det T or of an entry's
    # denominator, and 2, fails _hilbert_rule; the real place by signature
    denominators = {x.denominator for row in T.entries for x in row}
    primes = _candidate_primes(*C.finite_ramified, T.det, *denominators)
    out = {Place(p) for p in primes if not _hilbert_rule(C.space, T, Place(p))}
    return out | ({INFINITE_PLACE} if signature(T)[0] in (1, 3) else set())


def _rational_target(rng, n, p):
    # non-diagonal, entries divisible by p or with small denominators
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                num = rng.choice((1, p, p * p)) * rng.randint(-4, 4)
                rows[i][j] = rows[j][i] = Fraction(num, rng.choice((1, 1, 2, 3, 4, p)))
        if any(rows[i][j] for i in range(n) for j in range(i)) and SymMat(rows).is_nonsingular:
            return rows


def test_local_tests_from_kept_classes_match_the_hilbert_rule():
    # each T is read fresh, then again after another space has read it, so
    # the kept square classes cannot depend on which space came first
    rng = random.Random(3101)
    disc6 = IncoherentCollection(quaternion_with_discriminant(6))
    collections = [IncoherentCollection.split(), disc6]
    spaces = [base_space(), twisted_space(3), twisted_space(5), twisted_space(7), disc6.space]
    seen = set()
    for _ in range(80):
        p = rng.choice((3, 5, 7))
        n = rng.choice((3, 4))
        rows = _rational_target(rng, n, p)
        reference = SymMat(rows)
        denominators = {x.denominator for row in rows for x in row}
        primes = set(_candidate_primes(reference.det, *denominators)) | {3, 5, 7}
        places = [Place(q) for q in sorted(primes)] + [INFINITE_PLACE]
        for S, other in zip(spaces, spaces[1:] + spaces[:1]):
            want = [_hilbert_rule(S, reference, v) for v in places]
            T = SymMat(rows)
            assert [represents_local(S, T, v) for v in places] == want
            for v in places:
                represents_local(other, T, v)
            assert [represents_local(S, T, v) for v in places] == want
            seen.update(want)
        if n == 4:
            for C, other in (collections, collections[::-1]):
                want = _diff_rule(reference, C)
                T = SymMat(rows)
                assert diff_set(T, C) == want
                diff_set(T, other)
                assert diff_set(T, C) == want
    assert seen == {True, False}


def test_local_tests_read_the_target_diagonal_once_per_place(monkeypatch):
    import qflab.padic
    import qflab.quadform

    calls = []
    real = qflab.padic._hasse_and_det_class

    def spy(diag, v):
        calls.append((tuple(diag), v))
        return real(diag, v)

    monkeypatch.setattr(qflab.quadform, "_hasse_and_det_class", spy)
    disc6 = IncoherentCollection(QuaternionAlgebra(-1, 3))
    T = SymMat([[2, 1, 0, 0], [1, 4, 1, 0], [0, 1, 6, 3], [0, 0, 3, 12]])
    diagonal = rational_diagonalization(T)
    for p in (3, 5, 7):
        diff_set(T, IncoherentCollection.split())
        diff_set(T, disc6)
        represents_local(base_space(), T, Place(p))
    reads = [v for diag, v in calls if diag[:T.n] == diagonal]
    assert reads and len(reads) == len(set(reads)), reads


def test_incoherent_collection_structure():
    C = IncoherentCollection.split()
    assert C.finite_ramified == ()
    D = IncoherentCollection(QuaternionAlgebra(-1, 3))
    assert D.finite_ramified == (2, 3)
    assert signature(D.space) == (3, 2)


def test_incoherent_collection_rejects_definite():
    with pytest.raises(ValueError, match="indefinite"):
        IncoherentCollection(QuaternionAlgebra(-1, -1))
    with pytest.raises(ValueError, match="nonzero"):
        IncoherentCollection(QuaternionAlgebra(0, 3))
