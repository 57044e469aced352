"""Exact solution counting mod p^t and the stabilized density oracle."""

import collections
import itertools
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflab import counting
from qflab import (
    CountJob,
    OracleError,
    SymMat,
    base_diagonal,
    count_solutions,
    density_oracle,
    density_value,
    least_nonsquare,
    normalization_exponent,
    split_diagonal,
    state_budget,
    twisted_complement_diagonal,
)


@pytest.fixture
def cold():
    """Start from no kept MITM tables or row keys, so that a test which
    spies on or patches the engine sees it fill them."""
    counting._RESIDENT.clear()


def test_count_examples():
    assert count_solutions(CountJob((1,), SymMat.diag(1), 3, 1)) == 2
    # x^2 + y^2 = 0 mod 3 forces x = y = 0 since -1 is a nonsquare
    assert count_solutions(CountJob((1, 1), SymMat([[0]]), 3, 1)) == 1


def test_count_naive_equals_mitm_exhaustive_small():
    rng = random.Random(5)
    done = 0
    while done < 25:
        m = rng.randint(1, 3)
        n = rng.randint(1, m)
        t = rng.randint(1, 2)
        if (3 ** t) ** (m * n) > 200_000:
            continue
        s = tuple(rng.choice((1, -1, 2, 3)) for _ in range(m))
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                entries[i][j] = entries[j][i] = rng.randint(-4, 4)
        T = SymMat(entries)
        a = count_solutions(CountJob(s, T, 3, t, "naive"))
        b = count_solutions(CountJob(s, T, 3, t, "mitm"))
        assert a == b
        done += 1


@pytest.mark.parametrize(
    "s, T, p, t",
    [
        ((2,), SymMat.diag(2), 3, 2),  # m = 1: the table half is empty
        ((1, -1, 3), SymMat.diag(1), 3, 2),  # unequal halves, 2 + 1 rows
        ((1, 2, -1, 3, 1), SymMat.diag(2), 3, 2),  # unequal halves, 3 + 2 rows
        ((1, 3), SymMat.diag(5), 89, 1),  # q above 85, the old cap of the array path
        ((1, -1, 2), SymMat.diag(7), 89, 1),
        ((1, 2), SymMat.diag(-1), 131, 1),  # digit sums need uint16
        ((1, 9, -1), SymMat.diag(1, 2), 3, 2),  # 9 = 0 mod 9: one key of weight 81
        ((3, 1, 9, -1, 6), SymMat.diag(3), 3, 2),  # p-divisible entries, odd m
        ((3, 1, 9, -1, 6), SymMat.diag(9), 3, 2),  # target 0 mod q
        ((5, 1, -5), SymMat.diag(5, 10), 5, 1),  # p-divisible source and target
    ],
)
def test_count_naive_equals_mitm_shapes(s, T, p, t):
    assert count_solutions(CountJob(s, T, p, t, "naive")) == count_solutions(CountJob(s, T, p, t))


def test_count_stabilizes_past_jordan_exponent_at_t4():
    # diag(3, 9) has Jordan exponents 1, 2: the normalized count changes
    # from t = 2 to t = 3 and is constant from there
    s, T = split_diagonal(4), SymMat.diag(3, 9)
    values = [density_value(CountJob(s, T, 3, t), count_solutions(CountJob(s, T, 3, t)))
              for t in (2, 3, 4)]
    assert values == [Fraction(160, 81), Fraction(448, 243), Fraction(448, 243)]


def test_count_invariant_under_coordinate_permutation():
    T = SymMat([[1, 1], [1, 2]])
    P = SymMat([[2, 1], [1, 1]])
    s = split_diagonal(4)
    for t in (1, 2):
        assert count_solutions(CountJob(s, T, 3, t)) == count_solutions(CountJob(s, P, 3, t))


def test_state_budget_guard(monkeypatch):
    monkeypatch.setenv("QFLAB_STATE_BUDGET", "10")
    assert state_budget() == 10
    job = CountJob(split_diagonal(4), SymMat.diag(1, 1, 1), 3, 2)
    with pytest.raises(RuntimeError, match="state budget exceeded"):
        count_solutions(job)
    # 9^2 states per half fit, but the 9^3-cell table does not
    monkeypatch.setenv("QFLAB_STATE_BUDGET", "500")
    job = CountJob((1, -1), SymMat.diag(1, 1), 3, 2)
    with pytest.raises(RuntimeError, match="state budget exceeded"):
        count_solutions(job)


def test_naive_budget_guard(monkeypatch):
    # q^(mn) = 3^2 states: one over the budget refuses before enumerating
    job = CountJob((1, 1), SymMat.diag(1), 3, 1, strategy="naive")
    monkeypatch.setenv("QFLAB_STATE_BUDGET", "8")
    monkeypatch.setattr(counting, "_naive_count", lambda job: pytest.fail("enumerated"))
    with pytest.raises(RuntimeError, match=r"^state budget exceeded: naive enumeration "
                                           r"needs 9 states, budget 8$"):
        count_solutions(job)
    monkeypatch.undo()
    monkeypatch.setenv("QFLAB_STATE_BUDGET", "9")
    assert count_solutions(job) == 4  # x^2 + y^2 = 1 mod 3: (+-1, 0), (0, +-1)


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "2e9", str(2**31 + 1)])
def test_state_budget_refuses_bad_values(monkeypatch, raw):
    monkeypatch.setenv("QFLAB_STATE_BUDGET", raw)
    with pytest.raises(ValueError, match="QFLAB_STATE_BUDGET"):
        state_budget()
    with pytest.raises(ValueError, match="QFLAB_STATE_BUDGET"):
        count_solutions(CountJob((1,), SymMat.diag(1), 3, 1))


def test_state_budget_accepts_its_range(monkeypatch):
    for raw in ("1", "10", "500", str(2**31)):
        monkeypatch.setenv("QFLAB_STATE_BUDGET", raw)
        assert state_budget() == int(raw)


def _literal_count(s, T, p, t):
    """#{x in M_{m,n}(Z/q) : x^T diag(s) x = T mod q}, one x at a time."""
    q, m, n = p**t, len(s), T.n
    count = 0
    for flat in itertools.product(range(q), repeat=m * n):
        x = [flat[r * n:(r + 1) * n] for r in range(m)]
        count += all(
            (sum(s[r] * x[r][i] * x[r][j] for r in range(m)) - T[i, j]) % q == 0
            for i in range(n) for j in range(i, n)
        )
    return count


def _literal_jobs():
    rng = random.Random(17)
    jobs = [((3, 1, -1), SymMat.diag(9), 3, 2), ((5, 2), SymMat.diag(0, 5), 5, 1),
            ((2,), SymMat.diag(2), 3, 3),  # m = 1: the naive path has no tail rows
            ((6,), SymMat.diag(9), 3, 2),
            ((1, 2, -1, 3, 9), SymMat.diag(2), 5, 1),  # m = 5: 3 head rows, 2 tail rows
            ((1, 3, -1, 3, 1), SymMat.diag(0), 3, 1)]
    while len(jobs) < 36:
        p = rng.choice((3, 5, 7))
        t = rng.randint(1, 2)
        m = rng.randint(1, 5)
        n = rng.randint(1, min(m, 3))
        if (p**t) ** (m * n) > 4096:
            continue
        s = tuple(rng.choice((1, -1, 2, p, -p, p * p)) for _ in range(m))
        zero = len(jobs) % 5 == 0  # every fifth target is 0 mod q
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                v = rng.choice((0, p**t)) if zero else rng.randint(-6, 6)
                entries[i][j] = entries[j][i] = v
        jobs.append((s, SymMat(entries), p, t))
    return jobs


def test_naive_matches_literal_enumerator():
    for s, T, p, t in _literal_jobs():
        assert count_solutions(CountJob(s, T, p, t, "naive")) == _literal_count(s, T, p, t)


@pytest.mark.parametrize("strategy", ["naive", "mitm"])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_binary_form_point_count(p, strategy):
    # #{(x, y) in F_p^2 : a x^2 + b y^2 = c} = p - (-ab/p) for p not dividing c,
    # and p + (p - 1)(-ab/p) for p | c
    u = least_nonsquare(p)
    for a, b in itertools.product((1, -1, u), repeat=2):
        e = pow(-a * b, (p - 1) // 2, p)
        legendre = 1 if e == 1 else -1
        for c in (0, p, 1, -1, u, 2 * p + 1):
            want = p - legendre if c % p else p + (p - 1) * legendre
            got = count_solutions(CountJob((a, b), SymMat.diag(c), p, 1, strategy))
            assert got == want, (a, b, c)


_CHUNK_JOBS = [
    ((1, -1, 3), SymMat.diag(1), 3, 2),
    ((1, 2), SymMat([[1, 1], [1, 2]]), 5, 1),
    ((3, 1, -1), SymMat.diag(2, 0), 3, 1),
    ((1, 4, 1, 1), SymMat.diag(2), 5, 1),  # equal halves: a same-class pair fills the table
    ((1, -1, 2, -2), SymMat.diag(3), 3, 2),  # negated halves, a same-class pair in the table
    ((1, 2, -1, 3, 1), SymMat.diag(2), 3, 1),  # naive: 9 tails, more than a block of 1 or 7
]


@pytest.mark.parametrize("chunk", [1, 7])
def test_counts_do_not_depend_on_block_size(monkeypatch, chunk):
    jobs = [CountJob(s, T, p, t, strategy) for s, T, p, t in _CHUNK_JOBS
            for strategy in ("naive", "mitm")]
    want = [count_solutions(job) for job in jobs]
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    counting._RESIDENT.clear()  # refill the tables in blocks of chunk
    assert [count_solutions(job) for job in jobs] == want


def test_naive_path_uses_no_mitm_helper(monkeypatch, cold):
    def refuse(*args, **kwargs):
        raise AssertionError("the naive reference called a MITM helper")

    for name in ("_row_digits", "_sums", "_pair_sums", "_triangle", "_radix", "_key_class",
                 "_digit_lookup", "_table_index", "_split", "_mirror_dot", "_class_keys",
                 "_mitm_count"):
        monkeypatch.setattr(counting, name, refuse)
    for s, T, p, t in _literal_jobs()[:10]:
        assert count_solutions(CountJob(s, T, p, t, "naive")) == _literal_count(s, T, p, t)
    assert not counting._RESIDENT.entries
    with pytest.raises(AssertionError, match="MITM helper"):
        count_solutions(CountJob((1,), SymMat.diag(1), 3, 1))


def test_mitm_path_uses_no_naive_helper(monkeypatch, cold):
    def refuse(*args, **kwargs):
        raise AssertionError("the MITM engine called a naive helper")

    for name in ("_naive_count", "_naive_sums"):
        monkeypatch.setattr(counting, name, refuse)
    for s, T, p, t in _literal_jobs():
        assert count_solutions(CountJob(s, T, p, t)) == _literal_count(s, T, p, t)
    with pytest.raises(AssertionError, match="naive helper"):
        count_solutions(CountJob((1,), SymMat.diag(1), 3, 1, "naive"))


@pytest.mark.parametrize("p, t, n", [(3, 1, 2), (3, 2, 2), (3, 3, 1), (5, 2, 1), (7, 1, 2)])
def test_row_keys_depend_only_on_key_class(p, t, n):
    q = p**t
    units = [w for w in range(1, q) if w % p]
    classes = {}
    for r in range(q):
        for w in units:
            assert counting._key_class(r * w * w % q, p, q) == counting._key_class(r, p, q)
        classes.setdefault(counting._key_class(r, p, q), []).append(r)
    # the class has no finer split: each valuation below t has two unit-part
    # symbols and 0 stands alone
    assert len(classes) == 2 * t + 1
    for members in classes.values():
        digits, counts = counting._row_digits(members[0], q, n, "int64")
        for r in members[1:]:
            other_digits, other_counts = counting._row_digits(r, q, n, "int64")
            assert (other_digits == digits).all() and (other_counts == counts).all(), r


def _literal_mirror_dot(table, tgt, q, k, sign):
    """sum table[key] * table[sign * (tgt - key)] over keys, one key and digit
    at a time; table is an array, or a dict of its nonzero cells."""
    cells = table if isinstance(table, dict) else dict(enumerate(table.tolist()))
    total = 0
    for index, value in cells.items():
        rest, partner = index, 0
        for c, t in enumerate(tgt):
            rest, d = divmod(rest, q)
            partner += sign * (t - d) % q * q**c
        total += value * cells.get(partner, 0)
    return total


def _twice(cell, q, k):
    """The target whose sign-1 partner of cell is cell itself: twice its
    digits mod q."""
    digits = []
    for _ in range(k):
        cell, d = divmod(cell, q)
        digits.append(2 * d % q)
    return tuple(digits)


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_mirror_dot_matches_literal_sum(q, k):
    rng = random.Random(q * 10 + k)
    # cells up to 2^20: products pass 2^32, sums stay below 2^64 as in a count
    table = np.array([rng.choice((0, 1, rng.randrange(2**20))) for _ in range(q**k)],
                     dtype=np.uint32)
    # for sign 1 the runs of axis 0 (the last digit t) are t + 1 and q - 1 - t
    # long, one odd and one even, or q long at t = q - 1; a sign-1 read
    # halves each run, and reads its middle plane, if odd, once
    nonzero = np.flatnonzero(table).tolist()
    if k == 1:  # the last target makes a set cell its own sign-1 partner
        targets = [(0,), (q - 1,), (q // 2,), (1,), _twice(rng.choice(nonzero), q, k)]
    else:  # twice a set cell whose first digits are 0 and (q - 1) / 2: a target
        # with both a 0 and a q - 1 digit that makes that cell its own sign-1
        # partner; and all 0s, every cell its own sign -1 partner, or all q - 1s
        cell = rng.choice([c for c in nonzero if c % q**2 == q // 2 * q])
        targets = [_twice(cell, q, k)]
        if q**k <= 5**6:
            targets += [(0,) * k, (q - 1,) * k]
    for tgt, sign in itertools.product(targets, (1, -1)):  # tgt - key, key - tgt
        want = _literal_mirror_dot(table, tgt, q, k, sign)
        assert counting._mirror_dot(table, tgt, q, k, sign) == want, (tgt, sign)


def _decoded(codes, q, k):
    """The radix-q cell indices that a sparse table's digit-group codes hold."""
    g = counting._group_digits(q, k)
    return sum(row.astype(np.int64) * q ** (g * i) for i, row in enumerate(codes)).tolist()


def _check_sparse(kept, table, q, k):
    """kept is the sparse form (_sparse_table) of the dense q^k-cell table:
    its occupancy bitmap, each word's rank, and the nonzero cells' codes and
    counts in cell order."""
    words, ranks, values, codes = kept
    nonzero = np.flatnonzero(table)
    assert words.dtype == np.dtype("<u8") and len(words) == -(-table.size // 64)
    padded = np.zeros(8 * len(words), dtype=np.uint8)
    packed = np.packbits(table != 0, bitorder="little")
    padded[:len(packed)] = packed
    assert words.view(np.uint8).tolist() == padded.tolist()
    ones = [int(w).bit_count() for w in words.tolist()]
    assert ranks.dtype == np.uint32
    assert ranks.tolist() == list(itertools.accumulate(ones, initial=0))[:-1]
    assert values.dtype == np.uint32 and values.tolist() == table[nonzero].tolist()
    g = counting._group_digits(q, k)
    assert codes.dtype.kind == "u" and codes.shape == (-(-k // g), len(nonzero))
    assert _decoded(codes, q, k) == nonzero.tolist()
    assert (np.diff(codes[-1].astype(np.int64)) >= 0).all()  # the top codes are in order


# every digit grouping of the codes: one group, equal groups and a short
# last group; k = 6 stops at 17^6 cells, the table of a rank-3 count
@pytest.mark.parametrize("q, k", [(q, k) for q in (3, 9, 17, 25, 27) for k in (1, 3, 6)
                                  if q**k <= 17**6])
def test_partner_dot_matches_literal_sum(monkeypatch, q, k):
    rng = random.Random(q * 100 + k)
    # about one cell in eight nonzero, at most 5000, of up to 2^20 as above;
    # q^k is odd, so the last word of the bitmap is partly filled, and the
    # last cell is set so that a partner lands there
    cells = {rng.randrange(q**k): rng.choice((1, rng.randrange(1, 2**20)))
             for _ in range(min(q**k // 8 + 1, 5000))}
    cells[q**k - 1] = 3
    table = np.zeros(q**k, dtype=np.uint32)
    table[list(cells)] = list(cells.values())
    # each cell's count split over two blocks, the second in reverse order
    index = np.array(list(cells), dtype=np.int64)
    low = np.array([(c + 1) // 2 for c in cells.values()], dtype=np.uint32)
    high = table[index] - low

    def blocks():
        return iter([(index, low), (index[::-1].copy(), high[::-1].copy())])

    kept = counting._sparse_table(blocks, q, k)
    _check_sparse(kept, table, q, k)
    targets = [(0,) * k, (q - 1,) * k, tuple(rng.randrange(q) for _ in range(k))]
    if k > 1:  # a 0 and a q - 1 digit in one target
        targets.append((0, q - 1) + targets[-1][2:])
    # twice a set cell's digits, so that it is its own sign-1 partner, and
    # top digits t = 1 and 2, whose fixed point t / 2 mod q lies past t or
    # below it, so that the runs of cells read at weight 2 end apart from
    # the self-paired run or next to it
    targets += [_twice(rng.choice(list(cells)), q, k)] + [(0,) * (k - 1) + (t,) for t in (1, 2)]
    for tgt, sign in itertools.product(targets, (1, -1)):  # tgt - key, key - tgt
        want = _literal_mirror_dot(cells, tgt, q, k, sign)
        assert counting._cells_dot(*kept, tgt, q, k, sign) == want, (tgt, sign)
    if q**k <= 20_000:  # decode and read in blocks of 7 bitmap bytes and 7 cells
        monkeypatch.setattr(counting, "_CHUNK", 7)
        blocked = counting._sparse_table(blocks, q, k)
        assert [a.tolist() for a in blocked] == [a.tolist() for a in kept]
        for tgt, sign in itertools.product(targets, (1, -1)):
            want = _literal_mirror_dot(cells, tgt, q, k, sign)
            assert counting._cells_dot(*kept, tgt, q, k, sign) == want, (tgt, sign)


@pytest.mark.parametrize("q, k", [(3, 1), (27, 1), (5, 3), (9, 6)])
def test_partner_dot_of_empty_and_one_cell_tables(q, k):
    rng = random.Random(q + k)
    for cells in ({}, {rng.randrange(q**k): 5}):
        index = np.array(list(cells), dtype=np.int64)
        kept = counting._sparse_table(
            lambda: iter([(index, np.array(list(cells.values()), dtype=np.uint32))]), q, k)
        table = np.zeros(q**k, dtype=np.uint32)
        table[index] = list(cells.values())
        _check_sparse(kept, table, q, k)
        # the one cell is its own partner under twice its digits (sign 1) and 0 (sign -1)
        targets = [(0,) * k, (q - 1,) * k] + [_twice(cell, q, k) for cell in cells]
        for tgt, sign in itertools.product(targets, (1, -1)):
            want = _literal_mirror_dot(cells, tgt, q, k, sign)
            assert counting._cells_dot(*kept, tgt, q, k, sign) == want, (cells, tgt, sign)


def test_sign_one_cells_dot_reads_half_the_cells(monkeypatch, cold):
    # split_diagonal(4) at p = 17: both halves have one class, and -1 is a
    # square, so A[-d] = A[d] and both signs give the same sum; T is
    # unimodular, with the density (1 - 1/17^2)^2 times 17^(12 - 6)
    targets = [SymMat([[1, 1, 0], [1, 2, 0], [0, 0, 3]]), SymMat.diag(1, 2, 17),
               SymMat.diag(3, 0, 5)]
    want = count_solutions(CountJob(split_diagonal(4), targets[0], 17, 1))
    assert want == 17**2 * 288**2
    ((words, ranks, values, codes),) = [a for key, a in counting._RESIDENT.entries.items()
                                        if key[0] == "table"]
    read = []
    real = counting._read

    def spy(words, ranks, values, cells):
        read.append(len(cells))
        return real(words, ranks, values, cells)

    monkeypatch.setattr(counting, "_read", spy)
    g = counting._group_digits(17, 6)
    low = g * (len(codes) - 1)
    top = codes[-1].astype(np.int64)
    for T in targets:
        tgt = counting._target_digits(T, 17)
        # cells whose top code equals its partner's, tgt minus it digit by digit
        partner = sum((tgt[low + j] - top // 17**j % 17) % 17 * 17**j for j in range(6 - low))
        self_paired = int(np.count_nonzero(partner == top))
        read.clear()
        total = counting._cells_dot(words, ranks, values, codes, tgt, 17, 6, -1)
        assert sum(read) == len(values)
        read.clear()
        assert counting._cells_dot(words, ranks, values, codes, tgt, 17, 6, 1) == total
        assert sum(read) <= -(-len(values) // 2) + self_paired, T
        if T is targets[0]:
            assert total == want


def test_packed_sums_fit_int64():
    # q = p^t for the small primes and the largest prime a rank-2 table
    # admits, every rank n >= 2 and half of h rows a 2^31 budget admits, and
    # the streamed half's extra target summand; the widest sum is at q = 3
    widest = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 1289):
        for t in range(1, 20):
            q = p**t
            for n in range(2, 6):
                k = n * (n + 1) // 2
                bases, h = [], 1
                while max(q**k, q ** (n * h)) <= 2**31:
                    bases.append((h + 1) * (q - 1) + 1)
                    h += 1
                for base in bases:
                    places, width, g, lookup = counting._digit_lookup(q, k, base)
                    assert len(lookup) <= counting._LOOKUP_CELLS
                    widest = max(widest, int(sum(int(c) * (base - 1) for c in places)).bit_length())
    assert widest == 49


def _pairing_jobs():
    """(s, T, p, t, paired): sources of (s, s * w^2) pairs, twisted quaternion
    norm forms, and unpaired sources of even and odd length."""
    rng = random.Random(29)
    jobs = []
    for p in (3, 5):  # 1 and -b share a class only when -1 is a nonsquare
        jobs += [(twisted_complement_diagonal(p), SymMat.diag(1), p, 1, p == 3),
                 (twisted_complement_diagonal(p), SymMat.diag(p), p, 1, p == 3)]
    jobs += [(twisted_complement_diagonal(3), SymMat([[1, 1], [1, 3]]), 3, 1, True),
             (twisted_complement_diagonal(3), SymMat.diag(9), 3, 2, True)]
    while len(jobs) < 40:
        p = rng.choice((3, 5, 7))
        t = rng.randint(1, 2)
        q = p**t
        kind = len(jobs) % 3
        if kind == 0:
            s = []
            for _ in range(rng.randint(1, 2)):
                x = rng.choice((1, -1, 2, p, -2 * p, p * p, q))
                w = rng.choice([u for u in range(2, 3 * p) if u % p])
                s += [x, x * w * w]
            rng.shuffle(s)
        else:  # a unit square and a nonsquare never share a class
            s = [rng.choice((1, 4)), 1, p, least_nonsquare(p)]
            if kind == 2:
                s.pop(rng.randrange(4))
            rng.shuffle(s)
        m = len(s)
        n = rng.randint(1, min(m, 2))
        if q ** (m * n) > 6561:
            continue
        zero = len(jobs) % 4 == 0  # every fourth target is 0 mod q
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                v = rng.choice((0, q)) if zero else rng.randint(-6, 6)
                entries[i][j] = entries[j][i] = v
        jobs.append((tuple(s), SymMat(entries), p, t, kind == 0))
    return jobs


def _one_table_signs(s, p, t):
    """Signs of the one-table products open to a source: 1 when its rows
    split into two halves of one class multiset, -1 when into halves whose
    classes are each other's negations."""
    q, m = p**t, len(s)
    res = [int(x) % q for x in s]
    classes = [counting._key_class(r, p, q) for r in res]
    negated = [counting._key_class(-r % q, p, q) for r in res]
    signs = set()
    if m % 2:  # halves of unequal size share no table
        return signs
    for half in itertools.combinations(range(m), m // 2):
        other = [r for r in range(m) if r not in half]
        if sorted(classes[r] for r in half) == sorted(classes[r] for r in other):
            signs.add(1)
        if sorted(negated[r] for r in half) == sorted(classes[r] for r in other):
            signs.add(-1)
    return signs


def test_paired_sources_match_literal_enumerator(monkeypatch, cold):
    mirrored = []
    real = counting._mirror_dot

    def spy(table, tgt, q, k, sign=1):
        mirrored.append(sign)
        return real(table, tgt, q, k, sign)

    monkeypatch.setattr(counting, "_mirror_dot", spy)
    jobs = _pairing_jobs()
    wants = [_literal_count(s, T, p, t) for s, T, p, t, _ in jobs]
    priced = counting._CELLS_PER_KEY
    # first as priced, then with a free mirrored product, which then runs
    # wherever the halves allow it
    for dot_free in (False, True):
        monkeypatch.setattr(counting, "_CELLS_PER_KEY", 10**12 if dot_free else priced)
        counting._RESIDENT.clear()  # each pricing fills the tables of its own splits
        mirrored.clear()
        for (s, T, p, t, paired), want in zip(jobs, wants):
            before = len(mirrored)
            assert count_solutions(CountJob(s, T, p, t)) == want, (s, T, p, t)
            signs = _one_table_signs(s, p, t)
            assert paired <= bool(signs)  # a source of (s, s w^2) pairs has equal halves
            assert set(mirrored[before:]) <= signs and len(mirrored) - before <= 1, (s, p, t)
            if dot_free:
                assert len(mirrored) - before == bool(signs), (s, p, t)
    assert 10 < len(mirrored) < len(jobs) and set(mirrored) == {1, -1}


def test_paired_source_fills_one_table_and_streams_nothing(monkeypatch, cold):
    calls, mirrored = [], []
    real_sums, real_dot = counting._sums, counting._mirror_dot

    def spy(start, factors):
        if sys._getframe(1).f_code.co_name == "_mitm_count":  # not _sums' own recursion
            calls.append(tuple(1 + pair for _, _, pair in factors))
        return real_sums(start, factors)

    def dot_spy(table, tgt, q, k, sign=1):
        mirrored.append(sign)
        return real_dot(table, tgt, q, k, sign)

    monkeypatch.setattr(counting, "_sums", spy)
    monkeypatch.setattr(counting, "_mirror_dot", dot_spy)
    T, U = SymMat([[1, 1], [1, 2]]), SymMat.diag(1, 2)
    # rows per factor of each enumerated half: (2,) is one same-class pair;
    # the table is filled once, and a new target only reads it
    for p, t, sign in ((3, 2, -1), (5, 1, 1)):  # classes 1, 1, -1, -1 at p = 3; one at p = 5
        for target, enumerated in ((T, [(2,)]), (U, [])):
            calls.clear()
            mirrored.clear()
            count_solutions(CountJob(split_diagonal(4), target, p, t))
            assert calls == enumerated and mirrored == [sign], (p, target)
    # unpaired: the other half is streamed for every target
    for target, enumerated in ((T, [(2,), (1, 1)]), (U, [(1, 1)])):
        calls.clear()
        mirrored.clear()
        count_solutions(CountJob((1, 1, 1, -1), target, 3, 2))
        assert calls == enumerated and mirrored == [], target


def _dispatch_jobs():
    """Random jobs for every MITM dispatch: equal, negated and streamed
    halves, odd m, same-class pairs in either half, p | s_i and T = 0 mod q."""
    rng = random.Random(41)
    jobs = []
    while len(jobs) < 90:
        p = rng.choice((3, 5, 7))
        t = rng.randint(1, 3)
        q = p**t
        m = rng.randint(2, 6)
        n = rng.randint(1, min(m, 2))
        if q ** (m * n) > 200_000:
            continue
        pool = (1, -1, 2, -2, p, -p, 2 * p, p * p, q, least_nonsquare(p))
        half = [rng.choice(pool) for _ in range(m // 2)]
        kind = len(jobs) % 3  # equal, negated or unrelated halves
        w = rng.choice([u * u for u in range(1, 3 * p) if u % p])
        other = [x * w for x in half] if kind == 0 else [-x * w for x in half] if kind == 1 else \
            [rng.choice(pool) for _ in half]
        s = half + other + [rng.choice(pool) for _ in range(m % 2)]
        rng.shuffle(s)
        entries = [[0] * n for _ in range(n)]
        zero = len(jobs) % 5 == 0  # every fifth target is 0 mod q
        for i in range(n):
            for j in range(i + 1):
                entries[i][j] = entries[j][i] = rng.choice((0, q)) if zero else rng.randint(-9, 9)
        jobs.append((tuple(s), SymMat(entries), p, t))
    return jobs


def test_dispatch_modes_match_naive(monkeypatch, cold):
    seen = set()
    real = counting._split

    def spy(classes, size, neg, cells):
        table, other, sign = real(classes, size, neg, cells)
        m = len(classes)  # neither half passes ceil(m/2) rows, as the budget and uint32 need
        assert sorted(table + other) == sorted(classes) and len(table) in (m // 2, (m + 1) // 2)
        seen.add(("sign", sign))  # only unpaired halves (sign 0) stream the other half
        seen.add(("odd m", len(classes) % 2 == 1))
        seen.add(("pair streamed", sign == 0 and len(set(other)) < len(other)))
        seen.add(("pair in table", len(set(table)) < len(table)))
        return table, other, sign

    monkeypatch.setattr(counting, "_split", spy)
    for s, T, p, t in _dispatch_jobs():
        naive = count_solutions(CountJob(s, T, p, t, "naive"))
        assert count_solutions(CountJob(s, T, p, t)) == naive, (s, T, p, t)
        seen.add(("p | s", any(x % p == 0 for x in s)))
        seen.add(("T = 0", all(T[i, j] % p**t == 0 for i in range(T.n) for j in range(T.n))))
    assert {("sign", 1), ("sign", -1), ("sign", 0), ("odd m", True), ("pair streamed", True),
            ("pair in table", True), ("p | s", True), ("T = 0", True)} <= seen
    # a count above 2^32 through the negated product: 448/243 * 3^20 at t = 4
    seen.clear()
    raw = count_solutions(CountJob(split_diagonal(4), SymMat.diag(3, 9), 3, 4))
    assert raw == 448 * 3**15 > 2**32 and ("sign", -1) in seen


def test_paired_halves_read_only_the_table(monkeypatch, cold):
    # at the shipped cell price, a count of paired halves reads its table by
    # exactly one of the mirrored product (dense, one kept array) and the
    # nonzero-cell read (sparse, four), cold and warm; _sums is entered only
    # by the fill, never to stream the other half
    calls, signs, fills = collections.Counter(), [], []
    real_split, real_sums = counting._split, counting._sums

    def split_spy(*args):
        out = real_split(*args)
        signs.append(out[2])
        return out

    def sums_spy(start, factors):
        if sys._getframe(1).f_code.co_name != "_sums":  # not _sums' own recursion
            fills.append(not any(key[0] == "table" for key in counting._RESIDENT.entries))
        return real_sums(start, factors)

    monkeypatch.setattr(counting, "_split", split_spy)
    monkeypatch.setattr(counting, "_sums", sums_spy)
    _spy_on(monkeypatch, calls, ("_mirror_dot", "_cells_dot", "_dot"))
    seen = set()
    for s, T, p, t in _dispatch_jobs():
        job = CountJob(s, T, p, t)
        counting._RESIDENT.clear()
        for warm in (False, True):
            calls.clear()
            signs.clear()
            fills.clear()
            count_solutions(job)
            if not signs[-1]:
                break
            (kept,) = [a for k, a in counting._RESIDENT.entries.items() if k[0] == "table"]
            read = "_mirror_dot" if len(kept) == 1 else "_cells_dot"
            assert len(kept) in (1, 4) and calls == {read: 1}, (s, T, p, t, warm)
            # a dense fill sums its half once, a sparse one twice; a warm count not at all
            assert fills == [True] * (0 if warm else {1: 1, 4: 2}[len(kept)]), (s, T, p, t)
            seen.add((len(kept), signs[-1]))
    assert seen == {(1, 1), (1, -1), (4, 1), (4, -1)}


# jobs that share, or must not share, kept tables and row keys
_KEPT_GROUPS = [
    # one class written differently: 4 = 2^2 mod 5
    [((1, 4, 2, 3), SymMat.diag(1, 2), 5, 1), ((1, 1, 2, 3), SymMat([[2, 1], [1, 3]]), 5, 1)],
    # negated classes at p = 3 mod 4: the keys of -1 are the negated keys of 1
    [((1, 1, 1), SymMat.diag(2), 3, 2), ((-1, -1, -1), SymMat.diag(2), 3, 2),
     ((1, -1, 1, -1), SymMat.diag(1, 1), 3, 1), ((-1, 2, -1, 2), SymMat.diag(1, 2), 3, 1)],
    # odd m
    [((1, 2, 3), SymMat.diag(1), 5, 2), ((2, 3, 1), SymMat.diag(3), 5, 2),
     ((1, 2, 3, 4, 5), SymMat.diag(2), 5, 1)],
    # two t at one p: 3 is 0 mod 3 but not mod 9
    [((1, 3, 1, 3), SymMat.diag(1), 3, 1), ((1, 3, 1, 3), SymMat.diag(1), 3, 2),
     ((1, 3, 1, 3), SymMat.diag(3, 1), 3, 1), ((1, 3, 1, 3), SymMat.diag(3), 3, 2)],
]


@pytest.mark.parametrize("group", range(len(_KEPT_GROUPS)))
def test_kept_tables_and_keys_match_naive(monkeypatch, group):
    jobs = [CountJob(s, T, p, t) for s, T, p, t in _KEPT_GROUPS[group]]
    wants = [count_solutions(CountJob(j.s_diag, j.T, j.p, j.t, "naive")) for j in jobs]
    enumerated = []
    real = counting._row_digits

    def spy(*args):
        enumerated.append(args)
        return real(*args)

    monkeypatch.setattr(counting, "_row_digits", spy)
    for order in (jobs, jobs[::-1]):
        counting._RESIDENT.clear()
        for warm in (False, True):  # a warm pass enumerates no row keys
            enumerated.clear()
            for job in order:
                assert count_solutions(job) == wants[jobs.index(job)], (job, warm)
            assert bool(enumerated) != warm


def test_one_class_written_differently_shares_keys_and_table(cold):
    first, second = (CountJob(s, T, p, t) for s, T, p, t in _KEPT_GROUPS[0])
    count_solutions(first)
    kept = set(counting._RESIDENT.entries)
    count_solutions(second)
    assert set(counting._RESIDENT.entries) == kept and len(kept) == 3  # two classes, one table


def _resident_cells():
    """The resident cells recounted from the kept arrays' bytes, 4 to a cell."""
    return sum(-(-a.nbytes // 4) for arrays in counting._RESIDENT.entries.values() for a in arrays)


def test_kept_cells_stay_within_budget(monkeypatch, cold):
    # 9^3-cell tables at q = 9, n = 2, one for each class of the single table
    # row, each with fewer than 729 / 6 key combinations, so sparse; forced
    # dense, each takes 729 cells
    jobs = [CountJob(s, SymMat([[1, 1], [1, 2]]), 3, 2) for s in
            ((1, 1), (2, 2), (3, 3), (6, 6), (9, 9), (1, 2), (3, 6), (1, 9))]
    wants = [count_solutions(CountJob(j.s_diag, j.T, j.p, j.t, "naive")) for j in jobs]
    monkeypatch.setenv("QFLAB_STATE_BUDGET", "2000")
    for dense, resident_tables in ((True, 2), (False, 5)):
        monkeypatch.setattr(counting, "_CELLS_PER_KEY", 10**12 if dense else 6)
        counting._RESIDENT.clear()
        tables = set()
        for job, want in itertools.chain(zip(jobs, wants), zip(jobs, wants)):
            assert count_solutions(job) == want, job
            assert counting._RESIDENT.cells == _resident_cells() <= 2000
            tables |= {key for key, arrays in counting._RESIDENT.entries.items()
                       if key[0] == "table" and len(arrays) == (1 if dense else 4)}
        resident = {key for key in counting._RESIDENT.entries if key[0] == "table"}
        # two dense 729-cell tables fit; the five sparse ones fit with room to spare
        assert len(tables) == 5 and len(resident) == resident_tables, dense
    # a class's uint8 digits count a quarter cell each, its uint32 counts one
    ((digits, counts),) = [a for key, a in counting._RESIDENT.entries.items()
                           if key == ("keys", (0, 1), 9, 2)]
    assert digits.dtype == np.uint8 and counts.dtype == np.uint32
    assert counting._cells(digits, counts) == -(-digits.size // 4) + counts.size


def test_kept_arrays_are_read_only(cold):
    # two sparse 3^6-cell tables, of the classes 1, 1 (at p = 3, -1's
    # negation) and -1, -1, each read or streamed against
    count_solutions(CountJob(split_diagonal(4), SymMat.diag(1, 2, 2), 3, 1))
    count_solutions(CountJob(split_diagonal(4), SymMat.diag(1, 1, 2), 3, 1))
    count_solutions(CountJob((1, 1, 1, -1), SymMat.diag(1, 2, 2), 3, 1))
    entries = counting._RESIDENT.entries
    tables = [arrays for key, arrays in entries.items() if key[0] == "table"]
    assert len(tables) == 2
    for words, ranks, values, codes in tables:
        assert words.dtype == np.dtype("<u8") and len(words) == len(ranks) == -(-3**6 // 64)
        assert ranks.dtype == np.uint32 and values.dtype == np.uint32 and codes.dtype.kind == "u"
        assert codes.shape == (1, len(values))
        assert 0 < len(values) == int(np.bitwise_count(words).sum())
    kept = [a for arrays in entries.values() for a in arrays]
    # four arrays of each table, and digits and counts of two classes
    assert len(kept) == 12
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


def _spy_on(monkeypatch, calls, names):
    for name in names:
        real = getattr(counting, name)

        def call(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(counting, name, call)


_RANK3_TARGETS = [SymMat.diag(1, 2, 2), SymMat([[1, 1, 0], [1, 2, 0], [0, 0, 2]]),
                  SymMat.diag(1, 1, 2)]


def test_reused_paired_table_is_read_through_its_nonzero_cells(monkeypatch, cold):
    calls = collections.Counter()
    # sparse rank-3 tables of 3^6 and 5^6 cells: the negated classes 1, 1
    # and -1, -1 at p = 3, one class at p = 5
    for p in (3, 5):
        jobs = [CountJob(split_diagonal(4), T, p, 1) for T in _RANK3_TARGETS]
        # the counts and the table of the dense path, which the tests above
        # hold to the naive reference
        monkeypatch.setattr(counting, "_CELLS_PER_KEY", 10**12)
        counting._RESIDENT.clear()
        wants = [count_solutions(job) for job in jobs]
        ((key, (table,)),) = [(key, a) for key, a in counting._RESIDENT.entries.items()
                              if key[0] == "table"]
        monkeypatch.undo()
        counting._RESIDENT.clear()
        _spy_on(monkeypatch, calls, ("_sums", "_sparse_table", "_cells_dot", "_mirror_dot",
                                     "_dot"))
        # the second fill follows an eviction
        for job, want in ((jobs[0], wants[0]), (jobs[1], wants[1])):
            calls.clear()
            # the first count fills the table in two passes over one same-class
            # pair of rows and reads its nonzero cells; nothing is streamed
            assert count_solutions(job) == want
            assert calls == {"_sums": 2, "_sparse_table": 1, "_cells_dot": 1}
            _check_sparse(counting._RESIDENT.entries[key], table, p, 6)
            calls.clear()
            assert [count_solutions(jobs[i]) for i in (1, 2, 0)] == [wants[1], wants[2], wants[0]]
            assert calls == {"_cells_dot": 3}
            assert counting._RESIDENT.cells == _resident_cells()
            if job is jobs[0]:
                # a dense table of another class (3 is 0 mod 3 and a nonsquare
                # mod 5) that fits the budget only alone evicts all four arrays
                monkeypatch.setattr(counting, "_CELLS_PER_KEY", 10**12)
                monkeypatch.setenv("QFLAB_STATE_BUDGET", str(table.size + 10))
                count_solutions(CountJob((3, 3, 3, 3), _RANK3_TARGETS[0], p, 1))
                assert key not in counting._RESIDENT.entries
                assert counting._RESIDENT.cells == _resident_cells()
                monkeypatch.setattr(counting, "_CELLS_PER_KEY", 6)
        # under that budget the refilled sparse table evicted the dense one
        assert [k for k in counting._RESIDENT.entries if k[0] == "table"] == [key]
        monkeypatch.delenv("QFLAB_STATE_BUDGET")
        monkeypatch.undo()
        counting._RESIDENT.clear()


def test_sparse_fill_makes_room_beside_the_resident_entries(monkeypatch, cold):
    # a sparse fill asks for the cells of its own arrays, not for q^k: with
    # an entry of other cells resident, exactly enough room beside it keeps
    # both, and one cell less evicts that entry, which is least recently used
    job = CountJob(split_diagonal(4), _RANK3_TARGETS[0], 5, 1)
    with monkeypatch.context() as dense:
        dense.setattr(counting, "_CELLS_PER_KEY", 10**12)
        want = count_solutions(job)
    counting._RESIDENT.clear()
    assert count_solutions(job) == want
    needed = counting._RESIDENT.cells  # one class's row keys and the sparse table
    budget = 5**6  # the least the table's 5^6 cells admit
    assert 0 < needed < budget // 3
    monkeypatch.setenv("QFLAB_STATE_BUDGET", str(budget))
    for spare, kept in ((0, True), (1, False)):
        counting._RESIDENT.clear()
        other = np.zeros(budget - needed + spare, dtype=np.uint32)
        counting._RESIDENT.remember(("other",), other)
        assert count_solutions(job) == want
        assert (("other",) in counting._RESIDENT.entries) == kept
        assert counting._RESIDENT.cells == _resident_cells() == needed + kept * other.size
        assert len(counting._RESIDENT.entries) == 2 + kept  # keys and table are resident


def test_first_sparse_count_allocates_no_table_sized_array(cold):
    # split_diagonal(4) against a unimodular ternary at p = 17: a dense
    # table would be 17^6 uint32 cells, 96.5 MB; the sparse fill's arrays and
    # blocks stay below one byte per cell
    job = CountJob(split_diagonal(4), SymMat([[1, 1, 0], [1, 2, 0], [0, 0, 3]]), 17, 1)
    tracemalloc.start()
    try:
        raw = count_solutions(job)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw == 17**2 * 288**2  # the density (1 - 1/17^2)^2 times 17^(12 - 6)
    assert peak < 17**6
    ((words, ranks, values, codes),) = [a for key, a in counting._RESIDENT.entries.items()
                                        if key[0] == "table"]
    assert len(values) == 756449 and len(words) == -(-17**6 // 64)


@st.composite
def _parity_cases(draw):
    """(s, T, p, t, chunk): equal, negated or unrelated halves, p | s_i,
    non-diagonal targets and targets 0 mod q, and a block size of 1 or 7
    cells, or the default, on tables of up to 3^6 cells."""
    p = draw(st.sampled_from((3, 5, 7)))
    t = draw(st.integers(1, 2))
    q = p**t
    n = draw(st.integers(1, 3))
    m = draw(st.integers(max(n, 2), 5))
    assume(q ** (m * n) <= 200_000)
    pool = st.sampled_from((1, -1, 2, -2, p, -p, 2 * p, p * p, q, least_nonsquare(p)))
    half = draw(st.lists(pool, min_size=m // 2, max_size=m // 2))
    w = draw(st.sampled_from([u * u for u in range(1, 3 * p) if u % p]))
    kind = draw(st.sampled_from(("equal", "negated", "unrelated")))
    other = ([x * w for x in half] if kind == "equal" else [-x * w for x in half]
             if kind == "negated" else draw(st.lists(pool, min_size=m // 2, max_size=m // 2)))
    s = draw(st.permutations(half + other + draw(st.lists(pool, min_size=m % 2,
                                                               max_size=m % 2))))
    entry = st.sampled_from((0, q, -q)) if draw(st.booleans()) else st.integers(-9, 9)
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            entries[i][j] = entries[j][i] = draw(entry)
    chunk = draw(st.sampled_from((1, 7, counting._CHUNK))) if q ** (n * (n + 1) // 2) <= 3**6 \
        else counting._CHUNK
    return tuple(s), SymMat(entries), p, t, chunk


def test_sparse_and_dense_tables_count_alike(cold):
    # every job counted three ways: naive, with a dense table (a cell price
    # no table is cheaper than) and with a sparse one wherever the table half
    # has fewer key combinations than cells (a price of 1), each cold and
    # then warm from the kept table
    seen = set()
    real = counting._split

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_parity_cases())
    def check(case):
        s, T, p, t, chunk = case
        want = count_solutions(CountJob(s, T, p, t, "naive"))
        signs = []

        def spy(*args):
            out = real(*args)
            signs.append(out[2])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_split", spy)
            mp.setattr(counting, "_CHUNK", chunk)
            for price in (10**12, 1):
                mp.setattr(counting, "_CELLS_PER_KEY", price)
                counting._RESIDENT.clear()
                for warm in (False, True):
                    assert count_solutions(CountJob(s, T, p, t)) == want, (price, warm)
                tables = [a for key, a in counting._RESIDENT.entries.items() if key[0] == "table"]
                sparse = len(tables[0]) == 4
                assert not (price > 1 and sparse)
                if sparse:
                    seen.add(("sign", signs[-1]))
                    seen.add(("chunk", chunk))
                    seen.add(("p | s", any(x % p == 0 for x in s)))
                    seen.add(("diagonal", all(T[i, j] == 0 for i in range(T.n)
                                              for j in range(i))))
                    seen.add(("T = 0", all(T[i, j] % p**t == 0 for i in range(T.n)
                                           for j in range(T.n))))

    check()
    assert {("sign", 0), ("sign", 1), ("sign", -1), ("chunk", 1), ("chunk", 7), ("p | s", True),
            ("diagonal", False), ("T = 0", True)} <= seen
    counting._RESIDENT.clear()


def test_kept_table_does_not_bypass_budget(monkeypatch, cold):
    job = CountJob((1, -1), SymMat.diag(1, 1), 3, 2)
    count_solutions(job)
    monkeypatch.setenv("QFLAB_STATE_BUDGET", "500")
    message = ("state budget exceeded: meet-in-the-middle needs 81 states per half "
               "and 729 table cells, budget 500")
    with pytest.raises(RuntimeError, match=re.escape(message)):
        count_solutions(job)


def test_job_validation():
    with pytest.raises(ValueError, match=r"^expected an integer modulus exponent t >= 1, got 0$"):
        CountJob((1,), SymMat.diag(1), 3, 0)
    with pytest.raises(ValueError, match="source rows"):
        CountJob((1,), SymMat.diag(1, 1), 3, 1)
    with pytest.raises(ValueError, match="unknown strategy"):
        CountJob((1,), SymMat.diag(1), 3, 1, "magic")
    with pytest.raises(ValueError, match="p-integral"):
        CountJob((1,), SymMat.diag(Fraction(1, 3)), 3, 1)
    with pytest.raises(ValueError, match="nonzero and p-integral"):
        CountJob((Fraction(1, 3),), SymMat.diag(1), 3, 1)
    with pytest.raises(ValueError, match="odd prime"):
        CountJob((1,), SymMat.diag(1), 4, 1)
    for t in (2.0, True, Fraction(2), "2"):  # t reaches three-argument pow
        with pytest.raises(TypeError, match=re.escape(f"expected an integer modulus exponent t, got {t!r}")):
            CountJob((1, -1, 1), SymMat.diag(1), 3, t)
    job = CountJob((1, -1, 1), SymMat.diag(1), 3, np.int64(2))
    assert type(job.t) is int
    assert count_solutions(job) == count_solutions(CountJob((1, -1, 1), SymMat.diag(1), 3, 2, "naive"))


def test_job_json_round_trip():
    job = CountJob((1, 1, -1), SymMat.diag(1, 3), 3, 2)
    data = job.to_json()
    back = CountJob.from_json(data)
    assert back == job
    assert back.modulus == 9


def test_normalization_exponent():
    assert normalization_exponent(5, 4, 1) == 10
    assert normalization_exponent(5, 4, 2) == 20
    # two extra hyperbolic source columns shift the exponent by 8 per level
    assert normalization_exponent(7, 4, 1) == 18
    # rank-1 target against the rank-5 base diagonal at t = 2
    assert density_value(CountJob(base_diagonal(), SymMat.diag(1), 3, 2), 7290) == Fraction(10, 9)


def test_density_oracle_unary_examples():
    res = density_oracle(base_diagonal(), SymMat.diag(1), 3)
    assert res.value == Fraction(10, 9)
    assert res.stabilized
    u = least_nonsquare(3)
    assert density_oracle(base_diagonal(), SymMat.diag(u), 3).value == Fraction(8, 9)


def test_density_oracle_starts_past_jordan_exponent():
    res = density_oracle(split_diagonal(4), SymMat.diag(9), 3)
    assert res.t_used >= 3


def test_density_oracle_rejects_singular():
    with pytest.raises(ValueError, match="nonsingular"):
        density_oracle(base_diagonal(), SymMat.diag(0), 3)


def test_density_oracle_reports_non_stabilization():
    with pytest.raises(OracleError, match="did not stabilize") as exc:
        density_oracle(base_diagonal(), SymMat.diag(1), 3, t_start=1, t_max=1)
    table = exc.value.partial_table
    assert len(table) == 1
    assert table[0][0] == 1


def test_density_oracle_refuses_empty_range():
    with pytest.raises(ValueError, match=r"^expected an integer t_max >= 3, got 1$"):
        density_oracle(base_diagonal(), SymMat.diag(1), 3, t_start=3, t_max=1)
