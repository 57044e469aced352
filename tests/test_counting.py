"""Exact solution counting mod p^t and the stabilized density oracle."""

import itertools
import random
from fractions import Fraction

import pytest

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
)


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
    jobs = [((3, 1, -1), SymMat.diag(9), 3, 2), ((5, 2), SymMat.diag(0, 5), 5, 1)]
    while len(jobs) < 30:
        p = rng.choice((3, 5, 7))
        t = rng.randint(1, 2)
        m = rng.randint(1, 4)
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
]


@pytest.mark.parametrize("chunk", [1, 7])
def test_counts_do_not_depend_on_block_size(monkeypatch, chunk):
    jobs = [CountJob(s, T, p, t, strategy) for s, T, p, t in _CHUNK_JOBS
            for strategy in ("naive", "mitm")]
    want = [count_solutions(job) for job in jobs]
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    assert [count_solutions(job) for job in jobs] == want


def test_naive_path_uses_no_mitm_helper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the naive reference called a MITM helper")

    for name in ("_row_digits", "_sums", "_radix", "_mitm_count"):
        monkeypatch.setattr(counting, name, refuse)
    for s, T, p, t in _literal_jobs()[:10]:
        assert count_solutions(CountJob(s, T, p, t, "naive")) == _literal_count(s, T, p, t)
    with pytest.raises(AssertionError, match="MITM helper"):
        count_solutions(CountJob((1,), SymMat.diag(1), 3, 1))


def test_job_validation():
    with pytest.raises(ValueError, match="t must be >= 1"):
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
