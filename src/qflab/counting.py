"""Brute-force oracle for local representation densities.

Counts matrices x over Z/p^t with x^T diag(s) x = T mod p^t and normalizes
the counts into density values with stabilization detection. There are two
counting paths: full enumeration ("naive", the reference the tests compare
against) and one array meet-in-the-middle engine ("mitm") over the rows of
x, for any number of rows and any odd modulus. The naive path walks every
x in blocks of numpy digit columns and evaluates x^T diag(s) x directly; it
shares no row keys, multiplicities, tables or helpers with the MITM engine,
so it stays an independent reference for it. Row i of x adds
s_i * x_i x_i^T to the left side, so each half of the rows is a weighted
set of keys in Sym_n(Z/q), written as k = n(n+1)/2 radix-q digits. A row's
keys depend only on the class of s_i mod q up to unit squares. When the
rows pair up by class, as for split_diagonal(4) and the ramified quaternion
norm form at p = 3 mod 4, both halves have one count table A and the count
is the sum of A[key] * A[T - key]; otherwise one half is streamed against
the other's table. The state budget bounds the larger half's
q^(n*ceil(m/2)) states and the q^k table cells.
This module is the independent auditor for every closed form in the
package; it must never call into the closed-form code.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .padic import check_odd_prime, valuation
from .quadform import SymMat, frac_str, jordan_diagonalize

DEFAULT_STATE_BUDGET = 2**29

# keys or naive matrices per block; larger blocks raise peak memory, not speed
_CHUNK = 2**16


def state_budget() -> int:
    """QFLAB_STATE_BUDGET, an integer in [1, 2^31], or the default.

    Both engines are exact up to 2^31: the naive path needs q^2 < 2^63 in
    int64, and the MITM engine's uint64 sums hold for budgets up to 2^32.
    """
    raw = os.environ.get("QFLAB_STATE_BUDGET", str(DEFAULT_STATE_BUDGET))
    if not (raw.strip().isdecimal() and 1 <= int(raw) <= 2**31):
        raise ValueError(f"QFLAB_STATE_BUDGET must be an integer in [1, 2^31], got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class CountJob:
    """One counting task: diagonal source form, target form, modulus p^t."""

    s_diag: tuple[Fraction, ...]
    T: SymMat
    p: int
    t: int
    strategy: str = "mitm"

    def __post_init__(self):
        object.__setattr__(self, "s_diag", tuple(Fraction(s) for s in self.s_diag))
        check_odd_prime(self.p)
        if self.t < 1:
            raise ValueError("modulus exponent t must be >= 1")
        if self.strategy not in ("naive", "mitm"):
            raise ValueError(f"unknown strategy: {self.strategy}")
        m, n = len(self.s_diag), self.T.n
        if not m >= n >= 1:
            raise ValueError("need at least as many source rows as target rank")
        for s in self.s_diag:
            if s == 0 or valuation(s, self.p) < 0:
                raise ValueError("source diagonal must be nonzero and p-integral")
        if not self.T.is_p_integral(self.p):
            raise ValueError("target must be p-integral")

    @property
    def m(self) -> int:
        return len(self.s_diag)

    @property
    def n(self) -> int:
        return self.T.n

    @property
    def modulus(self) -> int:
        return self.p**self.t

    def to_json(self) -> dict:
        return {
            "s": [frac_str(s) for s in self.s_diag],
            "T": self.T.to_json(),
            "p": self.p,
            "t": self.t,
            "strategy": self.strategy,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CountJob":
        for key in ("p", "t"):  # a JSON 3.0 arrives as Fraction(3) and is accepted
            if Fraction(data[key]).denominator != 1:
                raise ValueError(f"job field {key!r} must be an integer, got {data[key]}")
        return cls(
            tuple(Fraction(s) for s in data["s"]),
            SymMat.from_json(data["T"]),
            int(data["p"]),
            int(data["t"]),
            data.get("strategy", "mitm"),
        )


@dataclass(frozen=True)
class DensityResult:
    """Stabilized density: value = raw_count * p^(-norm_exponent) at t_used."""

    raw_count: int
    t_used: int
    value: Fraction
    stabilized: bool
    norm_exponent: int


class OracleError(RuntimeError):
    """Density failed to stabilize; carries the partial value table."""

    def __init__(self, message: str, partial_table):
        super().__init__(message)
        self.partial_table = tuple(partial_table)


def _residue(x: Fraction, q: int) -> int:
    return x.numerator % q * pow(x.denominator % q, -1, q) % q


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _target_digits(T: SymMat, q: int) -> tuple[int, ...]:
    return tuple(_residue(T[i, j], q) for (i, j) in _pairs(T.n))


def _naive_count(job: CountJob) -> int:
    """Count by full enumeration: x runs over M_{m,n}(Z/q) by its radix-q
    index, _CHUNK matrices per block, with x_ri the digit r*n + i. Every
    product is reduced mod q, so no intermediate value reaches q^2."""
    q, m, n = job.modulus, job.m, job.n
    res = [_residue(s, q) for s in job.s_diag]
    tgt = _target_digits(job.T, q)
    total = q ** (m * n)
    count = 0
    for lo in range(0, total, _CHUNK):
        rest = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        x = np.empty((m * n, len(rest)), dtype=np.int64)
        for d in range(m * n):
            rest, x[d] = np.divmod(rest, q)
        x = x.reshape(m, n, -1)
        sx = [[res[r] * x[r, i] % q for i in range(n)] for r in range(m)]
        hit = np.ones(x.shape[2], dtype=bool)
        for (i, j), want in zip(_pairs(n), tgt):
            hit &= sum(sx[r][i] * x[r, j] % q for r in range(m)) % q == want
        count += int(hit.sum())
    return count


def _row_digits(s_res: int, q: int, n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of s * v v^T mod q over v in (Z/q)^n, as digit columns,
    with the number of vectors v giving each key (v and -v always agree)."""
    vecs = np.indices((q,) * n).reshape(n, -1).astype(np.int64)
    rows = np.stack([s_res * vecs[i] % q * vecs[j] % q for (i, j) in _pairs(n)])
    keys, counts = np.unique(_radix(rows, q), return_counts=True)
    digits = np.empty((len(rows), len(keys)), dtype=dtype)
    for c in range(len(rows)):
        keys, digits[c] = np.divmod(keys, q)
    return digits, counts.astype(np.uint64)


def _sums(start: np.ndarray, rows: list[tuple[np.ndarray, np.ndarray]], q: int):
    """Yield (block, weights) over all choices of one key per row: block holds
    start + the chosen keys mod q as digit columns, in blocks of about _CHUNK
    columns (or one row's worth), and weights the product of their counts."""
    if not rows:
        yield start, np.ones(start.shape[1], dtype=np.uint64)
        return
    last, last_w = rows[-1]
    step = max(1, _CHUNK // last.shape[1])
    for prefix, prefix_w in _sums(start, rows[:-1], q):
        for lo in range(0, prefix.shape[1], step):
            block = (prefix[:, lo:lo + step, None] + last[:, None, :]) % q
            weights = prefix_w[lo:lo + step, None] * last_w
            yield block.reshape(len(last), -1), weights.reshape(-1)


def _radix(block: np.ndarray, q: int) -> np.ndarray:
    idx = block[-1].astype(np.int64)
    for c in range(len(block) - 2, -1, -1):
        idx *= q
        idx += block[c]
    return idx


def _stream_rows(job: CountJob) -> int:
    return (job.m + 1) // 2


def _key_class(r: int, p: int, q: int) -> tuple[int, int]:
    """Class of the residue r mod q: its valuation and the Legendre symbol of
    its unit part, with 0 in a class of its own. Two residues of one class
    differ by a unit square w^2, and v -> w v permutes (Z/q)^n, so rows of
    one class have the same keys with the same counts."""
    if r == 0:
        return (q, 0)
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return (v, pow(r, (p - 1) // 2, p))


def _mirror_dot(table: np.ndarray, tgt: tuple[int, ...], q: int, k: int) -> int:
    """Sum of table[key] * table[tgt - key] over all keys, digitwise mod q.

    On each axis digit d pairs with t - d when d <= t and with q + t - d
    when d > t. Both runs are a slice against a reversed slice, so the sum is
    at most 2^k products of views and allocates nothing of the table's size.
    """
    cube = table.reshape((q,) * k)
    runs = []
    for t in reversed(tgt):  # axis 0 is the last, most significant digit
        low = (slice(0, t + 1), slice(t, None, -1))
        high = (slice(t + 1, q), slice(q - 1, t, -1))
        runs.append([low, high] if t < q - 1 else [low])
    axes = "abcdefghijklmnopqrstuvwxyz"[:k]
    total = 0
    for choice in itertools.product(*runs):
        left = cube[tuple(run[0] for run in choice)]
        right = cube[tuple(run[1] for run in choice)]
        total += int(np.einsum(f"{axes},{axes}->", left, right, dtype=np.uint64))
    return total


def _mitm_count(job: CountJob) -> int:
    """Array meet-in-the-middle over each row's distinct keys, in radix q.

    Each row contributes its distinct keys with their multiplicities, so
    every combination of keys is weighted by the product of its rows'
    counts; rows of one key class (_key_class) share one enumeration. A
    table half fills a q^k count table (k = n(n+1)/2) with np.add.at, so no
    q^k-sized scratch is allocated; an empty table half is one count at
    key 0. When m is even and the rows sorted by class pair up, one row of
    each pair fills the table A, the other rows have the same table, and
    the count is the sum of A[key] * A[T - key] (_mirror_dot). Otherwise
    the first h = ceil(m/2) rows are streamed against a table of the other
    m - h rows: streamed rows carry the negated source entries and start at
    the target's digits, so each streamed block is the key it needs.
    Either table half has at most h rows, so no cell counts more than the
    q^(nh) <= budget <= 2^31 states and uint32 holds it. Every partial sum
    of table cells times weights, streamed or mirrored, is at most the
    job's count q^(mn) <= budget^2, which fits uint64 for budgets up to
    2^32 (2^58 at the default).
    """
    p, q, n, h = job.p, job.modulus, job.n, _stream_rows(job)
    k = n * (n + 1) // 2
    dtype = np.min_scalar_type(2 * q)  # a sum of two digits must fit
    res = [_residue(s, q) for s in job.s_diag]
    by_class = sorted(res, key=lambda r: _key_class(r, p, q))
    classes = [_key_class(r, p, q) for r in by_class]
    paired = job.m % 2 == 0 and classes[::2] == classes[1::2]
    if paired:
        stream_res, table_res = [], by_class[::2]
    else:
        stream_res, table_res = [-r % q for r in res[:h]], res[h:]
    reps = {_key_class(r, p, q): r for r in stream_res + table_res}
    keys = {c: _row_digits(r, q, n, dtype) for c, r in reps.items()}
    tgt = _target_digits(job.T, q)

    table = np.zeros(q**k, dtype=np.uint32)
    zero = np.zeros((k, 1), dtype=dtype)
    for block, weights in _sums(zero, [keys[_key_class(r, p, q)] for r in table_res], q):
        np.add.at(table, _radix(block, q), weights.astype(np.uint32))
    if paired:
        return _mirror_dot(table, tgt, q, k)

    total = 0
    start = np.array(tgt, dtype=dtype).reshape(k, 1)
    for block, weights in _sums(start, [keys[_key_class(r, p, q)] for r in stream_res], q):
        total += int((table[_radix(block, q)] * weights).sum(dtype=np.uint64))
    return total


def count_solutions(job: CountJob) -> int:
    """Exact number of x in M_{m,n}(Z/p^t) with x^T diag(s) x = T mod p^t."""
    budget = state_budget()
    q = job.modulus
    if job.strategy == "naive":
        est = q ** (job.m * job.n)
        if est > budget:
            raise RuntimeError(
                f"state budget exceeded: naive enumeration needs {est} states, budget {budget}"
            )
        return _naive_count(job)
    states = q ** (job.n * _stream_rows(job))
    cells = q ** (job.n * (job.n + 1) // 2)
    if max(states, cells) > budget:
        raise RuntimeError(
            f"state budget exceeded: meet-in-the-middle needs {states} states per half "
            f"and {cells} table cells, budget {budget}"
        )
    return _mitm_count(job)


def normalization_exponent(m: int, n: int, t: int) -> int:
    return t * (m * n - n * (n + 1) // 2)


def density_value(job: CountJob, raw: int) -> Fraction:
    return Fraction(raw, job.p ** normalization_exponent(job.m, job.n, job.t))


def density_oracle(
    s_diag,
    T: SymMat,
    p: int,
    t_start: int | None = None,
    t_max: int | None = None,
) -> DensityResult:
    """Stabilized representation density of T by diag(s) over Z_p.

    Runs consecutive moduli from t_start (default: one past the largest
    Jordan exponent of T) and stops when two consecutive normalized values
    agree. Refuses to return unstabilized values.
    """
    if not T.is_nonsingular:
        raise ValueError("density oracle requires a nonsingular target")
    if t_start is None:
        t_start = max(jordan_diagonalize(T, p).exponents) + 1
    if t_max is None:
        t_max = t_start + 2
    table = []
    prev = None
    for t in range(t_start, t_max + 1):
        job = CountJob(tuple(Fraction(s) for s in s_diag), T, p, t)
        raw = count_solutions(job)
        value = density_value(job, raw)
        table.append((t, raw, value))
        if prev is not None and prev == value:
            return DensityResult(raw, t, value, True, normalization_exponent(job.m, job.n, t))
        prev = value
    raise OracleError(
        f"density did not stabilize for t in [{t_start}, {t_max}]: "
        + ", ".join(f"t={t}: {frac_str(v)}" for t, _, v in table),
        table,
    )
