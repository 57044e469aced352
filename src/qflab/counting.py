"""Brute-force oracle for local representation densities.

Counts matrices x over Z/p^t with x^T diag(s) x = T mod p^t and normalizes
the counts into density values with stabilization detection. There are two
counting paths: full enumeration ("naive", the reference the tests compare
against) and one array meet-in-the-middle engine ("mitm") over the rows of
x, for any number of rows and any odd modulus. The naive path compares
every x on its own: the rows of x form a head and a tail, each tail's part
of x^T diag(s) x is summed once into its need (T minus that part), and
each block of heads' sums is compared with every tail's need, entry by
entry, so the needs take at most sqrt(q^(mn)) values per entry and a block
about _CHUNK booleans. It shares no row keys, multiplicities, tables or
helpers with the MITM engine, so it stays an independent reference for it.
In the MITM engine, row i of x adds
s_i * x_i x_i^T to the left side, so each half of the rows is a weighted
set of keys in Sym_n(Z/q), written as k = n(n+1)/2 radix-q digits. A row's
keys depend only on the class of s_i mod q up to unit squares, and negating
s_i negates them. Two rows of one class in one half are enumerated as
unordered pairs of their keys, and the split of the rows into a table half
and another half is chosen from the class counts to enumerate the fewest
key combinations. When the other half has the table half's classes
(split_diagonal(4) at p = 1 mod 4) or their negations (at p = 3 mod 4), one
count table A serves both halves and the count is the sum of
A[key] * A[T - key] or of A[key] * A[key - T], read from the table alone
(dense or sparse, as below); otherwise the other half is
streamed against the table. Keys are packed into int64 so that a key
combination is one addition and its table index a few lookups. A filled
table depends only on q, n and its half's class multiset, and a class's row
keys only on the class, q and n, so both are kept read-only for later
counts in the process under those keys; a count whose table is kept does
only its target-dependent pass. A table whose half enumerates fewer than
q^k / _CELLS_PER_KEY key combinations has at most that many nonzero cells
and is kept sparse, never allocated at q^k: a bitmap of its occupancy, one
bit per cell in uint64 words, each word's uint32 rank (the set bits
before it), and each nonzero cell's uint32 count at that cell's rank and
radix-q digits as codes of a few digits each (two uint16 codes at 17^6
cells). A cell's rank is its word's rank plus the popcount of the bits
below it in the word.
Paired counts read a sparse table through its nonzero cells, from the count
that fills it on: per target, one small lookup per code group maps a code
to its partner digits' share of the partner's index, and only the partners
whose bit is set are ranked and read. Unpaired counts stream the other half
through the same bit test and rank. A denser table is one uint32 array of
q^k cells, which paired counts read by the mirrored product. With equal
halves (sign 1) a cell d and its partner T - d give the same product, so
both reads take each such pair once, at weight 2, over about half the
table: half of the dense table's first axis, or the sparse cells whose
top digit-group code lies below their partner's (or above it, whichever
side has fewer cells). The state budget bounds the larger half's
q^(n*ceil(m/2)) states and the q^k table cells of a count, and the kept
arrays by their bytes, 4 to a cell: before a table is filled, the least
recently used tables and keys are dropped until the resident cells and the
new table's fit it (q^k cells for a dense table, its four arrays' bytes for
a sparse one).
This module is the independent auditor for every closed form in the
package; it must never call into the closed-form code.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .padic import (
    _exact, _json_field, _json_int, _plain_int, _read_exact, check_odd_prime, residue, valuation,
)
from .quadform import SymMat, frac_str, jordan_diagonalize

DEFAULT_STATE_BUDGET = 2**29

# keys or naive (head, tail) comparisons per block; larger blocks raise peak
# memory, smaller ones per-block overhead (2^15 makes the MITM engine about
# 15% slower)
_CHUNK = 2**16

# entries of one digit-group lookup table of the MITM engine (int64), and so
# also the most a kept table's cell code can take: small enough to stay in
# cache; 2^12 to 2^17 time alike, more groups making up for fewer misses
_LOOKUP_CELLS = 2**14

# table cells the mirrored MITM product reads in the time the streamed pass
# takes per key combination (about 5 ns and 30 ns on a 2-core x86 VM); a
# table whose half enumerates fewer than one key combination in
# _CELLS_PER_KEY cells is kept sparse (_sparse_table), a denser one dense.
# Paired halves always read the table: a sparse one through its nonzero
# cells (_cells_dot), a dense one by the mirrored product (_mirror_dot).
# At 81^3 cells, 27% of them nonzero (the m4n2q81 benchmark shape), the
# mirrored product takes 0.5-1.0 ms and a cell read 1.1-2.0 ms; at 17^6
# cells, 3.1% nonzero, 64-88 ms and 5.4-6.4 ms. A sign-1 read, which takes
# each pair of cells d and T - d once, takes 0.4-0.7 ms and 0.7-1.0 ms at
# 81^3 cells, and 48-58 ms and 2.7-4.3 ms at 17^6
_CELLS_PER_KEY = 6


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
        object.__setattr__(self, "s_diag", tuple(map(_exact, self.s_diag)))
        object.__setattr__(self, "p", check_odd_prime(self.p))
        object.__setattr__(self, "t", _plain_int(self.t, "an integer modulus exponent t", 1))
        if self.strategy not in ("naive", "mitm"):
            raise ValueError(f"unknown strategy: {self.strategy}")
        m, n = len(self.s_diag), self.T.n
        if n == 0:
            raise ValueError("expected a target T of rank >= 1, got rank 0")
        if m < n:
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
        field = functools.partial(_json_field, data, what="job")
        return cls(
            tuple(map(_read_exact, field("s"))),
            SymMat.from_json(field("T")),
            *(_json_int(field(key), f"job field {key!r}") for key in ("p", "t")),
            data.get("strategy", "mitm"),
        )


@dataclass(frozen=True)
class DensityResult:
    """Stabilized density: value = raw_count * p^(-norm_exponent) at t_used."""

    raw_count: int
    t_used: int
    value: Fraction
    norm_exponent: int


class OracleError(RuntimeError):
    """Density failed to stabilize; carries the partial value table."""

    def __init__(self, message: str, partial_table):
        super().__init__(message)
        self.partial_table = tuple(partial_table)


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _target_digits(T: SymMat, q: int) -> tuple[int, ...]:
    return tuple(residue(T[i, j], q) for (i, j) in _pairs(T.n))


def _naive_sums(res: list[int], lo: int, hi: int, q: int, n: int) -> list[np.ndarray]:
    """For each x in M_{len(res),n}(Z/q) with radix-q index in [lo, hi), x_ri
    the digit r*n + i, and each pair i <= j: sum_r res_r x_ri x_rj mod q.
    Every product is reduced mod q, so no intermediate value reaches q^2."""
    rows = len(res)
    rest, digits = np.arange(lo, hi, dtype=np.int64), []
    for _ in range(rows * n - 1):
        rest, digit = np.divmod(rest, q)
        digits.append(digit)
    digits.append(rest)  # every index is below q^(rows*n)
    x = [digits[r * n:(r + 1) * n] for r in range(rows)]
    sx = [[res[r] * x[r][i] % q for i in range(n)] for r in range(rows)]
    sums = []
    for i, j in _pairs(n):
        acc = sx[0][i] * x[0][j]
        acc %= q
        for r in range(1, rows):
            term = sx[r][i] * x[r][j]
            term %= q
            acc += term
        if rows > 1:
            acc %= q
        sums.append(acc)
    return sums


def _naive_count(job: CountJob) -> int:
    """Count by full enumeration, comparing every x in M_{m,n}(Z/q) on its own.

    x^T diag(s) x is the sum over rows r of s_r x_r x_r^T. The first
    h = ceil(m/2) rows of x are its head and the other floor(m/2) its tail,
    and x solves the job exactly when, for every pair i <= j, its head's sum
    (_naive_sums) is T_ij minus its tail's sum mod q: the tail's need. The
    needs of all q^(n*floor(m/2)) tails are summed once, at most
    sqrt(q^(mn)) <= 46,341 tails at the 2^31 budget. Heads are summed in
    blocks of about _CHUNK / (number of tails), and a block counts its
    (head, tail) pairs that agree on every i <= j, as the AND over pairs of
    head == need, about _CHUNK booleans. That is still q^(mn) comparisons,
    one per x, with no row keys, multiplicities, tables or sorts. At m = 1
    there is no tail, and the head sums are compared with T's digits."""
    q, m, n = job.modulus, job.m, job.n
    h = (m + 1) // 2
    res = [residue(s, q) for s in job.s_diag]
    need = list(_target_digits(job.T, q))
    tails = 1
    if m > h:
        tails = q ** (n * (m - h))
        need = [(t - tail) % q for t, tail in zip(need, _naive_sums(res[h:], 0, tails, q, n))]
    heads, step = q ** (n * h), max(1, _CHUNK // tails)
    count = 0
    for lo in range(0, heads, step):
        head = _naive_sums(res[:h], lo, min(lo + step, heads), q, n)
        if m > h:
            head = [a[:, None] for a in head]
        hit = head[0] == need[0]
        for a, b in zip(head[1:], need[1:]):
            hit &= a == b
        count += int(np.count_nonzero(hit))
    return count


def _row_digits(s_res: int, q: int, n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of s * v v^T mod q over v in (Z/q)^n, as digit columns,
    with the number of vectors v giving each key (v and -v always agree).
    A count is at most q^n <= budget <= 2^31, so the counts are uint32."""
    vecs = np.indices((q,) * n).reshape(n, -1).astype(np.int64)
    rows = np.stack([s_res * vecs[i] % q * vecs[j] % q for (i, j) in _pairs(n)])
    keys, counts = np.unique(_radix(rows, q), return_counts=True)
    digits = np.empty((len(rows), len(keys)), dtype=dtype)
    for c in range(len(rows)):
        keys, digits[c] = np.divmod(keys, q)
    return digits, counts.astype(np.uint32)


def _radix(block: np.ndarray, q: int) -> np.ndarray:
    idx = block[-1].astype(np.int64)
    for c in range(len(block) - 2, -1, -1):
        idx *= q
        idx += block[c]
    return idx


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


def _group_digits(base: int, k: int) -> int:
    """Digits per group of k: the most, at least 1, with base^g <= _LOOKUP_CELLS."""
    g = 1
    while g < k and base ** (g + 1) <= _LOOKUP_CELLS:
        g += 1
    return g


@functools.lru_cache(maxsize=32)
def _digit_lookup(q: int, k: int, base: int):
    """How to pack k-digit keys whose sums stay below base in every digit.

    Digit c of a key goes to group c // g at place base^(c % g), and group i
    starts at bit width * i; g is the most digits with base^g <= _LOOKUP_CELLS
    and width is the bit length of base^g - 1. No digit of a sum reaches
    base, so nothing carries, within a group or out of it. Returns (places,
    width, g, lookup), where lookup maps the value of a group to the radix-q
    value of its digits mod q. For k = 1 there is no lookup: the packed sum
    mod q is the index.
    """
    g = _group_digits(base, k)
    width = (base**g - 1).bit_length()
    places = np.array([base ** (c % g) << width * (c // g) for c in range(k)], dtype=np.int64)
    if k == 1:
        return places, width, g, None
    rest = np.arange(base**g, dtype=np.int64)
    lookup = np.zeros(base**g, dtype=np.int64)
    digit = np.empty_like(rest)
    for c in range(g):
        np.divmod(rest, base, out=(rest, digit))
        digit %= q
        digit *= q**c
        lookup += digit
    return places, width, g, lookup


def _table_index(sums: np.ndarray, q: int, k: int, base: int) -> np.ndarray:
    """Radix-q table index of each packed sum's digits mod q: one gather
    per digit group (_digit_lookup)."""
    _, width, g, lookup = _digit_lookup(q, k, base)
    if lookup is None:
        return sums % q
    mask = (1 << width) - 1
    group = np.bitwise_and(sums, mask)
    idx = lookup.take(group)
    part = np.empty_like(idx)
    for i in range(1, -(-k // g)):
        np.right_shift(sums, width * i, out=group)
        group &= mask
        lookup.take(group, out=part, mode="clip")  # "clip" writes out unbuffered
        part *= q ** (g * i)
        idx += part
    return idx


@functools.lru_cache(maxsize=8)
def _triangle(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs i <= j below r, and 2 where i < j and 1 where i = j."""
    i, j = np.triu_indices(r)
    return i, j, np.where(i < j, 2, 1).astype(np.uint32)


def _pair_sums(keys: np.ndarray, weights: np.ndarray, start: int = 0):
    """Yield (sums, weights) over the unordered pairs i <= j of one row's
    packed keys, for two rows of one class, with start added to each sum:
    for each block of about _CHUNK // d rows i, the triangle of j inside the
    block, then the rectangle of j past it. The pair i < j weighs 2 w_i w_j
    and i = j weighs w_i^2, the number of ordered vector pairs that give the
    two keys."""
    d = len(keys)
    step = max(1, _CHUNK // d)
    for lo in range(0, d, step):
        hi = min(lo + step, d)
        i, j, twice = _triangle(hi - lo)
        sums = keys[lo:][i] + keys[lo:][j]
        sums += start
        yield sums, weights[lo:][i] * weights[lo:][j] * twice
        if hi < d:
            sums = (keys[lo:hi, None] + keys[hi:]).reshape(-1)
            sums += start
            yield sums, (2 * weights[lo:hi, None] * weights[hi:]).reshape(-1)


def _sums(start: int, factors: list):
    """Yield (sums, weights) over all choices of one element per factor.

    A factor (keys, weights, pair) is one row's packed keys or, with pair
    set, the unordered pairs of them for two rows of one class (_pair_sums).
    sums holds start plus the chosen keys, in blocks of about _CHUNK (or one
    factor block's worth), and weights the product of their weights.
    """
    if not factors:
        yield np.array([start], dtype=np.int64), np.ones(1, dtype=np.uint32)
        return
    keys, weights, pair = factors[-1]
    if len(factors) == 1:  # no prefix: start goes straight into the factor's sums
        yield from _pair_sums(keys, weights, start) if pair else [(keys + start, weights)]
        return
    for prefix, prefix_w in _sums(start, factors[:-1]):
        for last, last_w in _pair_sums(keys, weights) if pair else [(keys, weights)]:
            step = max(1, _CHUNK // len(last))
            for lo in range(0, len(prefix), step):
                block = prefix[lo:lo + step, None] + last
                block_w = prefix_w[lo:lo + step, None] * last_w
                yield block.reshape(-1), block_w.reshape(-1)


def _mirror_dot(table: np.ndarray, tgt: tuple[int, ...], q: int, k: int, sign: int = 1) -> int:
    """Sum of table[key] * table[sign * (tgt - key)] over all keys, digitwise
    mod q.

    On each axis, for sign 1 digit d pairs with t - d when d <= t and with
    q + t - d when d > t, a slice against a reversed slice; for sign -1 it
    pairs with d - t when d >= t and with q + d - t when d < t, a slice
    against a shifted slice. So the sum is at most 2^k products of views
    and allocates nothing of the table's size. For sign 1 each right view
    is its left view reversed on every axis, so a cell and its partner give
    the same product: the first half of axis 0 is read at weight 2, and its
    middle plane, when the axis is odd, at weight 1.
    """
    cube = table.reshape((q,) * k)
    runs = []
    for t in reversed(tgt):  # axis 0 is the last, most significant digit
        if sign == 1:
            run = [(slice(0, t + 1), slice(t, None, -1)), (slice(t + 1, q), slice(q - 1, t, -1))]
            runs.append(run if t < q - 1 else run[:1])
        else:
            run = [(slice(t, q), slice(0, q - t)), (slice(0, t), slice(q - t, q))]
            runs.append(run if t > 0 else run[:1])
    axes = "abcdefghijklmnopqrstuvwxyz"[:k]

    def dot(left, right):
        return int(np.einsum(f"{axes},{axes}->", left, right, dtype=np.uint64))

    total = 0
    for choice in itertools.product(*runs):
        left = cube[tuple(run[0] for run in choice)]
        right = cube[tuple(run[1] for run in choice)]
        if sign == 1:
            half = len(left) // 2
            total += 2 * dot(left[:half], right[:half])
            if len(left) % 2:
                total += dot(left[half:half + 1], right[half:half + 1])
        else:
            total += dot(left, right)
    return total


def _bit(cells: np.ndarray) -> np.ndarray:
    """Each cell's bit within its uint64 bitmap word (cells holds int64
    indices, so the low 6 bits read as uint64 unchanged)."""
    return np.left_shift(np.uint64(1), (cells & 63).view(np.uint64))


def _rank(words: np.ndarray, ranks: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Rank of each set cell of the bitmap words: the set bits before it,
    the bits of the words before its word (ranks) plus those below it in
    its own word."""
    word = cells >> 6
    below = _bit(cells)
    below -= np.uint64(1)
    below &= words.take(word)
    rank = ranks.take(word)
    rank += np.bitwise_count(below)
    return rank


def _sparse_table(blocks, q: int, k: int):
    """The q^k-cell count table summed from blocks() of (indices, weights),
    as (words, ranks, values, codes), with nothing allocated at q^k.

    words is the table's occupancy, one bit per cell in ceil(q^k/64)
    little-endian uint64 words, and ranks each word's rank, the set bits of
    the words before it (uint32, since a table has at most 2^31 cells, the
    largest budget). values holds the nonzero cells' uint32
    counts in cell order, so cell d's count is values[rank(d)] (_rank), and
    row i of codes each nonzero cell's radix-q digits i*g to i*g + g - 1
    (g = _group_digits(q, k)) as one code. At 17^6 cells that is a 2.9 MB
    bitmap, half that in ranks, and two uint16 codes and a value, 8
    bytes, per nonzero cell. blocks() is read twice: once to set the bits,
    once to add the weights at their ranks. The codes are then decoded from
    the bitmap in slices of _CHUNK bytes, of which only the nonzero ones are
    unpacked. Room is made (_RESIDENT) for the four arrays beside the
    resident entries before the values are added."""
    words = np.zeros(-(-q**k // 64), dtype="<u8")
    for cells, _ in blocks():
        np.bitwise_or.at(words, cells >> 6, _bit(cells))
    ones = np.bitwise_count(words)
    ranks = np.cumsum(ones, dtype=np.uint32)
    found = int(ranks[-1])
    ranks -= ones
    g = _group_digits(q, k)
    values = np.zeros(found, dtype=np.uint32)
    codes = np.empty((-(-k // g), found), dtype=np.min_scalar_type(q**g - 1))
    _RESIDENT.make_room(_cells(words, ranks, values, codes))
    for cells, weights in blocks():
        np.add.at(values, _rank(words, ranks, cells), weights)
    bits, at = words.view(np.uint8), 0
    for lo in range(0, len(bits), _CHUNK):  # only the nonzero bytes are unpacked
        part = bits[lo:lo + _CHUNK]
        byte = np.flatnonzero(part != 0)
        rest = np.flatnonzero(np.unpackbits(part.take(byte), bitorder="little").view(bool))
        byte = byte.take(rest >> 3)
        byte += lo
        rest &= 7
        rest += byte << 3
        end = at + len(rest)
        for row in codes[:-1]:
            rest, row[at:end] = np.divmod(rest, q**g)
        codes[-1, at:end] = rest
        at = end
    return words, ranks, values, codes


def _read(words: np.ndarray, ranks: np.ndarray, values: np.ndarray, cells: np.ndarray):
    """The positions in cells of the nonzero cells of a sparse table
    (_sparse_table), and their counts. The bit test reads the words as
    bytes, cell d at bit d % 8 of byte d // 8, and only the hits are
    ranked."""
    byte = words.view(np.uint8).take(cells >> 3)
    byte >>= (cells & 7).astype(np.uint8)
    byte &= 1
    hit = np.flatnonzero(byte.view(bool))  # a bool scan is about 4 times faster
    return hit, values.take(_rank(words, ranks, cells.take(hit)))


def _partner_lookups(tgt: tuple[int, ...], q: int, k: int, sign: int) -> list[np.ndarray]:
    """One lookup per code group of _sparse_table, mapping a code to the
    radix-q value of its partner digits in the sum of A[d] * A[sign * (tgt - d)],
    sign * (t_c - d) mod q each. Row c of partner holds digit c's q values,
    and a group's lookup is the outer sum of its rows, most significant first."""
    g = _group_digits(q, k)
    d, t = np.arange(q, dtype=np.int64), np.array(tgt, dtype=np.int64)[:, None]
    partner = sign * (t - d) % q * (q ** np.arange(k, dtype=np.int64))[:, None]
    lookups = []
    for lo in range(0, k, g):
        hi = min(lo + g, k)
        lookup = partner[hi - 1]
        for c in range(hi - 2, lo - 1, -1):
            lookup = np.add.outer(lookup, partner[c]).ravel()
        lookups.append(lookup)
    return lookups


def _involution_runs(tgt: tuple[int, ...], q: int) -> list[tuple[int, int, int]]:
    """The codes c in [0, q^r) of r radix-q digits as sorted, adjacent runs
    (lo, hi, order): order is -1 where c < P(c), 0 where c = P(c) and 1
    where c > P(c), P(c) being the code whose digit j is tgt[j] - d mod q
    for the digit j of c, d.

    Digits are compared from the most significant one. A digit d <= t is
    below its partner t - d when d < t / 2, and a digit d > t below its
    partner q + t - d when d < (q + t) / 2; so each digit gives at most two
    runs of each order beside its one fixed point, t / 2 mod q, under which
    the next digit decides."""
    runs, base = [], 0
    for j in reversed(range(len(tgt))):
        t, place = tgt[j], q**j
        for lo, hi, order in ((0, (t + 1) // 2, -1), (t // 2 + 1, t + 1, 1),
                              (t + 1, (q + t + 1) // 2, -1), ((q + t) // 2 + 1, q, 1)):
            if lo < hi:
                runs.append((base + lo * place, base + hi * place, order))
        base += (t + t % 2 * q) // 2 * place
    return sorted(runs + [(base, base + 1, 0)])


def _paired_segments(codes: np.ndarray, tgt: tuple[int, ...], q: int, k: int):
    """(start, end, weight) runs of a sparse table's nonzero cells whose reads
    at weight sum to that of A[d] * A[tgt - d] over all of them.

    The cells are in order, so their top codes (codes[-1]) are too, and a
    cell's top code decides its partner's (_involution_runs). Cells below
    their partner's top code pair with those above it, and the two sides'
    reads are equal, so the one with fewer cells is read at weight 2; cells
    whose top code is its own partner's are read once."""
    top, low = codes[-1], _group_digits(q, k) * (len(codes) - 1)
    runs = _involution_runs(tgt[low:], q)
    # queries of the codes' own dtype, so the codes are not cast; each
    # run's lo is a code, and the last run ends at the last cell
    starts = np.searchsorted(top, np.array([lo for lo, _, _ in runs], dtype=top.dtype))
    bounds = starts.tolist() + [len(top)]
    spans = [(order, start, end) for (_, _, order), start, end in zip(runs, bounds, bounds[1:])
             if start < end]
    below, above = (sum(end - start for order, start, end in spans if order == side)
                    for side in (-1, 1))
    read = -1 if below <= above else 1
    segments = []
    for order, start, end in spans:
        weight = 1 if order == 0 else 2 if order == read else 0
        if weight and segments and segments[-1][1:] == (start, weight):
            segments[-1] = (segments[-1][0], end, weight)
        elif weight:
            segments.append((start, end, weight))
    return segments


def _cells_dot(words: np.ndarray, ranks: np.ndarray, values: np.ndarray, codes: np.ndarray,
               tgt: tuple[int, ...], q: int, k: int, sign: int) -> int:
    """Sum of A[d] * A[sign * (tgt - d)] over the nonzero cells d of a sparse
    table A (_sparse_table), in blocks of _CHUNK cells: a cell's partner
    index is one take per code group (_partner_lookups) and their sum, or
    for k = 1, where a lookup would be as long as the table, the digit's
    partner itself. Only the partners whose bit is set are read (_read).
    For sign 1 a cell and its partner give the same product, so about half
    the cells are read, at weight 2 (_paired_segments)."""
    lookups = _partner_lookups(tgt, q, k, sign) if k > 1 else None
    segments = _paired_segments(codes, tgt, q, k) if sign == 1 else [(0, len(values), 1)]
    total, size = 0, min(_CHUNK, len(values))
    index, spare = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    for start, end, weight in segments:
        for lo in range(start, end, _CHUNK):
            hi = min(lo + _CHUNK, end)
            block = codes[:, lo:hi]
            idx, part = index[:hi - lo], spare[:hi - lo]
            if lookups is None:  # the code is the digit d
                np.subtract(tgt[0], block[0], out=idx, dtype=np.int64)
                idx *= sign
                idx %= q
            else:  # "clip" writes out unbuffered
                lookups[0].take(block[0], out=idx, mode="clip")
                for lookup, group in zip(lookups[1:], block[1:]):
                    lookup.take(group, out=part, mode="clip")
                    idx += part
            hit, cells = _read(words, ranks, values, idx)
            read = np.einsum("i,i->", cells, values[lo:hi].take(hit), dtype=np.uint64)
            total += weight * int(read)
    return total


def _dot(kept: tuple, blocks, q: int, k: int, base: int) -> int:
    """Sum of A[index] * weight over blocks of (packed sums, weights), where
    index holds a sum's digits mod q (_table_index) and A is a dense table
    (kept is (table,)) or a sparse one (_sparse_table, only its hits read)."""
    total = 0
    for sums, weights in blocks:
        idx = _table_index(sums, q, k, base)
        if len(kept) == 1:
            cells = kept[0].take(idx)
        else:
            hit, cells = _read(*kept[:3], idx)
            weights = weights.take(hit)
        total += int(np.einsum("i,i->", cells, weights, dtype=np.uint64))
    return total


def _combinations(half: tuple, size: dict) -> int:
    """Key combinations a half of the rows enumerates: a row of d distinct
    keys (size) costs d, and a same-class pair d(d + 1)/2."""
    out = 1
    for c in set(half):
        a, d = half.count(c), size[c]
        out *= (d * (d + 1) // 2) ** (a // 2) * d ** (a % 2)
    return out


def _split(classes: list, size: dict, neg: dict, cells: int) -> tuple[tuple, tuple, int]:
    """Choose the rows that fill the table, as (table, other, sign).

    A split is fixed by how many rows of each class go to the table half;
    each half has floor(m/2) or ceil(m/2) rows. Its work is the number of
    key combinations it enumerates (_combinations). When the other half has
    the table half's classes (sign 1), or their negations (neg, sign -1),
    the halves are paired: the table also serves the other half, and
    reading it costs the lesser of the other half's key combinations and
    cells / _CELLS_PER_KEY. A sparse table's read takes the first, since
    its nonzero cells are at most its half's combinations (_cells_dot), and
    a dense one's the second, the mirrored product (_mirror_dot). A sign-1
    read costs about half that on either side, since it takes each pair of
    cells d and T - d once; the rank does not count that saving, and prices
    a read of either sign at its full size. An unpaired other half
    (sign 0) is streamed at its own cost. The least work wins, then the
    cheaper table.
    """
    m, kinds = len(classes), sorted(set(classes))
    have = [classes.count(c) for c in kinds]
    dot = cells // _CELLS_PER_KEY
    best = None
    for counts in itertools.product(*(range(a + 1) for a in have)):
        if sum(counts) not in (m // 2, (m + 1) // 2):
            continue
        half = tuple(c for c, a in zip(kinds, counts) for _ in range(a))
        rest = tuple(c for c, a in zip(kinds, have) for _ in range(a - half.count(c)))
        sign = 1 if rest == half else -1 if sorted(neg[c] for c in half) == list(rest) else 0
        table_cost, other_cost = _combinations(half, size), _combinations(rest, size)
        rank = (table_cost + (other_cost if sign == 0 else min(other_cost, dot)), table_cost)
        if best is None or rank < best[0]:
            best = rank, half, rest, sign
    return best[1:]


def _cells(*arrays) -> int:
    """Resident cells of arrays: their bytes in units of a 4-byte table cell."""
    return sum(-(-a.nbytes // 4) for a in arrays)


class _Resident:
    """Filled count tables and row keys kept for later counts in this
    process, read-only, least recently used first. A kept array holds its
    bytes in 4-byte cells (_cells), and the resident cells stay within the
    state budget."""

    def __init__(self):
        self.entries = collections.OrderedDict()
        self.cells = 0

    def clear(self):
        self.entries.clear()
        self.cells = 0

    def recall(self, key):
        """The arrays kept under key, now the most recently used, or None."""
        arrays = self.entries.get(key)
        if arrays is not None:
            self.entries.move_to_end(key)
        return arrays

    def make_room(self, cells: int) -> bool:
        """Evict least recently used entries until cells more fit the budget
        beside the resident ones; False if cells alone exceed it."""
        budget = state_budget()
        if cells > budget:
            return False
        while self.cells + cells > budget:
            _, arrays = self.entries.popitem(last=False)
            self.cells -= _cells(*arrays)
        return True

    def remember(self, key, *arrays):
        """Keep arrays under key, read-only, in place of any kept there, if
        they fit the budget."""
        replaced = self.entries.pop(key, ())
        self.cells -= _cells(*replaced)
        cells = _cells(*arrays)
        if self.make_room(cells):
            for a in arrays:
                a.flags.writeable = False
            self.entries[key] = arrays
            self.cells += cells
        return arrays


_RESIDENT = _Resident()


def _class_keys(c, r: int, neg, q: int, n: int):
    """_row_digits of the residue r of class c, cached by (class, q, n); the
    keys of the negated class neg, when cached, give them by negation."""
    key = ("keys", c, q, n)
    kept = _RESIDENT.recall(key)
    if kept is not None:
        return kept
    negated = _RESIDENT.recall(("keys", neg, q, n))
    if negated is not None:
        digits, counts = negated
        return _RESIDENT.remember(key, (q - digits) % q, counts)
    return _RESIDENT.remember(key, *_row_digits(r, q, n, np.min_scalar_type(q)))


def _mitm_count(job: CountJob) -> int:
    """Array meet-in-the-middle over each row's distinct keys, in radix q.

    Each row contributes its distinct keys with their multiplicities, so
    every combination of keys is weighted by the product of its rows'
    counts. Rows of one key class (_key_class) have the same keys, and a
    class's negation has the negated keys, so there is one _row_digits
    enumeration per class and its negation (_class_keys). Two rows of one
    class in one half are enumerated as unordered pairs of their keys
    (_pair_sums). _split picks the table half, whose q^k-cell count table A
    (k = n(n+1)/2) is kept (_RESIDENT) for later counts with the same q, n
    and table-half classes, which only read it. A is sparse when its half
    enumerates fewer than q^k / _CELLS_PER_KEY key combinations, which
    bounds its nonzero cells, and dense otherwise. A dense A is one uint32
    array filled with np.add.at. A sparse A is never allocated at q^k
    (_sparse_table): its occupancy bitmap, each bitmap word's rank, and the
    nonzero cells' uint32 counts and digit-group codes, so cell d's count is
    values[rank(d)], the rank being the word's rank plus a popcount inside
    the word. When the other half has the same classes its table is A and
    the count is the sum of A[key] * A[T - key]; when it has the negated
    classes its table is A[-key] and the count is the sum of A[key] * A[key
    - T]. With a sparse A every such count, the filling one too, reads A's
    nonzero cells (_cells_dot): it builds one lookup per code group from its
    target, takes a cell's partner index as the sum of its groups' lookups,
    and ranks only the partners whose bit is set. With a dense A it sums over
    all cells (_mirror_dot). Both take the sum of A[key] * A[T - key] over
    each pair {key, T - key} once, at weight 2, so over about half of A.
    With unpaired halves the other half is streamed, against a sparse A
    through the same bit test and rank: its rows carry the negated keys and
    start at the target's digits, so each streamed sum is the key it needs. Keys are packed (_digit_lookup) so that a
    combination is one int64 sum and its table index one gather per digit
    group; for every shape a 2^31 budget admits, a packed sum has at most 49
    bits.

    Each half has at most h = ceil(m/2) rows, so no cell or combination
    weight counts more than the q^(nh) <= budget <= 2^31 ordered vector
    tuples of its half and uint32 holds both; the weight 2 w_i w_j of an
    unordered pair counts ordered vector pairs and is at most q^(2n) <=
    q^(nh). Every partial sum of table cells times weights, streamed or
    from one table with either sign, counts distinct solutions, so it is at
    most the job's count q^(mn) <= budget^2, which fits uint64 for budgets
    up to 2^32 (2^58 at the default).
    """
    p, q, n = job.p, job.modulus, job.n
    k = n * (n + 1) // 2
    res = [residue(s, q) for s in job.s_diag]
    classes = [_key_class(r, p, q) for r in res]
    rep = dict(zip(classes, res))
    neg = {c: _key_class(-r % q, p, q) for c, r in rep.items()}
    keys = {c: _class_keys(c, r, neg[c], q, n) for c, r in rep.items()}
    sizes = {c: len(w) for c, (_, w) in keys.items()}
    table_half, other, sign = _split(classes, sizes, neg, q**k)

    def factors(half, base, negate):
        places, out = _digit_lookup(q, k, base)[0], []
        for c in sorted(set(half)):
            digits, counts = keys[c]
            packed = places @ ((q - digits) % q if negate else digits)
            a = half.count(c)
            out += [(packed, counts, True)] * (a // 2) + [(packed, counts, False)] * (a % 2)
        return out

    tgt = _target_digits(job.T, q)
    key = ("table", q, n, table_half)
    kept = _RESIDENT.recall(key)
    # a sparse table is kept as its four arrays (_sparse_table), a dense one alone
    if kept is None:
        sparse = _CELLS_PER_KEY * _combinations(table_half, sizes) < q**k
    else:
        sparse = len(kept) > 1

    # a base is 1 + the most a digit of a sum can reach; both halves' lookups
    # are built before a table is filled, so their scratch is freed by then
    if not sign:
        other_base = (len(other) + 1) * (q - 1) + 1
        streamed = factors(other, other_base, True)
        start = sum(int(place) * t for place, t in zip(_digit_lookup(q, k, other_base)[0], tgt))

    if kept is None:
        base = max(len(table_half), 1) * (q - 1) + 1
        filling = factors(table_half, base, False)

        if sparse:
            kept = _sparse_table(lambda: ((_table_index(sums, q, k, base), weights)
                                          for sums, weights in _sums(0, filling)), q, k)
        else:
            _RESIDENT.make_room(q**k)
            kept = (np.zeros(q**k, dtype=np.uint32),)
            for sums, weights in _sums(0, filling):
                np.add.at(kept[0], _table_index(sums, q, k, base), weights)
        kept = _RESIDENT.remember(key, *kept)
    if not sign:
        return _dot(kept, _sums(start, streamed), q, k, other_base)
    if sparse:
        return _cells_dot(*kept, tgt, q, k, sign)
    return _mirror_dot(kept[0], tgt, q, k, sign)


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
    states = q ** (job.n * ((job.m + 1) // 2))
    cells = q ** (job.n * (job.n + 1) // 2)
    if max(states, cells) > budget:
        raise RuntimeError(
            f"state budget exceeded: meet-in-the-middle needs {states} states per half "
            f"and {cells} table cells, budget {budget}"
        )
    return _mitm_count(job)


def normalization_exponent(m: int, n: int, t: int) -> int:
    m, n = _plain_int(m, "an integer m"), _plain_int(n, "an integer n")
    return _plain_int(t, "an integer t") * (m * n - n * (n + 1) // 2)


def density_value(job: CountJob, raw: int) -> Fraction:
    return Fraction(raw, job.p ** normalization_exponent(job.m, job.n, job.t))


def density_oracle(s_diag, T: SymMat, p: int) -> DensityResult:
    """Stabilized representation density of T by diag(s) over Z_p.

    Counts at up to three consecutive moduli p^t, from t one past the largest
    Jordan exponent of T, and stops when two consecutive normalized values
    agree. Refuses to return unstabilized values: OracleError carries the
    table of (t, raw count, value) it tried.
    """
    if not T.is_nonsingular:
        raise ValueError("density oracle requires a nonsingular target")
    t_start = max(jordan_diagonalize(T, p).exponents, default=0) + 1  # CountJob refuses rank 0
    table = []
    for t in range(t_start, t_start + 3):
        job = CountJob(s_diag, T, p, t)
        raw = count_solutions(job)
        value = density_value(job, raw)
        if table and table[-1][2] == value:
            return DensityResult(raw, t, value, normalization_exponent(job.m, job.n, t))
        table.append((t, raw, value))
    raise OracleError(
        f"density did not stabilize for t in [{t_start}, {t}]: "
        + ", ".join(f"t={t}: {frac_str(v)}" for t, _, v in table),
        table,
    )
