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
keys depend only on the class of s_i mod q up to unit squares, and negating
s_i negates them. Two rows of one class in one half are enumerated as
unordered pairs of their keys, and the split of the rows into a table half
and another half is chosen from the class counts to enumerate the fewest
key combinations. When the other half has the table half's classes
(split_diagonal(4) at p = 1 mod 4) or their negations (at p = 3 mod 4), one
count table A serves both halves and the count is the sum of
A[key] * A[T - key] or of A[key] * A[key - T], unless streaming the other
half costs less than reading the table; otherwise the other half is
streamed against the table. Keys are packed into int64 so that a key
combination is one addition and its table index a few lookups. A filled
table depends only on q, n and its half's class multiset, and a class's row
keys only on the class, q and n, so both are kept read-only for later
counts in the process under those keys; a count whose table is kept does
only its target-dependent pass. When such a count has paired halves, the
first one keeps the table's nonzero cells beside it, at most as many as
the other half's key combinations: each cell's radix-q digits as codes of
a few digits each (two uint16 codes at 17^6 cells) and its uint32 value,
and the table's occupancy as a bitmap of one bit per cell. While the table
has fewer than one nonzero cell in _CELLS_PER_KEY, every such count reads
those cells: per target, one small lookup per code group maps a code to
its partner digits' share of the partner's index, and only the partners
whose bit is set are read from the table. A denser table is read whole.
The state budget bounds the larger half's q^(n*ceil(m/2)) states and the
q^k table cells of a count, and the cells kept resident, each code, value
and bitmap byte one cell: before a new table is filled, the least recently
used tables and keys are dropped until the resident cells and the new q^k
fit it.
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

from .padic import _exact, _plain_int, _read_exact, check_odd_prime, residue, valuation
from .quadform import SymMat, frac_str, jordan_diagonalize

DEFAULT_STATE_BUDGET = 2**29

# keys or naive matrices per block; larger blocks raise peak memory, smaller
# ones per-block overhead (2^15 makes the MITM engine about 15% slower)
_CHUNK = 2**16

# entries of one digit-group lookup table of the MITM engine (int64), and so
# also the most a kept table's cell code can take: small enough to stay in
# cache; 2^12 to 2^17 time alike, more groups making up for fewer misses
_LOOKUP_CELLS = 2**14

# table cells the mirrored MITM product reads in the time the streamed pass
# takes per key combination (about 5 ns and 30 ns on a 2-core x86 VM); a
# kept paired table is read through its nonzero cells (_cells_dot) while it
# has fewer than one in _CELLS_PER_KEY, and by the mirrored product
# otherwise. At 81^3 cells, 27% of them nonzero (the m4n2q81 benchmark
# shape), the mirrored product takes 0.7-1.0 ms and the cell read
# 1.7-3.0 ms; at 17^6 cells, 3.1% nonzero, 120-130 ms and 7-9 ms
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
        object.__setattr__(self, "t", _plain_int(self.t, "an integer modulus exponent t"))
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
            tuple(map(_read_exact, data["s"])),
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


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _target_digits(T: SymMat, q: int) -> tuple[int, ...]:
    return tuple(residue(T[i, j], q) for (i, j) in _pairs(T.n))


def _naive_count(job: CountJob) -> int:
    """Count by full enumeration: x runs over M_{m,n}(Z/q) by its radix-q
    index, _CHUNK matrices per block, with x_ri the digit r*n + i. Every
    product is reduced mod q, so no intermediate value reaches q^2."""
    q, m, n = job.modulus, job.m, job.n
    res = [residue(s, q) for s in job.s_diag]
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
    and allocates nothing of the table's size.
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
    total = 0
    for choice in itertools.product(*runs):
        left = cube[tuple(run[0] for run in choice)]
        right = cube[tuple(run[1] for run in choice)]
        total += int(np.einsum(f"{axes},{axes}->", left, right, dtype=np.uint64))
    return total


def _nonzero_cells(table: np.ndarray, q: int, k: int, most: int):
    """The nonzero cells of table as (codes, values, bits), or three empty
    arrays if there are more than most. Row i of codes holds each cell's
    radix-q digits i*g to i*g + g - 1 (g = _group_digits(q, k)) as one
    code; values holds its uint32 value, and bits the table's occupancy,
    np.packbits(table != 0, bitorder="little"). At 17^6 cells that is two
    uint16 codes and a value, 8 bytes a cell, and a 2.9 MB bitmap. The cells
    are counted first, so every array is allocated at its size and filled in
    one pass over the table in slices of _CHUNK cells, rounded up to whole
    bytes of bits."""
    g = _group_digits(q, k)
    groups, code = -(-k // g), np.min_scalar_type(q**g - 1)
    found = np.count_nonzero(table)
    if found > most:
        return (np.empty((groups, 0), dtype=code), np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.uint8))
    codes, values = np.empty((groups, found), dtype=code), np.empty(found, dtype=np.uint32)
    bits, at, step = np.empty(-(-table.size // 8), dtype=np.uint8), 0, -(-_CHUNK // 8) * 8
    for lo in range(0, table.size, step):
        part = table[lo:lo + step]
        bits[lo // 8:(lo + len(part) + 7) // 8] = np.packbits(part != 0, bitorder="little")
        rest = np.flatnonzero(part)
        end = at + len(rest)
        values[at:end] = part[rest]
        rest += lo
        for i in range(groups):
            rest, codes[i, at:end] = np.divmod(rest, q**g)
        at = end
    return codes, values, bits


def _partner_lookups(tgt: tuple[int, ...], q: int, k: int, sign: int) -> list[np.ndarray]:
    """One lookup per code group of _nonzero_cells, mapping a code to the
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


def _cells_dot(table: np.ndarray, codes: np.ndarray, values: np.ndarray, bits: np.ndarray,
               tgt: tuple[int, ...], q: int, k: int, sign: int) -> int:
    """Sum of A[d] * A[sign * (tgt - d)] over the nonzero cells d of the table
    A (_nonzero_cells), in blocks of _CHUNK cells: a cell's partner index is
    one take per code group (_partner_lookups) and their sum, or for k = 1,
    where a lookup would be as long as the table, the digit's partner itself.
    Only the partners whose bit is set are gathered from the table."""
    lookups = _partner_lookups(tgt, q, k, sign) if k > 1 else None
    total, size = 0, min(_CHUNK, len(values))
    index, spare = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    for lo in range(0, len(values), _CHUNK):
        block = codes[:, lo:lo + _CHUNK]
        idx, part = index[:block.shape[1]], spare[:block.shape[1]]
        if lookups is None:  # the code is the digit d
            np.subtract(tgt[0], block[0], out=idx, dtype=np.int64)
            idx *= sign
            idx %= q
        else:  # "clip" writes out unbuffered
            lookups[0].take(block[0], out=idx, mode="clip")
            for lookup, group in zip(lookups[1:], block[1:]):
                lookup.take(group, out=part, mode="clip")
                idx += part
        np.right_shift(idx, 3, out=part)
        byte = bits.take(part)
        np.bitwise_and(idx, 7, out=part)
        byte >>= part.astype(np.uint8)
        byte &= 1
        hit = np.flatnonzero(byte.view(bool))
        cells = table.take(idx.take(hit))
        total += int(np.einsum("i,i->", cells, values[lo:lo + _CHUNK].take(hit), dtype=np.uint64))
    return total


def _dot(table: np.ndarray, blocks, q: int, k: int, base: int) -> int:
    """Sum of table[index] * weight over blocks of (packed sums, weights),
    where index holds a sum's digits mod q (_table_index)."""
    total = 0
    for sums, weights in blocks:
        cells = table.take(_table_index(sums, q, k, base))
        total += int(np.einsum("i,i->", cells, weights, dtype=np.uint64))
    return total


def _split(classes: list, size: dict, neg: dict, cells: int) -> tuple[tuple, tuple, int, bool]:
    """Choose the rows that fill the table, as (table, other, sign, stream).

    A split is fixed by how many rows of each class go to the table half;
    each half has floor(m/2) or ceil(m/2) rows. Its work is the number of
    key combinations it enumerates: a row of d distinct keys (size) costs d
    and a same-class pair d(d + 1)/2. When the other half has the table
    half's classes (sign 1), or their negations (neg, sign -1), the halves
    are paired: the table also serves the other half, and the mirrored
    product over its cells costs cells / _CELLS_PER_KEY. stream is set
    when the other half is streamed instead, at its own cost: always for
    sign 0, and for paired halves if that costs no more than the mirrored
    product. The least work wins, then the cheaper table. A later count
    that finds the table kept reads the table's own nonzero cells, no
    more than the other half's key combinations, whenever that is cheaper
    still (_mitm_count).
    """
    m, kinds = len(classes), sorted(set(classes))
    have = [classes.count(c) for c in kinds]
    single = [size[c] for c in kinds]
    pair = [d * (d + 1) // 2 for d in single]

    def cost(counts):
        out = 1
        for a, d, dd in zip(counts, single, pair):
            out *= dd ** (a // 2) * d ** (a % 2)
        return out

    dot = cells // _CELLS_PER_KEY
    best = None
    for counts in itertools.product(*(range(a + 1) for a in have)):
        if sum(counts) not in (m // 2, (m + 1) // 2):
            continue
        rest = tuple(a - b for a, b in zip(have, counts))
        negated = {neg[c]: a for c, a in zip(kinds, counts) if a}
        other = {c: a for c, a in zip(kinds, rest) if a}
        sign = 1 if rest == counts else -1 if negated == other else 0
        table_cost, other_cost = cost(counts), cost(rest)
        stream = not sign or other_cost <= dot
        rank = (table_cost + (other_cost if stream else dot), table_cost)
        if best is None or rank < best[0]:
            best = rank, counts, rest, sign, stream
    _, counts, rest, sign, stream = best
    return (tuple(c for c, a in zip(kinds, counts) for _ in range(a)),
            tuple(c for c, a in zip(kinds, rest) for _ in range(a)), sign, stream)


class _Resident:
    """Filled count tables and row keys kept for later counts in this
    process, read-only, least recently used first. Every element of a kept
    array is one resident cell, and the resident cells stay within the
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
            self.cells -= sum(a.size for a in arrays)
        return True

    def remember(self, key, *arrays):
        """Keep arrays under key, read-only, in place of any kept there, if
        they fit the budget."""
        replaced = self.entries.pop(key, ())
        self.cells -= sum(a.size for a in replaced)
        cells = sum(a.size for a in arrays)
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
    (_pair_sums). _split picks the table half, which fills a q^k count
    table A (k = n(n+1)/2) with np.add.at, so no q^k-sized scratch is
    allocated; A is kept (_RESIDENT) for later counts with the same q, n
    and table-half classes, which only read it. When
    the other half has the same classes its table is A and the count is the
    sum of A[key] * A[T - key]; when it has the negated classes its table is
    A[-key] and the count is the sum of A[key] * A[key - T]. A count that
    fills A sums over all its cells (_mirror_dot), or streams the other half
    when that costs no more (_split). A later count that finds A kept reads
    A's nonzero cells (_cells_dot): the first one indexes them
    (_nonzero_cells) as ceil(k/g) digit-group codes and a uint32 value per
    cell, with A's occupancy bitmap of ceil(q^k/8) bytes, and keeps the
    three in A's resident entry, so the four are evicted together; each
    count builds one lookup per group from its target, takes a cell's
    partner index as the sum of its groups' lookups, and gathers from A only
    the partners whose bit is set. The codes and values are kept only if
    there are fewer than q^k / _CELLS_PER_KEY cells and their ceil(k/g) + 1
    cells each fit the budget beside A and its bitmap; otherwise all three
    are empty and such counts decide as the filling one did. With
    unpaired halves the other half is always streamed: its rows carry the
    negated keys and start at the target's digits, so each streamed sum is
    the key it needs. Keys are packed (_digit_lookup) so that a combination
    is one int64 sum and its table index one gather per digit group; for
    every shape a 2^31 budget admits, a packed sum has at most 49 bits.

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
    table_half, other, sign, stream = _split(classes, sizes, neg, q**k)

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
    if kept is not None and sign:
        if len(kept) == 1:  # the first paired count to find the table kept
            table, groups = kept[0], -(-k // _group_digits(q, k))
            most = min((q**k - 1) // _CELLS_PER_KEY,
                       (state_budget() - q**k - -(-q**k // 8)) // (groups + 1))
            kept = _RESIDENT.remember(key, table, *_nonzero_cells(table, q, k, most))
        if kept[2].size:  # the values of the nonzero cells
            return _cells_dot(*kept, tgt, q, k, sign)

    # a base is 1 + the most a digit of a sum can reach; both halves' lookups
    # are built before a table is filled, so their scratch is freed by then
    if stream:
        other_base = (len(other) + 1) * (q - 1) + 1
        streamed = factors(other, other_base, True)
        start = sum(int(place) * t for place, t in zip(_digit_lookup(q, k, other_base)[0], tgt))

    if kept is None:
        base = max(len(table_half), 1) * (q - 1) + 1
        filling = factors(table_half, base, False)
        _RESIDENT.make_room(q**k)
        table = np.zeros(q**k, dtype=np.uint32)
        for sums, weights in _sums(0, filling):
            np.add.at(table, _table_index(sums, q, k, base), weights)
        kept = _RESIDENT.remember(key, table)
    table = kept[0]
    if not stream:
        return _mirror_dot(table, tgt, q, k, sign)
    return _dot(table, _sums(start, streamed), q, k, other_base)


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
    if t_max < t_start:
        raise ValueError(f"t_max = {t_max} is below t_start = {t_start}: no modulus to count")
    table = []
    prev = None
    for t in range(t_start, t_max + 1):
        job = CountJob(s_diag, T, p, t)
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
