"""Enumeration streams and exact counts for partitions graded by perimeter,
and the partitions of a size as one list.

The engine knows a class only through its word automaton with s states
(:class:`hookcomb.partitions.WordAutomaton`): a count is the walk's n-th
term for n <= 2s and past that takes O(L^2 log n) products, squaring x^(n-1)
modulo the class's recurrence of order L <= s; refined counts take one walk
of n - 1 steps, and enumeration a backward walk whose work follows the
output.
:func:`parts_by_perimeter` is the brute-force route instead: it walks the
partitions of perimeter n and keeps those the class's first-break oracle
accepts, never reading the automaton.  It, :func:`fibonacci` and
:func:`excess_e` are the routes the checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, compress, islice, zip_longest
from typing import Iterator

from .partitions import DISTINCT, ConstraintClass, Partition, UNRESTRICTED, WordAutomaton, _require_int, _unchecked


@dataclass(frozen=True)
class LargestPart:
    value: int


@dataclass(frozen=True)
class NumParts:
    value: int


@dataclass(frozen=True)
class Rank:
    value: int


RefinementKey = LargestPart | NumParts | Rank


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the triangle 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def fibonacci(n: int) -> int:
    """F(0) = 0, F(1) = F(2) = 1; exactly the count of distinct-part
    partitions with perimeter n for n >= 1.

    Fast doubling over the bits of n, high to low: from (F(k), F(k+1)),
    F(2k) = F(k) (2 F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2."""
    _require_int(n, "n", 0)
    a, b = 0, 1
    for i in range(n.bit_length() - 1, -1, -1):
        a, b = a * (2 * b - a), a * a + b * b
        if (n >> i) & 1:
            a, b = b, a + b
    return a


def parts_by_perimeter(n: int, c: ConstraintClass = UNRESTRICTED) -> tuple[tuple[int, ...], ...]:
    """Brute-force route: the partitions of perimeter ``n`` that the
    first-break oracle of ``c`` accepts, in reverse-lexicographic order; by
    default all 2^(n-1) of them.

    The walk holds one partition: a first part a from n down to 1, then
    n - a more parts from a down to 1.  One that breaks the rule at part k
    shares its length with every partition of the same first part, so every
    partition with the same first k + 1 parts breaks there too; those
    follow it in a block, and the walk steps past the block by lowering the
    last of parts 1..k above 1 and repeating it to the end, or else by
    starting the next first part.  A member is a block of one.  Each
    rejected prefix is thus tested once.
    """
    _require_int(n, "perimeter", 1)
    first_break, parts, members = c.first_break, (n,), []
    while True:
        k = first_break(parts)
        if k == len(parts):
            members.append(parts)
            k -= 1
        while k and parts[k] == 1:
            k -= 1
        if k:
            parts = parts[:k] + (parts[k] - 1,) * (len(parts) - k)
        elif (a := parts[0] - 1) > 0:
            parts = (a,) * (n - a + 1)
        else:
            return tuple(members)


def _union(mask: int, table: tuple[int, ...]) -> int:
    """The union of ``table[s]`` over the states s in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(aut: WordAutomaton, n: int) -> tuple[tuple[int, ...], ...]:
    """``[r][x]``, r + x <= n: the states after r N's and x - 1 E's in any
    order; kept with the automaton, grown into a new table, never in place."""
    if len(rows := aut.reach) < n:
        rows = [list(row) for row in rows]
        for m in range(len(rows) + 1, n + 1):  # the entries with r + x = m
            rows.append([0])
            for r, x in zip(range(m), range(m, 0, -1)):
                mask = _union(rows[r][x - 1], aut.after_e) if x > 1 else int(r == 0) << aut.start
                rows[r].append(mask | (_union(rows[r - 1][x], aut.after_n) if r else 0))
        aut.reach = rows = tuple(map(tuple, rows))
    return rows


def enumerate_by_perimeter(n: int, c: ConstraintClass = UNRESTRICTED) -> Iterator[Partition]:
    """Each partition with perimeter ``n`` in class ``c``, exactly once, in
    reverse-lexicographic part order: a depth-first walk backward through the
    class's automaton, one part at a time, into parts the reach table allows.
    """
    _require_int(n, "perimeter", 1)
    aut, reach = c.automaton, _reach(c.automaton, n)

    @cache
    def chain(mask: int) -> list[int]:  # [k]: the states from which N E^k leads into ``mask``
        before_e = accumulate(range(n), lambda m, _: _union(m, aut.before_e), initial=mask)
        return [_union(m, aut.before_n) for m in before_e]

    # the node of part x, with ``mask`` the states before its N and ``left``
    # parts to come, is one cell: [its next parts once known, mask, x, left]
    node = cache(lambda mask, x, left: [None, mask, x, left])

    def nexts(cell: list) -> tuple:  # the next parts, largest first, each with its node
        _, mask, x, left = cell
        ch, row = chain(mask), reach[left - 1]
        cell[0] = tuple((x - k, node(ch[k], x - k, left - 1)) for k in range(x) if ch[k] & row[x - k])
        return cell[0]

    # outputs skip validation: n >= 1, each first part a is in 1..n - 1 and
    # each next part is x - k with 0 <= k < x, so in 1..x for the part x before it
    last = _union((1 << len(aut.on_n)) - 1, aut.before_n)  # where the terminal N can be read
    if reach[0][n] & last:
        yield _unchecked((n,))
    for a in range(n - 1, 0, -1):
        left = n - a  # parts still to place after the first
        parts, pending = [a], [iter(nexts(node(last, a, left)))]
        while pending:
            if len(pending) == left:
                prefix = tuple(parts)
                for y, _ in pending.pop():
                    yield _unchecked(prefix + (y,))
                parts.pop()
                continue
            for y, cell in pending[-1]:
                parts.append(y)
                pending.append(iter(cell[0] or nexts(cell)))
                break
            else:
                pending.pop()
                parts.pop()


def _walk(aut: WordAutomaton, e_shift: int, n_weight: int) -> Iterator[list[int]]:
    """Per perimeter 1, 2, 3, ...: the total weight of the class's words by the
    state they end in, a word weighing 2^``e_shift`` per E and ``n_weight`` per
    N, leading E excluded; :func:`_closed` reads the walk's term off one."""
    vec = [int(s == aut.start) for s in range(len(aut.on_e))]
    while True:
        yield vec
        step = [0] * (len(vec) + 1)  # the last entry collects the refused letters
        for v, e, f in zip(vec, aut.on_e, aut.on_n):
            step[e] += v << e_shift
            step[f] += v * n_weight
        vec = step[:-1]


def _closed(aut: WordAutomaton, vec: list[int], n_weight: int) -> int:
    """The walk's term at ``vec``: the weight of the words a terminal N
    closes, read where ``after_n`` is nonzero, at the states that take an N."""
    return n_weight * sum(compress(vec, aut.after_n))


@lru_cache(maxsize=None)
def _rational(c: ConstraintClass, n_weight: int) -> tuple[list[int], list[int]]:
    """The walk of class ``c`` as P/Q = sum t(n) z^(n-1), Q(0) = 1 and Q
    minimal, by fraction-free Berlekamp-Massey (Massey, 1969) on 2s terms, as
    Q divides det(I - zA) for s states; Q is integral (Fatou).  Returns
    t(1..2L) and Q, L its order."""
    aut = c.automaton
    seq = [_closed(aut, vec, n_weight) for vec in islice(_walk(aut, 0, n_weight), 2 * len(aut.on_e))]
    q, prev, length, shift, scale = [1], [1], 0, 1, 1
    for i in range(len(seq)):
        delta = sum(x * seq[i - j] for j, x in enumerate(q[: i + 1]))
        if delta:
            old, q = q, [scale * a - delta * b for a, b in zip_longest(q, [0] * shift + prev, fillvalue=0)]
            if 2 * length <= i:
                length, prev, scale, shift = i + 1 - length, old, delta, 0
        shift += 1
    return seq[: 2 * length], [x // q[0] for x in q[: length + 1]]


def _term(c: ConstraintClass, n: int, n_weight: int = 1) -> int:
    """t(n): the walk's n-th term itself for n <= 2s, s states.  Past that, by
    Fiduccia (SIAM J. Comput. 1985): with n - 1 = 2h + b, r = x^h modulo the
    reversed denominator C(x) = x^L Q(1/x), squared and shifted over the
    bits of h and reduced through Q's nonzero taps.  Applying
    t(h + 1 + m) = sum_j r_j t(j + 1 + m) twice gives
    t(n) = sum_i r_i sum_j r_j t(i + j + b + 1), so the last step takes L
    products of large numbers, not L (L + 1) / 2, of the t(1..2L) that
    :func:`_rational` keeps.
    """
    _require_int(n, "perimeter", 1)
    aut = c.automaton
    if n <= 2 * len(aut.on_e):
        return _closed(aut, next(islice(_walk(aut, 0, n_weight), n - 1, None)), n_weight)
    t, q = _rational(c, n_weight)
    if not t:  # Q = 1: the walk is all zeros
        return 0
    taps, size = [(j, x) for j, x in enumerate(q) if j and x], len(t) // 2
    h, b = divmod(n - 1, 2)
    r = [1] + [0] * (size - 1)
    for bit in bin(h)[2:]:
        s = [0] * (2 * size - 1)
        for i, a in enumerate(r):
            s[2 * i] += a * a
            a += a
            for j in range(i + 1, size):
                s[i + j] += a * r[j]
        if bit == "1":
            s.insert(0, 0)
        while len(s) > size:  # x^i = -sum q_j x^(i - j) for i >= L
            x, i = s.pop(), len(s)
            for j, y in taps:
                s[i - j] -= y * x
        r = s
    return sum(a * sum(x * t[i + j + b] for j, x in enumerate(r)) for i, a in enumerate(r))


def count_by_perimeter(n: int, c: ConstraintClass) -> int:
    """Exact count of partitions with perimeter ``n`` in class ``c``."""
    return _term(c, n)


def count_refined(n: int, key: RefinementKey, c: ConstraintClass) -> int:
    """Count the class-``c`` partitions with perimeter ``n`` and the given
    refined statistic; out-of-range key values count 0 rather than raising.

    Each key picks one largest part a, the word's number of E's: one walk
    with each E weighing 2^n holds its count in base-2^n digit a - 1.
    """
    _require_int(n, "perimeter", 1)
    if not isinstance(key, (LargestPart, NumParts, Rank)):
        raise ValueError(f"unsupported refinement key {key!r}")
    _require_int(v := key.value, "a key value")
    a = v if isinstance(key, LargestPart) else n + 1 - v if isinstance(key, NumParts) else (v + n + 1) // 2
    if not 1 <= a <= n or isinstance(key, Rank) and (v + n + 1) % 2:
        return 0
    total = _closed(c.automaton, next(islice(_walk(c.automaton, n, 1), n - 1, None)), 1)
    return (total >> (n * (a - 1))) & ((1 << n) - 1)


def count_parity_split(n: int) -> tuple[int, int]:
    """Distinct-part partitions with perimeter ``n`` as (even, odd) numbers of
    parts, from the automaton walk and, with each N weighing -1, even - odd."""
    total, excess = _term(DISTINCT, n), _term(DISTINCT, n, -1)
    return (total + excess) // 2, (total - excess) // 2


_EXCESS_BY_RESIDUE = (0, -1, -1, 0, 1, 1)


def excess_e(n: int) -> int:
    """Even-length minus odd-length count over distinct-part partitions of
    perimeter ``n``: 0, -1 or +1 according to n mod 6."""
    _require_int(n, "perimeter", 1)
    return _EXCESS_BY_RESIDUE[n % 6]


def partitions_of_size(n: int, distinct: bool = False) -> tuple[tuple[int, ...], ...]:
    """All parts tuples summing to ``n`` (optionally with strictly
    decreasing parts), reverse-lexicographic: the size-graded lists the
    q-series checks sum over."""
    _require_int(n, "size", 0)
    return tuple(_gen_by_size(n, n, distinct))


def _gen_by_size(remaining: int, cap: int, distinct: bool):
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        nxt = first - 1 if distinct else first
        for rest in _gen_by_size(remaining - first, nxt, distinct):
            yield (first,) + rest
