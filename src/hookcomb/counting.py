"""Enumeration streams and exact counts for partitions graded by perimeter.

Class members of perimeter n are generated and counted part by part from
the class's transition table (:func:`hookcomb.partitions.transitions`), so
the work follows the output, not the number of partitions.  The boundary
words of length n + 1 (first letter E, last letter N, the n - 1 letters in
between free) are exactly the partitions with perimeter n;
:func:`parts_by_perimeter` lists all 2^(n-1) of them, grown from the list
for perimeter n - 1 by the letter before the terminal N, and is kept as the
brute-force route the verification checks compare against.  Counting never
overflows: everything is a Python int.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .partitions import (
    ConstraintClass,
    Partition,
    PartTransitions,
    UNRESTRICTED,
    transitions,
)


class InvalidKeyForClass(ValueError):
    pass


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
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = 0, 1
    for i in range(n.bit_length() - 1, -1, -1):
        a, b = a * (2 * b - a), a * a + b * b
        if (n >> i) & 1:
            a, b = b, a + b
    return a


_CACHE_PERIMETER_LIMIT = 20


def _grow(prev: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """The perimeter-``n`` table from ``prev``, the perimeter-(n - 1) table,
    both reverse-lexicographic.

    The letter before the terminal N of a word of perimeter n is E or N.
    Deleting it is a bijection onto the words of perimeter n - 1: an E adds
    1 to the largest part, an N repeats it.  So (k, k, ...) comes from the
    group of ``prev`` with first part k (the N-branch) and (k, rest) with
    rest below k from the group with first part k - 1 (the E-branch).
    Emitting, for k from n down, the N-branch of group k and then the
    E-branch of group k - 1 keeps reverse-lexicographic order.  In ``prev``
    the group with first part k has binom(n - 2, k - 1) entries.
    """
    groups = [()] * (n + 1)  # groups[k]: the entries of prev with first part k
    stop = 0
    for k in range(n - 1, 0, -1):
        start, stop = stop, stop + binom(n - 2, k - 1)
        groups[k] = prev[start:stop]
    out = []
    for k in range(n, 0, -1):
        out += [(k,) + p for p in groups[k]]
        out += [(k,) + p[1:] for p in groups[k - 1]]
    return tuple(out)


@lru_cache(maxsize=None)
def _parts_by_perimeter_cached(n: int) -> tuple[tuple[int, ...], ...]:
    return ((1,),) if n == 1 else _grow(_parts_by_perimeter_cached(n - 1), n)


def parts_by_perimeter(n: int) -> tuple[tuple[int, ...], ...]:
    """All parts tuples with perimeter ``n``, reverse-lexicographic.

    Grown letter by letter from the table of perimeter n - 1 (see
    :func:`_grow`).  Cached up to ``_CACHE_PERIMETER_LIMIT`` so that the
    many verification sweeps share one pass; larger perimeters grow from
    the last cached table without caching.
    """
    if n < 1:
        raise ValueError("perimeter must be at least 1")
    limit = _CACHE_PERIMETER_LIMIT
    if n <= limit:
        return _parts_by_perimeter_cached(n)
    table = _parts_by_perimeter_cached(limit)
    for m in range(limit + 1, n + 1):
        table = _grow(table, m)
    return table


def _completions(step: PartTransitions, n: int) -> tuple[list, list[list[int]]]:
    """The class's transition table up to perimeter ``n``, and its
    completion counts.

    ``nexts[x]`` lists the parts allowed after part ``x``, largest first;
    ``table[r][x]`` counts the ways to follow part ``x`` with exactly ``r``
    more parts of the class, for ``r + x <= n`` (index 0 unused).  Row r
    sums row r - 1 over ``nexts``, one pass over the O(n^2) entries.
    """
    nexts = [()] + [step.follows(x) for x in range(1, n + 1)]
    table = [[0] + [int(step.last(x)) for x in range(1, n + 1)]]
    for r in range(1, n):
        below = table[-1]
        table.append([0] + [sum(below[y] for y in nexts[x]) for x in range(1, n - r + 1)])
    return nexts, table


def enumerate_by_perimeter(n: int, c: ConstraintClass = UNRESTRICTED) -> Iterator[Partition]:
    """Each partition with perimeter ``n`` in class ``c``, exactly once, in
    reverse-lexicographic part order.

    A depth-first walk of the class's transition table: first parts from n
    down (a first part a fixes the length n + 1 - a), next parts largest
    first, and only into parts that can still be completed, so the work is
    proportional to the output rather than to the 2^(n-1) boundary words.
    """
    if n < 1:
        raise ValueError("perimeter must be at least 1")
    step = transitions(c)
    nexts, table = _completions(step, n)
    # viable[r][x]: the next parts after x from which r - 1 more parts can follow
    viable = [None] + [
        [()] + [tuple(y for y in nexts[x] if below[y]) for x in range(1, n - r + 1)]
        for r, below in enumerate(table[:-1], start=1)
    ]
    for a in range(n, 0, -1):
        left = n - a  # parts still to place after the first
        if not (step.first(a) and table[left][a]):
            continue
        if left == 0:
            yield Partition((a,))
            continue
        parts = [a]
        pending = [iter(viable[left][a])]
        while pending:
            depth = len(pending)
            if depth == left:
                prefix = tuple(parts)
                for y in pending.pop():
                    yield Partition(prefix + (y,))
                parts.pop()
                continue
            for y in pending[-1]:
                parts.append(y)
                pending.append(iter(viable[left - depth][y]))
                break
            else:
                pending.pop()
                parts.pop()


def _gap_count(d: int, n: int) -> int:
    # c(n) = c(n-1) + c(n-d-1) with c(1) = ... = c(d+1) = 1: the expansion of
    # q / (1 - q - q^{d+1}).  Only the last d + 1 values are kept.
    window = deque([1] * (d + 1), maxlen=d + 1)
    for _ in range(d + 2, n + 1):
        window.append(window[-1] + window[0])
    return window[-1]


def count_by_perimeter(n: int, c: ConstraintClass) -> int:
    """Exact count of partitions with perimeter ``n`` in class ``c``.

    Closed forms: 2^(n-1) for the unrestricted class, the Fibonacci number
    F(n) for distinct or odd parts, and the gap recurrence
    c(n) = c(n-1) + c(n-d-1) for the parameterized classes.
    """
    if n < 1:
        raise ValueError("perimeter must be at least 1")
    kind = c.kind
    if kind == "any":
        return 1 << (n - 1)
    if kind in ("distinct", "odd"):
        return fibonacci(n)
    return _gap_count(c.d, n)


def count_refined(n: int, key: RefinementKey, c: ConstraintClass) -> int:
    """Count the class-``c`` partitions with perimeter ``n`` and the given
    refined statistic.

    Closed forms used where available (and cross-checked by the test
    suite); other combinations are read off the class's completion table,
    a count over (previous part, parts left).  Out-of-range key values count
    0 rather than raising.
    """
    if n < 1:
        raise ValueError("perimeter must be at least 1")
    if not isinstance(key, (LargestPart, NumParts, Rank)):
        raise InvalidKeyForClass(f"unsupported refinement key {key!r}")
    v = key.value
    if c.kind == "distinct":
        if isinstance(key, NumParts):
            return binom(n - v, v - 1)
        if isinstance(key, LargestPart):
            return binom(v - 1, n - v)
        if (n - 1 - v) % 2 != 0 or v < 0:
            return 0
        return binom((n + v - 1) // 2, v)
    if c.kind == "any" and isinstance(key, LargestPart):
        # the word has v E's, one fixed at the front: choose the rest among
        # the n - 1 free letters
        return binom(n - 1, v - 1)
    # Given the perimeter, the largest part a fixes the length n + 1 - a and
    # the rank 2a - n - 1, so every key picks one largest part.
    if isinstance(key, LargestPart):
        a = v
    elif isinstance(key, NumParts):
        a = n + 1 - v
    elif (v + n + 1) % 2 == 0:
        a = (v + n + 1) // 2
    else:
        return 0
    step = transitions(c)
    if not (1 <= a <= n and step.first(a)):
        return 0
    _, table = _completions(step, n)
    return table[n - a][a]


def count_parity_split(n: int) -> tuple[int, int]:
    """Distinct-part partitions with perimeter ``n``, split by the parity of
    the number of parts: (even count, odd count), by the coupled recurrence
    even(n) = even(n-1) + odd(n-2), odd(n) = odd(n-1) + even(n-2)."""
    if n < 1:
        raise ValueError("perimeter must be at least 1")
    even, odd = [0, 0, 0], [0, 1, 1]
    for i in range(3, n + 1):
        even.append(even[i - 1] + odd[i - 2])
        odd.append(odd[i - 1] + even[i - 2])
    return even[n], odd[n]


_EXCESS_BY_RESIDUE = (0, -1, -1, 0, 1, 1)


def excess_e(n: int) -> int:
    """Even-length minus odd-length count over distinct-part partitions of
    perimeter ``n``: 0, -1 or +1 according to n mod 6."""
    if n < 1:
        raise ValueError("perimeter must be at least 1")
    return _EXCESS_BY_RESIDUE[n % 6]


@lru_cache(maxsize=None)
def partitions_of_size(n: int, distinct: bool = False) -> tuple[tuple[int, ...], ...]:
    """All parts tuples summing to ``n`` (optionally with strictly
    decreasing parts), reverse-lexicographic."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return tuple(_gen_by_size(n, n, distinct))


def _gen_by_size(remaining: int, cap: int, distinct: bool):
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        nxt = first - 1 if distinct else first
        for rest in _gen_by_size(remaining - first, nxt, distinct):
            yield (first,) + rest


def enumerate_by_size(max_size: int, distinct_only: bool = False) -> Iterator[Partition]:
    """All partitions of every size 1..``max_size``, each exactly once,
    sizes ascending and reverse-lexicographic within a size."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    for n in range(1, max_size + 1):
        for parts in partitions_of_size(n, distinct_only):
            yield Partition(parts)


def q_eo(r: int, n: int) -> tuple[int, int]:
    """Distinct-part partitions of size ``n`` with largest part plus number
    of parts equal to ``r``, split by length parity: (even, odd)."""
    if r < 1 or n < 1:
        raise ValueError("r and n must be at least 1")
    even = odd = 0
    for parts in partitions_of_size(n, distinct=True):
        if parts[0] + len(parts) == r:
            if len(parts) % 2 == 0:
                even += 1
            else:
                odd += 1
    return even, odd
