"""Boundary words for partitions, and the block grammar for the gap classes.

The southeast boundary of a Young diagram, walked from its southwest corner
to its northeast corner, spells a word over {E, N}: E for a horizontal edge,
N for a vertical one.  Such a word always begins with E and ends with N, and
a partition with perimeter n gives a word of length n + 1 (one E per column
of the first row, one N per part).  This makes the words of length n + 1 a
faithful code for the partitions with perimeter n.

:func:`to_profile` and :func:`from_profile` speak E/N text and check what
they are given.  The bulk routes work on packed bits instead (bit i set
means letter i is N), so a word is one int and its length, unchecked.

A word of the class ``g_class(d)`` splits as an initial block E N^k, middle
blocks of types I (``E^{d+1} N^j``) and II (``N E^d N^j``) that alternate
starting with I, and a terminal N.  :func:`block_word_bits` spells a word
from the N counts k and j alone, since a middle block's type is its
position.
"""

from __future__ import annotations

from typing import Iterable

from .partitions import Partition, _unchecked


def to_profile(p: Partition) -> str:
    """Boundary word of ``p`` as E/N text, read southwest to northeast.

    The word is E^{p_r} N E^{p_{r-1}-p_r} N ... E^{p_1-p_2} N: walking up
    from the bottom row, each N closes one part at the current width.
    """
    up = p.parts[::-1]  # smallest part first
    return "".join("E" * (x - prev) + "N" for x, prev in zip(up, (0, *up)))


def parts_from_word_bits(length: int, bits: int) -> tuple[int, ...]:
    """Decode packed word bits to a parts tuple (no validity checks).

    Exposed for bulk enumeration, where building text and a Partition per
    word would dominate the runtime.  Only the N letters are visited: the
    k-th N (from 0) at letter i closes a part of width i - k, the number of
    E's before it.
    """
    bits &= (1 << length) - 1
    parts = []
    k = 0
    while bits:
        low = bits & -bits
        parts.append(low.bit_length() - 1 - k)
        bits ^= low
        k += 1
    parts.reverse()
    return tuple(parts)


def from_profile(text: str) -> Partition:
    """The unique partition whose boundary word is the E/N ``text``; inverse
    of :func:`to_profile`.  Raises ``ValueError`` at the first invalid
    letter, then for an empty word, one that does not start with E, and one
    that does not end with N, in that order."""
    bits = 0
    for i, ch in enumerate(text):
        if ch == "N":
            bits |= 1 << i
        elif ch != "E":
            raise ValueError(f"letter at index {i} is {ch!r}, expected 'E' or 'N'")
    if not text:
        raise ValueError("a profile word needs at least one letter")
    if bits & 1:
        raise ValueError("a profile word must start with E")
    if not bits >> (len(text) - 1):
        raise ValueError("a profile word must end with N")
    return _unchecked(parts_from_word_bits(len(text), bits))  # a valid word spells a partition


def block_word_bits(initial_ns: int, trailing_ns: Iterable[int], d: int) -> tuple[int, int]:
    """(word length, packed word bits) spelled by an initial block with
    ``initial_ns`` N's, middle blocks with the ``trailing_ns`` counts and
    the terminal N, for parameter ``d`` (assumed valid).  Every middle
    block takes d + 1 letters before its trailing N's; an odd-indexed
    (type II) block opens with an N.  That the block sequences and the
    class's members correspond one to one is the block-grammar theorem,
    which the ``d-chain`` check proves for d = 1..5 at every perimeter up
    to its ``max_n``."""
    pos = 1 + initial_ns  # the initial E, then its N's
    bits = ((1 << initial_ns) - 1) << 1
    for i, j in enumerate(trailing_ns):
        if i % 2:
            bits |= 1 << pos
        pos += d + 1  # E^{d+1} for type I, N E^d for type II
        bits |= ((1 << j) - 1) << pos
        pos += j
    return pos + 1, bits | (1 << pos)

