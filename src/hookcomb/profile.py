"""Boundary words for partitions, and the block grammar for the gap classes.

The southeast boundary of a Young diagram, walked from its southwest corner
to its northeast corner, spells a word over {E, N}: E for a horizontal edge,
N for a vertical one.  Such a word always begins with E and ends with N, and
a partition with perimeter n gives a word of length n + 1 (one E per column
of the first row, one N per part).  This makes the words of length n + 1 a
faithful code for the partitions with perimeter n.

Words are stored as packed bits (bit i set means letter i is N), so a word
is one int; they render as plain E/N text.

A word of the class ``g_class(d)`` splits as an initial block E N^k, middle
blocks of types I (``E^{d+1} N^j``) and II (``N E^d N^j``) that alternate
starting with I, and a terminal N.  A :class:`BlockDecomposition` stores
only the N counts k and j, since a middle block's type is its position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .partitions import Partition


class ProfileWordError(ValueError):
    pass


class EmptyWord(ProfileWordError):
    pass


class MustStartWithE(ProfileWordError):
    pass


class MustEndWithN(ProfileWordError):
    pass


class InvalidLetter(ProfileWordError):
    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NotInClass(ValueError):
    """Word fails the block grammar; ``position`` is the first bad letter."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class ProfileWord:
    """An E/N word that begins with E and ends with N.

    ``bits`` packs the letters little-endian: bit i set means letter i is N.
    """

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise EmptyWord("a profile word needs at least one letter")
        if self.bits >> self.length:
            raise ValueError("bits outside the declared length")
        if self.bits & 1:
            raise MustStartWithE("a profile word must start with E")
        if not (self.bits >> (self.length - 1)) & 1:
            raise MustEndWithN("a profile word must end with N")

    @classmethod
    def from_text(cls, text: str) -> "ProfileWord":
        bits = 0
        for i, ch in enumerate(text):
            if ch == "N":
                bits |= 1 << i
            elif ch != "E":
                raise InvalidLetter(f"letter at index {i} is {ch!r}, expected 'E' or 'N'", index=i)
        return cls(len(text), bits)

    @property
    def text(self) -> str:
        return "".join("N" if (self.bits >> i) & 1 else "E" for i in range(self.length))

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return self.length


def _coerce(w: ProfileWord | str) -> ProfileWord:
    return w if isinstance(w, ProfileWord) else ProfileWord.from_text(w)


def to_profile(p: Partition) -> ProfileWord:
    """Boundary word of ``p``, read southwest to northeast.

    The word is E^{p_r} N E^{p_{r-1}-p_r} N ... E^{p_1-p_2} N: walking up
    from the bottom row, each N closes one part at the current width.
    """
    return ProfileWord(*word_bits_from_parts(p.parts))


def word_bits_from_parts(parts: tuple[int, ...]) -> tuple[int, int]:
    """Encode a parts tuple as (word length, packed word bits), no validity
    checks; the inverse of :func:`parts_from_word_bits` on partitions."""
    bits = 0
    pos = -1
    prev = 0
    for x in reversed(parts):
        pos += x - prev + 1  # the E's that widen the row to x, then its N
        bits |= 1 << pos
        prev = x
    return pos + 1, bits


def parts_from_word_bits(length: int, bits: int) -> tuple[int, ...]:
    """Decode packed word bits to a parts tuple (no validity checks).

    Exposed for bulk enumeration, where constructing ProfileWord and
    Partition wrappers per word would dominate the runtime.  Only the N
    letters are visited: the k-th N (from 0) at letter i closes a part of
    width i - k, the number of E's before it.
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


def from_profile(w: ProfileWord | str) -> Partition:
    """The unique partition whose boundary word is ``w``; inverse of
    :func:`to_profile`."""
    w = _coerce(w)
    return Partition(parts_from_word_bits(w.length, w.bits))


@dataclass(frozen=True)
class BlockDecomposition:
    """A word split as initial block, middle blocks, terminal N.

    The initial block is a single E followed by ``initial_ns`` N's; the
    terminal single N is implicit.  Middle block i spells ``E^{d+1} N^j``
    (type I) when i is even and ``N E^d N^j`` (type II) when i is odd, with
    j = ``trailing_ns[i]``: the grammar's types alternate I, II, I, ...
    starting with I, so a block's type is its position.
    """

    initial_ns: int
    trailing_ns: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.initial_ns < 0 or any(j < 0 for j in self.trailing_ns):
            raise ValueError("N counts must be non-negative")


def decompose_blocks(w: ProfileWord | str, d: int) -> BlockDecomposition:
    """Parse ``w`` with the gap-class block grammar for parameter ``d``.

    Succeeds exactly when the encoded partition lies in the class
    ``g_class(d)``.  The parse is a single left-to-right pass: the initial block
    absorbs every N before the first middle E run, and the forced I/II
    alternation then fixes each split (a type II block claims the last N of
    the run preceding its E's).  Each middle block contributes its trailing
    N count.  Raises :class:`NotInClass` with the first letter index where
    the grammar fails.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    w = _coerce(w)
    text = w.text
    body_len = w.length - 1  # the final letter is the terminal N
    i = 1  # the leading E of the initial block
    initial_ns = 0
    while i < body_len and text[i] == "N":
        initial_ns += 1
        i += 1
    trailing_ns: list[int] = []
    while i < body_len:
        type_ii = len(trailing_ns) % 2 == 1
        # Type I needs d+1 E's here; type II needs d E's (its leading N was
        # reclaimed from the previous block's trailing run below).
        for _ in range(d if type_ii else d + 1):
            if i >= body_len or text[i] != "E":
                at = min(i, w.length - 1)
                kind = "II" if type_ii else "I"
                raise NotInClass(f"expected 'E' at index {at} continuing a type {kind} block", position=at)
            i += 1
        trailing = 0
        while i < body_len and text[i] == "N":
            trailing += 1
            i += 1
        if i < body_len and not type_ii:
            # Another E run follows and the alternation says it belongs to a
            # type II block, which must be introduced by one N.
            if trailing == 0:
                raise NotInClass(
                    f"expected 'N' at index {i} opening a type II block", position=i
                )
            trailing -= 1
        trailing_ns.append(trailing)
    return BlockDecomposition(initial_ns, tuple(trailing_ns))


def block_word_bits(initial_ns: int, trailing_ns: Iterable[int], d: int) -> tuple[int, int]:
    """(word length, packed word bits) spelled by an initial block with
    ``initial_ns`` N's, middle blocks with the ``trailing_ns`` counts and
    the terminal N, for parameter ``d`` (assumed valid).  Every middle
    block takes d + 1 letters before its trailing N's; an odd-indexed
    (type II) block opens with an N."""
    pos = 1 + initial_ns  # the initial E, then its N's
    bits = ((1 << initial_ns) - 1) << 1
    for i, j in enumerate(trailing_ns):
        if i % 2:
            bits |= 1 << pos
        pos += d + 1  # E^{d+1} for type I, N E^d for type II
        bits |= ((1 << j) - 1) << pos
        pos += j
    return pos + 1, bits | (1 << pos)


def blocks_to_word(b: BlockDecomposition, d: int) -> ProfileWord:
    """Spell the word of ``b`` for parameter ``d``."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return ProfileWord(*block_word_bits(b.initial_ns, b.trailing_ns, d))


def blocks_to_partition(b: BlockDecomposition, d: int) -> Partition:
    """Partition encoded by the block sequence ``b``; it lies in the class
    ``g_class(d)`` and round-trips through :func:`decompose_blocks`.  That
    is the block-grammar theorem, which the ``d-chain`` check proves for
    d = 1..5 at every perimeter up to its ``max_n``."""
    return from_profile(blocks_to_word(b, d))
