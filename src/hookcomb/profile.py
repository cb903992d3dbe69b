"""Boundary words for partitions, and the block grammar for the gap classes.

The southeast boundary of a Young diagram, walked from its southwest corner
to its northeast corner, spells a word over {E, N}: E for a horizontal edge,
N for a vertical one.  Such a word always begins with E and ends with N, and
a partition with perimeter n gives a word of length n + 1 (one E per column
of the first row, one N per part).  This makes the words of length n + 1 a
faithful code for the partitions with perimeter n.

Words are stored as packed bits (bit i set means letter i is N) so that
iterating over all words of a given length is just counting; they render as
plain E/N text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .partitions import Partition, parts_are_member, g_class


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


class BlockWordNotInClass(ArithmeticError):
    """A block decomposition spelled a partition outside its gap class,
    contradicting the block-grammar theorem."""


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
        if text == "":
            raise EmptyWord("empty word")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "N":
                bits |= 1 << i
            elif ch != "E":
                raise InvalidLetter(f"letter at index {i} is {ch!r}, expected 'E' or 'N'", index=i)
        if text[0] != "E":
            raise MustStartWithE("a profile word must start with E")
        if text[-1] != "N":
            raise MustEndWithN("a profile word must end with N")
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


BLOCK_I = "I"
BLOCK_II = "II"


@dataclass(frozen=True)
class MiddleBlock:
    """One middle block of the grammar: its kind and its trailing N count.

    Kind I spells ``E^{d+1} N^j``; kind II spells ``N E^d N^j``.
    """

    kind: str
    trailing_ns: int

    def __post_init__(self) -> None:
        if self.kind not in (BLOCK_I, BLOCK_II):
            raise ValueError(f"block kind must be 'I' or 'II', got {self.kind!r}")
        if self.trailing_ns < 0:
            raise ValueError("trailing N count must be non-negative")


@dataclass(frozen=True)
class BlockDecomposition:
    """A word split as initial block, alternating middles, terminal N.

    The initial block is a single E followed by ``initial_ns`` Ns; middle
    blocks strictly alternate kinds I, II, I, ... starting with I; the
    terminal single N is implicit.
    """

    initial_ns: int
    middles: tuple[MiddleBlock, ...]

    def __post_init__(self) -> None:
        if self.initial_ns < 0:
            raise ValueError("initial N count must be non-negative")
        expected = BLOCK_I
        for blk in self.middles:
            if blk.kind != expected:
                raise ValueError("middle blocks must alternate I, II, I, ... starting with I")
            expected = BLOCK_II if expected == BLOCK_I else BLOCK_I


def decompose_blocks(w: ProfileWord | str, d: int) -> BlockDecomposition:
    """Parse ``w`` with the gap-class block grammar for parameter ``d``.

    Succeeds exactly when the encoded partition lies in the gclass(d)
    family.  The parse is a single left-to-right pass: the initial block
    absorbs every N before the first middle E run, and the forced I/II
    alternation then fixes each split (a type II block claims the last N of
    the run preceding its E's).  Raises :class:`NotInClass` with the first
    letter index where the grammar fails.
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
    middles: list[MiddleBlock] = []
    kind = BLOCK_I
    while i < body_len:
        # Kind I needs d+1 E's here; kind II needs d E's (its leading N was
        # reclaimed from the previous block's trailing run below).
        for _ in range(d + 1 if kind == BLOCK_I else d):
            if i >= body_len or text[i] != "E":
                raise NotInClass(
                    f"expected 'E' at index {min(i, w.length - 1)} continuing a type {kind} block",
                    position=min(i, w.length - 1),
                )
            i += 1
        trailing = 0
        while i < body_len and text[i] == "N":
            trailing += 1
            i += 1
        next_kind = BLOCK_II if kind == BLOCK_I else BLOCK_I
        if i < body_len and next_kind == BLOCK_II:
            # Another E run follows and the alternation says it belongs to a
            # type II block, which must be introduced by one N.
            if trailing == 0:
                raise NotInClass(
                    f"expected 'N' at index {i} opening a type II block", position=i
                )
            trailing -= 1
        middles.append(MiddleBlock(kind, trailing))
        kind = next_kind
    return BlockDecomposition(initial_ns, tuple(middles))


def block_word_bits(initial_ns: int, middles: Iterable[MiddleBlock], d: int) -> tuple[int, int]:
    """(word length, packed word bits) spelled by an initial block with
    ``initial_ns`` N's, the ``middles`` and the terminal N, for parameter
    ``d`` (assumed valid)."""
    pos = 1 + initial_ns  # the initial E, then its N's
    bits = ((1 << initial_ns) - 1) << 1
    for blk in middles:
        if blk.kind == BLOCK_II:
            bits |= 1 << pos
        pos += d + 1  # E^{d+1} for kind I, N E^d for kind II
        bits |= ((1 << blk.trailing_ns) - 1) << pos
        pos += blk.trailing_ns
    return pos + 1, bits | (1 << pos)


def blocks_to_word(b: BlockDecomposition, d: int) -> ProfileWord:
    """Spell the word of ``b`` for parameter ``d``."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return ProfileWord(*block_word_bits(b.initial_ns, b.middles, d))


def blocks_to_partition(b: BlockDecomposition, d: int) -> Partition:
    """Partition encoded by the block sequence ``b``; always lands in the
    gclass(``d``) family and round-trips through :func:`decompose_blocks`.

    Raises :class:`BlockWordNotInClass` if the partition fails the gclass
    membership test, which the block-grammar theorem rules out."""
    p = from_profile(blocks_to_word(b, d))
    if not parts_are_member(p.parts, g_class(d)):
        raise BlockWordNotInClass(f"blocks {b!r} spell {p!r}, outside gclass:{d}")
    return p
