"""Partition values, their statistics, and part-constraint predicates.

A partition is a non-empty, weakly decreasing sequence of positive integers.
The central statistic here is the *perimeter* ``parts[0] + len(parts) - 1``,
which equals the largest hook length of the Young diagram (the hook of the
top-left cell runs along the whole first row and first column).

Each constraint class also has a transition table (:func:`transitions`):
which first parts are allowed, which parts may follow a given part, and
which last parts are allowed.  Enumeration and refined counting walk that
table; :func:`parts_are_member` stays a separate predicate written from the
class definitions, so the two can check each other.

All values are immutable and all functions are pure, so everything in this
module is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence


class PartitionError(ValueError):
    """Rejected input to :func:`make_partition`.

    ``index`` points at the first offending entry, or is ``None`` when the
    problem is not tied to a position (empty input).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class EmptyPartition(PartitionError):
    pass


class NonPositivePart(PartitionError):
    pass


class NotWeaklyDecreasing(PartitionError):
    pass


def _validate_parts(parts: tuple[int, ...]) -> None:
    if not parts:
        raise EmptyPartition("a partition must have at least one part")
    for i, x in enumerate(parts):
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise NonPositivePart(f"part at index {i} is {x!r}, expected a positive integer", index=i)
    for i in range(1, len(parts)):
        if parts[i] > parts[i - 1]:
            raise NotWeaklyDecreasing(
                f"part at index {i} ({parts[i]}) exceeds the previous part ({parts[i - 1]})", index=i
            )


@dataclass(frozen=True)
class Partition:
    """A non-empty weakly decreasing tuple of positive integers.

    Construct through :func:`make_partition` for friendly coercion; direct
    construction also validates.  Parts beyond about 10**6 are not rejected
    but are outside the supported envelope of the counting routines.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_parts(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def perimeter(self) -> int:
        """Largest hook length: ``parts[0] + length - 1``."""
        return self.parts[0] + len(self.parts) - 1

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self.parts))})"


def make_partition(parts: Sequence[int] | Iterable[int]) -> Partition:
    """Validate ``parts`` and return a :class:`Partition`.

    Raises :class:`EmptyPartition`, :class:`NonPositivePart` or
    :class:`NotWeaklyDecreasing`; the latter two carry the first offending
    index on the exception.
    """
    return Partition(tuple(parts))


_PARAMETTERLESS_KINDS = ("any", "distinct", "odd")
_PARAMETERIZED_KINDS = ("ddistinct", "modone", "gclass")


@dataclass(frozen=True)
class ConstraintClass:
    """A family of partitions selected by a condition on the parts.

    kind:
      ``any``        no restriction;
      ``distinct``   strictly decreasing parts;
      ``odd``        all parts odd;
      ``ddistinct``  consecutive parts differ by at least ``d``;
      ``modone``     all parts congruent to 1 mod ``d + 1``;
      ``gclass``     parts congruent to 1 or ``d + 2`` mod ``2d + 1`` with
                     successive gaps at most ``2d + 1`` (counting a virtual
                     trailing 0), the gap bound strict at parts ``== 1``
                     mod ``2d + 1``.

    ``distinct`` and ``ddistinct`` with d=1 select the same partitions, as do
    ``odd`` and ``modone`` with d=1.
    """

    kind: str
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind in _PARAMETTERLESS_KINDS:
            if self.d is not None:
                raise ValueError(f"class {self.kind!r} takes no parameter")
        elif self.kind in _PARAMETERIZED_KINDS:
            if not isinstance(self.d, int) or self.d < 1:
                raise ValueError(f"class {self.kind!r} needs an integer parameter d >= 1")
        else:
            raise ValueError(f"unknown constraint class {self.kind!r}")

    def __str__(self) -> str:
        return self.kind if self.d is None else f"{self.kind}:{self.d}"

    @cached_property
    def member(self) -> Callable[[tuple[int, ...]], bool]:
        """Membership test on a raw parts tuple, resolved from ``kind`` on
        first use so that per-word calls skip the dispatch."""
        return _member_test(self)

    def __getstate__(self) -> dict:
        # the bound ``member`` test is a closure: pickle the fields only
        return {"kind": self.kind, "d": self.d}


UNRESTRICTED = ConstraintClass("any")
DISTINCT = ConstraintClass("distinct")
ODD = ConstraintClass("odd")


def d_distinct(d: int) -> ConstraintClass:
    return ConstraintClass("ddistinct", d)


def mod_one(d: int) -> ConstraintClass:
    return ConstraintClass("modone", d)


def g_class(d: int) -> ConstraintClass:
    return ConstraintClass("gclass", d)


def parts_are_member(parts: tuple[int, ...], c: ConstraintClass) -> bool:
    """Membership test on a raw parts tuple (assumed valid).

    This is the hot path of the brute-force word filter; :func:`is_member`
    is the public wrapper over :class:`Partition`.  The test itself is
    ``c.member``, chosen by kind once per class.
    """
    return c.member(parts)


def _member_test(c: ConstraintClass) -> Callable[[tuple[int, ...]], bool]:
    """The membership test of class ``c`` on a raw parts tuple, with the
    class's constants bound.  ``distinct`` is the gap test with d = 1 and
    ``odd`` the residue test with modulus 2."""
    kind = c.kind
    if kind == "any":
        return _always
    if kind == "distinct" or kind == "ddistinct":
        d = c.d or 1

        def gaps_at_least_d(parts: tuple[int, ...]) -> bool:
            prev = parts[0] + d
            for x in parts:
                if prev - x < d:
                    return False
                prev = x
            return True

        return gaps_at_least_d
    if kind == "odd" or kind == "modone":
        m = (c.d or 1) + 1

        def residues_one(parts: tuple[int, ...]) -> bool:
            for x in parts:
                if x % m != 1:
                    return False
            return True

        return residues_one
    # gclass: each part must leave a residue 1 or d + 2 mod 2d + 1, and
    # the gap to the next part (or to the virtual trailing 0) is at most
    # 2d + 1, strictly less at residue 1; ``low`` is the smallest next part
    mod = 2 * c.d + 1
    alt = (c.d + 2) % mod

    def residues_and_gaps(parts: tuple[int, ...]) -> bool:
        low = 0
        for x in parts:
            if x < low:
                return False
            r = x % mod
            if r == 1:
                low = x - mod + 1
            elif r == alt:
                low = x - mod
            else:
                return False
        return low <= 0

    return residues_and_gaps


@dataclass(frozen=True)
class PartTransitions:
    """A constraint class as a rule on consecutive parts.

    A parts tuple belongs to the class exactly when ``first`` accepts its
    first part, each later part is among ``follows`` of the part before it,
    and ``last`` accepts its last part.  ``follows(x)`` lists the allowed
    next parts largest first, and is only asked about parts ``x`` that are
    themselves allowed in the class.
    """

    first: Callable[[int], bool]
    follows: Callable[[int], Sequence[int]]
    last: Callable[[int], bool]


def _always(x: int) -> bool:
    return True


def transitions(c: ConstraintClass) -> PartTransitions:
    """The transition table of class ``c``: every class is a local
    condition on consecutive parts (and on the last part against a virtual
    trailing 0), so members can be generated and counted part by part."""
    kind, d = c.kind, c.d
    if kind == "any":
        return PartTransitions(_always, lambda x: range(x, 0, -1), _always)
    if kind == "distinct":
        return PartTransitions(_always, lambda x: range(x - 1, 0, -1), _always)
    if kind == "odd":
        return PartTransitions(lambda x: x % 2 == 1, lambda x: range(x, 0, -2), _always)
    if kind == "ddistinct":
        return PartTransitions(_always, lambda x: range(x - d, 0, -1), _always)
    if kind == "modone":
        m = d + 1
        return PartTransitions(lambda x: x % m == 1, lambda x: range(x, 0, -m), _always)
    # gclass: the gap to the next part (or to the virtual trailing 0) is at
    # most 2d + 1, and strictly less at parts == 1 mod 2d + 1
    mod = 2 * d + 1
    residues = (1, (d + 2) % mod)

    def max_gap(x: int) -> int:
        return mod - 1 if x % mod == 1 else mod

    def follows(x: int) -> list[int]:
        return [y for y in range(x, max(x - max_gap(x) - 1, 0), -1) if y % mod in residues]

    return PartTransitions(lambda x: x % mod in residues, follows, lambda x: x <= max_gap(x))


def is_member(p: Partition, c: ConstraintClass) -> bool:
    """Does ``p`` belong to the constraint class ``c``?"""
    return parts_are_member(p.parts, c)


def rank(p: Partition) -> int:
    """Largest part minus number of parts; may be negative."""
    return p.parts[0] - len(p.parts)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths as parts)."""
    parts = p.parts
    out = []
    for j in range(parts[0]):
        count = 0
        for x in parts:
            if x > j:
                count += 1
            else:
                break
        out.append(count)
    return Partition(tuple(out))


def hook_lengths(p: Partition) -> list[list[int]]:
    """Hook length of every cell, as a ragged row-indexed table.

    The hook of cell (i, j) consists of the cell, its arm (cells to the
    right in row i) and its leg (cells below in column j); the hook length
    is arm + leg + 1.  The maximum sits at cell (0, 0) and equals the
    perimeter.
    """
    parts = p.parts
    col_heights = conjugate(p).parts
    table = []
    for i, row_len in enumerate(parts):
        row = []
        for j in range(row_len):
            arm = row_len - j - 1
            leg = col_heights[j] - i - 1
            row.append(arm + leg + 1)
        table.append(row)
    return table
