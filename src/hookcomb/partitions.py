"""Partition values, their statistics, and part-constraint predicates.

A partition is a non-empty, weakly decreasing sequence of positive integers.
The central statistic here is the *perimeter* ``parts[0] + len(parts) - 1``,
which equals the largest hook length of the Young diagram (the hook of the
top-left cell runs along the whole first row and first column).

:class:`Partition` and :func:`make_partition` validate what they are given.
The library's own enumerators and :func:`conjugate` build parts that are
valid by construction and wrap them with :func:`_unchecked`, which skips
that check; it is private because its caller must guarantee validity.

Every class but ``gclass`` is one rule (g, m), :attr:`ConstraintClass.rule`.
Each class has a minimal automaton on its boundary words
(:class:`WordAutomaton`), the one representation the counting engine works
from; :meth:`ConstraintClass.first_break` stays a separate oracle written
from the class rule, so the two can check each other.  It returns where a
parts tuple first breaks the class rule, so the brute-force walk
(:func:`hookcomb.counting.parts_by_perimeter`) can skip every partition
that shares the broken prefix.

All values are immutable (a word automaton replaces its reach table
whole) and all functions are pure, so everything in this module is safe
to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _require_int(value, what: str) -> None:
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")


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


@dataclass(frozen=True, slots=True)
class Partition:
    """A non-empty weakly decreasing tuple of positive integers.

    Construct through :func:`make_partition` for friendly coercion; direct
    construction also validates.  The library's enumerators
    (``enumerate_by_perimeter``, ``enumerate_by_size``) and :func:`conjugate`
    build parts that are valid by construction and skip the check.  Parts
    beyond about 10**6 are not rejected but are outside the supported
    envelope of the counting routines.
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


def _unchecked(parts: tuple[int, ...]) -> Partition:
    """The :class:`Partition` of ``parts``, without ``__init__`` and without
    validation: the caller guarantees that ``parts`` is a valid tuple."""
    p = object.__new__(Partition)
    object.__setattr__(p, "parts", parts)
    return p


def make_partition(parts: Sequence[int] | Iterable[int]) -> Partition:
    """Validate ``parts`` and return a :class:`Partition`.

    Raises :class:`EmptyPartition`, :class:`NonPositivePart` or
    :class:`NotWeaklyDecreasing`; the latter two carry the first offending
    index on the exception.
    """
    return Partition(tuple(parts))


# kind -> its rule (g, m), or that rule as a function of d; None for gclass
_RULES = {"any": (0, 1), "distinct": (1, 1), "odd": (0, 2),
          "ddistinct": lambda d: (d, 1), "modone": lambda d: (0, d + 1), "gclass": None}


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

    Only this class reads ``kind``; the rest of the library reads
    :attr:`rule`, or :attr:`d` for ``gclass``.
    """

    kind: str
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _RULES:
            raise ValueError(f"unknown constraint class {self.kind!r}")
        if isinstance(_RULES[self.kind], tuple):
            if self.d is not None:
                raise ValueError(f"class {self.kind!r} takes no parameter")
        elif not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise ValueError(f"class {self.kind!r} needs an integer parameter d >= 1")

    def __str__(self) -> str:
        return self.kind if self.d is None else f"{self.kind}:{self.d}"

    @property
    def rule(self) -> tuple[int, int] | None:
        """``(g, m)``: consecutive parts differ by at least g and every part
        is 1 mod m; ``None`` for ``gclass``, whose readers take :attr:`d`."""
        rule = _RULES[self.kind]
        return rule(self.d) if callable(rule) else rule

    @cached_property
    def first_break(self) -> Callable[[tuple[int, ...]], int]:
        """The index of the first part of a raw parts tuple at which the
        class rule fails, or its length for a member.  The rule at part i
        reads ``parts[i - 1]`` and ``parts[i]``; for ``gclass`` the rule at
        the last part also reads the gap to the virtual trailing 0.
        Resolved from the rule on first use so that the calls, one per
        partition tested, skip the dispatch."""
        return _first_break_of(self)

    @cached_property
    def automaton(self) -> "WordAutomaton":
        """The class's :class:`WordAutomaton`, shared by equal classes."""
        return _automaton_of(self)

    def __getstate__(self) -> dict:
        # the bound ``first_break`` oracle is a closure: pickle the fields only
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

    For a :class:`Partition` ``p``, pass ``p.parts``.  A member is a
    tuple none of whose parts breaks the rule of ``c``: see
    :attr:`ConstraintClass.first_break`.
    """
    return c.first_break(parts) == len(parts)


def _first_break_of(c: ConstraintClass) -> Callable[[tuple[int, ...]], int]:
    """The first-break oracle of class ``c`` on a raw parts tuple, with the
    constants of its rule bound.  The loops count parts by hand: most
    tuples break within two parts, where building an ``enumerate`` costs
    about as much as the test."""
    if c.rule is not None:
        g, m = c.rule
        if g == 0 and m == 1:  # every partition: no part breaks the rule
            return len
        r = 1 % m

        def gaps_and_residues(parts: tuple[int, ...]) -> int:
            prev, i = parts[0] + g, 0
            for x in parts:
                if prev - x < g or x % m != r:
                    return i
                prev = x
                i += 1
            return i

        return gaps_and_residues
    # residue-and-gap: each part must leave a residue 1 or d + 2 mod 2d + 1,
    # and the gap to the next part (or to the virtual trailing 0) is at most
    # 2d + 1, strictly less at residue 1; ``low`` is the smallest next part,
    # and a last part too far above 0 breaks the rule where it stands
    mod = 2 * c.d + 1
    alt = (c.d + 2) % mod

    def residues_and_gaps(parts: tuple[int, ...]) -> int:
        low = i = 0
        for x in parts:
            if x < low:
                return i
            r = x % mod
            if r == 1:
                low = x - mod + 1
            elif r == alt:
                low = x - mod
            else:
                return i
            i += 1
        return i if low <= 0 else i - 1

    return residues_and_gaps


class WordAutomaton:
    """A deterministic automaton on the boundary word after its leading E;
    each N closes a part equal to the E's so far.  ``on_e[s]``/``on_n[s]``:
    the state after an E/N from ``s``, or -1 where the class refuses it
    (every state accepts); ``after_*``/``before_*``: per state, the bitmask
    of the states a letter later/earlier; ``reach``: see ``counting._reach``."""

    def __init__(self, start: int, on_e: tuple[int, ...], on_n: tuple[int, ...]):
        self.start, self.on_e, self.on_n, self.reach = start, on_e, on_n, ()
        self.after_e, self.after_n = (tuple(1 << t if t >= 0 else 0 for t in on) for on in (on_e, on_n))
        self.before_e, self.before_n = (
            tuple(sum(1 << s for s, t in enumerate(on) if t == u) for u in range(len(on))) for on in (on_e, on_n))


@lru_cache(maxsize=None)
def _automaton_of(c: ConstraintClass) -> WordAutomaton:
    """The minimal word automaton of class ``c``: (g + 1) m states for the
    rule (g, m), which is d + 1 for ``ddistinct:d`` and ``modone:d`` and
    one for ``any``, and 2d + 2 for ``gclass:d``."""
    if c.rule is not None:
        # state k m + e: k = the E's since the last N, capped at g, and e = the
        # E count mod m; an N needs k = g and e = 1 mod m, and resets k
        g, m = c.rule
        states = range((g + 1) * m)
        on_e = tuple(min(s // m + 1, g) * m + (s + 1) % m for s in states)
        on_n = tuple(s % m if s // m == g and s % m == 1 % m else -1 for s in states)
        return WordAutomaton(g * m + 1 % m, on_e, on_n)
    d = c.d
    # residue-and-gap, residues mod 2d + 1: s = the E's since the last N, plus d if that
    # part (or the start) is 1; an N makes a part d + 2 at s = 0, 2d + 1 and 1 at s = d.
    top, states = 2 * d + 1, range(2 * d + 2)
    on_n = tuple(d if s == d else 0 if s in (0, top) else -1 for s in states)
    return WordAutomaton(d, tuple(s + 1 if s < top else -1 for s in states), on_n)


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
    # column heights of a diagram: positive (column j < parts[0] has row 0)
    # and weakly decreasing (a cell's left neighbour is in the diagram)
    return _unchecked(tuple(out))


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
