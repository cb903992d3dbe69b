import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from hookcomb import (
    DISTINCT,
    EmptyPartition,
    NonPositivePart,
    NotWeaklyDecreasing,
    ODD,
    Partition,
    UNRESTRICTED,
    conjugate,
    d_distinct,
    enumerate_by_perimeter,
    enumerate_by_size,
    g_class,
    hook_lengths,
    make_partition,
    mod_one,
    rank,
)
from hookcomb.identities import _all_classes
from hookcomb.series import gf_of_class
from hookcomb.partitions import ConstraintClass, _validate_parts, parts_are_member


def all_partitions_upto(max_size, distinct_only=False):
    return list(enumerate_by_size(max_size, distinct_only))


# ---------------------------------------------------------------------------
# construction


def test_make_partition_basic():
    p = make_partition([2, 2, 1])
    assert p.parts == (2, 2, 1)
    assert p.size == 5
    assert p.length == 3
    assert p.perimeter == 4


def test_make_partition_singleton():
    p = make_partition([1])
    assert p.perimeter == 1
    assert p.size == 1


def test_make_partition_not_decreasing():
    with pytest.raises(NotWeaklyDecreasing) as exc:
        make_partition([5, 6])
    assert exc.value.index == 1


def test_make_partition_empty():
    with pytest.raises(EmptyPartition):
        make_partition([])


@pytest.mark.parametrize("parts,index", [([0], 0), ([3, 0], 1), ([2, -1, 1], 1)])
def test_make_partition_nonpositive(parts, index):
    with pytest.raises(NonPositivePart) as exc:
        make_partition(parts)
    assert exc.value.index == index


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=10))
def test_sorted_input_always_valid(values):
    parts = tuple(sorted(values, reverse=True))
    p = make_partition(parts)
    assert p.perimeter == parts[0] + len(parts) - 1


@given(st.lists(st.integers(min_value=-3, max_value=8), min_size=0, max_size=6))
def test_validation_matches_manual_check(values):
    ok = bool(values) and all(v >= 1 for v in values) and all(
        values[i] >= values[i + 1] for i in range(len(values) - 1)
    )
    if ok:
        make_partition(values)
    else:
        with pytest.raises((EmptyPartition, NonPositivePart, NotWeaklyDecreasing)):
            make_partition(values)


def test_partition_is_slotted_and_frozen():
    p = make_partition([3, 1])
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.parts = (4,)
    assert p.parts == (3, 1)


def test_direct_construction_still_validates():
    with pytest.raises(NotWeaklyDecreasing) as exc:
        Partition((1, 2))
    assert exc.value.index == 1


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_partition_pickles_round_trip(protocol):
    for p in (make_partition([1]), make_partition([5, 3, 3, 1])):
        clone = pickle.loads(pickle.dumps(p, protocol=protocol))
        assert type(clone) is Partition
        assert clone == p and hash(clone) == hash(p)
        assert clone.parts == p.parts


def test_partition_copy_asdict_and_replace():
    p = make_partition([4, 2, 2])
    clone = copy.deepcopy(p)
    assert clone == p and clone is not p
    assert dataclasses.asdict(p) == {"parts": (4, 2, 2)}
    assert dataclasses.replace(p, parts=(5, 1)) == make_partition([5, 1])
    with pytest.raises(NotWeaklyDecreasing):
        dataclasses.replace(p, parts=(1, 5))


# ---------------------------------------------------------------------------
# outputs built by the library skip validation: check they are valid anyway


def assert_valid_by_construction(p):
    _validate_parts(p.parts)  # raises on an invalid tuple
    assert type(p) is Partition and type(p.parts) is tuple
    checked = make_partition(p.parts)
    assert p == checked and hash(p) == hash(checked)


@pytest.mark.parametrize("c", _all_classes(5), ids=str)
def test_enumerate_by_perimeter_outputs_are_valid(c):
    for n in range(1, 13):
        for p in enumerate_by_perimeter(n, c):
            assert_valid_by_construction(p)


@pytest.mark.parametrize("distinct_only", [False, True])
def test_enumerate_by_size_outputs_are_valid(distinct_only):
    for p in enumerate_by_size(14, distinct_only):
        assert_valid_by_construction(p)


def test_conjugate_outputs_are_valid():
    for p in all_partitions_by_perimeter_upto(10):
        assert_valid_by_construction(conjugate(p))


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12))
def test_conjugate_property(values):
    p = make_partition(sorted(values, reverse=True))
    q = conjugate(p)
    assert_valid_by_construction(q)
    # independent oracle: column j holds the rows longer than j
    assert q.parts == tuple(sum(x > j for x in p.parts) for j in range(p.parts[0]))
    assert conjugate(q) == p
    assert (q.size, q.perimeter, rank(q)) == (p.size, p.perimeter, -rank(p))


# ---------------------------------------------------------------------------
# statistics


def test_hook_lengths_examples():
    assert hook_lengths(make_partition([2, 2, 1])) == [[4, 2], [3, 1], [1]]
    assert hook_lengths(make_partition([1])) == [[1]]
    assert hook_lengths(make_partition([3, 1])) == [[4, 2, 1], [1]]


def hooks_by_cell_walk(parts):
    # independent oracle: count arm and leg cells one by one
    cells = {(i, j) for i, row in enumerate(parts) for j in range(row)}
    table = []
    for i, row in enumerate(parts):
        table.append(
            [
                1
                + sum((i, jj) in cells for jj in range(j + 1, row))
                + sum((ii, j) in cells for ii in range(i + 1, len(parts)))
                for j in range(row)
            ]
        )
    return table


def test_hook_lengths_against_cell_walk():
    for p in all_partitions_upto(12):
        assert hook_lengths(p) == hooks_by_cell_walk(p.parts)


def test_hook_max_is_perimeter_at_corner():
    for p in all_partitions_upto(20):
        table = hook_lengths(p)
        assert table[0][0] == p.perimeter
        assert max(max(row) for row in table) == p.perimeter


def test_rank_examples():
    assert rank(make_partition([5, 3, 1])) == 2
    assert rank(make_partition([1, 1, 1])) == -2
    assert rank(make_partition([5, 4, 2])) == 2


def test_conjugate_examples():
    assert conjugate(make_partition([2, 2, 1])).parts == (3, 2)
    assert conjugate(make_partition([1])).parts == (1,)
    q = conjugate(make_partition([4, 3]))
    assert q.parts == (2, 2, 2, 1)
    assert q.perimeter == make_partition([4, 3]).perimeter == 5


def test_conjugate_involution_preserves_stats():
    for p in all_partitions_upto(20):
        q = conjugate(p)
        assert conjugate(q) == p
        assert q.size == p.size
        assert q.perimeter == p.perimeter


# ---------------------------------------------------------------------------
# class membership


def test_parts_are_member_examples():
    assert parts_are_member((6, 4), g_class(2))
    assert parts_are_member((5, 3, 1), d_distinct(2))
    assert not parts_are_member((4, 4, 1), DISTINCT)
    assert not parts_are_member((7,), g_class(2))  # 7 == 2 mod 5


def test_unrestricted_accepts_everything():
    for p in all_partitions_upto(10):
        assert parts_are_member(p.parts, UNRESTRICTED)


def test_distinct_equals_ddistinct_one():
    for p in all_partitions_upto(20):
        assert parts_are_member(p.parts, DISTINCT) == parts_are_member(p.parts, d_distinct(1))
        assert parts_are_member(p.parts, ODD) == parts_are_member(p.parts, mod_one(1))


def gclass_definition_oracle(parts, d):
    # straight-from-definition recheck, written independently of the library
    mod = 2 * d + 1
    allowed = {1 % mod, (d + 2) % mod}
    if any(x % mod not in allowed for x in parts):
        return False
    extended = list(parts) + [0]
    for i in range(len(parts)):
        gap = extended[i] - extended[i + 1]
        strict = extended[i] % mod == 1
        if strict and not gap < mod:
            return False
        if not strict and not gap <= mod:
            return False
    return True


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gclass_against_definition_oracle(d):
    for p in all_partitions_upto(14):
        assert parts_are_member(p.parts, g_class(d)) == gclass_definition_oracle(p.parts, d)


# straight-from-definition rechecks for the other classes, written
# independently of the library


def distinct_definition_oracle(parts):
    return len(set(parts)) == len(parts)


def odd_definition_oracle(parts):
    return all(x % 2 == 1 for x in parts)


def ddistinct_definition_oracle(parts, d):
    return all(a - b >= d for a, b in zip(parts, parts[1:]))


def modone_definition_oracle(parts, d):
    return all(x % (d + 1) == 1 for x in parts)


def all_partitions_by_perimeter_upto(max_n):
    return [p for n in range(1, max_n + 1) for p in enumerate_by_perimeter(n)]


def test_distinct_and_odd_against_definition_oracles():
    for p in all_partitions_by_perimeter_upto(14):
        assert parts_are_member(p.parts, DISTINCT) == distinct_definition_oracle(p.parts)
        assert parts_are_member(p.parts, ODD) == odd_definition_oracle(p.parts)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gap_classes_against_definition_oracles(d):
    for p in all_partitions_by_perimeter_upto(14):
        assert parts_are_member(p.parts, d_distinct(d)) == ddistinct_definition_oracle(p.parts, d)
        assert parts_are_member(p.parts, mod_one(d)) == modone_definition_oracle(p.parts, d)
        assert parts_are_member(p.parts, g_class(d)) == gclass_definition_oracle(p.parts, d)


def test_rule_resolves_the_aliases():
    assert UNRESTRICTED.rule == (0, 1)
    assert DISTINCT.rule == d_distinct(1).rule == (1, 1)
    assert ODD.rule == mod_one(1).rule == (0, 2)
    assert d_distinct(4).rule == (4, 1)
    assert mod_one(4).rule == (0, 5)
    assert g_class(4).rule is None
    with pytest.raises(AttributeError):
        DISTINCT.rule = (2, 1)


@pytest.mark.parametrize("alias, c", [(DISTINCT, d_distinct(1)), (ODD, mod_one(1))], ids=str)
def test_d_one_aliases_are_one_class(alias, c):
    a, b = alias.automaton, c.automaton
    assert (a.start, a.on_e, a.on_n) == (b.start, b.on_e, b.on_n)
    assert gf_of_class(alias) == gf_of_class(c)
    for p in all_partitions_by_perimeter_upto(12):
        assert parts_are_member(p.parts, alias) == parts_are_member(p.parts, c)


def test_first_break_names_the_part_that_breaks_the_rule():
    gc = g_class(1)
    assert gc.first_break((4,)) == 0  # only the gap to the trailing 0 fails
    assert gc.first_break((4, 3)) == 2  # a member
    assert gc.first_break((5, 3)) == 0  # 5 == 2 mod 3
    assert d_distinct(2).first_break((8, 5, 4)) == 2
    assert mod_one(2).first_break((7, 4, 2, 1)) == 2
    assert UNRESTRICTED.first_break((3, 3, 3)) == 3


def part_breaks_definition(parts, i, c):
    # does part i break the definition of class c?  It reads parts[i - 1]
    # and parts[i], and for gclass at the last part also the trailing 0
    x = parts[i]
    gap = parts[i - 1] - x if i else None
    if c.kind == "any":
        return False
    if c.kind == "distinct":
        return gap == 0
    if c.kind == "odd":
        return x % 2 == 0
    if c.kind == "ddistinct":
        return gap is not None and gap < c.d
    if c.kind == "modone":
        return x % (c.d + 1) != 1
    mod = 2 * c.d + 1

    def too_far(above, below):
        return above - below >= mod if above % mod == 1 else above - below > mod

    return (
        x % mod not in (1, (c.d + 2) % mod)
        or (gap is not None and too_far(parts[i - 1], x))
        or (i == len(parts) - 1 and too_far(x, 0))
    )


@pytest.mark.parametrize("c", _all_classes(5), ids=str)
def test_first_break_is_the_first_part_that_breaks_the_definition(c):
    # the brute-force walk skips every partition that shares the prefix up
    # to the index first_break returns, so the index itself must be exact
    for n in range(1, 13):
        for p in enumerate_by_perimeter(n):
            parts = p.parts
            want = next((i for i in range(len(parts)) if part_breaks_definition(parts, i, c)), len(parts))
            assert c.first_break(parts) == want, parts


def moore_classes(a):
    # Moore refinement over the live states and a dead sink (index -1):
    # every live state accepts, the sink does not and loops on both letters
    states = list(range(len(a.on_e))) + [-1]
    block = {s: s >= 0 for s in states}
    while True:
        key = {s: (block[s], block[a.on_e[s] if s >= 0 else -1], block[a.on_n[s] if s >= 0 else -1]) for s in states}
        if len(set(key.values())) == len(set(block.values())):
            return len(set(block.values()))
        block = key


@pytest.mark.parametrize("c", _all_classes(5), ids=str)
def test_every_automaton_is_minimal(c):
    a = c.automaton
    d = c.d or 1  # distinct and odd are the classes at d = 1
    want = 1 if c == UNRESTRICTED else 2 * d + 2 if c.kind == "gclass" else d + 1
    assert len(a.on_e) == len(a.on_n) == want
    seen, todo = {a.start}, [a.start]
    while todo:
        s = todo.pop()
        for t in (a.on_e[s], a.on_n[s]):
            if t >= 0 and t not in seen:
                seen.add(t)
                todo.append(t)
    assert seen == set(range(want))  # every state is reachable
    assert moore_classes(a) == want + 1  # no two states, the sink included, merge


def test_member_test_is_bound_lazily_and_pickles():
    import pickle

    c = ConstraintClass("gclass", 3)
    assert "first_break" not in vars(c)  # building a class binds nothing
    assert parts_are_member((8, 5), c)
    assert "first_break" in vars(c)
    clone = pickle.loads(pickle.dumps(c))
    assert clone == c and hash(clone) == hash(c)
    assert parts_are_member((8, 5), clone) and not parts_are_member((8, 1), clone)


def test_constraint_class_validation():
    with pytest.raises(ValueError):
        ConstraintClass("ddistinct")  # missing d
    with pytest.raises(ValueError):
        ConstraintClass("gclass", 0)
    with pytest.raises(ValueError):
        ConstraintClass("distinct", 2)
    with pytest.raises(ValueError):
        ConstraintClass("weird")
    assert str(d_distinct(3)) == "ddistinct:3"
    assert str(DISTINCT) == "distinct"


@pytest.mark.parametrize("kind", ["ddistinct", "modone", "gclass"])
def test_constraint_class_rejects_bool_parameter(kind):
    # True == 1 and hashes alike, but would print as "ddistinct:True"
    for d in (True, False):
        with pytest.raises(ValueError):
            ConstraintClass(kind, d)
