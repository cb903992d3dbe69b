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
    is_member,
    make_partition,
    mod_one,
    rank,
)
from hookcomb.identities import _all_classes
from hookcomb.series import gf_of_class
from hookcomb.partitions import ConstraintClass, _validate_parts


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


def test_is_member_examples():
    assert is_member(make_partition([6, 4]), g_class(2))
    assert is_member(make_partition([5, 3, 1]), d_distinct(2))
    assert not is_member(make_partition([4, 4, 1]), DISTINCT)
    assert not is_member(make_partition([7]), g_class(2))  # 7 == 2 mod 5


def test_unrestricted_accepts_everything():
    for p in all_partitions_upto(10):
        assert is_member(p, UNRESTRICTED)


def test_distinct_equals_ddistinct_one():
    for p in all_partitions_upto(20):
        assert is_member(p, DISTINCT) == is_member(p, d_distinct(1))
        assert is_member(p, ODD) == is_member(p, mod_one(1))


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
        assert is_member(p, g_class(d)) == gclass_definition_oracle(p.parts, d)


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
        assert is_member(p, DISTINCT) == distinct_definition_oracle(p.parts)
        assert is_member(p, ODD) == odd_definition_oracle(p.parts)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gap_classes_against_definition_oracles(d):
    for p in all_partitions_by_perimeter_upto(14):
        assert is_member(p, d_distinct(d)) == ddistinct_definition_oracle(p.parts, d)
        assert is_member(p, mod_one(d)) == modone_definition_oracle(p.parts, d)
        assert is_member(p, g_class(d)) == gclass_definition_oracle(p.parts, d)


def test_family_resolves_the_aliases():
    assert UNRESTRICTED.family == ("gap", 0)
    assert DISTINCT.family == d_distinct(1).family == ("gap", 1)
    assert ODD.family == mod_one(1).family == ("residue", 1)
    assert g_class(4).family == ("gclass", 4)
    with pytest.raises(AttributeError):
        DISTINCT.family = ("gap", 2)


@pytest.mark.parametrize("alias, c", [(DISTINCT, d_distinct(1)), (ODD, mod_one(1))], ids=str)
def test_d_one_aliases_are_one_class(alias, c):
    a, b = alias.automaton, c.automaton
    assert (a.start, a.on_e, a.on_n) == (b.start, b.on_e, b.on_n)
    assert gf_of_class(alias) == gf_of_class(c)
    for p in all_partitions_by_perimeter_upto(12):
        assert is_member(p, alias) == is_member(p, c)


def test_member_test_is_bound_lazily_and_pickles():
    import pickle

    c = ConstraintClass("gclass", 3)
    assert "member" not in vars(c)  # building a class binds nothing
    assert is_member(make_partition([8, 5]), c)
    assert "member" in vars(c)
    clone = pickle.loads(pickle.dumps(c))
    assert clone == c and hash(clone) == hash(c)
    assert clone.member((8, 5)) and not clone.member((8, 1))


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
