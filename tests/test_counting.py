import tracemalloc
from collections import Counter, deque

import pytest

from hookcomb import (
    DISTINCT,
    LargestPart,
    NumParts,
    ODD,
    Rank,
    UNRESTRICTED,
    count_by_perimeter,
    count_parity_split,
    count_refined,
    d_distinct,
    enumerate_by_perimeter,
    excess_e,
    fibonacci,
    g_class,
    mod_one,
    run_checks,
)
from hookcomb import counting
from hookcomb.counting import partitions_of_size, parts_by_perimeter
from hookcomb.identities import _all_classes, _parity_split_binomials
from hookcomb.partitions import parts_are_member
from hookcomb.profile import parts_from_word_bits

ALL_CLASSES = [UNRESTRICTED, DISTINCT, ODD] + [
    f(d) for d in (1, 2, 3, 4, 5) for f in (d_distinct, mod_one, g_class)
]


def brute_force_members(n, c):
    """Independent route: filter every boundary word of perimeter n with the
    membership predicate (sorted reverse-lexicographically)."""
    return [p for p in parts_by_perimeter(n) if parts_are_member(p, c)]


def windowed_count(n, c):
    """Independent route: 2^(n-1) for ``any``; otherwise the gap recurrence
    c(n) = c(n-1) + c(n-d-1) with c(1) = ... = c(d+1) = 1 (d = 1 for
    ``distinct`` and ``odd``), keeping the last d + 1 values."""
    if c.kind == "any":
        return 1 << (n - 1)
    d = c.d or 1
    window = deque([1] * (d + 1), maxlen=d + 1)
    for _ in range(d + 2, n + 1):
        window.append(window[-1] + window[0])
    return window[-1]


# n <= 200 covers the switch from the walk at n = 2s for every class and the
# short bit patterns of n - 1; then each power of two and its neighbours
PERIMETERS = sorted({*range(1, 201), *(2**k + e for k in range(1, 15) for e in (-1, 0, 1)), 2999, 3000})


def partitions_by_perimeter_oracle(n):
    """Independent route: pick largest part a and length l with a + l = n + 1,
    then fill in the l - 1 remaining parts from {1..a} weakly decreasing."""

    def tails(count, cap):
        if count == 0:
            yield ()
            return
        for first in range(cap, 0, -1):
            for rest in tails(count - 1, first):
                yield (first,) + rest

    out = []
    for a in range(1, n + 1):
        length = n + 1 - a
        for tail in tails(length - 1, a):
            out.append((a,) + tail)
    return out


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_matches_independent_oracle():
    for n in range(1, 13):
        mine = [p.parts for p in enumerate_by_perimeter(n)]
        assert sorted(mine) == sorted(partitions_by_perimeter_oracle(n))
        assert mine == sorted(mine, reverse=True)  # deterministic order


def test_enumeration_examples():
    assert [p.parts for p in enumerate_by_perimeter(1)] == [(1,)]
    got = [p.parts for p in enumerate_by_perimeter(7, d_distinct(2))]
    assert got == [(7,), (6, 4), (6, 3), (6, 2), (6, 1), (5, 3, 1)]
    table1 = [p.parts for p in enumerate_by_perimeter(9, DISTINCT) if len(p) == 4]
    assert len(table1) == 10
    assert table1[0] == (6, 5, 4, 3)
    assert table1[-1] == (6, 3, 2, 1)


def test_enumeration_rejects_bad_perimeter():
    with pytest.raises(ValueError):
        list(enumerate_by_perimeter(0))


@pytest.mark.parametrize("c", ALL_CLASSES, ids=str)
def test_count_equals_stream_length(c):
    for n in range(1, 15):
        assert count_by_perimeter(n, c) == sum(1 for _ in enumerate_by_perimeter(n, c))


@pytest.mark.parametrize("c", _all_classes(), ids=str)
def test_enumeration_matches_brute_force_filter(c):
    for n in range(1, 15):
        assert [p.parts for p in enumerate_by_perimeter(n, c)] == brute_force_members(n, c), n


def decoded_table(n):
    """Independent route: decode every boundary word of perimeter n, then
    sort reverse-lexicographically."""
    words = [parts_from_word_bits(n + 1, (bits << 1) | (1 << n)) for bits in range(1 << (n - 1))]
    return tuple(sorted(words, reverse=True))


def test_grown_table_matches_decoded_words():
    for n in range(1, 17):
        assert parts_by_perimeter(n) == decoded_table(n), n


# ---------------------------------------------------------------------------
# closed-form counts


def test_count_examples():
    assert count_by_perimeter(3, UNRESTRICTED) == 4
    assert count_by_perimeter(5, DISTINCT) == 5
    assert count_by_perimeter(5, ODD) == 5
    assert count_by_perimeter(7, g_class(2)) == 6


def test_count_powers_of_two():
    for n in range(1, 21):
        assert count_by_perimeter(n, UNRESTRICTED) == 2 ** (n - 1)


def test_gap_recurrence_values():
    # d=2: 1, 1, 1, 2, 3, 4, 6 at perimeters 1..7
    assert [count_by_perimeter(n, d_distinct(2)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 4, 6]
    # d=3 at perimeter 9: c(n) = c(n-1) + c(n-4)
    assert count_by_perimeter(9, d_distinct(3)) == 7


def test_gap_count_at_large_perimeter():
    assert count_by_perimeter(10**5, d_distinct(1)) == fibonacci(10**5)


def test_fibonacci_convention():
    assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fibonacci(9) == 34
    assert fibonacci(12) == 144
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_fibonacci_against_gap_recurrence():
    # windowed_count(n, DISTINCT) runs the Fibonacci recurrence one step at a
    # time; test_gap_count_at_large_perimeter compares the two at n = 10^5
    for n in range(1, 2001):
        assert fibonacci(n) == windowed_count(n, DISTINCT)


@pytest.mark.parametrize("c", _all_classes(), ids=str)
def test_counts_at_large_perimeter_match_windowed_recurrence(c):
    for n in PERIMETERS:
        assert count_by_perimeter(n, c) == windowed_count(n, c), n


@pytest.mark.parametrize("c", _all_classes(), ids=str)
def test_counts_to_twice_the_state_count_read_the_walk(c, monkeypatch):
    def refuse(*args):
        raise AssertionError("no recurrence is needed for n <= 2s")

    monkeypatch.setattr(counting, "_rational", refuse)
    for n in range(1, 2 * len(c.automaton.on_e) + 1):
        members = parts_by_perimeter(n, c)
        assert counting._term(c, n) == len(members), n
        assert counting._term(c, n, -1) == sum((-1) ** len(p) for p in members), n


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(enumerate_by_perimeter(True)),
        lambda: list(enumerate_by_perimeter(3.0)),
        lambda: parts_by_perimeter(True),
        lambda: parts_by_perimeter(3.0),
        lambda: count_by_perimeter(True, DISTINCT),
        lambda: count_by_perimeter(3.0, DISTINCT),
        lambda: count_parity_split(True),
        lambda: count_parity_split(3.0),
        lambda: count_refined(True, NumParts(1), DISTINCT),
        lambda: count_refined(4.0, NumParts(2), DISTINCT),
        lambda: count_refined(4, NumParts(2.0), DISTINCT),
        lambda: count_refined(4, LargestPart(True), DISTINCT),
        lambda: fibonacci(True),
        lambda: fibonacci(3.0),
        lambda: excess_e(True),
        lambda: excess_e(3.0),
    ],
)
def test_counting_entry_points_refuse_bools_and_floats(call):
    with pytest.raises(TypeError, match="must be an int"):
        call()


@pytest.mark.parametrize("c", [DISTINCT, ODD, d_distinct(1), mod_one(1)], ids=str)
def test_fibonacci_classes_at_perimeter_1e5(c):
    assert count_by_perimeter(10**5, c) == fibonacci(10**5)


@pytest.mark.parametrize("c", [DISTINCT, d_distinct(1)], ids=str)
def test_fibonacci_classes_at_perimeter_1e6(c):
    assert count_by_perimeter(10**6, c) == fibonacci(10**6)


def test_parity_split_at_perimeter_1e5_in_bounded_memory():
    n = 10**5
    tracemalloc.start()
    try:
        even, odd = count_parity_split(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total, excess = fibonacci(n), excess_e(n)
    assert (even, odd) == ((total + excess) // 2, (total - excess) // 2)
    assert peak < 2**20, peak


def test_fibonacci_addition_formula():
    for m in range(0, 21):
        for n in range(1, 21):
            assert fibonacci(m + n) == fibonacci(m + 1) * fibonacci(n) + fibonacci(m) * fibonacci(n - 1)


def test_fibonacci_divisibility():
    for m in range(1, 41):
        for n in range(m, 41, m):
            assert fibonacci(n) % fibonacci(m) == 0


# ---------------------------------------------------------------------------
# refined counts


def test_count_refined_examples():
    assert count_refined(9, NumParts(4), DISTINCT) == 10
    assert count_refined(8, LargestPart(6), DISTINCT) == 10
    assert count_refined(7, Rank(2), DISTINCT) == 6


def test_count_refined_matches_enumeration():
    for n in range(1, 13):
        for c in (UNRESTRICTED, DISTINCT, ODD, d_distinct(2), mod_one(2)):
            for key_type, stat in (
                (LargestPart, lambda p: p.parts[0]),
                (NumParts, lambda p: p.length),
                (Rank, lambda p: p.parts[0] - p.length),
            ):
                from collections import Counter

                hist = Counter(stat(p) for p in enumerate_by_perimeter(n, c))
                for v in range(-2, n + 2):
                    assert count_refined(n, key_type(v), c) == hist.get(v, 0), (n, c, key_type, v)


@pytest.mark.parametrize("c", _all_classes(), ids=str)
def test_count_refined_matches_brute_force_histogram(c):
    stats = (
        (LargestPart, lambda parts: parts[0]),
        (NumParts, len),
        (Rank, lambda parts: parts[0] - len(parts)),
    )
    for n in range(1, 15):
        members = brute_force_members(n, c)
        for key_type, stat in stats:
            hist = Counter(stat(parts) for parts in members)
            for v in range(-2, n + 2):
                assert count_refined(n, key_type(v), c) == hist.get(v, 0), (n, key_type, v)


def test_count_refined_row_sums():
    for n in range(1, 15):
        for c in (UNRESTRICTED, DISTINCT, ODD):
            total = sum(count_refined(n, LargestPart(m), c) for m in range(1, n + 1))
            assert total == count_by_perimeter(n, c)


@pytest.mark.parametrize("c", _all_classes(), ids=str)
def test_row_holds_the_counts_by_largest_part(c):
    for n in range(1, 15):
        tally = Counter(parts[0] for parts in parts_by_perimeter(n, c))
        row = counting._row(n, c)
        assert row == sum(tally[a] << n * (a - 1) for a in range(1, n + 1)), n
        entries = [counting._digit(row, n, a) for a in range(1, n + 1)]
        assert entries == [tally[a] for a in range(1, n + 1)], n
        assert sum(entries) == count_by_perimeter(n, c), n


def test_refined_counts_walk_once_per_row(monkeypatch):
    real, walks = counting._walk, []

    def counted(aut, e_shift, n_weight):
        walks.append(e_shift)
        return real(aut, e_shift, n_weight)

    monkeypatch.setattr(counting, "_walk", counted)
    (report,) = run_checks("refinements", max_n=14)
    assert report.passed
    assert walks == list(range(1, 15))  # one row per perimeter, each E weighing 2^n
    walks.clear()
    assert count_refined(12, NumParts(4), DISTINCT) == 56  # binom(8, 3)
    assert walks == [12]
    walks.clear()
    assert count_refined(12, NumParts(0), DISTINCT) == 0
    assert walks == []


def test_count_refined_out_of_range_is_zero():
    assert count_refined(9, NumParts(0), DISTINCT) == 0
    assert count_refined(9, NumParts(40), DISTINCT) == 0
    assert count_refined(9, Rank(-1), DISTINCT) == 0


def test_count_refined_rejects_bad_key():
    with pytest.raises(ValueError, match="^unsupported refinement key 'largest'$"):
        count_refined(5, "largest", DISTINCT)


# ---------------------------------------------------------------------------
# parity split and excess


def test_parity_split_examples():
    assert count_parity_split(1) == (0, 1)
    assert count_parity_split(3) == (1, 1)
    assert count_parity_split(5) == (3, 2)


def test_parity_split_sums_to_fibonacci():
    for n in PERIMETERS:
        even, odd = count_parity_split(n)
        assert even + odd == fibonacci(n), n
        assert even - odd == excess_e(n), n
        if n <= 200:
            assert (even, odd) == _parity_split_binomials(n), n


def test_excess_examples():
    assert excess_e(1) == -1
    assert excess_e(4) == 1
    assert excess_e(12) == 0
    assert [excess_e(n) for n in range(1, 7)] == [-1, -1, 0, 1, 1, 0]


def test_excess_antiperiod():
    for n in range(4, 40):
        assert excess_e(n) == -excess_e(n - 3)


# ---------------------------------------------------------------------------
# size-graded enumeration


def test_partitions_of_size_examples():
    assert partitions_of_size(0) == ((),)
    assert [partitions_of_size(n, distinct=True) for n in (1, 2, 3)] == [((1,),), ((2,),), ((3,), (2, 1))]
    assert partitions_of_size(5) == ((5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))
    assert len(set(partitions_of_size(8))) == len(partitions_of_size(8)) == 22


def test_size_enumeration_respects_distinct_flag():
    for n in range(1, 13):
        distinct = partitions_of_size(n, distinct=True)
        assert all(parts_are_member(parts, DISTINCT) for parts in distinct)
        assert distinct == tuple(parts for parts in partitions_of_size(n) if parts_are_member(parts, DISTINCT))


@pytest.mark.parametrize("value", [True, 2.0], ids=repr)
def test_partitions_of_size_refuses_bools_and_floats(value):
    with pytest.raises(TypeError, match="^size must be an int"):
        partitions_of_size(value)
