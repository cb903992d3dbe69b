import json

import pytest

from hookcomb import (
    CHECKS,
    TheoremReport,
    count_by_perimeter,
    count_parity_split,
    d_distinct,
    franklin,
    from_profile,
    make_partition,
    run_checks,
)
from hookcomb import counting, identities
from hookcomb.counting import LargestPart, NumParts, Rank, count_refined, partitions_of_size
from hookcomb.identities import (
    _franklin_parts,
    _series_andrews_franklin,
    _series_andrews_lhs,
    _series_andrews_middle,
    _series_andrews_rhs,
    _series_refined_lhs,
    _series_refined_rhs,
    gclass_by_block_grammar,
    regrade_limit,
    rogers_fine_sides,
)
from hookcomb.partitions import DISTINCT, ODD, UNRESTRICTED, g_class
from hookcomb.series import MultiPoly, RationalGF, expand, pochhammer


def one_report(check_id, **params):
    """The one report that ``run_checks`` gives for ``check_id`` at ``params``."""
    (report,) = run_checks(check_id, **params)
    return report


# ---------------------------------------------------------------------------
# Franklin's involution


def test_franklin_moves():
    moved = franklin(make_partition([5, 3]))
    assert moved == make_partition([4, 3, 1])
    assert moved.size == 8 and moved.perimeter == 6
    assert franklin(moved) == make_partition([5, 3])


def test_franklin_fixed_points():
    assert franklin(make_partition([4, 3])) is None  # size 7
    assert franklin(make_partition([1])) is None  # size 1
    assert franklin(make_partition([2])) is None  # size 2
    assert franklin(make_partition([6, 5, 4])) is None  # size 15


def test_franklin_parts_agrees_with_franklin():
    for n in range(1, 41):
        for parts in partitions_of_size(n, distinct=True):
            image = franklin(make_partition(parts))
            assert _franklin_parts(parts) == (None if image is None else image.parts), parts


@pytest.mark.parametrize(
    "broken, reason",
    [
        (lambda parts: (2, 2) if parts == (3,) else _franklin_parts(parts), "image is not a distinct-part partition"),
        (lambda parts: (2, 1, 0) if parts == (3,) else _franklin_parts(parts), "image is not a distinct-part partition"),
        (lambda parts: (3, 1) if parts == (3,) else _franklin_parts(parts), "size changed"),
    ],
)
def test_verify_franklin_reports_a_bad_image(monkeypatch, broken, reason):
    monkeypatch.setattr(identities, "_franklin_parts", broken)
    report = one_report("franklin", max_size=10)
    assert report.status == "fail"
    assert report.counterexample["reason"] == reason
    assert report.counterexample["partition"] == [3]


def test_franklin_rejects_repeats():
    with pytest.raises(ValueError, match=r"^Partition\(2, 2\) does not have distinct parts$"):
        franklin(make_partition([2, 2]))


def test_franklin_properties_exhaustive():
    for p in (make_partition(parts) for n in range(1, 26) for parts in partitions_of_size(n, distinct=True)):
        image = franklin(p)
        if image is None:
            continue
        assert image.size == p.size
        assert image.perimeter == p.perimeter
        assert (image.length - p.length) % 2 == 1
        assert franklin(image) == p


# ---------------------------------------------------------------------------
# verification checks at reduced depth


def report_id(r):
    # a list-valued parameter, such as the classes of gf-coefficients, would crowd out the rest
    params = {k: v for k, v in r.params.items() if not isinstance(v, list)}
    return f"{r.check_id}-{json.dumps(params, sort_keys=True)[:40]}"


@pytest.mark.parametrize(
    "report",
    [
        one_report("euler-analogue", max_n=18, enum_limit=12),
        one_report("powers-of-two", max_n=12),
        one_report("refinements", max_n=11),
        one_report("pentagonal-analogue", max_n=20, enum_limit=12),
        one_report("d-chain", d=1, max_n=12),
        one_report("d-chain", d=2, max_n=12),
        one_report("d-chain", d=4, max_n=12),
        one_report("gf-coefficients", qbound=9),
        one_report("gf-coefficients", qbound=1),
        one_report("franklin", max_size=25),
        one_report("andrews-identity", qbound=12),
        one_report("refined-identity", qbound=12),
        one_report("rogers-fine", qbound=8),
        one_report("congruences", max_n=36, enum_limit=12),
        one_report("fibonacci", max_add=20, max_div=40),
    ],
    ids=report_id,
)
def test_checks_pass(report):
    assert report.passed, report.counterexample


def test_d_chain_rejects_bad_d():
    with pytest.raises(ValueError, match="^d must be at least 1, got 0$"):
        run_checks("d-chain", d=0)


def test_d_chain_table_counts():
    assert [count_by_perimeter(n, d_distinct(2)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 4, 6]


def test_block_grammar_generation_matches_filter():
    from hookcomb.counting import parts_by_perimeter
    from hookcomb.partitions import parts_are_member

    for d in (1, 2, 3):
        for n in range(1, 11):
            generated = sorted(gclass_by_block_grammar(n, d))
            filtered = sorted(p for p in parts_by_perimeter(n) if parts_are_member(p, g_class(d)))
            assert generated == filtered  # as lists, so a partition spelled twice fails


def test_brute_filter_matches_the_membership_test():
    # the unfiltered walk is pinned by test_grown_table_matches_decoded_words
    from hookcomb.counting import parts_by_perimeter
    from hookcomb.identities import _all_classes
    from hookcomb.partitions import parts_are_member

    for n in range(1, 17):
        table = parts_by_perimeter(n)
        for c in _all_classes():
            assert parts_by_perimeter(n, c) == tuple(p for p in table if parts_are_member(p, c)), (n, str(c))


@pytest.mark.parametrize("n", [0, -2])
def test_brute_filter_refuses_a_perimeter_below_one(n):
    # unguarded, the walk would list the non-partition (n,) for several classes
    from hookcomb.counting import parts_by_perimeter
    from hookcomb.identities import _all_classes

    for c in _all_classes():
        with pytest.raises(ValueError, match=f"^perimeter must be at least 1, got {n}$"):
            parts_by_perimeter(n, c)


def test_brute_filter_tests_each_rejected_prefix_once():
    from hookcomb.counting import parts_by_perimeter
    from hookcomb.identities import _all_classes
    from hookcomb.partitions import ConstraintClass

    for c in _all_classes():
        if c.kind == "any":
            continue
        fresh = ConstraintClass(c.kind, c.d)  # its own binding, not the shared one's
        oracle, calls = fresh.first_break, 0

        def counted(parts):
            nonlocal calls
            calls += 1
            return oracle(parts)

        vars(fresh)["first_break"] = counted
        members = len(parts_by_perimeter(18, fresh))
        assert members == count_by_perimeter(18, c), str(c)
        assert calls < (1 << 17) // 10, (str(c), calls)


def test_d_chain_brute_force_holds_no_perimeter_table():
    # a table of every partition of perimeters 1-18 would peak near 31 MB;
    # the walk holds one partition and the members it keeps, about 1.4 MB.
    # A fresh interpreter, so that nothing other tests built is counted
    import subprocess
    import sys

    from conftest import subprocess_env

    code = (
        "import tracemalloc\n"
        "from hookcomb.identities import run_checks\n"
        "tracemalloc.start()\n"
        "(report,) = run_checks('d-chain', d=1, max_n=18)\n"
        "print(report.status, tracemalloc.get_traced_memory()[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=subprocess_env())
    status, peak = out.stdout.split()
    assert status == "pass"
    peak_mb = int(peak) / 2**20
    assert peak_mb < 8, f"d-chain at d=1, max_n=18 peaked at {peak_mb:.1f} MB"


def text_route_partition(initial_ns, trailing_ns, d):
    """The block spelling as E/N text, decoded through the word wrappers."""
    pieces = ["E", "N" * initial_ns]
    for i, j in enumerate(trailing_ns):
        head = "N" + "E" * d if i % 2 else "E" * (d + 1)  # type II at odd positions
        pieces.append(head + "N" * j)
    return from_profile("".join(pieces) + "N").parts


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_block_grammar_matches_text_route(d):
    from hookcomb.identities import _block_sequences

    for n in range(1, 15):
        expected = [
            text_route_partition(j0, trailing_ns, d)
            for j0 in range(n)
            for trailing_ns in _block_sequences(n - 1 - j0, d)
        ]
        assert gclass_by_block_grammar(n, d) == expected, (n, d)


@pytest.mark.parametrize(
    "damage, caught",
    [
        ("duplicate", {"partition": [5, 4, 2], "reason": "not below the entry before it"}),
        ("missing", {"route": "enumeration any", "got": 63}),
        ("not a partition", {"partition": [5, 2, 5], "reason": "not a partition of this perimeter"}),
        ("wrong perimeter", {"partition": [5, 4, 3, 1], "reason": "not a partition of this perimeter"}),
        ("out of order", {"partition": [5, 4, 3], "reason": "not below the entry before it"}),
        ("zero part", {"partition": [5, 4, 0], "reason": "not a partition of this perimeter"}),
        ("empty", {"partition": [], "reason": "not a partition of this perimeter"}),
    ],
    ids=["duplicate", "missing", "not a partition", "wrong perimeter", "out of order", "zero part", "empty"],
)
def test_powers_of_two_catches_a_damaged_table(damage, caught, monkeypatch):
    from hookcomb import identities
    from hookcomb.counting import parts_by_perimeter

    def damaged(n):
        table = list(parts_by_perimeter(n))
        if n == 7:
            i = table.index((5, 4, 3))
            if damage == "duplicate":
                table[i] = table[i + 1]
            elif damage == "missing":
                del table[i]
            elif damage == "not a partition":
                table[i] = (5, 2, 5)  # encodes to the word of (5, 4, 3)
            elif damage == "wrong perimeter":
                table[i] = (5, 4, 3, 1)  # perimeter 8, still between its neighbours
            elif damage == "zero part":
                table[i] = (5, 4, 0)  # first part + length - 1 is still 7
            elif damage == "empty":
                table[i] = ()
            else:
                table[i], table[i + 1] = table[i + 1], table[i]
        return tuple(table)

    monkeypatch.setattr(identities, "parts_by_perimeter", damaged)
    report = one_report("powers-of-two", max_n=9)
    assert not report.passed
    ce = report.counterexample
    assert {k: ce[k] for k in ("n", *caught)} == {"n": 7, **caught}


# ---------------------------------------------------------------------------
# negative controls: the library does not check itself, so a fault in it
# must make the report that covers the claim fail


def test_gf_coefficients_catches_an_off_by_q_division(monkeypatch):
    from hookcomb import series

    real = series._divide

    def off_by_q(num, den, qbound):
        return real(num, den, qbound) + series.MultiPoly.monomial(den.variables, 1, {"q": 1}, qbound)

    monkeypatch.setattr(series, "_divide", off_by_q)
    with monkeypatch.context() as distinct_only:
        distinct_only.setattr(identities, "_all_classes", lambda: [DISTINCT])
        ce = next(identities._scan_gf_coefficients(6))
    assert (ce["class"], ce["versus"]) == ("distinct", "enumeration")
    assert ce["monomial"] == {"x": 0, "y": 0, "q": 1}
    # the gate's form reports the first class, with the same monomial
    report = one_report("gf-coefficients", qbound=6)
    assert not report.passed
    assert (report.counterexample["class"], report.counterexample["monomial"]) == ("any", {"x": 0, "y": 0, "q": 1})


def test_d_chain_catches_a_block_word_outside_the_class(monkeypatch):
    # spell every block sequence as EEN, the word of (2), which is not in gclass(2)
    monkeypatch.setattr(identities, "block_word_bits", lambda initial_ns, trailing_ns, d: (3, 0b100))
    report = one_report("d-chain", d=2, max_n=4)
    assert not report.passed
    assert report.counterexample["route"] == "block grammar gclass:2"
    assert report.counterexample["n"] == 1


def test_d_chain_catches_a_block_sequence_spelled_twice(monkeypatch):
    # the same set of partitions, but each one spelled by two sequences; the
    # real generator recurses through the patched name, hence the dedup
    real = identities._block_sequences

    def doubled(budget, d):
        for trailing_ns in dict.fromkeys(real(budget, d)):
            yield trailing_ns
            yield trailing_ns

    monkeypatch.setattr(identities, "_block_sequences", doubled)
    report = one_report("d-chain", d=2, max_n=8)
    assert not report.passed
    assert report.counterexample["route"] == "block grammar gclass:2"
    assert report.counterexample["n"] == 1
    assert report.counterexample["got"] == 2


@pytest.mark.parametrize("fault", ["drop-6321", "reverse-order"])
def test_gf_coefficients_catches_a_faulty_engine_enumeration(fault, monkeypatch):
    real = identities.enumerate_by_perimeter

    def faulty(n, c):
        listed = list(real(n, c))
        if fault == "drop-6321":
            return [p for p in listed if p.parts != (6, 3, 2, 1)]
        return listed[::-1] if n == 9 else listed

    monkeypatch.setattr(identities, "enumerate_by_perimeter", faulty)
    monkeypatch.setattr(identities, "_all_classes", lambda: [DISTINCT])
    ce = next(identities._scan_gf_coefficients(9))
    assert (ce["class"], ce["n"], ce["versus"]) == ("distinct", 9, "engine enumeration")
    if fault == "drop-6321":
        # (5,4,3,2,1), the last distinct partition of perimeter 9, follows (6,3,2,1)
        assert ce["enumeration"][:2] == [[6, 3, 2, 1], [5, 4, 3, 2, 1]]
        assert ce["engine"] == [[5, 4, 3, 2, 1]]
    else:  # same contents, so only the order differs
        assert ce["index"] == 0
        assert (ce["engine"][0], ce["enumeration"][0]) == ([5, 4, 3, 2, 1], [9])


REFINEMENT_CASES = {
    NumParts: "length k distinct vs largest part 2k-1 odd",
    LargestPart: "largest part k distinct vs largest+2*length = 2k+1 odd",
    Rank: "rank k distinct vs length k+1 odd",
}


def _row_off_by_one_at(monkeypatch, faults):
    """Make the row ``refinements`` reads at perimeter n count one too many
    at the largest part that the key of each (n, key type, k) in ``faults``
    picks there."""
    real = identities._row
    planted = {(n, counting._largest_part(n, key(k))) for n, key, k in faults}
    assert None not in {a for _, a in planted}, "each fault must pick an entry of the row"

    def off_by_one(n, c):
        return real(n, c) + sum(1 << n * (a - 1) for m, a in planted if m == n)

    monkeypatch.setattr(identities, "_row", off_by_one)


# a fault at (6, key, k) is the first the scan reads: no other case reads
# its entry at a smaller k; at perimeter 6 every rank 2a - 7 is odd, so the
# rank fault is at k = 1
@pytest.mark.parametrize(
    "key, k", [(NumParts, 2), (LargestPart, 2), (Rank, 1)], ids=["NumParts", "LargestPart", "Rank"]
)
def test_refinements_catch_a_wrong_refined_count(key, k, monkeypatch):
    # a second fault later in the scan must not be the one reported
    _row_off_by_one_at(monkeypatch, {(6, key, k), (9, key, 2)})
    ce = one_report("refinements", max_n=10).counterexample
    binomial = count_refined(6, key(k), DISTINCT)
    assert ce == {
        "n": 6,
        "k": k,
        "case": REFINEMENT_CASES[key],
        "route": "automaton distinct",
        "got": binomial + 1,
        "binomial": binomial,
    }


def test_refinements_report_the_smallest_of_several_faults(monkeypatch):
    # in scan order (n, k, case): at n = 5 the rank case at k = 0 comes
    # before the length case at k = 1; the largest-part fault is at n = 7
    _row_off_by_one_at(monkeypatch, {(5, NumParts, 1), (7, LargestPart, 1), (5, Rank, 0)})
    ce = one_report("refinements", max_n=8).counterexample
    assert (ce["n"], ce["k"], ce["case"], ce["route"]) == (5, 0, REFINEMENT_CASES[Rank], "automaton distinct")


@pytest.mark.parametrize("shift", ["up", "down"])
def test_refinements_catch_a_row_read_one_digit_off(shift, monkeypatch):
    real = identities._row

    def shifted(n, c):
        return real(n, c) << n if shift == "up" else real(n, c) >> n

    monkeypatch.setattr(identities, "_row", shifted)
    # the one partition of perimeter 1 has rank 0, the scan's first read
    ce = one_report("refinements").counterexample
    assert ce == {
        "n": 1,
        "k": 0,
        "case": REFINEMENT_CASES[Rank],
        "route": "automaton distinct",
        "got": 0,
        "binomial": 1,
    }


@pytest.mark.parametrize(
    "dropped, k, key",
    [
        # length 3 is rank k = 2, largest 5 is k = 3, 5 + 2*3 = 2k+1 is k = 5
        ((5, 1, 1), 2, Rank),
        # largest 1 is k = 1, length 7 is rank k = 6, 1 + 2*7 = 2k+1 is k = 7
        ((1,) * 7, 1, NumParts),
    ],
    ids=["5,1,1", "1^7"],
)
def test_refinements_catch_a_missing_odd_partition(dropped, k, key, monkeypatch):
    real = identities.parts_by_perimeter

    def dropping(n, c=UNRESTRICTED):
        return tuple(parts for parts in real(n, c) if not (c == ODD and parts == dropped))

    monkeypatch.setattr(identities, "parts_by_perimeter", dropping)
    ce = one_report("refinements", max_n=9).counterexample
    assert (ce["n"], ce["k"], ce["case"], ce["route"]) == (7, k, REFINEMENT_CASES[key], "enumeration odd")
    assert ce["got"] == ce["binomial"] - 1


@pytest.mark.parametrize(
    "check, name, route, monomial, lhs, rhs",
    [
        # no distinct-part partition gives y q^2: (2) gives -y^3 q^2
        ("andrews-identity", "_series_andrews_middle", "enumeration", {"y": 1, "q": 2}, 0, 1),
        ("andrews-identity", "_series_andrews_franklin", "franklin-paired", {"y": 1, "q": 2}, 0, 1),
        ("andrews-identity", "_series_andrews_rhs", "pentagonal", {"y": 1, "q": 2}, 0, 1),
        # (2) is the one distinct-part partition of size 2: x^2 y q^2, and
        # -y^3 q^2 once collapsed
        ("refined-identity", "_series_refined_middle", "enumeration", {"x": 2, "y": 1, "q": 2}, 1, 2),
        ("refined-identity", "_series_refined_rhs", "staircase-product", {"x": 2, "y": 1, "q": 2}, 1, 2),
        ("refined-identity", "_series_andrews_lhs", "collapsed-to-single-variable", {"y": 3, "q": 2}, -1, 0),
    ],
    ids=["andrews-enumeration", "franklin-paired", "pentagonal", "refined-enumeration", "staircase-product", "collapsed"],
)
def test_series_checks_name_the_route_with_a_wrong_term(check, name, route, monomial, lhs, rhs, monkeypatch):
    # one more term in one route's series; the monomial's keys are its variables
    real = getattr(identities, name)
    term = MultiPoly.monomial(tuple(monomial), 1, monomial)
    monkeypatch.setattr(identities, name, lambda qbound: real(qbound) + term)
    ce = one_report(check, qbound=6).counterexample
    assert ce == {"versus": route, "monomial": monomial, "lhs": lhs, "rhs": rhs}


def test_refined_identity_catches_a_wrong_direct_form(monkeypatch):
    # x y q, from (1), doubled in the rational form's expansion only
    real = identities.gf_of_class

    def wrong(c):
        gf = real(c)
        xyq = MultiPoly.monomial(("x", "y", "q"), 1, {"x": 1, "y": 1, "q": 1})
        return RationalGF(gf.numerator + gf.denominator * xyq, gf.denominator)

    monkeypatch.setattr(identities, "gf_of_class", wrong)
    ce = one_report("refined-identity", qbound=6).counterexample
    assert ce == {"versus": "perimeter-regrade", "monomial": {"x": 1, "y": 1, "q": 1}, "lhs": 2, "rhs": 1}


def test_rogers_fine_names_the_right_side(monkeypatch):
    real = identities.rogers_fine_sides

    def wrong(qbound):
        lhs, rhs = real(qbound)
        return lhs, rhs + MultiPoly.monomial(rhs.variables, 1, {"b": 1, "t": 1, "q": 1})

    monkeypatch.setattr(identities, "rogers_fine_sides", wrong)
    ce = one_report("rogers-fine", qbound=4).counterexample
    assert ce == {"versus": "right side", "monomial": {"a": 0, "b": 1, "t": 1, "q": 1}, "lhs": 1, "rhs": 2}


def test_franklin_catches_fixed_points_at_the_wrong_sizes(monkeypatch):
    # pentagonal sizes to 10 are 1, 2, 5, 7; drop 7 from the prediction
    real = identities._generalized_pentagonals
    monkeypatch.setattr(identities, "_generalized_pentagonals", lambda limit: [e for e in real(limit) if e[0] != 7])
    ce = one_report("franklin", max_size=10).counterexample
    assert ce == {"reason": "fixed-point sizes", "expected": [1, 2, 5], "got": [1, 2, 5, 7]}


@pytest.mark.parametrize(
    "wrong, size, partition, y_exponent, length",
    [
        # the fixed point (3, 2) of size 5 has largest part plus length 5, not 6
        (lambda size, k, y: (size, k, y + (size >= 5)), 5, [3, 2], 6, 2),
        # the fixed point (2) of size 2 has length 1, not 2
        (lambda size, k, y: (size, k + (size >= 2), y), 2, [2], 3, 2),
    ],
    ids=["y-exponent", "length"],
)
def test_franklin_catches_a_fixed_point_of_the_wrong_shape(wrong, size, partition, y_exponent, length, monkeypatch):
    real = identities._generalized_pentagonals
    monkeypatch.setattr(identities, "_generalized_pentagonals", lambda limit: [wrong(*e) for e in real(limit)])
    ce = one_report("franklin", max_size=10).counterexample
    shape = {"partition": partition, "expected_y_exponent": y_exponent, "expected_length": length}
    assert ce == {"reason": "fixed-point shape", "size": size, **shape}


@pytest.mark.parametrize(
    "family, values",
    [
        # h_D = F: F(2) = 1 and F(4) = 3 are odd, F(6) = 8 is not
        (("h_D(2n) == 1 mod 2", 2, 0, "total", 2, 1), {"argument": 6, "h_D": 8}),
        # the split is (1, 1) at perimeter 3, (4, 4) at 6
        (("h_DO(3n) == h_DE(3n) == 1 mod 2", 3, 0, "parity", 2, 1), {"argument": 6, "h_DE": 4, "h_DO": 4}),
        # (2) is the one distinct-part partition of perimeter 2: the halves differ
        (("h_DO(2n) == h_DE(2n) == 0 mod 1", 2, 0, "parity", 1, 0), {"argument": 2, "h_DE": 0, "h_DO": 1}),
    ],
    ids=["total", "parity", "unequal-halves"],
)
def test_congruences_catch_a_false_family(family, values, monkeypatch):
    monkeypatch.setattr(identities, "_CONGRUENCE_FAMILIES", identities._CONGRUENCE_FAMILIES + (family,))
    ce = one_report("congruences", max_n=12, enum_limit=12).counterexample
    label, _, _, _, modulus, residue = family
    assert ce == {"family": label, "modulus": modulus, "residue": residue, **values}


@pytest.mark.parametrize(
    "index, kwargs, expected",
    [
        # F(1 + 4) = F(2) F(4) + F(1) F(3) = 5 meets the planted 6
        (5, {"max_add": 4, "max_div": 4}, {"claim": "addition", "m": 1, "n": 4, "lhs": 6, "rhs": 5}),
        # max_add = 1 reads only F(0..2); F(3) = 2 does not divide the planted 9
        (6, {"max_add": 1, "max_div": 8}, {"claim": "divisibility", "m": 3, "n": 6, "F_m": 2, "F_n": 9}),
    ],
    ids=["addition", "divisibility"],
)
def test_fibonacci_catches_a_wrong_value(index, kwargs, expected, monkeypatch):
    real = identities.fibonacci
    monkeypatch.setattr(identities, "fibonacci", lambda i: real(i) + (i == index))
    assert one_report("fibonacci", **kwargs).counterexample == expected


@pytest.mark.parametrize("max_add, max_div", [(3, 1), (30, 1), (1, 30)])
def test_fibonacci_takes_either_range_longer(max_add, max_div):
    # the addition formula reads F(2 * max_add), divisibility F(max_div)
    assert one_report("fibonacci", max_add=max_add, max_div=max_div).passed


# ---------------------------------------------------------------------------
# series coefficients spot checks


def test_andrews_coefficient_y6_q7():
    for series in (
        _series_andrews_lhs(8),
        _series_andrews_middle(8),
        _series_andrews_franklin(8),
        _series_andrews_rhs(8),
    ):
        assert series.coefficient({"y": 6, "q": 7}) == 1
        assert series.coefficient({}) == 1  # constant term


def test_rogers_fine_low_order_coefficients():
    from hookcomb.identities import rogers_fine_sides

    lhs, rhs = rogers_fine_sides(4)
    for side in (lhs, rhs):
        assert side.coefficient({}) == 1
        # hand expansion to order q: only the n<=1 summands reach q^1, and
        # each contributes b*t*q there
        assert side.coefficient({"q": 1}) == 0
        assert side.coefficient({"b": 1, "t": 1, "q": 1}) == 1
        assert side.coefficient({"a": 1, "q": 1}) == 0


def test_series_identities_invert_no_series(monkeypatch):
    from hookcomb import series

    def refuse(*_):
        raise AssertionError("an identity inverted a series")

    monkeypatch.setattr(series, "series_inverse", refuse)
    # the identities module should not hold the name at all
    monkeypatch.setattr(identities, "series_inverse", refuse, raising=False)
    for report in (one_report("andrews-identity"), one_report("refined-identity"), one_report("rogers-fine")):
        assert report.status == "pass", report.check_id


@pytest.mark.parametrize("qbound", [1, 2, 5, 8, 12])
def test_rogers_fine_at_a_equal_b_is_geometric(qbound):
    # a = b makes alpha = beta, so the left side is sum tau^n; the right
    # side must then be the same sum
    V = ("a", "b", "t", "q")
    b = MultiPoly.monomial(V, 1, {"b": 1})
    want = MultiPoly(V, {}, qbound)
    for n in range(qbound + 1):
        want = want + MultiPoly.monomial(V, 1, {"b": n, "t": n, "q": n}, qbound)
    for side in rogers_fine_sides(qbound):
        got = side.substitute({"a": b})
        assert got == want and got.qbound == qbound


# the q-series sides summand by summand, as the textbook writes them: a
# Pochhammer numerator over a Pochhammer denominator, one expansion each


def _summand_sum(variables, qbound, summands):
    total = MultiPoly(variables, {}, qbound)
    for num, den in summands:
        total = total + expand(RationalGF(num, den), qbound)
    return total


def _oracle_rogers_fine(qbound):
    V = ("a", "b", "t", "q")

    def m(coeff=1, **exps):
        return MultiPoly.monomial(V, coeff, exps, qbound)

    alpha, beta, tau, ratio = m(a=1, q=1), m(b=1, q=1), m(b=1, t=1, q=1), m(a=1, t=1, q=2)
    # tau^n = b^n t^n q^n and beta^n tau^n = b^(2n) t^n q^(2n)
    lhs = ((pochhammer(alpha, n, qbound) * m(b=n, t=n, q=n), pochhammer(beta, n, qbound)) for n in range(qbound + 1))
    rhs = (
        (
            pochhammer(alpha, n, qbound) * pochhammer(ratio, n, qbound) * m(b=2 * n, t=n, q=2 * n)
            * m(q=n * n - n) * (m() - alpha * tau * m(q=2 * n)),
            pochhammer(beta, n, qbound) * pochhammer(tau, n + 1, qbound),
        )
        for n in range(qbound + 1) if n * n + n <= qbound
    )
    return _summand_sum(V, qbound, lhs), _summand_sum(V, qbound, rhs)


def _oracle_andrews(qbound):
    V = ("y", "q")
    yq = MultiPoly.monomial(V, 1, {"y": 1, "q": 1}, qbound)
    summands = (
        (MultiPoly.monomial(V, (-1) ** n, {"y": 2 * n, "q": n * (n + 1) // 2}, qbound), pochhammer(yq, n, qbound))
        for n in range(qbound + 1) if n * (n + 1) // 2 <= qbound
    )
    return _summand_sum(V, qbound, summands)


def _oracle_refined_lhs(qbound):
    V = ("x", "y", "q")
    xq = MultiPoly.monomial(V, 1, {"x": 1, "q": 1}, qbound)
    summands = (
        (MultiPoly.monomial(V, 1, {"x": n, "y": n, "q": n * (n + 1) // 2}, qbound), pochhammer(xq, n, qbound))
        for n in range(1, qbound + 1) if n * (n + 1) // 2 <= qbound
    )
    return _summand_sum(V, qbound, summands)


def _oracle_refined_rhs(qbound):
    V = ("x", "y", "q")
    xq = MultiPoly.monomial(V, 1, {"x": 1, "q": 1}, qbound)
    neg_yq = MultiPoly.monomial(V, -1, {"y": 1, "q": 1}, qbound)
    one = MultiPoly.constant(1, V, qbound)
    summands = (
        (
            pochhammer(neg_yq, n - 1, qbound)
            * MultiPoly.monomial(V, 1, {"x": 2 * n - 1, "y": n, "q": n * (3 * n - 1) // 2}, qbound)
            * (one + MultiPoly.monomial(V, 1, {"x": 1, "y": 1, "q": 2 * n}, qbound)),
            pochhammer(xq, n, qbound),
        )
        for n in range(1, qbound + 1) if n * (3 * n - 1) // 2 <= qbound
    )
    return _summand_sum(V, qbound, summands)


@pytest.mark.parametrize(
    "builder, oracle, qbounds",
    [
        (rogers_fine_sides, _oracle_rogers_fine, range(0, 23)),
        (_series_andrews_lhs, _oracle_andrews, range(1, 41)),
        (_series_refined_lhs, _oracle_refined_lhs, range(1, 31)),
        (_series_refined_rhs, _oracle_refined_rhs, range(1, 31)),
    ],
    ids=["rogers-fine", "andrews", "refined-lhs", "refined-rhs"],
)
def test_nested_sums_match_the_summand_oracle(builder, oracle, qbounds):
    for qbound in qbounds:
        got, want = builder(qbound), oracle(qbound)
        if isinstance(got, MultiPoly):
            got, want = (got,), (want,)
        for g, w in zip(got, want, strict=True):
            assert dict(g.terms) == dict(w.terms) and g.qbound == w.qbound == qbound, qbound


@pytest.mark.parametrize("builder", [rogers_fine_sides, _series_andrews_lhs, _series_refined_lhs, _series_refined_rhs])
def test_series_builders_refuse_a_negative_bound(builder):
    # a zero polynomial on each side would agree on nothing
    with pytest.raises(ValueError):
        builder(-1)


def test_series_identities_form_no_pochhammer_product(monkeypatch):
    from hookcomb import series

    def refuse(*_):
        raise AssertionError("an identity formed a Pochhammer product")

    monkeypatch.setattr(series, "pochhammer", refuse)
    # the identities module should not hold the name at all
    monkeypatch.setattr(identities, "pochhammer", refuse, raising=False)
    for report in (one_report("andrews-identity"), one_report("refined-identity"), one_report("rogers-fine")):
        assert report.status == "pass", report.check_id

def test_regrade_limit_values():
    assert regrade_limit(15) == 7
    # every distinct-part partition of perimeter 4 fits in size 5, not 4
    assert regrade_limit(4) == 3
    assert regrade_limit(5) == 4


def test_regrade_limit_matches_its_definition():
    # the largest g <= isqrt(4 * qbound) such that every partition in
    # parts_by_perimeter(g, DISTINCT) has size at most qbound; perimeter 0
    # has only the empty partition
    from math import isqrt

    from hookcomb.counting import parts_by_perimeter

    largest = [0] + [max(map(sum, parts_by_perimeter(g, DISTINCT))) for g in range(1, isqrt(4 * 200) + 1)]
    for qbound in range(201):
        expected = max(g for g in range(isqrt(4 * qbound) + 1) if largest[g] <= qbound)
        assert regrade_limit(qbound) == expected, qbound


# ---------------------------------------------------------------------------
# reports


def test_report_schema():
    report = one_report("fibonacci", max_add=5, max_div=10)
    data = report.as_dict()
    assert list(data) == ["check_id", "params", "status", "elapsed_ms"]
    assert data["status"] == "pass"
    json.dumps(data)  # serializable


def test_report_status_follows_the_counterexample():
    report = TheoremReport("x", {"max_n": 3}, counterexample={"n": 1})
    assert (report.status, report.passed) == ("fail", False)
    assert list(report.as_dict()) == ["check_id", "params", "status", "counterexample", "elapsed_ms"]
    assert (TheoremReport("x", {}).status, TheoremReport("x", {}).passed) == ("pass", True)


def test_reports_deterministic():
    a = one_report("pentagonal-analogue", max_n=12, enum_limit=8).as_dict()
    b = one_report("pentagonal-analogue", max_n=12, enum_limit=8).as_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


@pytest.mark.parametrize("check", ["pentagonal-analogue", "congruences"])
def test_parity_split_routes_catch_a_wrong_split(check, monkeypatch):
    # shift both halves by one: their difference, and so the excess, is
    # unchanged, so only the binomial-sum route can disagree
    from hookcomb import identities

    def shifted(n):
        even, odd = count_parity_split(n)
        return even + 1, odd + 1

    monkeypatch.setattr(identities, "count_parity_split", shifted)
    report = one_report(check, enum_limit=0)
    assert not report.passed
    assert "binomial_sums" in json.dumps(report.counterexample)


def test_run_checks_registry():
    reports = run_checks("fibonacci", max_add=6, max_div=12)
    assert len(reports) == 1 and reports[0].passed
    with pytest.raises(ValueError, match=r"^unknown check 'nope' \(known: all, andrews-identity, "):
        run_checks("nope")
    assert set(CHECKS) >= {
        "euler-analogue",
        "pentagonal-analogue",
        "d-chain",
        "franklin",
        "rogers-fine",
        "congruences",
    }


def test_run_checks_d_chain_expands():
    reports = run_checks("d-chain", max_n=8)
    assert [r.params["d"] for r in reports] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "check_id, kwargs", [("fibonacci", {}), ("d-chain", {"d": 3})], ids=["fibonacci", "d-chain-d3"]
)
def test_a_single_check_runs_alone(check_id, kwargs):
    (report,) = run_checks(check_id, **kwargs)
    assert report.passed and report.check_id == check_id
    assert kwargs.items() <= report.params.items()


def test_run_checks_runs_each_check_in_turn_in_this_process(monkeypatch):
    calls = []

    def recording(cid):
        def scan(**kwargs):
            calls.append((cid, kwargs))
            yield from ()

        return scan

    for cid, check in CHECKS.items():
        monkeypatch.setitem(CHECKS, cid, check._replace(scan=recording(cid)))
    reports = run_checks("all")
    defaults = {cid: {name: default for name, (default, _) in check.params.items()} for cid, check in CHECKS.items()}
    expected = [
        (cid, kwargs)
        for cid in sorted(CHECKS)
        for kwargs in ([{**defaults[cid], "d": d} for d in (1, 2, 3, 4, 5)] if cid == "d-chain" else [defaults[cid]])
    ]
    assert calls == expected
    assert [(r.check_id, r.params) for r in reports] == [
        (cid, {**kwargs, **CHECKS[cid].shown(**kwargs)}) for cid, kwargs in expected
    ]


def test_run_checks_refuses_a_bad_parameter_before_any_scan(monkeypatch):
    # d-chain's d is the fifth report's; the four before it must not scan
    def no_scan(*args):
        raise AssertionError("scan work started")

    monkeypatch.setattr(identities, "_report", no_scan)
    with pytest.raises(ValueError, match="^d must be at least 1, got 0$"):
        run_checks("all", d=0)


@pytest.mark.parametrize(
    "overrides, error, message",
    [
        # congruences comes before d-chain in report order, and needs 6
        ({"max_n": 0}, ValueError, "max_n must be at least 6, got 0"),
        ({"d": 0}, ValueError, "d must be at least 1, got 0"),
        # a misspelt override must not leave every check at its default depth
        ({"max_nn": 3}, ValueError, "all does not take max_nn"),
    ],
    ids=["max-n-0", "d-0", "max-nn-misspelt"],
)
def test_run_checks_raises_what_the_serial_order_raises(overrides, error, message):
    with pytest.raises(ValueError) as info:
        run_checks("all", **overrides)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "check, kwargs",
    [
        ("euler-analogue", {"max_n": 0}),
        ("euler-analogue", {"enum_limit": -1}),
        ("powers-of-two", {"max_n": 0}),
        ("refinements", {"max_n": -2}),
        ("pentagonal-analogue", {"max_n": 0}),
        ("pentagonal-analogue", {"enum_limit": -1}),
        ("d-chain", {"d": 1, "max_n": 0}),
        ("gf-coefficients", {"qbound": 0}),
        ("franklin", {"max_size": 0}),
        ("andrews-identity", {"qbound": 0}),
        ("refined-identity", {"qbound": -1}),
        ("rogers-fine", {"qbound": -3}),
        ("congruences", {"max_n": 0}),
        ("congruences", {"max_n": 5}),  # the 6n families would be skipped
        ("congruences", {"enum_limit": -1}),
        ("fibonacci", {"max_add": 0}),
        ("fibonacci", {"max_div": 0}),
    ],
    ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()),
)
def test_checks_reject_empty_ranges(check, kwargs):
    with pytest.raises(ValueError):
        run_checks(check, **kwargs)


# every parameter of every registered check is an integer: (check id, name)
INTEGER_PARAMETERS = [(cid, name) for cid in sorted(CHECKS) for name in CHECKS[cid].params]


# a tuple is refused too: only d-chain's default d is swept, never an override
@pytest.mark.parametrize("bad", [True, 2.0, (1, 2)], ids=repr)
@pytest.mark.parametrize("check, name", INTEGER_PARAMETERS, ids=[f"{c}-{name}" for c, name in INTEGER_PARAMETERS])
def test_checks_refuse_bool_and_float_parameters_before_scanning(check, name, bad, monkeypatch):
    # True >= 1 and 2.0 >= 1, so a range check alone lets both through
    def no_scan(*args):
        raise AssertionError("scan work started")

    monkeypatch.setattr(identities, "_report", no_scan)
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
        run_checks(check, **{name: bad})


def test_gf_coefficients_rejects_an_empty_range_before_scanning(monkeypatch):
    def no_work(c):
        raise AssertionError("scan work started")

    monkeypatch.setattr(identities, "gf_of_class", no_work)
    with pytest.raises(ValueError):
        one_report("gf-coefficients", qbound=0)


def test_report_takes_the_first_counterexample_only():
    def scan():
        yield {"n": 3}
        raise AssertionError("scanned past the first counterexample")

    report = identities._report("x", {"max_n": 9}, scan())
    assert report.status == "fail" and report.counterexample == {"n": 3}
    assert identities._report("x", {"max_n": 9}, iter(())).passed


def test_disagreement_names_the_first_disagreeing_route():
    routes = {"a": 5, "b": 6, "c": 7}
    assert list(identities._disagreement({"n": 4}, "expected", 5, routes)) == [
        {"n": 4, "route": "b", "got": 6, "expected": 5}
    ]
    assert list(identities._disagreement({"n": 4}, "expected", 5, {"a": 5})) == []


def test_series_disagreement_names_the_first_route_and_its_lowest_monomial():
    def m(coeff=1, **exponents):
        return MultiPoly.monomial(("y", "q"), coeff, exponents)

    reference = m() + m(y=1, q=1)
    # differs at y^2 q^2, y q and y^5 q; q-degree first, then the exponents
    off = reference + m(3, y=2, q=2) - m(y=1, q=1) + m(y=5, q=1)
    routes = {"same": reference, "off": off, "later": m()}
    assert list(identities._series_disagreement({"n": 4}, reference, routes)) == [
        {"n": 4, "versus": "off", "monomial": {"y": 1, "q": 1}, "lhs": 1, "rhs": 0}
    ]
    assert list(identities._series_disagreement({}, reference, {"same": reference})) == []


@pytest.mark.parametrize(
    "check, kwargs, got",
    [
        ("euler-analogue", {"max_n": 8, "enum_limit": 8}, 5 + 1),
        ("powers-of-two", {"max_n": 8}, 16 + 1),
        ("d-chain", {"d": 1, "max_n": 8}, 5 + 1),
    ],
    ids=["euler-analogue", "powers-of-two", "d-chain"],
)
def test_counterexample_names_the_automaton_route(check, kwargs, got, monkeypatch):
    def off_by_one_at_5(n, c):
        return count_by_perimeter(n, c) + (n == 5)

    monkeypatch.setattr(identities, "count_by_perimeter", off_by_one_at_5)
    report = one_report(check, **kwargs)
    assert not report.passed
    ce = report.counterexample
    assert (ce["n"], ce["got"]) == (5, got)
    assert ce["route"].startswith("automaton "), ce


def test_zero_enum_limit_still_compares():
    assert one_report("euler-analogue", max_n=5, enum_limit=0).passed
