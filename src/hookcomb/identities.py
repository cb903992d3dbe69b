"""Named verification checks for the perimeter-graded partition theorems.

Each check is a record in :data:`CHECKS`: its scan, whose docstring states
the claim; each parameter's default and least value; and the params its
report adds.  A scan is a generator that sweeps the check's parameter range
in increasing order, compares independently computed quantities, and
yields a counterexample (the case plus the conflicting values) wherever
they disagree.  :func:`_report` runs a scan up to its first counterexample,
which is therefore the smallest one, and returns a :class:`TheoremReport`:
fail with that counterexample, or pass when the scan ends without one.
Where several routes compute one value, :func:`_disagreement` names the
first route that got it wrong; every series route compares through
:func:`_series_disagreement`, which names the first route whose series
differs and the lowest monomial where it does.  Checks never raise on a
mathematical mismatch, only on invalid parameters.  :func:`run_checks`,
the one way to run a check, checks every report's parameters, in report
order, before any scan starts: each goes through
:func:`hookcomb.partitions._require_int`, so a bool, a float or a tuple
raises ``TypeError`` and a depth below its least value ``ValueError``, as
a check over an empty range would compare nothing and still report a
pass.

Every brute-force route lists the partitions of a perimeter through one
enumerator, :func:`hookcomb.counting.parts_by_perimeter`, which walks them
and keeps the members of a class; ``powers-of-two`` certifies that walk
on all 2^(n-1) partitions by their order, and ``gf-coefficients``
compares the engine's ``enumerate_by_perimeter`` with it.  The library
does not check itself: what it relies on is proven here.  :func:`run_checks`
runs the reports in turn in this process; a report's ``elapsed_ms`` is
its scan's own time.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, product
from math import isqrt
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .counting import (
    LargestPart,
    NumParts,
    Rank,
    _digit,
    _largest_part,
    _row,
    binom,
    count_by_perimeter,
    count_parity_split,
    enumerate_by_perimeter,
    excess_e,
    fibonacci,
    partitions_of_size,
    parts_by_perimeter,
)
from .partitions import (
    ConstraintClass,
    DISTINCT,
    ODD,
    Partition,
    UNRESTRICTED,
    _require_int,
    d_distinct,
    g_class,
    mod_one,
)
from .profile import block_word_bits, parts_from_word_bits
from .series import MultiPoly, RationalGF, _monomials, expand, gf_of_class


@dataclass
class TheoremReport:
    """Outcome of one verification run.

    ``status`` is "fail" when there is a counterexample (inputs plus the
    conflicting values) and "pass" when there is none.  Serialized reports
    are stable across runs apart from ``elapsed_ms``, the check's own time:
    checks run in turn in this process, so none shares the CPU with another.
    """

    check_id: str
    params: dict
    counterexample: dict | None = None
    elapsed_ms: float = 0.0

    @property
    def status(self) -> str:
        return "pass" if self.counterexample is None else "fail"

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def as_dict(self) -> dict:
        out = {"check_id": self.check_id, "params": self.params, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out["elapsed_ms"] = self.elapsed_ms
        return out


def _report(check_id: str, params: dict, scan: Iterator[dict]) -> TheoremReport:
    """Time ``scan`` up to its first counterexample: fail with it, or pass
    when the scan ends without one."""
    clock = time.perf_counter
    t0 = clock()
    counterexample = next(scan, None)
    return TheoremReport(check_id, params, counterexample, (clock() - t0) * 1000.0)


def _disagreement(case: dict, label: str, expected: object, routes: dict) -> Iterator[dict]:
    """The first of ``routes`` (route name -> value) that does not give
    ``expected``, as a counterexample: the case, the route, what it got,
    and the reference value under ``label``."""
    for route, got in routes.items():
        if got != expected:
            yield {**case, "route": route, "got": got, label: expected}
            return


def _series_disagreement(case: dict, reference: MultiPoly, routes: dict) -> Iterator[dict]:
    """The first of ``routes`` (route name -> series) that differs from
    ``reference``, as a counterexample: the case, the route under
    ``versus``, the lowest monomial where the two differ, and the
    reference's coefficient there as ``lhs``, the route's as ``rhs``."""
    for route, series in routes.items():
        if series != reference:
            exps, _ = (reference - series).sorted_terms()[0]
            named = dict(zip(reference.variables, exps))
            lhs, rhs = reference.coefficient(named), series.coefficient(named)
            yield {**case, "versus": route, "monomial": named, "lhs": lhs, "rhs": rhs}
            return


def _brute_series(variables: tuple[str, ...], terms: Iterable[tuple], qbound: int) -> MultiPoly:
    """The sum of the (exponents, coefficient) terms, truncated at q-degree
    ``qbound``: how the brute-force and pentagonal routes build a series."""
    acc: dict[tuple[int, ...], int] = {}
    for exps, coeff in terms:
        acc[exps] = acc.get(exps, 0) + coeff
    return MultiPoly(variables, acc, qbound)


def _distinct_by_size(max_size: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(size, parts) for every distinct-part partition of size 1..max_size."""
    for n in range(1, max_size + 1):
        for parts in partitions_of_size(n, distinct=True):
            yield n, parts


# ---------------------------------------------------------------------------
# Franklin's involution


def franklin(p: Partition) -> Partition | None:
    """Apply the classical sign-reversing involution on distinct-part
    partitions; return the paired partition, or None on a fixed point.

    With s the smallest part and r the length of the maximal initial run
    pi_1, pi_1 - 1, ...: if s <= r, delete the smallest part and add 1 to
    each of the s largest parts; if s > r, subtract 1 from each of the r
    largest parts and append a new part r.  When the run reaches the last
    part and s is r or r + 1, neither move is legal: fixed point.  A move
    keeps the size and the perimeter and flips the length parity.
    """
    parts = p.parts
    if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"{p!r} does not have distinct parts")
    return Partition(image) if (image := _franklin_parts(parts)) else None


def _franklin_parts(parts: tuple[int, ...]) -> tuple[int, ...] | None:
    """:func:`franklin` on a raw, strictly decreasing parts tuple."""
    s = parts[-1]
    r = 1
    while r < len(parts) and parts[r] == parts[r - 1] - 1:
        r += 1
    if r == len(parts) and s in (r, r + 1):
        return None
    if s <= r:
        new = list(parts[:-1])
        for i in range(s):
            new[i] += 1
    else:
        new = list(parts)
        for i in range(r):
            new[i] -= 1
        new.append(r)
    return tuple(new)


def _generalized_pentagonals(limit: int) -> list[tuple[int, int, int]]:
    """(size, k, expected largest-part-plus-length) for sizes <= limit, in
    increasing size: k(3k - 1)/2 with 3k - 1 and k(3k + 1)/2 with 3k."""
    out = ((k * (3 * k - 1) // 2 + j * k, k, 3 * k - 1 + j) for k in range(1, limit + 1) for j in (0, 1))
    return sorted(t for t in out if t[0] <= limit)


def _scan_franklin(max_size: int) -> Iterator[dict]:
    """Involution, parity flip, size and perimeter preservation on all
    distinct-part partitions of size <= max_size; fixed points sit exactly
    at the generalized pentagonal sizes, one each, with the staircase shape
    the surviving series terms predict."""
    fixed: list[tuple[int, ...]] = []
    for n, parts in _distinct_by_size(max_size):
        image = _franklin_parts(parts)
        if image is None:
            fixed.append(parts)
            continue
        bad = None
        if not (image and image[-1] >= 1 and all(a > b for a, b in zip(image, image[1:]))):
            bad = {"reason": "image is not a distinct-part partition"}
        elif sum(image) != n:
            bad = {"reason": "size changed", "got": sum(image)}
        elif image[0] + len(image) != parts[0] + len(parts):
            bad = {"reason": "perimeter changed", "got": image[0] + len(image) - 1}
        elif (len(image) - len(parts)) % 2 != 1:
            bad = {"reason": "length parity not flipped", "got": len(image)}
        elif _franklin_parts(image) != parts:
            bad = {"reason": "not an involution", "got": list(_franklin_parts(image) or image)}
        if bad:
            yield {**bad, "partition": list(parts), "image": list(image)}
    expected = _generalized_pentagonals(max_size)
    got_sizes = sorted(sum(f) for f in fixed)
    if got_sizes != [e[0] for e in expected]:
        yield {"reason": "fixed-point sizes", "expected": [e[0] for e in expected], "got": got_sizes}
        return
    by_size = {sum(f): f for f in fixed}
    for size, k, y_exp in expected:
        f = by_size[size]
        if f[0] + len(f) != y_exp or len(f) != k:
            shape = {"partition": list(f), "expected_y_exponent": y_exp, "expected_length": k}
            yield {"reason": "fixed-point shape", "size": size, **shape}


# ---------------------------------------------------------------------------
# Counting theorems


def _scan_euler_analogue(max_n: int, enum_limit: int) -> Iterator[dict]:
    """Distinct-part and odd-part partitions with perimeter n are
    equinumerous, counted by the Fibonacci number F(n): enumeration up to
    enum_limit, the word-automaton count up to max_n."""
    for n in range(1, max_n + 1):
        routes = {
            f"automaton {d_distinct(1)}": count_by_perimeter(n, d_distinct(1)),
            f"automaton {mod_one(1)}": count_by_perimeter(n, mod_one(1)),
        }
        if n <= enum_limit:
            routes["enumeration distinct"] = len(parts_by_perimeter(n, DISTINCT))
            routes["enumeration odd"] = len(parts_by_perimeter(n, ODD))
        yield from _disagreement({"n": n}, "fibonacci", fibonacci(n), routes)


def _order_mismatches(table: tuple[tuple[int, ...], ...], n: int) -> Iterator[dict]:
    """Order route for the perimeter-``n`` table: each entry must be a
    partition of perimeter n (parts at least 1 and weakly decreasing, first
    part + length - 1 = n) and lie strictly below the entry before it as a
    tuple.  Yields each offending entry.

    Strictly decreasing entries are pairwise distinct, so with 2^(n-1) of
    them, which the count routes check, the table is exactly the partitions
    of perimeter n: the boundary-word bijection makes 2^(n-1) all there
    are.  A codec round trip of each entry proves no more, as it too runs
    the bijection on the table's own entries and rests on it for the rest."""
    previous = (n + 1,)  # above every partition of perimeter n
    for parts in table:
        if not parts or parts[-1] < 1 or list(parts) != sorted(parts, reverse=True) or parts[0] + len(parts) - 1 != n:
            yield {"n": n, "partition": list(parts), "reason": "not a partition of this perimeter"}
        elif parts >= previous:
            yield {"n": n, "partition": list(parts), "reason": "not below the entry before it"}
        previous = parts


def _scan_powers_of_two(max_n: int) -> Iterator[dict]:
    """There are 2^(n-1) partitions with perimeter n: the brute-force walk
    that every other brute-force route runs lists that many, each a
    partition of perimeter n below the one before it, and the automaton
    count agrees."""
    for n in range(1, max_n + 1):
        table = parts_by_perimeter(n)
        yield from _order_mismatches(table, n)
        routes = {"enumeration any": len(table), "automaton any": count_by_perimeter(n, UNRESTRICTED)}
        del table  # or the walk for n + 1 would run while this table is held
        yield from _disagreement({"n": n}, "closed_form", 1 << (n - 1), routes)


# The refined equinumerations of distinct against odd parts at perimeter n:
# (case, statistic on distinct parts, equal to k; statistic on odd parts and
# its value at k; the refinement key of k; the binomial count at (n, k)).
# `hookcomb table` 1-3 list one (n, k) of each case.
_REFINEMENT_CASES = (
    ("length k distinct vs largest part 2k-1 odd", len, itemgetter(0), lambda k: 2 * k - 1,
     NumParts, lambda n, k: binom(n - k, k - 1)),
    ("largest part k distinct vs largest+2*length = 2k+1 odd", itemgetter(0), lambda p: p[0] + 2 * len(p),
     lambda k: 2 * k + 1, LargestPart, lambda n, k: binom(k - 1, n - k)),
    ("rank k distinct vs length k+1 odd", lambda p: p[0] - len(p), len, lambda k: k + 1,
     Rank, lambda n, k: binom((n + k - 1) // 2, k) if (n - 1 - k) % 2 == 0 else 0),
)


def _scan_refinements(max_n: int) -> Iterator[dict]:
    """The three refined equinumerations between distinct-part and odd-part
    partitions of fixed perimeter, with their binomial counts."""
    for n in range(1, max_n + 1):
        distinct = parts_by_perimeter(n, DISTINCT)
        odd = parts_by_perimeter(n, ODD)
        # each statistic is tallied once per perimeter, and the automaton's
        # counts by largest part are one row, one walk; both are read at every k
        tallies = [(Counter(map(f, distinct)), Counter(map(g, odd))) for _, f, g, *_ in _REFINEMENT_CASES]
        row = _row(n, DISTINCT)
        for k in range(0, n + 2):
            for (label, _, _, odd_at, key, closed), (lhs, rhs) in zip(_REFINEMENT_CASES, tallies):
                a = _largest_part(n, key(k))
                routes = {
                    "enumeration distinct": lhs[k],
                    "enumeration odd": rhs[odd_at(k)],
                    "automaton distinct": 0 if a is None else _digit(row, n, a),
                }
                yield from _disagreement({"n": n, "k": k, "case": label}, "binomial", closed(n, k), routes)


def _parity_split_binomials(n: int) -> tuple[int, int]:
    """count_parity_split by summing the length case's count in
    :data:`_REFINEMENT_CASES`, binom(n - k, k - 1), over even and over odd k."""
    length_k = _REFINEMENT_CASES[0][-1]
    return sum(length_k(n, k) for k in range(2, n + 1, 2)), sum(length_k(n, k) for k in range(1, n + 1, 2))


def _parity_split_routes(n: int, enum_limit: int) -> dict[str, list[int]]:
    """The independent routes to count_parity_split(n), as [even, odd]: the
    binomial sums and, up to ``enum_limit``, the brute-force walk."""
    routes = {"binomial_sums": list(_parity_split_binomials(n))}
    if n <= enum_limit:
        distinct = parts_by_perimeter(n, DISTINCT)
        odd = sum(len(parts) & 1 for parts in distinct)
        routes["enumeration"] = [len(distinct) - odd, odd]
    return routes


def _scan_pentagonal_analogue(max_n: int, enum_limit: int) -> Iterator[dict]:
    """The even/odd-length excess over distinct-part partitions of fixed
    perimeter follows the period-6 pattern 0, -1, -1, 0, 1, 1; four
    computations (closed form, the automaton's parity split, binomial
    sums, enumeration) and the series expansion of -q / (1 - q + q^2) agree."""
    m = _monomials(("q",))
    series = expand(RationalGF(m(-1, q=1), m() - m(q=1) + m(q=2)), max_n)
    for n in range(1, max_n + 1):
        split = list(count_parity_split(n))
        yield from _disagreement({"n": n}, "parity_split", split, _parity_split_routes(n, enum_limit))
        routes = {"parity_split": split[0] - split[1], "series": series.coefficient({"q": n})}
        if n >= 4:
            routes["negated_shift"] = -excess_e(n - 3)
        yield from _disagreement({"n": n}, "closed_form", excess_e(n), routes)


def _block_sequences(budget: int, d: int):
    """All tuples of middle-block trailing N counts consuming exactly
    ``budget`` word letters; every block takes d + 1 letters plus its
    trailing N's, whatever its type."""
    if budget == 0:
        yield ()
        return
    for j in range(budget - d):
        for rest in _block_sequences(budget - (d + 1) - j, d):
            yield (j,) + rest


def gclass_by_block_grammar(n: int, d: int) -> list[tuple[int, ...]]:
    """Partitions of perimeter ``n`` in the class ``g_class(d)``, generated
    from block sequences instead of by filtering: one entry per sequence,
    so a partition that two sequences spell appears twice."""
    budget = n - 1  # word length n + 1, minus the initial E and terminal N
    return [
        parts_from_word_bits(*block_word_bits(j0, trailing_ns, d))
        for j0 in range(budget + 1)
        for trailing_ns in _block_sequences(budget - j0, d)
    ]


def _scan_d_chain(d: int, max_n: int) -> Iterator[dict]:
    """For gap parameter d, the three families (parts differing by at least
    d; parts congruent to 1 mod d+1; the residue-and-gap class) are
    equinumerous at every perimeter, match the word-automaton count, and the
    block grammar spells each member of the residue-and-gap class exactly
    once: its sequences are as many as the members, and spell the same set."""
    dd, mo, gc = d_distinct(d), mod_one(d), g_class(d)
    for n in range(1, max_n + 1):
        g_set = set(parts_by_perimeter(n, gc))
        grammar = gclass_by_block_grammar(n, d)
        grammar_set = set(grammar)
        # as many sequences as members, and the same set: each member is
        # spelled exactly once
        routes = {
            f"enumeration {mo}": len(parts_by_perimeter(n, mo)),
            f"enumeration {gc}": len(g_set),
            f"automaton {dd}": count_by_perimeter(n, dd),
            f"block grammar {gc}": len(grammar),
        }
        yield from _disagreement({"n": n, "d": d}, "d_distinct", len(parts_by_perimeter(n, dd)), routes)
        if grammar_set != g_set:
            sample = [list(p) for p in sorted(grammar_set ^ g_set)[:3]]
            yield {"n": n, "d": d, "route": f"block grammar {gc}", "set_difference_sample": sample}


# the gate's gap parameters d: one d-chain report and three gf-coefficients classes each
_GAP_PARAMETERS = (1, 2, 3, 4, 5)


def _all_classes() -> list[ConstraintClass]:
    out = [UNRESTRICTED, DISTINCT, ODD]
    for d in _GAP_PARAMETERS:
        out.extend([d_distinct(d), mod_one(d), g_class(d)])
    return out


def _scan_gf_coefficients(qbound: int) -> Iterator[dict]:
    """For every class, at each of the gate's gap parameters, the closed
    rational form matches, coefficient by coefficient in x, y and q, the
    brute-force sum over enumerated partitions of x^(largest) y^(length)
    q^(perimeter); and at each perimeter the engine enumerator lists the
    brute-force partitions, in the same order."""
    for c in _all_classes():
        expanded = expand(gf_of_class(c), qbound)
        tables = [parts_by_perimeter(n, c) for n in range(1, qbound + 1)]
        terms = (((parts[0], len(parts), n), 1) for n, table in enumerate(tables, 1) for parts in table)
        brute = _brute_series(("x", "y", "q"), terms, qbound)
        yield from _series_disagreement({"class": str(c)}, expanded, {"enumeration": brute})
        for n, table in enumerate(tables, 1):
            engine = tuple(p.parts for p in enumerate_by_perimeter(n, c))
            if engine != table:  # sample both from the first position that differs
                i = next((i for i, (a, b) in enumerate(zip(engine, table)) if a != b), min(len(engine), len(table)))
                head = slice(i, i + 3)
                sample = {"engine": [list(p) for p in engine[head]], "enumeration": [list(p) for p in table[head]]}
                yield {"class": str(c), "n": n, "versus": "engine enumeration", "index": i, **sample}


# ---------------------------------------------------------------------------
# q-series identities


def _nested_sum(qbound: int, levels: Iterable[tuple[MultiPoly, MultiPoly, MultiPoly]]) -> MultiPoly:
    """c_0 + r_0 (c_1 + r_1 (c_2 + ...)) to q-degree ``qbound``, over the
    levels (c_n, num_n, den_n), where r_n = num_n / den_n, den_n is a series
    unit and num_n has q-valuation at least 1 for n >= 1; a prefactor is
    the first level, with c_0 = 0 and num_0 of any q-valuation.

    The nesting ends at the first level n whose product r_0 ... r_(n-1)
    has q-valuation above ``qbound``, as everything inside it vanishes
    there.  Each level is one division, of num_n times the inner sum by
    den_n, truncated at ``qbound``: the inner sum is known to ``qbound``,
    so that level is too."""
    _require_int(qbound, "qbound", 0)
    kept = []
    depth = 0  # q-valuation of r_0 ... r_(n-1)
    for c, num, den in levels:
        if depth > qbound:
            break
        kept.append((c, num, den))
        depth += min((e[-1] for e in num.terms), default=qbound + 1)  # num is 0 to the bound
    inner = kept.pop()[0]
    for c, num, den in reversed(kept):
        inner = expand(RationalGF(num * inner, den), qbound) + c
    return inner


def _series_andrews_lhs(qbound: int) -> MultiPoly:
    """sum_{n>=0} (-1)^n y^(2n) q^(n(n+1)/2) / ((yq; q)_n), truncated:
    1 + r_0 (1 + r_1 (...)) with r_n = -y^2 q^(n+1) / (1 - y q^(n+1))."""
    m = _monomials(("y", "q"), qbound)
    one = m()
    return _nested_sum(qbound, ((one, m(-1, y=2, q=n + 1), one - m(y=1, q=n + 1)) for n in count()))


def _series_andrews_middle(qbound: int) -> MultiPoly:
    """1 + sum over distinct-part partitions of (-1)^length
    y^(largest + length) q^size, truncated."""
    terms = (((parts[0] + len(parts), n), (-1) ** len(parts)) for n, parts in _distinct_by_size(qbound))
    return _brute_series(("y", "q"), chain([((0, 0), 1)], terms), qbound)


def _series_andrews_franklin(qbound: int) -> MultiPoly:
    """Same series, but with the paired partitions cancelled by the
    involution first: only Franklin fixed points contribute."""
    fixed = ((n, parts) for n, parts in _distinct_by_size(qbound) if _franklin_parts(parts) is None)
    terms = (((parts[0] + len(parts), n), (-1) ** len(parts)) for n, parts in fixed)
    return _brute_series(("y", "q"), chain([((0, 0), 1)], terms), qbound)


def _series_andrews_rhs(qbound: int) -> MultiPoly:
    """1 + sum_{n>=1} (-1)^n (q^(n(3n-1)/2) y^(3n-1) + q^(n(3n+1)/2) y^(3n)),
    one term per generalized pentagonal number."""
    terms = (((y_exp, size), (-1) ** k) for size, k, y_exp in _generalized_pentagonals(qbound))
    return _brute_series(("y", "q"), chain([((0, 0), 1)], terms), qbound)


def _scan_andrews_identity(qbound: int) -> Iterator[dict]:
    """Three expressions for the signed count of distinct-part partitions
    graded by size and largest-part-plus-length agree termwise: the
    alternating q-series, raw enumeration, and the surviving pentagonal
    terms.  Enumeration after Franklin cancellation is checked as a fourth
    route."""
    routes = {
        "enumeration": _series_andrews_middle(qbound),
        "franklin-paired": _series_andrews_franklin(qbound),
        "pentagonal": _series_andrews_rhs(qbound),
    }
    yield from _series_disagreement({}, _series_andrews_lhs(qbound), routes)


def _series_refined_lhs(qbound: int) -> MultiPoly:
    """sum_{n>=1} x^n y^n q^(n(n+1)/2) / ((xq; q)_n), truncated:
    0 + r_0 (1 + r_1 (1 + r_2 (...))) with r_n = x y q^(n+1) / (1 - x q^(n+1))."""
    m = _monomials(("x", "y", "q"), qbound)
    one = m()
    levels = ((one, m(x=1, y=1, q=n + 1), one - m(x=1, q=n + 1)) for n in count(1))
    return _nested_sum(qbound, chain([(m(0), m(x=1, y=1, q=1), one - m(x=1, q=1))], levels))


def _series_refined_middle(qbound: int) -> MultiPoly:
    """sum over distinct-part partitions of x^(largest) y^(length) q^size."""
    terms = (((parts[0], len(parts), n), 1) for n, parts in _distinct_by_size(qbound))
    return _brute_series(("x", "y", "q"), terms, qbound)


def _series_refined_rhs(qbound: int) -> MultiPoly:
    """sum_{n>=1} (-yq; q)_(n-1) x^(2n-1) y^n q^(n(3n-1)/2) (1 + x y q^(2n))
    / ((xq; q)_n), truncated: 0 + r_0 (c_1 + r_1 (c_2 + ...)) with
    r_0 = x y q / (1 - x q), c_n = 1 + x y q^(2n) and
    r_n = (1 + y q^n) x^2 y q^(3n+1) / (1 - x q^(n+1))."""
    m = _monomials(("x", "y", "q"), qbound)
    one = m()
    levels = (
        (one + m(x=1, y=1, q=2 * n), (one + m(y=1, q=n)) * m(x=2, y=1, q=3 * n + 1), one - m(x=1, q=n + 1))
        for n in count(1)
    )
    return _nested_sum(qbound, chain([(m(0), m(x=1, y=1, q=1), one - m(x=1, q=1))], levels))


def regrade_limit(qbound: int) -> int:
    """Largest perimeter g such that every distinct-part partition of
    perimeter g has size at most qbound (so size-graded data regrades to a
    complete perimeter-graded series), capped at isqrt(4 * qbound).  The
    largest size at perimeter p grows with p: it is the best staircase, k
    parts from p + 1 - k down to p + 2 - 2k >= 1, of size k (2p + 3 - 3k) / 2."""
    cap, g = isqrt(4 * qbound), 0
    while g < cap and max(k * (2 * g + 5 - 3 * k) // 2 for k in range(1, g // 2 + 2)) <= qbound:
        g += 1  # every partition of perimeter g + 1 fits
    return g


def _scan_refined_identity(qbound: int) -> Iterator[dict]:
    """The two-variable refinement of the pentagonal-type identity: the
    alternating series, the enumeration of distinct-part partitions graded
    by largest part, length and size, and the staircase-product series all
    agree; substituting x -> y, y -> -y collapses it to the single-variable
    identity; and regrading the enumeration by perimeter, to
    :func:`regrade_limit`, recovers the rational form for distinct parts."""
    lhs = _series_refined_lhs(qbound)
    routes = {"enumeration": _series_refined_middle(qbound), "staircase-product": _series_refined_rhs(qbound)}
    yield from _series_disagreement({}, lhs, routes)
    # collapse x -> y, y -> -y: must give the single-variable alternating
    # series minus its constant term
    m = _monomials(("y", "q"), qbound)
    collapsed = lhs.substitute({"x": m(y=1), "y": m(-1, y=1)})
    andrews = _series_andrews_lhs(qbound) - m()
    yield from _series_disagreement({}, collapsed, {"collapsed-to-single-variable": andrews})
    # regrade by perimeter: x^(largest) y^(length) q^(perimeter), truncated
    # where every distinct-part partition of that perimeter fits in qbound
    g_limit = regrade_limit(qbound)
    terms = (((parts[0], len(parts), parts[0] + len(parts) - 1), 1) for _, parts in _distinct_by_size(qbound))
    regraded = _brute_series(("x", "y", "q"), terms, g_limit)
    yield from _series_disagreement({}, expand(gf_of_class(DISTINCT), g_limit), {"perimeter-regrade": regraded})


def rogers_fine_sides(qbound: int) -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the Rogers-Fine transformation under alpha = aq,
    beta = bq, tau = btq, truncated at the q-degree bound.

    The substitution is the loosest one that keeps three free parameters
    while making every coefficient a polynomial: beta = bq restores series
    invertibility of 1/(beta)_n, and tau = btq turns alpha*tau*q/beta into
    the monomial a*t*q^2.  Each side is a nested sum of its term ratios,
    so every level divides by one or two binomials 1 - (monomial) and no
    Pochhammer product is formed.
    """
    m = _monomials(("a", "b", "t", "q"), qbound)
    one = m()
    alpha = m(a=1, q=1)
    beta = m(b=1, q=1)
    tau = m(b=1, t=1, q=1)
    ratio = m(a=1, t=1, q=2)  # alpha * tau * q / beta
    # sum_{n>=0} (alpha)_n tau^n / (beta)_n: term n+1 is term n times
    # (1 - alpha q^n) tau / (1 - beta q^n)
    lhs = ((one, (one - alpha * m(q=n)) * tau, one - beta * m(q=n)) for n in count())
    # sum_{n>=0} (alpha)_n (ratio)_n beta^n tau^n q^(n^2 - n) (1 - alpha tau q^(2n))
    # / ((beta)_n (tau)_(n+1)) is 1 / (1 - tau), the first level with c = 0,
    # times the sum of (alpha)_n (ratio)_n (beta tau)^n q^(n^2 - n) c_n
    # / ((beta)_n (tau q)_n), c_n = 1 - alpha tau q^(2n), whose term n+1 is term n times
    # (1 - alpha q^n) (1 - ratio q^n) beta tau q^(2n) / ((1 - beta q^n) (1 - tau q^(n+1)))
    rhs = (
        (
            one - alpha * tau * m(q=2 * n),
            (one - alpha * m(q=n)) * (one - ratio * m(q=n)) * beta * tau * m(q=2 * n),
            (one - beta * m(q=n)) * (one - tau * m(q=n + 1)),
        )
        for n in count()
    )
    return _nested_sum(qbound, lhs), _nested_sum(qbound, chain([(m(0), one, one - tau)], rhs))


def _scan_rogers_fine(qbound: int) -> Iterator[dict]:
    """Both sides of the Rogers-Fine transformation, specialized with
    alpha = aq, beta = bq, tau = btq so every coefficient is an integer
    polynomial in a, b, t, agree termwise to the q-degree bound."""
    lhs, rhs = rogers_fine_sides(qbound)
    yield from _series_disagreement({}, lhs, {"right side": rhs})


# ---------------------------------------------------------------------------
# Congruences and Fibonacci facts


_CONGRUENCE_FAMILIES = (
    ("h_D(3n) == 0 mod 2", 3, 0, "total", 2, 0),
    ("h_D(4n) == 0 mod 3", 4, 0, "total", 3, 0),
    ("h_D(5n) == 0 mod 5", 5, 0, "total", 5, 0),
    ("h_D(6n) == 0 mod 8", 6, 0, "total", 8, 0),
    ("h_D(6n+3) == 2 mod 16", 6, 3, "total", 16, 2),
    ("h_DO(6n) == h_DE(6n) == 0 mod 4", 6, 0, "parity", 4, 0),
    ("h_DO(6n+3) == h_DE(6n+3) == 1 mod 8", 6, 3, "parity", 8, 1),
)


def _congruence_arguments(step: int, offset: int, max_n: int) -> range:
    """The values of step * n + offset (offset >= 0) over n >= 0 from the
    least positive one up to ``max_n``: the arguments at which a congruence
    is tested."""
    return range(offset or step, max_n + 1, step)


# the depth at which every family has been tested at least once
_CONGRUENCE_MIN_N = max(_congruence_arguments(step, offset, 0).start for _, step, offset, *_ in _CONGRUENCE_FAMILIES)


def _scan_congruences(max_n: int, enum_limit: int) -> Iterator[dict]:
    """The seven stated congruences for distinct-part perimeter counts, for
    every argument (multiplier form) up to max_n; the parity splits are
    checked against the binomial sums at every argument, and the fast
    counts against enumeration for small arguments."""
    for label, step, offset, which, modulus, residue in _CONGRUENCE_FAMILIES:
        for arg in _congruence_arguments(step, offset, max_n):
            case = {"family": label, "argument": arg, "modulus": modulus, "residue": residue}
            if which == "total":
                value = fibonacci(arg)
                routes = {"enumeration": len(parts_by_perimeter(arg, DISTINCT))} if arg <= enum_limit else {}
                yield from _disagreement(case, "h_D", value, routes)
                if value % modulus != residue:
                    yield {**case, "h_D": value}
            else:
                even, odd = split = list(count_parity_split(arg))
                yield from _disagreement(case, "parity_split", split, _parity_split_routes(arg, enum_limit))
                if not (even == odd and even % modulus == residue):
                    yield {**case, "h_DE": even, "h_DO": odd}


def _scan_fibonacci(max_add: int, max_div: int) -> Iterator[dict]:
    """The addition formula F(m+n) = F(m+1) F(n) + F(m) F(n-1) and the
    divisibility rule m | n implies F(m) | F(n)."""
    fib = [fibonacci(i) for i in range(max(2 * max_add, max_div) + 1)]
    for m in range(0, max_add + 1):
        for n in range(1, max_add + 1):
            lhs = fib[m + n]
            rhs = fib[m + 1] * fib[n] + fib[m] * fib[n - 1]
            if lhs != rhs:
                yield {"claim": "addition", "m": m, "n": n, "lhs": lhs, "rhs": rhs}
    for m in range(1, max_div + 1):
        for n in range(m, max_div + 1, m):
            if fib[n] % fib[m] != 0:
                yield {"claim": "divisibility", "m": m, "n": n, "F_m": fib[m], "F_n": fib[n]}


# ---------------------------------------------------------------------------
# Registry


class _Check(NamedTuple):
    """One verification check: its scan, which states the claim; each
    parameter's (default, least value), a tuple default being swept, one
    report per value; and the report params it adds, from the parameters."""

    scan: Callable[..., Iterator[dict]]
    params: dict[str, tuple]
    shown: Callable[..., dict] = lambda **_: {}


CHECKS: dict[str, _Check] = {
    "euler-analogue": _Check(_scan_euler_analogue, {"max_n": (25, 1), "enum_limit": (16, 0)}),
    "powers-of-two": _Check(_scan_powers_of_two, {"max_n": (16, 1)}),
    "refinements": _Check(_scan_refinements, {"max_n": (14, 1)}),
    "pentagonal-analogue": _Check(_scan_pentagonal_analogue, {"max_n": (30, 1), "enum_limit": (16, 0)}),
    "d-chain": _Check(_scan_d_chain, {"d": (_GAP_PARAMETERS, 1), "max_n": (18, 1)}),
    "gf-coefficients": _Check(
        _scan_gf_coefficients, {"qbound": (12, 1)}, lambda qbound: {"classes": [str(c) for c in _all_classes()]}
    ),
    "franklin": _Check(_scan_franklin, {"max_size": (40, 1)}),
    "andrews-identity": _Check(_scan_andrews_identity, {"qbound": (15, 1)}),
    "refined-identity": _Check(
        _scan_refined_identity, {"qbound": (15, 1)}, lambda qbound: {"regrade_perimeter_limit": regrade_limit(qbound)}
    ),
    "rogers-fine": _Check(
        _scan_rogers_fine, {"qbound": (10, 1)}, lambda qbound: {"alpha": "a*q", "beta": "b*q", "tau": "b*t*q"}
    ),
    "congruences": _Check(_scan_congruences, {"max_n": (60, _CONGRUENCE_MIN_N), "enum_limit": (16, 0)}),
    "fibonacci": _Check(_scan_fibonacci, {"max_add": (30, 1), "max_div": (60, 1)}),
}


def run_checks(check_id: str = "all", **overrides) -> list[TheoremReport]:
    """Run one named check, or all of them; reports sorted by check id
    (and gap parameter).  Unknown ids raise ValueError.  Overrides of None
    are ignored; any other that no selected check takes raises ValueError,
    and ``all`` passes each override only to the checks that take it.  A
    parameter left at a tuple default (d-chain's d) gives one report per
    value; an override is one value, and a tuple there raises TypeError.

    Every report's parameters are checked, in report order, before any
    scan starts; then each report's scan runs in turn in this process.
    ``elapsed_ms`` is each report's own time.
    """
    if check_id == "all":
        ids = sorted(CHECKS)
    elif check_id in CHECKS:
        ids = [check_id]
    else:
        raise ValueError(f"unknown check {check_id!r} (known: all, {', '.join(sorted(CHECKS))})")
    overrides = {k: v for k, v in overrides.items() if v is not None}
    unknown = sorted(set(overrides).difference(*(CHECKS[cid].params for cid in ids)))
    if unknown:
        raise ValueError(f"{check_id} does not take {', '.join(unknown)}")
    jobs: list[tuple[_Check, str, dict]] = []
    for cid in ids:
        check = CHECKS[cid]
        values = (
            [overrides[name]] if name in overrides else default if isinstance(default, tuple) else [default]
            for name, (default, _) in check.params.items()
        )
        jobs.extend((check, cid, dict(zip(check.params, chosen))) for chosen in product(*values))
    for check, _, kwargs in jobs:
        for name, value in kwargs.items():
            _require_int(value, name, check.params[name][1])
    return [_report(cid, {**kwargs, **check.shown(**kwargs)}, check.scan(**kwargs)) for check, cid, kwargs in jobs]
