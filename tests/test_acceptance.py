"""Acceptance suite: every criterion at full depth, exact integer equality.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failure prints the criterion id through the assertion message.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from hookcomb import (
    DISTINCT,
    ODD,
    UNRESTRICTED,
    count_by_perimeter,
    count_parity_split,
    d_distinct,
    enumerate_by_perimeter,
    excess_e,
    expand,
    fibonacci,
    franklin,
    g_class,
    gf_of_class,
    make_partition,
    mod_one,
    run_checks,
)
from hookcomb.counting import binom, partitions_of_size, parts_by_perimeter
from hookcomb.identities import gclass_by_block_grammar
from hookcomb.partitions import parts_are_member
from hookcomb.series import MultiPoly


def _ok(label):
    print(f"[PASS] {label}")


# ---------------------------------------------------------------------------
# 1. Fibonacci perimeter counts


def test_criterion_1_fibonacci_counts():
    t0 = time.perf_counter()
    for n in range(1, 26):
        fib = fibonacci(n)
        assert count_by_perimeter(n, DISTINCT) == fib
        assert count_by_perimeter(n, ODD) == fib
        if n <= 16:
            assert sum(1 for _ in enumerate_by_perimeter(n, DISTINCT)) == fib
            assert sum(1 for _ in enumerate_by_perimeter(n, ODD)) == fib
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _ok("criterion 1: distinct = odd = Fibonacci up to perimeter 25 (enumeration to 16)")


# ---------------------------------------------------------------------------
# 2. 2^(n-1) unrestricted counts


def test_criterion_2_powers_of_two():
    for n in range(1, 17):
        words = parts_by_perimeter(n)
        assert len(words) == 2 ** (n - 1)
        assert len(set(words)) == 2 ** (n - 1)
    _ok("criterion 2: 2^(n-1) partitions of perimeter n up to 16, by word enumeration")


# ---------------------------------------------------------------------------
# 3. the four worked tables, frozen


TABLE_1 = [
    ((6, 5, 4, 3), (7, 7, 7)),
    ((6, 5, 4, 2), (7, 7, 5)),
    ((6, 5, 4, 1), (7, 7, 3)),
    ((6, 5, 3, 2), (7, 7, 1)),
    ((6, 5, 3, 1), (7, 5, 5)),
    ((6, 5, 2, 1), (7, 5, 3)),
    ((6, 4, 3, 2), (7, 5, 1)),
    ((6, 4, 3, 1), (7, 3, 3)),
    ((6, 4, 2, 1), (7, 3, 1)),
    ((6, 3, 2, 1), (7, 1, 1)),
]

TABLE_2 = [
    ((6, 5, 4), (5, 5, 5, 5)),
    ((6, 5, 3), (5, 5, 5, 3)),
    ((6, 5, 2), (5, 5, 5, 1)),
    ((6, 5, 1), (5, 5, 3, 3)),
    ((6, 4, 3), (5, 5, 3, 1)),
    ((6, 4, 2), (5, 5, 1, 1)),
    ((6, 4, 1), (5, 3, 3, 3)),
    ((6, 3, 2), (5, 3, 3, 1)),
    ((6, 3, 1), (5, 3, 1, 1)),
    ((6, 2, 1), (5, 1, 1, 1)),
]

TABLE_3 = [
    ((5, 4, 3), (5, 5, 5)),
    ((5, 4, 2), (5, 5, 3)),
    ((5, 4, 1), (5, 5, 1)),
    ((5, 3, 2), (5, 3, 3)),
    ((5, 3, 1), (5, 3, 1)),
    ((5, 2, 1), (5, 1, 1)),
]

TABLE_4 = [
    ((1,), (1,), (1,)),
    ((2,), (1, 1), (1, 1)),
    ((3,), (1, 1, 1), (1, 1, 1)),
    ((4,), (1, 1, 1, 1), (1, 1, 1, 1)),
    ((3, 1), (4,), (4,)),
    ((5,), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
    ((4, 2), (4, 1), (4, 1)),
    ((4, 1), (4, 4), (4, 4)),
    ((6,), (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
    ((5, 3), (4, 1, 1), (4, 1, 1)),
    ((5, 2), (4, 4, 1), (4, 4, 1)),
    ((5, 1), (4, 4, 4), (4, 4, 4)),
    ((7,), (1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1)),
    ((6, 4), (4, 1, 1, 1), (4, 1, 1, 1)),
    ((6, 3), (4, 4, 1, 1), (4, 4, 1, 1)),
    ((6, 2), (4, 4, 4, 1), (4, 4, 4, 1)),
    ((6, 1), (4, 4, 4, 4), (4, 4, 4, 4)),
    ((5, 3, 1), (7,), (6, 4)),
]


def _cli_table(table_id):
    from conftest import subprocess_env

    out = subprocess.run(
        [sys.executable, "-m", "hookcomb", "table", str(table_id), "--format", "json"],
        capture_output=True,
        text=True,
        check=True,
        env=subprocess_env(),
    )
    return [tuple(tuple(col) for col in row["columns"]) for row in json.loads(out.stdout)]


def test_criterion_3_tables():
    # Note: the reference for table 4 lists one row per perimeter count
    # 1, 1, 1, 2, 3, 4, 6 over perimeters 1..7, hence 18 rows in total.
    for table_id, frozen in ((1, TABLE_1), (2, TABLE_2), (3, TABLE_3), (4, TABLE_4)):
        rows = _cli_table(table_id)
        assert set(rows) == set(frozen), f"table {table_id} row set differs"
        assert rows == frozen, f"table {table_id} emitted order differs"
    assert [len(t) for t in (TABLE_1, TABLE_2, TABLE_3, TABLE_4)] == [10, 10, 6, 18]
    _ok("criterion 3: tables 1-4 reproduced exactly (10, 10, 6 and 18 rows)")


# ---------------------------------------------------------------------------
# 4. pentagonal-type excess


def test_criterion_4_excess_four_ways():
    even = [0, 0, 0]
    odd = [0, 1, 1]
    for n in range(3, 31):
        even.append(even[n - 1] + odd[n - 2])
        odd.append(odd[n - 1] + even[n - 2])
    for n in range(1, 31):
        closed = {0: 0, 3: 0, 1: -1, 2: -1, 4: 1, 5: 1}[n % 6]
        assert excess_e(n) == closed
        assert even[n] - odd[n] == closed
        binomial = sum(binom(n - 2 * k - 2, 2 * k + 1) for k in range(n)) - sum(
            binom(n - 2 * k - 1, 2 * k) for k in range(n)
        )
        assert binomial == closed
        if n <= 16:
            signed = sum(
                1 if len(p) % 2 == 0 else -1
                for p in parts_by_perimeter(n)
                if parts_are_member(p, DISTINCT)
            )
            assert signed == closed
    _ok("criterion 4: period-6 excess law, four independent routes, up to perimeter 30")


# ---------------------------------------------------------------------------
# 5. the d-distinct chain


def test_criterion_5_d_chain():
    for d in range(1, 6):
        (report,) = run_checks("d-chain", d=d, max_n=18)
        assert report.passed, report.counterexample
        # one direct three-way spot check per d, independent of the harness
        n = 10
        dd = sum(1 for p in parts_by_perimeter(n) if parts_are_member(p, d_distinct(d)))
        mo = sum(1 for p in parts_by_perimeter(n) if parts_are_member(p, mod_one(d)))
        gc = sum(1 for p in parts_by_perimeter(n) if parts_are_member(p, g_class(d)))
        assert dd == mo == gc == len(gclass_by_block_grammar(n, d))
    _ok("criterion 5: d-distinct = mod-one = gap-class counts, d 1..5, perimeter up to 18")


# ---------------------------------------------------------------------------
# 6. generating function coefficients


def test_criterion_6_gf_coefficients():
    t0 = time.perf_counter()
    classes = [UNRESTRICTED, DISTINCT, ODD] + [
        f(d) for d in range(1, 6) for f in (d_distinct, mod_one, g_class)
    ]
    qbound = 12
    for c in classes:
        series = expand(gf_of_class(c), qbound)
        acc = {}
        for n in range(1, qbound + 1):
            for parts in parts_by_perimeter(n):
                if parts_are_member(parts, c):
                    key = (parts[0], len(parts), n)
                    acc[key] = acc.get(key, 0) + 1
        assert series == MultiPoly(("x", "y", "q"), acc, qbound), f"class {c}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.1f}s"
    _ok("criterion 6: trivariate series match enumeration to q^12 for all classes")


# ---------------------------------------------------------------------------
# 7. Franklin involution suite


def test_criterion_7_franklin():
    pentagonal = [1, 2, 5, 7, 12, 15, 22, 26, 35, 40]
    fixed_sizes = []
    for p in (make_partition(parts) for n in range(1, 41) for parts in partitions_of_size(n, distinct=True)):
        image = franklin(p)
        if image is None:
            fixed_sizes.append(p.size)
            continue
        assert image.size == p.size
        assert image.perimeter == p.perimeter
        assert (image.length + p.length) % 2 == 1
        assert franklin(image) == p
    assert sorted(fixed_sizes) == pentagonal
    _ok("criterion 7: involution properties to size 40; fixed points at 1,2,5,7,12,15,22,26,35,40")


# ---------------------------------------------------------------------------
# 8. the one- and two-variable pentagonal-type identities


def test_criterion_8_series_identities():
    (report,) = run_checks("andrews-identity", qbound=15)
    assert report.passed, report.counterexample
    (refined,) = run_checks("refined-identity", qbound=15)
    assert refined.passed, refined.counterexample
    assert refined.params["regrade_perimeter_limit"] == 7
    _ok("criterion 8: three-way series equalities to q^15, collapse and perimeter regrade")


# ---------------------------------------------------------------------------
# 9. Rogers-Fine


def test_criterion_9_rogers_fine():
    (report,) = run_checks("rogers-fine", qbound=10)
    assert report.passed, report.counterexample
    _ok("criterion 9: Rogers-Fine two-sided equality to q^10 in a, b, t")


# ---------------------------------------------------------------------------
# 10. congruences


def test_criterion_10_congruences():
    (report,) = run_checks("congruences", max_n=60, enum_limit=16)
    assert report.passed, report.counterexample
    assert fibonacci(9) == 34 and 34 % 16 == 2
    assert fibonacci(6) == 8 and 8 % 8 == 0
    assert count_parity_split(3) == (1, 1) and 1 % 8 == 1
    _ok("criterion 10: the seven congruences up to argument 60, enumeration spot checks to 16")


# ---------------------------------------------------------------------------
# 11. Fibonacci propositions


def test_criterion_11_fibonacci_propositions():
    fib = [fibonacci(i) for i in range(62)]
    for m in range(0, 31):
        for n in range(1, 31):
            assert fib[m + n] == fib[m + 1] * fib[n] + fib[m] * fib[n - 1]
    for m in range(1, 61):
        for n in range(m, 61, m):
            assert fib[n] % fib[m] == 0
    _ok("criterion 11: addition formula (m, n <= 30) and divisibility (m, n <= 60)")


# ---------------------------------------------------------------------------
# 12. the verification suite as a whole


def test_criterion_12_verify_all_exit_zero():
    from conftest import subprocess_env

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hookcomb", "verify", "all"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    transcript = (Path(__file__).parent / "data" / "verify_all.txt").read_text()
    assert proc.stdout == transcript, proc.stdout
    passes = [line for line in proc.stdout.splitlines() if line.startswith("[PASS]")]
    assert elapsed < 60.0, f"verify all took {elapsed:.1f}s"
    _ok(f"criterion 12: 'verify all' exits 0 with {len(passes)} passing checks in {elapsed:.1f}s")
