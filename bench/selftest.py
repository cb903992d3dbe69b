"""Self-tests for the benchmark itself (not for the library).

    python3 bench/selftest.py

Checks that request lists are a function of the seed, that every
workload's checker rejects a tampered result, that tracing does not change
outputs, and that the benchmark refuses ``python -O`` and a checkout
without the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from common import BENCH_DIR, Digest, MulCounter, NullTracer, Tracer, import_library
from workloads import (
    GATE_REPORTS,
    WORKLOADS,
    Checker,
    GateResult,
    build_requests,
    canonical,
    execute,
    series_term_mod,
)

lib = import_library()


def small(workload: str) -> list[tuple]:
    """The cheap requests of a seeded pass, in pass order."""
    cheap = {
        "enumerate": lambda r: r[2] <= 16,
        "series": lambda r: r[0] != "rogers_fine" and r[-1] < 120,
        "count": lambda r: not (r[0] == "count" and r[2] > 50_000) and not (r[0] == "refined" and r[1] != "distinct"),
    }[workload]
    return [r for r in build_requests(workload, 7) if cheap(r)]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in WORKLOADS:
            self.assertEqual(build_requests(w, 11), build_requests(w, 11))

    def test_seed_changes_order_not_size(self):
        for w in ("enumerate", "series", "count"):
            a, b = build_requests(w, 1), build_requests(w, 2)
            self.assertNotEqual(a, b)
            self.assertEqual(len(a), len(b))
            self.assertEqual(sorted(r[0] for r in a), sorted(r[0] for r in b))


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.checker = Checker(lib)

    def run_first(self, workload: str, kind: str):
        req = next(r for r in small(workload) if r[0] == kind)
        result = execute(lib, req, NullTracer())
        self.assertIsNone(self.checker.check(req, result))
        return req, result

    def test_enumerate_tampering(self):
        req = next(r for r in small("enumerate") if r[1] == "distinct")
        result = execute(lib, req, NullTracer())
        self.assertIsNone(self.checker.check(req, result))
        n = req[2]
        outsider = lib.make_partition([n - 2, 1, 1])  # perimeter n, parts repeat
        self.assertIsNotNone(self.checker.check(req, result[:-1]))
        self.assertIsNotNone(self.checker.check(req, result[::-1]))
        self.assertIsNotNone(self.checker.check(req, [outsider] + result[1:]))
        self.assertIsNotNone(self.checker.check(req, [lib.make_partition([n + 1])] + result[1:]))

    def test_series_tampering(self):
        req, (gf, expansion) = self.run_first("series", "expand")
        terms = dict(expansion.terms)
        key = next(iter(terms))
        terms[key] += 1
        bad = lib.MultiPoly(expansion.variables, terms, expansion.qbound)
        self.assertIsNotNone(self.checker.check(req, (gf, bad)))
        req, (poch, inverse) = self.run_first("series", "inverse")
        self.assertIsNotNone(self.checker.check(req, (poch, inverse + inverse)))
        lhs, rhs = lib.identities.rogers_fine_sides(6)
        req = ("rogers_fine", 6)
        self.assertIsNone(self.checker.check(req, (lhs, rhs)))
        self.assertIsNotNone(self.checker.check(req, (lhs, rhs + rhs)))

    def test_count_tampering(self):
        for kind in ("count", "parity", "refined"):
            req, result = self.run_first("count", kind)
            bad = (result[0] + 1, result[1]) if kind == "parity" else result + 1
            self.assertIsNotNone(self.checker.check(req, bad), req)
        big = next(r for r in build_requests("count", 7) if r[0] == "count" and r[2] > 50_000 and r[1] == "any")
        self.assertIsNone(self.checker.check(big, 1 << (big[2] - 1)))
        self.assertIsNotNone(self.checker.check(big, (1 << (big[2] - 1)) + 1))
        cli = ("cli_count", "distinct", 30)
        self.assertIsNone(self.checker.check(cli, (0, "30 832040\n")))
        self.assertIsNotNone(self.checker.check(cli, (0, "30 832041\n")))
        self.assertIsNotNone(self.checker.check(cli, (1, "")))

    def test_gate_tampering(self):
        reports = [{"check_id": cid, "params": {"d": d} if cid == "d-chain" else {}, "status": "pass", "elapsed_ms": 1.0}
                   for cid, d in GATE_REPORTS]
        good = GateResult(0, json.dumps(reports).encode(), 1.0, 1.0)
        self.assertIsNone(self.checker.check(("gate",), good))
        reports[3]["status"] = "fail"
        self.assertIsNotNone(self.checker.check(("gate",), GateResult(0, json.dumps(reports).encode(), 1.0, 1.0)))
        self.assertIsNotNone(self.checker.check(("gate",), GateResult(0, json.dumps(reports[1:]).encode(), 1.0, 1.0)))
        self.assertIsNotNone(self.checker.check(("gate",), GateResult(1, b"[]", 1.0, 1.0)))

    def test_companion_power_matches_recurrence(self):
        fib = [0, 1]
        for _ in range(300):
            fib.append(fib[-1] + fib[-2])
        for n in (0, 1, 2, 5, 50, 300):
            self.assertEqual(series_term_mod([0, 1], [1, -1, -1], n), fib[n] % ((1 << 61) - 1))


class TraceTest(unittest.TestCase):
    def test_traced_outputs_identical(self):
        for w in ("enumerate", "series", "count"):
            digests = []
            for tracer in (NullTracer(), Tracer()):
                counter = MulCounter(lib.MultiPoly, tracer).install() if isinstance(tracer, Tracer) else None
                try:
                    digest = Digest()
                    for req in small(w):
                        with tracer.request(req[0]):
                            result = execute(lib, req, tracer)
                        digest.add(canonical(req, result))
                    digests.append(digest.hexdigest())
                finally:
                    if counter:
                        counter.remove()
            self.assertEqual(digests[0], digests[1], w)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.request("r"):
            tracer.call("outer", lambda: tracer.call("inner", sum, range(10**5)))
        summary = tracer.summary()
        self.assertLessEqual(summary["outer"]["self_ms"], summary["outer"]["total_ms"] - summary["inner"]["total_ms"] + 1e-6)
        self.assertEqual(summary["request.r"]["count"], 1)


class RefusalTest(unittest.TestCase):
    def run_bench(self, *argv, cwd=None):
        return subprocess.run([sys.executable, *argv, "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=cwd, capture_output=True, text=True, timeout=60)

    def test_refuses_optimize(self):
        out = self.run_bench("-O", str(BENCH_DIR / "run.py"))
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_refuses_checkout_without_library(self):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            out = self.run_bench(os.path.join("bench", "run.py"), cwd=tmp)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
