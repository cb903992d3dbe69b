"""Seeded request lists, their execution, and their correctness checks.

A workload pass is a fixed multiset of requests; the seed picks values
inside narrow strata and the order, so a new seed changes the order of the
work but hardly its total.  Each request is executed through a tracer
(a no-op when tracing is off) and then checked outside the timed region by
a route other than the one timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

from common import ROOT, child_env

WORKLOADS = ("gate", "enumerate", "series", "count")

# The 18 classes of the library's ``_all_classes(5)``, densest first.
CLASS_SPECS = ["any", "distinct", "odd"] + [
    f"{kind}:{d}" for d in range(1, 6) for kind in ("ddistinct", "modone", "gclass")
]
GAP_SPECS = CLASS_SPECS[3:]

# ``verify all`` at its defaults reports these checks (d-chain once per d).
GATE_REPORTS = sorted(
    [(cid, 0) for cid in (
        "andrews-identity", "congruences", "euler-analogue", "fibonacci", "franklin",
        "gf-coefficients", "pentagonal-analogue", "powers-of-two", "refined-identity",
        "refinements", "rogers-fine",
    )] + [("d-chain", d) for d in range(1, 6)]
)

# Modulus for checking counts too large to recompute exactly.
PRIME = (1 << 61) - 1

# count checks n <= SMALL_N against series coefficients.
SMALL_N = 60
# count_refined: fallback requests sit at REFINED_N, closed-form ones at or
# below REFINED_MAX_N.
REFINED_N = 17
REFINED_MAX_N = 18


def make_class(lib, spec: str):
    plain = {"any": lib.UNRESTRICTED, "distinct": lib.DISTINCT, "odd": lib.ODD}
    if spec in plain:
        return plain[spec]
    kind, d = spec.split(":")
    return {"ddistinct": lib.d_distinct, "modone": lib.mod_one, "gclass": lib.g_class}[kind](int(d))


# ---------------------------------------------------------------------------
# request lists


def _enumerate_requests(rng: random.Random) -> list[tuple]:
    # Perimeters 15-20 share the library's cache; one request at 21 is above
    # its limit.  Each class is asked three times, at perimeters picked per
    # class family so that the costs of the middle and upper requests form
    # an unbroken spread (sparse gclass is ~3x cheaper per word, dense any
    # ~3x dearer), which keeps the median and the tail off a gap between
    # cost levels.  Perimeters are visited in ascending order and the seed
    # orders the classes within each, so the cache fills, and the cache's
    # size when the uncached request comes last, do not move with the seed.
    family = lambda spec: spec.split(":")[0]  # noqa: E731
    middle = {"any": 16, "gclass": 18}
    upper = {"any": 17, "gclass": 19}
    reqs = []
    for spec in CLASS_SPECS:
        reqs.append(("enumerate", spec, 15))
        reqs.append(("enumerate", spec, middle.get(family(spec), 16)))
        reqs.append(("enumerate", spec, upper.get(family(spec), 18)))
    reqs.append(("enumerate", f"gclass:{rng.randint(1, 5)}", 20))
    rng.shuffle(reqs)
    reqs.sort(key=lambda r: r[2])
    reqs.append(("enumerate", f"gclass:{rng.randint(1, 5)}", 21))
    return reqs


def _series_requests(rng: random.Random) -> list[tuple]:
    # q-bounds spread over 100-250 by class, with a little seeded jitter, so
    # the latency distribution has no gap for its median to fall into.
    reqs = [("expand", spec, 100 + (150 * i) // 17 + rng.randrange(-2, 3)) for i, spec in enumerate(CLASS_SPECS)]
    reqs += [("rogers_fine", qb) for qb in (16, 19, 22)]
    reqs += [("inverse", k, rng.randrange(qb - 3, qb + 3)) for k, qb in ((3, 80), (4, 90), (5, 100))]
    return reqs


def _count_requests(rng: random.Random) -> list[tuple]:
    # Three strata: microsecond requests (under half of the pass, so the
    # median falls among the millisecond ones), millisecond ones, and a few
    # large ones that make the tail.
    near = lambda n: rng.randrange(n, n + n // 200)  # noqa: E731
    reqs = [("count", spec, rng.randrange(1, SMALL_N + 1)) for spec in rng.sample(CLASS_SPECS, 12)]
    # the closed forms for distinct parts
    for _ in range(6):
        n = rng.randrange(10, REFINED_MAX_N + 1)
        reqs.append(("refined", "distinct", n, rng.choice(["NumParts", "LargestPart", "Rank"]), rng.randrange(0, n)))
    reqs.append(("count", "any", near(100_000)))
    reqs += [("count", spec, near(20_000)) for spec in GAP_SPECS]
    reqs.append(("count", rng.choice(["distinct", "odd"]), near(60_000)))
    reqs += [("parity", near(1000)) for _ in range(4)]
    reqs.append(("count", rng.choice(["ddistinct:1", "modone:1", "gclass:1"]), near(98_000)))
    reqs.append(("count", rng.choice(["distinct", "odd"]), near(98_000)))
    reqs.append(("parity", 16))
    # classes without a closed form fall back to enumeration
    for spec in ("odd", "ddistinct:2", "modone:2", "gclass:2", "ddistinct:3", "modone:3", "gclass:3", "odd"):
        reqs.append(("refined", spec, REFINED_N, rng.choice(["NumParts", "LargestPart"]), rng.randrange(1, 9)))
    # more than 4,300 digits: the CLI cannot print it on the seed
    reqs.append(("cli_count", rng.choice(["any", "distinct"]), near(30_000)))
    return reqs


def build_requests(workload: str, seed: int) -> list[tuple]:
    """The request list of one pass; equal seeds give equal lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gate":
        return [("gate",)]
    if workload == "enumerate":
        return _enumerate_requests(rng)
    reqs = {"series": _series_requests, "count": _count_requests}[workload](rng)
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# execution


@dataclass
class GateResult:
    """What one ``verify all`` process returned."""

    returncode: int
    stdout: bytes
    wall_s: float
    rss_mb: float


def run_gate() -> GateResult:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hookcomb", "verify", "all", "--format", "json"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        out = proc.stdout.read()
    # wait4 gives the peak RSS of this one child, not a maximum over all
    # children as RUSAGE_CHILDREN would.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return GateResult(proc.returncode, out, time.perf_counter() - t0, usage.ru_maxrss / 1024.0)


def _cli_main(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def execute(lib, req: tuple, tr):
    """Run one request; the result is whatever the library call returned."""
    kind = req[0]
    if kind == "gate":
        return tr.call("cli.main", run_gate)
    if kind == "enumerate":
        _, spec, n = req
        c = make_class(lib, spec)
        return tr.call("counting.enumerate_by_perimeter", lambda: list(lib.enumerate_by_perimeter(n, c)))
    if kind == "expand":
        _, spec, qb = req
        gf = tr.call("series.gf_of_class", lib.gf_of_class, make_class(lib, spec))
        return gf, tr.call("series.expand", lib.expand, gf, qb)
    if kind == "rogers_fine":
        return tr.call("identities.rogers_fine_sides", lib.identities.rogers_fine_sides, req[1])
    if kind == "inverse":
        _, k, qb = req
        base = lib.MultiPoly.monomial(("x", "q"), 1, {"x": 1, "q": 1}, qb)
        poch = tr.call("series.pochhammer", lib.pochhammer, base, k, qb)
        return poch, tr.call("series.series_inverse", lib.series_inverse, poch, qb)
    if kind == "count":
        _, spec, n = req
        return tr.call("counting.count_by_perimeter", lib.count_by_perimeter, n, make_class(lib, spec))
    if kind == "parity":
        return tr.call("counting.count_parity_split", lib.count_parity_split, req[1])
    if kind == "refined":
        _, spec, n, key, k = req
        key_obj = getattr(lib, key)(k)
        return tr.call("counting.count_refined", lib.count_refined, n, key_obj, make_class(lib, spec))
    if kind == "cli_count":
        _, spec, n = req
        return tr.call("cli.main", _cli_main, lib.cli, ["count", "--perimeter", str(n), "--class", spec])
    raise ValueError(f"unknown request kind {kind!r}")


def refused(req: tuple, result) -> bool:
    """A request the program declined (exit code 2), not a wrong answer."""
    return req[0] == "cli_count" and result[0] == 2


def output_count(req: tuple, result) -> int:
    kind = req[0]
    if kind == "gate":
        return len(json.loads(result.stdout)) if result.returncode == 0 else 0
    if kind == "enumerate":
        return len(result)
    if kind in ("expand", "inverse"):
        return len(result[1].terms)
    if kind == "rogers_fine":
        return len(result[0].terms) + len(result[1].terms)
    return 1


def canonical(req: tuple, result):
    """A hashable, str()-free form of the result, for comparing passes."""
    kind = req[0]
    if kind == "gate":
        reports = json.loads(result.stdout) if result.returncode == 0 else []
        return (result.returncode, [(r["check_id"], r["status"], json.dumps(r["params"], sort_keys=True)) for r in reports])
    if kind == "enumerate":
        return [p.parts for p in result]
    if kind in ("expand", "inverse"):
        return sorted(result[1].terms.items())
    if kind == "rogers_fine":
        return [sorted(side.terms.items()) for side in result]
    if kind == "cli_count":
        return (result[0], _digits_mod(result[1]))
    return result


# ---------------------------------------------------------------------------
# checks: each returns None when the result is right, else a message


def _member(parts: tuple[int, ...], spec: str) -> bool:
    """Class membership, written from the class definitions."""
    if spec == "any":
        return True
    diffs = [a - b for a, b in zip(parts, parts[1:])]
    if spec == "distinct":
        return all(g > 0 for g in diffs)
    if spec == "odd":
        return all(x % 2 == 1 for x in parts)
    kind, d = spec.split(":")
    d = int(d)
    if kind == "ddistinct":
        return all(g >= d for g in diffs)
    if kind == "modone":
        return all(x % (d + 1) == 1 for x in parts)
    m = 2 * d + 1
    if any(x % m not in (1, (d + 2) % m) for x in parts):
        return False
    gaps = diffs + [parts[-1]]
    return all(g < m if x % m == 1 else g <= m for x, g in zip(parts, gaps))


def _truncate(terms, qi: int, qb: int) -> dict:
    return {e: c for e, c in terms.items() if e[qi] <= qb and c}


def _mul_truncated(a, b, qi: int, qb: int) -> dict:
    """Product of two term maps, dropping q-degrees above ``qb``."""
    out: dict = {}
    for e1, c1 in a.items():
        q1 = e1[qi]
        for e2, c2 in b.items():
            if q1 + e2[qi] <= qb:
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _univariate(poly, values: dict) -> list[int]:
    """Coefficients in q after substituting integers for the other variables."""
    qi = poly.variables.index("q")
    coeffs: dict[int, int] = {}
    for exps, c in poly.terms.items():
        for var, e in zip(poly.variables, exps):
            if var != "q":
                c *= values[var] ** e
        coeffs[exps[qi]] = coeffs.get(exps[qi], 0) + c
    out = [0] * (max(coeffs, default=0) + 1)
    for j, c in coeffs.items():
        out[j] = c
    return out


def _mat_mul(a, b, p):
    k = len(b[0])
    return [[sum(x * b[t][j] for t, x in enumerate(row)) % p for j in range(k)] for row in a]


def series_term_mod(num: list[int], den: list[int], n: int, p: int = PRIME) -> int:
    """Coefficient of q^n in num/den, modulo p, by a companion-matrix power."""
    while den and den[-1] == 0:
        den = den[:-1]
    k = len(den) - 1
    a: list[int] = []
    for i in range(max(len(num), k) + k + 1):
        a.append((num[i] if i < len(num) else 0) - sum(den[j] * a[i - j] for j in range(1, k + 1) if i - j >= 0))
    if n < len(a) or k == 0:
        return (a[n] if n < len(a) else 0) % p
    s = len(a) - 1
    # state (a[s], a[s-1], ..., a[s-k+1]) -> (a[s+1], a[s], ...)
    mat = [[(-den[j + 1]) % p for j in range(k)]] + [[int(i == j) for j in range(k)] for i in range(k - 1)]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    e = n - s
    while e:
        if e & 1:
            power = _mat_mul(power, mat, p)
        mat = _mat_mul(mat, mat, p)
        e >>= 1
    state = [a[s - i] % p for i in range(k)]
    return sum(x * y for x, y in zip(power[0], state)) % p


def _digits_mod(text: str, p: int = PRIME) -> int:
    """A decimal numeral modulo p, without int(), which refuses long numerals."""
    v = 0
    for ch in text:
        v = (v * 10 + ord(ch) - 48) % p
    return v


class Checker:
    """Checks results; caches the reference series it computes."""

    def __init__(self, lib):
        self.lib = lib
        self._gf_small: dict[str, list[int]] = {}
        self._gf_refined: dict[str, object] = {}

    def _gf(self, spec: str):
        return self.lib.gf_of_class(make_class(self.lib, spec))

    def _count_mod(self, spec: str, n: int, x: int = 1, y: int = 1) -> int:
        gf = self._gf(spec)
        num = _univariate(gf.numerator, {"x": x, "y": y})
        den = _univariate(gf.denominator, {"x": x, "y": y})
        return series_term_mod(num, den, n)

    def _count_small(self, spec: str, n: int) -> int:
        if spec not in self._gf_small:
            expanded = self.lib.expand(self._gf(spec), SMALL_N)
            self._gf_small[spec] = _univariate(expanded, {"x": 1, "y": 1}) + [0] * (SMALL_N + 1)
        return self._gf_small[spec][n]

    def check(self, req: tuple, result) -> str | None:
        return getattr(self, "_check_" + req[0])(req, result)

    def _check_gate(self, req, result) -> str | None:
        if result.returncode != 0:
            return f"verify all exited {result.returncode}"
        reports = json.loads(result.stdout)
        got = sorted((r["check_id"], r["params"].get("d", 0) if r["check_id"] == "d-chain" else 0) for r in reports)
        if got != GATE_REPORTS:
            return f"verify all reported {got}"
        failing = [r["check_id"] for r in reports if r["status"] != "pass"]
        return f"checks did not pass: {failing}" if failing else None

    def _check_enumerate(self, req, result) -> str | None:
        _, spec, n = req
        parts = [p.parts for p in result]
        expected = self.lib.count_by_perimeter(n, make_class(self.lib, spec))
        if len(parts) != expected:
            return f"enumerate({n}, {spec}): {len(parts)} outputs, count_by_perimeter says {expected}"
        for i, p in enumerate(parts):
            if p[0] + len(p) - 1 != n:
                return f"enumerate({n}, {spec}): {p} has perimeter {p[0] + len(p) - 1}"
            if not _member(p, spec):
                return f"enumerate({n}, {spec}): {p} is not in the class"
            if i and not parts[i - 1] > p:
                return f"enumerate({n}, {spec}): {parts[i - 1]} then {p} is not strictly reverse-lexicographic"
        return None

    def _check_expand(self, req, result) -> str | None:
        _, spec, qb = req
        gf, expansion = result
        qi = expansion.variables.index("q")
        if any(e[qi] > qb for e in expansion.terms):
            return f"expand({spec}, {qb}) has terms above the bound"
        back = _mul_truncated(dict(expansion.terms), dict(gf.denominator.terms), qi, qb)
        if back != _truncate(gf.numerator.terms, qi, qb):
            return f"expand({spec}, {qb}) times the denominator is not the numerator"
        return None

    def _check_rogers_fine(self, req, result) -> str | None:
        lhs, rhs = result
        if not lhs.terms or dict(lhs.terms) != dict(rhs.terms):
            return f"rogers_fine_sides({req[1]}): the two sides differ"
        return None

    def _check_inverse(self, req, result) -> str | None:
        _, k, qb = req
        poch, inverse = result
        qi = poch.variables.index("q")
        one = {(0,) * len(poch.variables): 1}
        if _mul_truncated(dict(poch.terms), dict(inverse.terms), qi, qb) != one:
            return f"series_inverse(pochhammer(x*q, {k}), {qb}) is not an inverse"
        return None

    def _check_count(self, req, result) -> str | None:
        _, spec, n = req
        if n <= SMALL_N:
            ok = result == self._count_small(spec, n)
        else:
            ok = result % PRIME == self._count_mod(spec, n)
        return None if ok else f"count_by_perimeter({n}, {spec}) is wrong"

    def _check_parity(self, req, result) -> str | None:
        n = req[1]
        even, odd = result
        if (even + odd) % PRIME != self._count_mod("distinct", n):
            return f"count_parity_split({n}): even + odd is wrong"
        if (even - odd) % PRIME != self._count_mod("distinct", n, y=-1):
            return f"count_parity_split({n}): even - odd is wrong"
        return None

    def _check_refined(self, req, result) -> str | None:
        _, spec, n, key, k = req
        if spec not in self._gf_refined:
            self._gf_refined[spec] = self.lib.expand(self._gf(spec), REFINED_MAX_N)
        expansion = self._gf_refined[spec]
        stat = {"NumParts": lambda x, y: y, "LargestPart": lambda x, y: x, "Rank": lambda x, y: x - y}[key]
        expected = sum(c for (x, y, q), c in expansion.terms.items() if q == n and stat(x, y) == k)
        return None if result == expected else f"count_refined({n}, {key}({k}), {spec}) = {result}, expected {expected}"

    def _check_cli_count(self, req, result) -> str | None:
        _, spec, n = req
        rc, out = result
        if rc != 0:
            return f"count --perimeter {n} --class {spec} exited {rc}"
        fields = out.split()
        if len(fields) != 2 or fields[0] != str(n) or not fields[1].isdigit():
            return f"count --perimeter {n} --class {spec} printed {out[:80]!r}"
        return None if _digits_mod(fields[1]) == self._count_mod(spec, n) else f"count --perimeter {n} --class {spec} is wrong"
