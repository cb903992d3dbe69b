"""Per-layer probes, one group per fresh interpreter.

    python3 bench/layers.py {words,perimeter,memory,identities}

Each group times direct calls into one or more library modules and prints
``{"metrics": {name: [value, unit, samples]}, "errors": [...]}``.  Groups
run in their own interpreter so that "cold" means cold: nothing earlier in
the process has filled the library's caches.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
import tracemalloc

from statistics import median

from common import MulCounter, SetupError, emit, import_library
from workloads import GATE_REPORTS, make_class, run_gate

WORD_PERIMETER = 18
MEMBER_SPECS = ("any", "distinct", "odd", "ddistinct:3", "modone:3", "gclass:3")
ENUM_SPECS = ("any", "distinct", "gclass:5")
GAP_SPECS = ("ddistinct:1", "distinct")
GAP_N = 10**5
REFINED_N = 18
RENDER_N = 10**4  # F(10**4) has 2,090 digits, inside the int->str limit


def metric_name(spec: str) -> str:
    return spec.replace(":", "_")


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def median_time(reps: int, fn, *args) -> float:
    """Median seconds over ``reps`` calls."""
    return median([timed(fn, *args)[0] for _ in range(reps)])


def words_group(lib, m: dict, errors: list) -> None:
    from hookcomb import counting, identities, partitions, profile

    # partitions_of_size caches by size: this must be its first use here.
    dt, _ = timed(lambda: [counting.partitions_of_size(k, True) for k in range(1, 61)])
    m["counting.size_enum_ms.n60"] = [dt * 1e3, "ms", 1]

    n = WORD_PERIMETER
    count = 1 << (n - 1)
    decode = lambda: [profile.parts_from_word_bits(n + 1, (b << 1) | (1 << n)) for b in range(count)]  # noqa: E731
    m["profile.decode_ns_per_word"] = [median_time(3, decode) / count * 1e9, "ns", 3]
    words = decode()
    for spec in MEMBER_SPECS:
        c = make_class(lib, spec)
        dt = median_time(3, lambda: [partitions.parts_are_member(w, c) for w in words])
        m[f"partitions.member_ns_per_word.{metric_name(spec)}"] = [dt / count * 1e9, "ns", 3]
    del words

    for spec in GAP_SPECS:
        dt = median_time(3, lib.count_by_perimeter, GAP_N, make_class(lib, spec))
        m[f"counting.gap_count_ms.{metric_name(spec)}"] = [dt * 1e3, "ms", 3]
    m["counting.parity_split_us.n1000"] = [median_time(9, lib.count_parity_split, 1000) * 1e6, "us", 9]
    closed = [median_time(9, lib.count_refined, REFINED_N, lib.NumParts(k), lib.DISTINCT) for k in range(1, 10)]
    m["counting.refined_ms.closed"] = [median(closed) * 1e3, "ms", len(closed)]

    out = identities.gclass_by_block_grammar(20, 2)
    if len(out) != lib.count_by_perimeter(20, lib.g_class(2)):
        errors.append("gclass_by_block_grammar(20, 2) has the wrong size")
    dt = median_time(5, identities.gclass_by_block_grammar, 20, 2)
    m["identities.block_grammar_ns_per_output"] = [dt / len(out) * 1e9, "ns", 5]

    def render():
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = lib.cli.main(["count", "--perimeter", str(RENDER_N), "--class", "distinct"])
            cli_s = time.perf_counter() - t0
        if rc != 0:
            errors.append(f"count --perimeter {RENDER_N} exited {rc}")
        return cli_s - timed(lib.count_by_perimeter, RENDER_N, lib.DISTINCT)[0]

    m["cli.count_render_ms"] = [median([render() for _ in range(7)]) * 1e3, "ms", 7]

    gf = lib.gf_of_class(lib.g_class(2))
    for qb in (100, 200):
        m[f"series.inverse_ms.qb{qb}"] = [median_time(5, lib.series_inverse, gf.denominator, qb) * 1e3, "ms", 5]
        m[f"series.expand_ms.qb{qb}"] = [median_time(5, lib.expand, gf, qb) * 1e3, "ms", 5]

    counter = MulCounter(lib.MultiPoly).install()
    try:
        lhs, rhs = identities.rogers_fine_sides(22)
    finally:
        counter.remove()
    if lhs != rhs:
        errors.append("rogers_fine_sides(22): the two sides differ")
    m["series.mul_calls"] = [counter.calls, "count", 1]
    m["series.mul_term_pairs"] = [counter.pairs, "count", 1]
    m["series.mul_ns_per_pair"] = [counter.seconds / counter.pairs * 1e9, "ns", 1]


def perimeter_group(lib, m: dict, errors: list) -> None:
    from hookcomb import counting

    for n in (16, 18, 20):
        dt, parts = timed(counting.parts_by_perimeter, n)
        if len(parts) != 1 << (n - 1):
            errors.append(f"parts_by_perimeter({n}) has {len(parts)} entries")
        m[f"counting.fill_ms.n{n}"] = [dt * 1e3, "ms", 1]
    # perimeter 18 is now cached, so this is the sweep alone
    fallback = [timed(lib.count_refined, REFINED_N, lib.NumParts(k), lib.ODD)[0] for k in range(1, 10)]
    m["counting.refined_ms.fallback"] = [median(fallback) * 1e3, "ms", len(fallback)]
    for n in (20, 21):
        for spec in ENUM_SPECS:
            c = make_class(lib, spec)
            dt, out = timed(lambda: list(lib.enumerate_by_perimeter(n, c)))
            if len(out) != lib.count_by_perimeter(n, c):
                errors.append(f"enumerate_by_perimeter({n}, {spec}) gave {len(out)} partitions")
            m[f"counting.enumerate_ns_per_output.{metric_name(spec)}.n{n}"] = [dt / len(out) * 1e9, "ns", 1]
            del out


def memory_group(lib, m: dict, errors: list) -> None:
    from hookcomb import counting

    tracemalloc.start()
    for spec in GAP_SPECS:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lib.count_by_perimeter(GAP_N, make_class(lib, spec))
        m[f"counting.gap_count_mb.{metric_name(spec)}"] = [(tracemalloc.get_traced_memory()[1] - base) / 2**20, "MB", 1]
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    for top in (18, 20):
        for n in range(1, top + 1):
            counting.parts_by_perimeter(n)
        gc.collect()
        m[f"counting.cache_mb.n{top}"] = [(tracemalloc.get_traced_memory()[0] - base) / 2**20, "MB", 1]
    tracemalloc.stop()


def identities_group(lib, m: dict, errors: list) -> None:
    """``verify all`` in-process, one span per check, then as a CLI process."""
    from hookcomb import counting, identities

    spans = {}
    t0 = time.perf_counter()
    for n in range(1, 19):  # the largest perimeter any default check sweeps
        counting.parts_by_perimeter(n)
    spans["identities.cache_fill_ms"] = time.perf_counter() - t0
    for cid, d in GATE_REPORTS:
        kwargs = {"d": d} if cid == "d-chain" else {}
        dt, reports = timed(lambda: identities.run_checks(cid, **kwargs))
        name = f"identities.{cid}.d{d}.ms" if cid == "d-chain" else f"identities.{cid}.ms"
        spans[name] = dt
        if len(reports) != 1 or not reports[0].passed:
            errors.append(f"check {cid} {kwargs} did not pass")
    for name, dt in spans.items():
        m[name] = [dt * 1e3, "ms", 1]
    gate = run_gate()
    if gate.returncode != 0:
        errors.append(f"verify all exited {gate.returncode}")
        return
    # What the CLI process spends outside its checks (interpreter start,
    # imports, parsing, rendering): its wall time minus the per-check times
    # it reports itself, so that noise between processes does not enter.
    inside_ms = sum(r["elapsed_ms"] for r in json.loads(gate.stdout))
    m["cli.gate_overhead_ms"] = [gate.wall_s * 1e3 - inside_ms, "ms", 1]


GROUPS = {"words": words_group, "perimeter": perimeter_group, "memory": memory_group, "identities": identities_group}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in GROUPS:
        print(f"usage: layers.py {{{','.join(GROUPS)}}}", file=sys.stderr)
        return 2
    try:
        lib = import_library()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics: dict = {}
    errors: list = []
    GROUPS[argv[0]](lib, metrics, errors)
    emit({"metrics": metrics, "errors": errors})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
