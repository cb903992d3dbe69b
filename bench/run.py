"""hookcomb benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload {gate,enumerate,series,count} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it runs fresh-interpreter passes of the workload until
``--seconds`` have gone by (at least ``MIN_PASSES``) and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one traced
pass (spans around every call into the library), checks that both produce
identical outputs, runs the per-layer probes of ``layers.py`` and reports
the per-layer metrics plus the tracing overhead.

Every result is checked; a wrong one makes the command exit 1.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from statistics import median

from common import (
    BENCH_DIR,
    ROOT,
    SetupError,
    check_checkout,
    child_env,
    clock,
    emit,
    environment,
    percentile,
    tail_percentile,
)
from workloads import WORKLOADS, build_requests

# Passes are whole fresh processes; at least this many per untraced run, so
# that medians and the tail percentile rest on enough samples.
MIN_PASSES = {"gate": 3, "enumerate": 2, "series": 3, "count": 3}

# Everything must be over within this many seconds of start.
DEADLINE_S = 170.0

LAYER_GROUPS = ("words", "perimeter", "memory", "identities")


class Failure(RuntimeError):
    pass


_start = time.monotonic()


def _run_child(argv: list[str]) -> dict:
    """Run a bench script in a fresh interpreter; return its last JSON line."""
    remaining = DEADLINE_S - (time.monotonic() - _start)
    if remaining <= 0:
        raise Failure("out of time")
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise Failure(f"{argv[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise Failure(f"{' '.join(argv)} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise Failure(f"{' '.join(argv)} printed nothing")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    t_spawn = clock()
    result = _run_child([str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    passes: list[dict] = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES[workload] or time.monotonic() - t0 < seconds:
        passes.append(run_pass(workload, seed, traced=False))
    samples = [s for p in passes for s in p["samples_ms"]]
    # The tail percentile depends only on the guaranteed sample count, so a
    # faster program that fits more passes reports the same percentile.
    tail = tail_percentile(len(passes[0]["samples_ms"]) * MIN_PASSES[workload])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall_total = sum(p["wall_s"] for p in passes)
    metrics = {
        "wall_s": (median([p["wall_s"] for p in passes]), "s", len(passes)),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB", len(passes)),
        "request_p50_ms": (percentile(samples, 50.0), "ms", len(samples)),
        "request_tail_ms": (percentile(samples, tail), "ms", len(samples)),
        "outputs_per_s": (sum(p["outputs"] for p in passes) / wall_total, "1/s", len(passes)),
        "success_rate": (1.0 - failed / attempted, "ratio", attempted),
        "setup_s": (median([p["setup_s"] for p in passes]), "s", len(passes)),
    }
    notes = {"request_tail_ms": f"p{tail:g}", "success_rate": f"error_rate={failed / attempted:.4f}"}
    return {k: v + (notes.get(k, ""),) for k, v in metrics.items()}, passes


def traced(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    plain = run_pass(workload, seed, traced=False)
    spanned = run_pass(workload, seed, traced=True)
    errors = []
    if plain["digest"] != spanned["digest"]:
        errors.append("traced and untraced passes produced different outputs")
    metrics: dict = {}
    for group in LAYER_GROUPS:
        probe = _run_child([str(BENCH_DIR / "layers.py"), group])
        errors += probe["errors"]
        metrics.update({name: tuple(v) + ("",) for name, v in probe["metrics"].items()})
    metrics["trace.overhead_s"] = (spanned["wall_s"] - plain["wall_s"], "s", 1, f"untraced {plain['wall_s']:.4f} s")
    metrics["trace.spans"] = (spanned["span_count"], "count", 1, "")
    for name, entry in sorted(spanned["spans"].items()):
        print(f"# span {name}: {entry['count']} calls, {entry['total_ms']:.2f} ms total, {entry['self_ms']:.2f} ms self", file=sys.stderr)
    print(f"# mul during requests: {spanned['mul']['calls']} calls, {spanned['mul']['term_pairs']} term pairs", file=sys.stderr)
    return metrics, [plain, spanned], errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        check_checkout()
        if args.trace:
            metrics, passes, errors = traced(args.workload, args.seed)
        else:
            metrics, passes = end_to_end(args.workload, args.seed, args.seconds)
            errors = []
    except (SetupError, Failure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors += [e for p in passes for e in p["errors"]]
    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"requests/pass={len(build_requests(args.workload, args.seed))} outputs/pass={passes[0]['outputs']} "
          f"python={env['python']} optimize={env['optimize']} nproc={env['nproc']} cpu={env['cpu']}")
    for name, (value, unit, n, note) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} n={n} {note}".rstrip())
    for message in errors:
        print(f"WRONG: {message}", file=sys.stderr)
    emit({
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n, _note) in metrics.items()},
    })
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
