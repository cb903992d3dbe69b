"""One pass of a workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object.  Set-up (interpreter start,
importing the library, building the request list) ends at the first timed
request.  Each request is timed alone and checked right after, outside its
timed region.
"""

from __future__ import annotations

import argparse
import sys
import time

from common import Digest, MulCounter, NullTracer, SetupError, Tracer, clock, emit, import_library, peak_rss_mb
from workloads import WORKLOADS, Checker, build_requests, canonical, execute, output_count, refused


def run_pass(lib, workload: str, seed: int, traced: bool) -> dict:
    reqs = build_requests(workload, seed)
    tracer = Tracer() if traced else NullTracer()
    counter = MulCounter(lib.MultiPoly, tracer).install() if traced else None
    checker = Checker(lib)
    digest = Digest()
    samples: list[float] = []
    errors: list[str] = []
    wall = 0.0
    failed = outputs = 0
    gate_rss = None
    t_first = clock()
    for req in reqs:
        if counter:
            counter.active = True
        t0 = time.perf_counter()
        with tracer.request(req[0]):
            try:
                result = execute(lib, req, tracer)
                ok = True
            except Exception as exc:  # a refused request: counted, not fatal
                print(f"refused: {req}: {exc!r}", file=sys.stderr)
                result, ok = exc, False
        elapsed = time.perf_counter() - t0
        if counter:
            counter.active = False
        wall += elapsed
        if ok and refused(req, result):
            ok = False
        if not ok:
            failed += 1
            samples.append(float("inf"))
            digest.add(("failed", req))
            continue
        if req[0] == "gate":
            gate_rss = result.rss_mb
        samples.append(elapsed * 1000.0)
        message = checker.check(req, result)
        if message:
            errors.append(message)
        outputs += output_count(req, result)
        digest.add(canonical(req, result))
    out = {
        "t_first": t_first,
        "wall_s": wall,
        "peak_rss_mb": gate_rss if gate_rss is not None else peak_rss_mb(),
        "samples_ms": samples,
        "attempted": len(reqs),
        "failed": failed,
        "outputs": outputs,
        "errors": errors,
        "digest": digest.hexdigest(),
    }
    if traced:
        counter.remove()
        out["spans"] = tracer.summary()
        out["span_count"] = len(tracer.spans)
        out["mul"] = {"calls": counter.calls, "term_pairs": counter.pairs}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        lib = import_library()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(run_pass(lib, args.workload, args.seed, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
