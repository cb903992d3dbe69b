"""Shared plumbing for the benchmark: locating the library, tracing, stats.

The benchmark lives in ``bench/`` next to ``src/``; every process it starts
imports ``hookcomb`` from that ``src/`` directory and nowhere else.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Percentiles considered for a tail latency; the highest one with at least
# ten samples beyond it is reported.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no library, or ``python -O``)."""


def refuse_optimized() -> None:
    # The library checks results with ``assert``; under -O it would be a
    # different program.
    if sys.flags.optimize:
        raise SetupError("refusing to run under python -O: the library's asserts are part of what is measured")


def check_checkout() -> None:
    refuse_optimized()
    if not (SRC / "hookcomb" / "__init__.py").is_file():
        raise SetupError(f"no hookcomb package under {SRC}")


def import_library():
    """Import ``hookcomb`` from this checkout's ``src/`` and return it."""
    check_checkout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hookcomb
    import hookcomb.cli  # noqa: F401  (the CLI is part of what the workloads call)

    if Path(hookcomb.__file__).resolve().parent != (SRC / "hookcomb").resolve():
        raise SetupError(f"imported hookcomb from {hookcomb.__file__}, not from {SRC}")
    return hookcomb


def child_env() -> dict:
    """Environment for a child interpreter that imports the library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def clock() -> float:
    """System-wide monotonic seconds, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def tail_percentile(n_samples: int) -> float:
    """Highest percentile in TAIL_PERCENTILES with >= 10 of ``n_samples``
    beyond it; the median when there are too few samples for a tail."""
    for p in TAIL_PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def int_bytes(n: int) -> bytes:
    # Never str() a result: counts here can exceed the int->str digit limit.
    return n.to_bytes((n.bit_length() + 8) // 8 or 1, "little", signed=True)


class Digest:
    """Order-sensitive hash of a pass's outputs, for comparing two passes."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, int):
            self._h.update(b"i" + int_bytes(value))
        elif isinstance(value, (tuple, list)):
            self._h.update(b"(")
            for item in value:
                self.add(item)
            self._h.update(b")")
        else:
            self._h.update(b"s" + repr(value).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class NullTracer:
    """Tracing off: a call is just the call."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def request(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory spans: (name, parent index, request id, start, end).

    Spans open around each call the benchmark makes into the library and
    around each request; children are the spans opened while a parent is
    open.  Nothing is written until :meth:`summary` is read at the end.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._request, time.perf_counter(), None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def request(self, name: str):
        self._request += 1
        idx = self._open("request." + name)
        try:
            yield
        finally:
            self._close(idx)

    def summary(self) -> dict:
        """Per span name: count, total ms and self ms (total minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _req, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _parent, _req, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (end - start) * 1000.0
            entry["self_ms"] += (end - start - child_time[i]) * 1000.0
        return out


class MulCounter:
    """Counts ``MultiPoly.__mul__`` calls, term pairs and time while active.

    With a tracer, each counted call is also a span, so the self time of
    the caller's span excludes multiplication.
    """

    def __init__(self, multipoly_cls, tracer=None) -> None:
        self.cls = multipoly_cls
        self.tracer = tracer or NullTracer()
        self.active = True
        self.calls = 0
        self.pairs = 0
        self.seconds = 0.0
        self._orig = None

    def install(self) -> "MulCounter":
        orig = self._orig = self.cls.__mul__
        counter = self

        def counted_mul(a, b):
            if not counter.active:
                return orig(a, b)
            counter.calls += 1
            counter.pairs += len(a.terms) * len(b.terms)
            t0 = time.perf_counter()
            try:
                return counter.tracer.call("series.MultiPoly.__mul__", orig, a, b)
            finally:
                counter.seconds += time.perf_counter() - t0

        self.cls.__mul__ = counted_mul
        return self

    def remove(self) -> None:
        if self._orig is not None:
            self.cls.__mul__ = self._orig
            self._orig = None


def emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)
