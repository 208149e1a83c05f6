"""Closed-loop benchmark of scbundles: one client, one thread, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-torus --seed 1 --seconds 20 --trace 0

The run imports the library from ``src/``, builds its inputs from the
seed, times ops back to back for ``--seconds`` and checks every op's
output against the workload's oracle outside the timed region.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones.  Their times leave out the time the process sat
runnable while other processes held the CPU, and are adjusted to a
reference host speed: between any two ops the run times a fixed
pure-Python reference loop, and each op's time is scaled by how much
slower that loop ran around it than ``REF_MS``.  With ``--trace 1`` the
run times ops plain for half of ``--seconds``, then makes one pass over
its inputs with the tracer installed, reports per-op layer metrics from
that pass, and writes every span to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Import perfbench as a package; its files must not shadow top-level
    # modules such as the standard library's trace.
    sys.path[0] = str(ROOT)

from perfbench import trace  # noqa: E402
from perfbench.workloads import WORKLOADS, fresh_heap, load_program  # noqa: E402

SETUP_REPEATS = 3
MIN_OPS = 3
TAIL_BEYOND = 10
SHOWN_PROBLEMS = 5
# The host is shared, and other tenants slow the run in two ways.  They
# take the CPU for tens of ms at a time; clock_ns leaves that out.  And
# they slow it by up to half for tens of seconds at a time, while CPU time
# grows with wall time, so the process cannot see that as waiting.  A
# fixed reference loop, timed REF_RUNS times before and after each op,
# measures the host's speed at that moment; REF_MS is its time on the
# quiet tuning host.
REF_RUNS = 4
REF_MS = 5.0

try:
    _SCHEDSTAT = os.open("/proc/thread-self/schedstat", os.O_RDONLY)
except OSError:  # not Linux, or a kernel without scheduler statistics
    _SCHEDSTAT = None


def clock_ns() -> int:
    """Wall-clock ns, less the time this thread has spent runnable but
    waiting for a CPU that other processes held."""
    if _SCHEDSTAT is None:
        return perf_counter_ns()
    waited = int(os.pread(_SCHEDSTAT, 64, 0).split()[1])
    return perf_counter_ns() - waited


def reference_loop(n=28, rounds=3) -> int:
    """Fixed pure-Python work, independent of the library: integer row
    elimination on lists, tuples and a dict, as in the library's hot paths."""
    seed = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
            row.append(seed % 7 - 3)
        rows.append(row)
    table = {}
    for _ in range(rounds):
        m = [r[:] for r in rows]
        for p in range(n - 1):
            piv = m[p][p] or 1
            for i in range(p + 1, n):
                f = m[i][p]
                if f:
                    m[i] = [(a * piv - f * b) % 1000003 for a, b in zip(m[i], m[p])]
            table[(p, m[p][-1])] = tuple(m[p][:4])
    return len(table)


def host_probe() -> list[float]:
    """REF_RUNS timings of the reference loop, in ms."""
    times = []
    for _ in range(REF_RUNS):
        start = clock_ns()
        reference_loop()
        times.append((clock_ns() - start) / 1e6)
    return times


def slowdown(before, after) -> float:
    """How much slower than REF_MS the host ran between two probes."""
    return statistics.median(before + after) / REF_MS


class Loop:
    """Op durations and failures of one run, over all of its phases."""

    def __init__(self, workload):
        self.workload = workload
        self.prog = self.inputs = None
        self.probe = None
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, tracer=None) -> int:
        """Run and check one op; returns its duration in clock_ns."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(i)
        fresh_heap()
        start = clock_ns()
        try:
            result = self.workload.op(self.prog, self.inputs, i)
        except Exception:
            elapsed = clock_ns() - start
            problems = ["op raised: " + traceback.format_exc(limit=3)]
        else:
            elapsed = clock_ns() - start
            try:
                problems = self.workload.check(self.inputs, i, result)
            except Exception:
                problems = ["oracle raised: " + traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in problems]
        return elapsed

    def timed(self, tracer=None) -> tuple[float, float]:
        """One op between two host probes; returns its time in ms, before
        and after the adjustment to the reference host speed."""
        if self.probe is None:
            self.probe = host_probe()
        raw = self.one(tracer) / 1e6
        after = host_probe()
        factor = slowdown(self.probe, after)
        self.probe = after
        return raw, raw / factor

    def run_for(self, seconds: float) -> list[tuple[float, float]]:
        times = []
        deadline = perf_counter() + seconds
        while len(times) < MIN_OPS or perf_counter() < deadline:
            times.append(self.timed())
        return times


def tail(durations) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (value, percentile); the maximum when there are too few samples."""
    ranked = sorted(durations)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def set_up(workload, seed, tmp) -> tuple[Loop, float]:
    """Import, build the inputs and run one checked warm-up op,
    SETUP_REPEATS times; returns the loop over the last program and
    inputs, and the median set-up time, adjusted like op times."""
    loop = Loop(workload)
    times = []
    for _ in range(SETUP_REPEATS):
        before = host_probe()
        start = clock_ns()
        loop.prog = load_program()
        loop.inputs = workload.setup(loop.prog, random.Random(seed), tmp)
        loop.one()
        elapsed = (clock_ns() - start) / 1e9
        times.append(elapsed / slowdown(before, host_probe()))
        loop.next_op = 0
    return loop, statistics.median(times)


def end_to_end(times, setup_s) -> tuple[dict, str]:
    """Metrics from the (raw, adjusted) ms of each timed op."""
    ms = [adjusted for _, adjusted in times]
    tail_ms, pct = tail(ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_median_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [r for r, _ in times]
    note = (f"op_tail_ms is p{pct:.1f} of {len(ms)} timed ops, "
            f"{min(TAIL_BEYOND, len(ms) - 1)} samples beyond it; "
            f"op median before the speed adjustment {statistics.median(raw):.1f} ms, "
            f"host slowdown median {statistics.median(r / a for r, a in times):.3f}")
    return metrics, note


def traced(loop, seconds, out_path) -> tuple[dict, str]:
    """Half the time plain, then one traced pass over the inputs, so that
    per-op counts average over the same ops whatever the speed."""
    plain = [adjusted for _, adjusted in loop.run_for(seconds / 2)]
    loop.next_op = 0
    tracer = trace.Tracer()
    tracer.install()
    try:
        with_trace = [loop.timed(tracer)[1] for _ in loop.inputs]
    finally:
        tracer.remove()
    tracer.write(out_path)
    units = trace.per_layer_units()
    metrics = {name: (value, units[name]) for name, value in tracer.per_op().items()}
    overhead = statistics.median(with_trace) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    note = (f"traced {len(with_trace)} ops after {len(plain)} plain ones; spans in {out_path}"
            + (f"; absent spans: {', '.join(tracer.absent)}" if tracer.absent else ""))
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "scbundles" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src / 'scbundles'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]()
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        loop, setup_s = set_up(workload, args.seed, tmp)
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            out_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, note = traced(loop, args.seconds, out_path)
        else:
            metrics, note = end_to_end(loop.run_for(args.seconds), setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in loop.problems[:SHOWN_PROBLEMS]:
        print(f"perfbench: {problem}", file=sys.stderr)
    error_rate = loop.failed / loop.attempted
    print(f"{args.workload} seed {args.seed}: {loop.attempted} ops attempted "
          f"(warm-up included), {loop.failed} failed, error_rate {error_rate}; {note}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
