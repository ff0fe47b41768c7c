"""One workload in a fresh interpreter: set-up, then a timed or traced pass.

run.py starts this script; it is not meant to be run by hand.  Modes:

  setup  build the workload, report the set-up time and exit;
  run    build it, then run whole cycles of ops, one at a time, until
         --seconds have passed (tracing off);
  trace  run a fixed batch untraced, install the tracer, build the batch
         again and run it traced; compare the two passes op by op.

The result goes to --out as JSON.  The exit code is 0 whenever the
harness worked, even when ops failed; failed ops are part of the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.2
# Op times are reported in reference seconds: an op's wall time scaled by
# REF_KERNEL_S / (mean time of the calibration kernel run just before, every
# PROBE_INTERVAL_S during, and just after the op).  On a shared host the
# interpreter's speed changes by tens of percent from second to second and
# from minute to minute; the kernel slows with it, so the scaled time follows
# the code under test more closely than the wall time does.  Set-up times
# are scaled the same way, by the kernel run during the build and just
# after it.  The raw wall times are in the report.
REF_KERNEL_S = 0.001
MODULES = ("rational", "circuits", "problems", "pivoting", "solvers", "reductions_lcp",
           "reductions_opdc", "reductions_line", "generators", "cli")


def kernel_s() -> float:
    """Median time of three runs of a fixed pure-Python calibration kernel
    (Fraction arithmetic and dict updates, no potline code): how fast this
    machine runs the interpreter at this moment."""
    from fractions import Fraction  # not at the top: its import is part of set-up

    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 330):
            acc += Fraction(i % 89 + 1, i % 97 + 1)
            table[i % 61] = table.get(i % 61, 0) + (acc.numerator & 0xFFFF)
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


class SpeedProbe:
    """Samples `kernel_s` every `interval` seconds (SIGALRM interval timer;
    0 turns it off) while an op runs, so that a long op's speed estimate
    covers its whole duration, not only its two ends.  `spent` is the time
    the samples took; it is subtracted from the op's wall time."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(kernel_s())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        if self.interval:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(workload, known, seconds=None, tracer=None, probe=None) -> list:
    """Run the workload's cycles in order, one op at a time; with `seconds`,
    stop at the first cycle boundary after that much time.  Each op record
    carries its wall time `s` and, unless `probe` is None, `k`: the mean
    calibration kernel time over the kernel runs just before it, every
    `probe` seconds during it (none when `probe` is 0) and just after it.
    An op is dropped from its cycle once it has run, so that its view and
    the view's caches can be freed and peak memory does not grow with the
    number of ops run."""
    records = []
    start = time.perf_counter()
    speed = SpeedProbe(probe) if probe is not None else contextlib.nullcontext()
    k = kernel_s() if probe is not None else None
    for cycle in workload.cycles:
        for i in range(len(cycle)):
            op, cycle[i] = cycle[i], None
            run = op.run
            if tracer is not None:
                tracer.op = len(records)
                run = tracer.wrap("bench.op", run)
            with speed:
                t = time.perf_counter()
                try:
                    out, reason, where = run(), None, None
                except Exception as exc:  # an op that raises is a failed op, not a harness error
                    out, reason = None, f"{type(exc).__name__}: {exc}"
                    where = traceback.format_exc(limit=-3)
                dt = time.perf_counter() - t
            if out is not None:
                status = "ok"
            elif op.defect is not None and reason == known[op.defect]:
                status = op.defect
            else:
                status = "unexpected"
            rec = {"kind": op.kind, "s": dt, "status": status}
            if probe is not None:
                k_next = kernel_s()
                rec["s"] = dt - speed.spent
                rec["k"] = sum([k, *speed.samples, k_next]) / (len(speed.samples) + 2)
                k = k_next
            if out is not None:
                rec.update(cert=out.cert, steps=out.steps, pivots=out.pivots, oracle_calls=out.oracle_calls)
            else:
                rec["reason"] = reason
                if status == "unexpected":
                    rec["traceback"] = where
            records.append(rec)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records


def ops_per_s(records) -> float:
    """Verified ops per reference second of op time."""
    return sum(r["status"] == "ok" for r in records) / sum(r["s"] * REF_KERNEL_S / r["k"] for r in records)


def totals(records) -> dict:
    return {k: sum(r.get(k, 0) for r in records) for k in ("steps", "pivots", "oracle_calls")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="trace mode: where to write the spans (JSON lines)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import potline

    expected = (ROOT / "src" / "potline").resolve()
    if Path(potline.__file__).resolve().parent != expected:
        print(f"error: imported potline from {potline.__file__}, not {expected}", file=sys.stderr)
        return 1
    import workloads

    build, nominal = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    if args.mode == "trace":
        # A fixed batch sized from --seconds, so counts repeat for equal arguments.
        cycles = max(1, round(args.seconds / nominal / 4))
    else:
        # Enough cycles for --seconds even if the ops run 5x faster than nominal.
        cycles = math.ceil(5 * args.seconds / nominal) + 1
    with SpeedProbe(PROBE_INTERVAL_S) as probe:  # not around the imports: the kernel imports fractions
        wl = build(args.seed, cycles, workdir)
    setup_s = time.perf_counter() - t0 - probe.spent
    setup_k = sum(probe.samples + [kernel_s()]) / (len(probe.samples) + 1)
    result = {"mode": args.mode, "setup_s": setup_s, "setup_k": setup_k,
              "instance_seeds": wl.instance_seeds}

    if args.mode == "run":
        records = run_pass(wl, workloads.KNOWN_DEFECTS, seconds=args.seconds, probe=PROBE_INTERVAL_S)
        for r in records:
            r.pop("cert", None)
        result["ops"] = records
    elif args.mode == "trace":
        from tracer import Tracer, layer_metrics

        # Kernel runs only between ops here: a sample inside a traced op
        # would land in that op's spans.
        base = run_pass(wl, workloads.KNOWN_DEFECTS, probe=0)
        tracer = Tracer()
        rebound = tracer.install([potline] + [importlib.import_module(f"potline.{m}") for m in MODULES])
        traced_wl = build(args.seed, cycles, workdir)  # views must capture wrapped methods
        setup_stats = tracer.reset()
        traced = run_pass(traced_wl, workloads.KNOWN_DEFECTS, tracer=tracer, probe=0)
        keys = ("status", "cert", "steps", "pivots", "oracle_calls")
        mismatches = [i for i, (a, b) in enumerate(zip(base, traced))
                      if any(a.get(k) != b.get(k) for k in keys)]
        if len(base) != len(traced):
            mismatches.append(min(len(base), len(traced)))
        overhead = {"untraced_ops_per_s": ops_per_s(base), "traced_ops_per_s": ops_per_s(traced)}
        result.update(
            ops=traced,
            untraced_ops=[{k: r.get(k) for k in ("kind", "s", "status")} for r in base],
            mismatches=mismatches,
            rebound_imports=rebound,
            layers=layer_metrics(tracer.stats, setup_stats, tracer.max_bits, totals(traced), overhead),
            spans=tracer.write_spans(args.spans),
        )
        for r in traced:
            r.pop("cert", None)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
