"""Benchmark of potline: one workload, measured in fresh interpreters.

Run from the repository root:

    python3 perfbench/run.py --workload lemke-path --seed 1 --seconds 25 --trace 0

Workloads: lemke-path, lcp-line, reduction-chain, cli-mixed (see
perfbench/README.md for what each stresses and why).  The loop is closed
with one client: each op starts when the previous one has finished.

--trace 0 measures the end-to-end metrics with tracing off.  It runs
SETUP_RUNS - 1 set-up-only interpreters, then one interpreter that sets up
and runs whole cycles of ops for --seconds.  --trace 1 runs one fixed batch
untraced and then traced, checks that both give the same certificates and
counters, and reports the per-layer metrics and the tracing overhead; the
spans go to perfbench/_out/spans-<workload>.jsonl.

The full report (run environment, instance seeds, every metric with its
unit and sample count, fail_rate and the failures seen) is printed first;
the last line is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 when a result was printed, also when ops
failed, and nonzero without a result when the harness could not run or no
op verified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_KERNEL_S  # op times are in reference seconds; see worker.py

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("lemke-path", "lcp-line", "reduction-chain", "cli-mixed")
SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, set-ups included
TAIL_BEYOND = 10

E2E_UNITS = {"ops_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    pass


def worker(args, mode, workdir, out, deadline, spans=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # Hash seeding fixed so that counts and certificates repeat bit for bit.
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = deadline - time.monotonic()
    if left <= 0:
        raise HarnessError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} worker exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    with open(out) as fh:
        return json.load(fh)


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, never below the median.  With fewer
    than 2 * TAIL_BEYOND samples no such percentile exists and the tail is
    the maximum (percentile 100, nothing beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND  # nearest-rank percentile 100 * rank / n
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def environment(args, seeds) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance_seeds": seeds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def failures(records) -> dict:
    out: dict[str, int] = {}
    for r in records:
        if r["status"] != "ok":
            key = r["status"] if r["status"] != "unexpected" else f"unexpected: {r['reason']}"
            out[key] = out.get(key, 0) + 1
    return out


def timed(args, workdir, deadline) -> tuple[dict, bool, list]:
    runs = [worker(args, "setup", workdir / f"setup{i}", workdir / f"setup{i}.json", deadline)
            for i in range(SETUP_RUNS - 1)]
    res = worker(args, "run", workdir / "run", workdir / "run.json", deadline)
    runs.append(res)
    records = res["ops"]
    raw_ok = [r["s"] for r in records if r["status"] == "ok"]
    attempted, failed = len(records), len(records) - len(raw_ok)
    if not raw_ok:
        raise HarnessError(f"no op verified: {failures(records)}")
    ok = [r["s"] * REF_KERNEL_S / r["k"] for r in records if r["status"] == "ok"]
    op_time = sum(r["s"] for r in records)
    ref_time = sum(r["s"] * REF_KERNEL_S / r["k"] for r in records)
    raw = {
        "ops_per_s": len(raw_ok) / op_time,
        "op_s.p50": statistics.median(raw_ok),
        "op_s.tail": tail(raw_ok)[0],
        "setup_s": statistics.median(r["setup_s"] for r in runs),
    }
    t_val, t_pct, t_beyond = tail(ok)
    setups = [r["setup_s"] * REF_KERNEL_S / r["setup_k"] for r in runs]
    values = {
        "ops_per_s": len(ok) / ref_time,
        "op_s.p50": statistics.median(ok),
        "op_s.tail": t_val,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"{len(ok)} verified ops in {op_time:.3f} s of op time; raw {raw['ops_per_s']:.4g}/s",
        "op_s.p50": f"n={len(ok)} verified ops; raw {raw['op_s.p50']:.4g} s",
        "op_s.tail": f"p{t_pct:.2f}, {t_beyond} samples beyond, n={len(ok)}; raw {raw['op_s.tail']:.4g} s",
        "setup_s": "median of {} set-ups; raw {}".format(
            len(setups), ", ".join(f"{r['setup_s']:.4f}" for r in runs)),
        "peak_rss_mb": "timed interpreter, n=1",
    }
    report = {
        "environment": environment(args, res["instance_seeds"]),
        "metrics": {
            name: {"value": values[name], "unit": E2E_UNITS[name], "samples": notes[name]}
            for name in E2E_UNITS
        },
        "fail_rate": {"value": failed / attempted, "unit": "ratio",
                      "samples": f"{failed} of {attempted} attempted ops"},
        "op_s.tail.percentile": t_pct,
        "raw_metrics": raw,
        "calibration": {"ref_kernel_s": REF_KERNEL_S,
                        "kernel_s.p50": statistics.median(r["k"] for r in records)},
        "failures": failures(records),
        "ops_by_kind": _by_kind(records),
    }
    lines = [f"{name:<12} = {values[name]:.6g} {E2E_UNITS[name]}  ({notes[name]})" for name in E2E_UNITS]
    lines.append(f"{'fail_rate':<12} = {failed / attempted:.6g}  ({failed} of {attempted} attempted ops)")
    correct = not any(r["status"] == "unexpected" for r in records)
    metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    return {"report": report, "lines": lines, "metrics": metrics, "attempted": attempted,
            "failed": failed}, correct, records


def _by_kind(records) -> dict:
    out: dict[str, dict] = {}
    for r in records:
        k = out.setdefault(r["kind"], {"ops": 0, "verified": 0, "seconds": 0.0})
        k["ops"] += 1
        k["verified"] += r["status"] == "ok"
        k["seconds"] += r["s"]
    return out


def traced(args, workdir, deadline) -> tuple[dict, bool, list]:
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.jsonl"
    res = worker(args, "trace", workdir / "trace", workdir / "trace.json", deadline, spans=spans)
    records = res["ops"]
    attempted = len(records)
    failed = sum(r["status"] != "ok" for r in records)
    layers = res["layers"]
    report = {
        "environment": environment(args, res["instance_seeds"]),
        "layers": layers,
        "untraced_vs_traced_mismatches": res["mismatches"],
        "rebound_imports": res["rebound_imports"],
        "spans": {"file": str(spans.relative_to(ROOT)), "count": res["spans"]},
        "failures": failures(records),
        "ops_by_kind": _by_kind(records),
    }
    lines = [f"{name:<40} = {m['value']:.6g} {m['unit']}" for name, m in layers.items()]
    lines.append(f"{len(records)} traced ops, {failed} failed; "
                 f"{len(res['mismatches'])} differ from the untraced pass")
    correct = not res["mismatches"] and not any(
        r["status"] == "unexpected" for r in records + res["untraced_ops"])
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in layers.items()}
    return {"report": report, "lines": lines, "metrics": metrics, "attempted": attempted,
            "failed": failed}, correct, records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    workdir = BENCH / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out, correct, records = (traced if args.trace else timed)(args, workdir, deadline)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"potline benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    for line in out["lines"]:
        print("  " + line)
    for r in records:
        if r["status"] == "unexpected":
            print(f"  unexpected failure in {r['kind']}: {r['reason']}\n{r.get('traceback', '')}")
    print("report: " + json.dumps(out["report"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
