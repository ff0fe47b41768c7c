"""Call tracing for the benchmark's traced run.

`install` wraps every public function and method of the potline modules,
plus the few private ones a metric needs, and rebinds each wrapped function
in every module that imported it by name (`solve_linear_multi` in
`pivoting` and `reductions_lcp`, `principal_minor` in `solvers`, ...).
Oracle closures built by factories (the USO orientation, the OPDC
direction functions) are wrapped on the instance each factory returns.

Every call adds to its name's count, inclusive time and self time
(inclusive time minus the time of wrapped calls below it).  Spans
(id, name, start, end, parent id, op id) are kept in memory for the first
SPAN_OPS ops, at most SPAN_CAP per name and op, and written out at exit;
counts and times cover every call.

Install the tracer before building the views the traced ops use: a view's
`line_instance()` captures bound methods, and those must be the wrapped ones.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

SPAN_OPS = 16
SPAN_CAP = 100

# Private names that a per-layer metric needs.
PRIVATE = {"reductions_lcp.PlcpLineView._compute_vertex"}


def _bits(f) -> int:
    # potline.rational.bit_length, inlined so the probe makes no traced calls.
    if f == 0:
        return 0
    return max(1, (abs(f.numerator) - 1).bit_length() + (f.denominator - 1).bit_length())


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.max_bits = 0
        self.stack: list[list] = []  # [start, child_s, span id]
        self.spans: list[tuple] = []
        self.op = -1  # op id; -1 during set-up
        self._ids = 0
        self._kept: dict[tuple, int] = {}

    def wrap(self, name, fn, probe=None):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            tracer._ids += 1
            frame = [clock(), 0.0, tracer._ids]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if tracer.op < SPAN_OPS:
                    key = (name, tracer.op)
                    kept = tracer._kept.get(key, 0)
                    if kept < SPAN_CAP:
                        tracer._kept[key] = kept + 1
                        tracer.spans.append((frame[2], name, frame[0], end, parent, tracer.op))
            if probe is not None:
                # Probe time is tracing overhead: keep it out of every self time.
                t = clock()
                probe(result)
                if stack:
                    stack[-1][1] += clock() - t
            return result

        return traced

    # -- probes ----------------------------------------------------------------
    def _solve_bits(self, rows):
        self.max_bits = max(self.max_bits, max((_bits(f) for row in rows for f in row), default=0))

    def _wrap_attr(self, attr, name):
        def probe(inst):
            setattr(inst, attr, self.wrap(name, getattr(inst, attr)))

        return probe

    def install(self, modules) -> list[str]:
        """Wrap the modules' functions and methods; return the by-name
        imports that were rebound ("module.name" outside the defining
        module).  Raises if any module still holds an unwrapped original."""
        probes = {
            "rational.solve_linear_multi": self._solve_bits,
            "reductions_lcp.plcp_to_uso": self._wrap_attr("orient", "reductions_lcp.orient"),
            "reductions_opdc.uso_to_opdc": self._wrap_attr("direction", "reductions_opdc.D"),
            "reductions_opdc.contraction_to_opdc": self._wrap_attr("direction", "reductions_opdc.D"),
        }
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrapped[value] = self.wrap(name, value, probes.get(name))
                elif inspect.isclass(value):
                    self._wrap_methods(short, value)
        rebound = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                    if value.__module__ != mod.__name__:
                        rebound.append(f"{mod.__name__}.{attr}")
        left = [f"{mod.__name__}.{attr}" for mod in modules for attr, value in vars(mod).items()
                if inspect.isfunction(value) and value in wrapped]
        if left:
            raise RuntimeError(f"unwrapped functions left after install: {left}")
        return rebound

    def _wrap_methods(self, short, cls) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in PRIVATE:
                continue
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))

    # -- results ---------------------------------------------------------------
    def reset(self) -> dict:
        """Return the stats so far (the set-up's) and zero them in place."""
        snap = {name: list(rec) for name, rec in self.stats.items()}
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.max_bits = 0
        return snap

    def write_spans(self, path) -> int:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
        return len(self.spans)


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  Each names the end-to-end metric
# and workload it should move in README.md.

LAYER_METRICS = [
    ("rational.solve.calls", "count", "lower"),
    ("rational.solve.self_s", "s", "lower"),
    ("rational.det.calls", "count", "lower"),
    ("rational.det.self_s", "s", "lower"),
    ("rational.solve.max_bits", "bits", "lower"),
    ("pivoting.ratio_step.calls", "count", "lower"),
    ("pivoting.ratio_step.self_s", "s", "lower"),
    ("pivoting.solve_basis.calls", "count", "lower"),
    ("pivoting.direction.calls", "count", "lower"),
    ("pivoting.forward_entering.calls", "count", "lower"),
    ("pivoting.s_per_pivot", "s", "lower"),
    ("solvers.pivots", "count", "lower"),
    ("solvers.steps", "count", "lower"),
    ("solvers.oracle_calls", "count", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("reductions_lcp.S.calls", "count", "lower"),
    ("reductions_lcp.P.calls", "count", "lower"),
    ("reductions_lcp.V.calls", "count", "lower"),
    ("reductions_lcp.vertex_of.calls", "count", "lower"),
    ("reductions_lcp.vertex_of.hit_ratio", "ratio", "higher"),
    ("reductions_lcp.orient.calls", "count", "lower"),
    ("reductions_lcp.orient.per_step", "calls/step", "lower"),
    ("reductions_lcp.out_map.calls", "count", "lower"),
    ("reductions_lcp.map_back_s", "s", "lower"),
    ("reductions_opdc.D.calls", "count", "lower"),
    ("reductions_opdc.S.calls", "count", "lower"),
    ("reductions_opdc.V.calls", "count", "lower"),
    ("reductions_opdc.is_vertex_tuple.calls", "count", "lower"),
    ("reductions_opdc.self_s", "s", "lower"),
    ("reductions_opdc.map_back_s", "s", "lower"),
    ("reductions_line.plus1.S.calls", "count", "lower"),
    ("reductions_line.plus1.V.calls", "count", "lower"),
    ("reductions_line.pebbling.S.calls", "count", "lower"),
    ("reductions_line.pebbling.P.calls", "count", "lower"),
    ("reductions_line.pebbling.V.calls", "count", "lower"),
    ("reductions_line.normalize.S.calls", "count", "lower"),
    ("reductions_line.normalize.P.calls", "count", "lower"),
    ("reductions_line.normalize.V.calls", "count", "lower"),
    ("reductions_line.calls_per_step", "calls/step", "lower"),
    ("reductions_line.self_s", "s", "lower"),
    ("reductions_line.map_back_s", "s", "lower"),
    ("circuits.evaluate.calls", "count", "lower"),
    ("circuits.evaluate.self_s", "s", "lower"),
    ("problems.verify.calls", "count", "lower"),
    ("problems.verify.self_s", "s", "lower"),
    ("problems.json.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("generators.self_s", "s", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.slowdown", "ratio", "lower"),
]

_VIEW_STAGES = {
    "plus1": "UfeoplToPlus1",
    "pebbling": "PebblingView",
    "normalize": "NormalizeView",
}
_ORACLES = {"S": "successor", "P": "predecessor", "V": "potential"}
_VERIFIERS = ("verify_line", "verify_opdc", "verify_uso", "verify_lcp", "verify_contraction")


def layer_metrics(ops: dict, setup: dict, max_bits: int, counters: dict, overhead: dict) -> dict:
    """Per-layer values from the traced ops' stats, the set-up's stats, the
    RunStats totals and the traced/untraced throughput."""

    def calls(*names):
        return sum(ops.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(ops.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_of(prefix, stats=ops):
        return sum(rec[2] for n, rec in stats.items() if n.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counters["steps"]
    lcp_view = "reductions_lcp.PlcpLineView."
    opdc_view = "reductions_opdc.OpdcLineView."
    line_calls = {
        f"reductions_line.{stage}.{o}.calls": calls(f"reductions_line.{cls}.{meth}")
        for stage, cls in _VIEW_STAGES.items()
        for o, meth in _ORACLES.items()
        if not (stage == "plus1" and o == "P")
    }
    ratio_calls = calls("pivoting.LemkeSystem.ratio_step")
    out = {
        "rational.solve.calls": calls("rational.solve_linear_multi"),
        "rational.solve.self_s": self_of("rational.solve_linear_multi"),
        "rational.det.calls": calls("rational.determinant"),
        "rational.det.self_s": self_of("rational.determinant"),
        "rational.solve.max_bits": max_bits,
        "pivoting.ratio_step.calls": ratio_calls,
        "pivoting.ratio_step.self_s": self_of("pivoting.LemkeSystem.ratio_step"),
        "pivoting.solve_basis.calls": calls("pivoting.LemkeSystem.solve_basis"),
        "pivoting.direction.calls": calls("pivoting.LemkeSystem.direction"),
        "pivoting.forward_entering.calls": calls("pivoting.LemkeSystem.forward_entering"),
        "pivoting.s_per_pivot": ratio(incl("pivoting.LemkeSystem.ratio_step"), ratio_calls),
        "solvers.pivots": counters["pivots"],
        "solvers.steps": steps,
        "solvers.oracle_calls": counters["oracle_calls"],
        "solvers.self_s": self_of("solvers."),
        "reductions_lcp.S.calls": calls(lcp_view + "successor"),
        "reductions_lcp.P.calls": calls(lcp_view + "predecessor"),
        "reductions_lcp.V.calls": calls(lcp_view + "potential"),
        "reductions_lcp.vertex_of.calls": calls(lcp_view + "vertex_of"),
        "reductions_lcp.vertex_of.hit_ratio": (
            1.0 - ratio(calls(lcp_view + "_compute_vertex"), calls(lcp_view + "vertex_of"))
            if calls(lcp_view + "vertex_of") else 0.0
        ),
        "reductions_lcp.orient.calls": calls("reductions_lcp.orient"),
        "reductions_lcp.orient.per_step": ratio(calls("reductions_lcp.orient"), steps),
        "reductions_lcp.out_map.calls": calls("reductions_lcp.out_map"),
        "reductions_lcp.map_back_s": incl("reductions_lcp.map_back_lcp", "reductions_lcp.map_back_uso"),
        "reductions_opdc.D.calls": calls("reductions_opdc.D"),
        "reductions_opdc.S.calls": calls(opdc_view + "successor"),
        "reductions_opdc.V.calls": calls(opdc_view + "potential"),
        "reductions_opdc.is_vertex_tuple.calls": calls(opdc_view + "is_vertex_tuple"),
        "reductions_opdc.self_s": self_of("reductions_opdc."),
        "reductions_opdc.map_back_s": incl(
            "reductions_opdc.map_back_opdc", "reductions_opdc.map_back_uso",
            "reductions_opdc.map_back_contraction",
        ),
        **line_calls,
        "reductions_line.calls_per_step": ratio(sum(line_calls.values()), steps),
        "reductions_line.self_s": self_of("reductions_line."),
        "reductions_line.map_back_s": sum(
            rec[1] for n, rec in ops.items()
            if n.startswith("reductions_line.") and n.endswith(".map_back")
        ),
        "circuits.evaluate.calls": calls("circuits.evaluate"),
        "circuits.evaluate.self_s": self_of("circuits.evaluate"),
        "problems.verify.calls": calls(*(f"problems.{v}" for v in _VERIFIERS)),
        "problems.verify.self_s": self_of("problems.verify"),
        "problems.json.self_s": sum(
            rec[2] for n, rec in ops.items() if n.startswith("problems.") and "json" in n
        ),
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": self_of("cli."),
        "generators.self_s": self_of("generators.", setup),
        "trace.untraced_ops_per_s": overhead["untraced_ops_per_s"],
        "trace.traced_ops_per_s": overhead["traced_ops_per_s"],
        "trace.slowdown": ratio(overhead["untraced_ops_per_s"], overhead["traced_ops_per_s"]),
    }
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    missing = set(units) ^ set(out)
    if missing:
        raise RuntimeError(f"layer metrics out of step with LAYER_METRICS: {sorted(missing)}")
    return {name: {"value": out[name], "unit": units[name]} for name, _, _ in LAYER_METRICS}
