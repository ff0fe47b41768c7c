"""Piecewise-linear arithmetic circuits over {+, -, *const, max, min}.

A circuit computes f : [0,1]^d -> Q^d exactly.  Evaluation never clamps;
out-of-box outputs are reported by callers as out-of-range violations.

`compile_circuit` turns a circuit, once, into an integer straight-line
program that the fixpoint searches run.  A point is given as integer
numerators xs over one denominator D > 0 that the caller picks (any
positive D works); gate g holds an integer num_g whose value is
num_g / (D * C_g), with C_g fixed at compile time, and the program returns
f(x) as integer numerators over one positive denominator.  No `Fraction`
is built.  The program runs in two tiers with the same results: a loop
that dispatches on each gate's op answers its first GENERATE_AFTER calls,
and then generated straight-line Python code, one statement per gate,
compiled once, answers the rest.  Only integer positions are written into
the generated source; the circuit's values reach it as closure cells.
`evaluate` computes the same map on `Fraction`s, one per gate; it stays
the reference that the verifiers and the tests use.

`circuit_from_json` reads d, outputs and gate indices as JSON integers
only, and each gate op with exactly its number of args.

Also houses the circuit -> LCP encoding whose solutions are exactly the
fixpoints of the circuit, used for bit-length accounting and
cross-validation of the exact fixpoint solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .rational import Mat, Vec, bit_length, frac, frac_str, json_int

_BINARY = {"add", "sub", "max", "min"}


@dataclass(frozen=True)
class Gate:
    op: str  # input | const | add | sub | scale | max | min
    args: tuple

    def refs(self):
        if self.op in _BINARY:
            return self.args
        if self.op == "scale":
            return (self.args[1],)
        return ()


@dataclass(frozen=True)
class Circuit:
    d: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("circuit dimension must be positive")
        if len(self.outputs) != self.d:
            raise ValueError("circuit must have exactly d outputs")
        for idx, g in enumerate(self.gates):
            if g.op == "input":
                if not 0 <= g.args[0] < self.d:
                    raise ValueError("input index out of range")
            elif g.op == "const":
                pass
            elif g.op == "scale" or g.op in _BINARY:
                for r in g.refs():
                    if not 0 <= r < idx:
                        raise ValueError("gate references must be acyclic")
            else:
                raise ValueError(f"unsupported gate op {g.op!r}")
        for o in self.outputs:
            if not 0 <= o < len(self.gates):
                raise ValueError("output reference out of range")

    def constants(self) -> list[Fraction]:
        cs = []
        for g in self.gates:
            if g.op == "const":
                cs.append(g.args[0])
            elif g.op == "scale":
                cs.append(g.args[0])
        return cs


def evaluate(c: Circuit, x: Vec) -> Vec:
    """Exact f(x); x must have dimension d (coordinates normally in [0,1])."""
    if len(x) != c.d:
        raise ValueError("point dimension mismatch")
    vals: list[Fraction] = []
    for g in c.gates:
        if g.op == "input":
            v = Fraction(x[g.args[0]])
        elif g.op == "const":
            v = g.args[0]
        elif g.op == "scale":
            v = g.args[0] * vals[g.args[1]]
        elif g.op == "add":
            v = vals[g.args[0]] + vals[g.args[1]]
        elif g.op == "sub":
            v = vals[g.args[0]] - vals[g.args[1]]
        elif g.op == "max":
            v = max(vals[g.args[0]], vals[g.args[1]])
        else:
            v = min(vals[g.args[0]], vals[g.args[1]])
        vals.append(v)
    return [vals[o] for o in c.outputs]


# Calls that a compiled program answers with its interpreter loop before it
# generates its straight-line code.  Rent or buy: generating and compiling
# the code costs about 100 us + 17 us per gate (190-460 us for the 6-20-gate
# maps of the CLI benchmark; Python 3.11.7 on a shared 2-vCPU host), and
# each later call then saves 1.3-3.4 us, so the code pays for itself after
# 117-151 calls.  Switching once the interpreted calls would have paid for
# one compile costs at most about twice the better of never and always
# generating: a short search (the 19 calls of a d = 3 non-contraction)
# never compiles, and the 2430 of the d = 5 map run almost all on the
# generated code.
GENERATE_AFTER = 128


def compile_circuit(c: Circuit) -> Callable[[list[int], int], tuple[list[int], int]]:
    """The integer program of c: run(xs, D) returns (nums, den) with
    f(x)_j = nums[j] / den and den > 0 at the point x_j = xs[j] / D, for
    integers xs of length d and any integer D > 0.  Like `evaluate`, it
    never clamps.

    Each gate g gets a compile-time denominator C_g: 1 for an input, b for
    a const a/b, b * C_h for a scale by a/b of gate h, and lcm(C_u, C_v)
    for add, sub, max and min of gates u and v, whose numerators are first
    brought to it by the factors C_g / C_u and C_g / C_v.  Gate g holds
    num_g with value num_g / (D * C_g); as D * C_g > 0, max and min compare
    numerators.

    The program has two tiers with the same results.  Its first
    GENERATE_AFTER calls run a loop that dispatches on each gate's op; the
    next call generates straight-line code with one statement per gate
    (`_straight_line`), compiles it once, and it answers that call and
    every later one."""
    dens: list[int] = []  # C_g
    # One (op, a, b, e, f) per gate, unused slots 0: (input, j), (const, a),
    # (scale, h, a) and (binary op, u, C_g / C_u, v, C_g / C_v).
    prog = []
    for g in c.gates:
        if g.op == "input":
            prog.append((g.op, g.args[0], 0, 0, 0))
            dens.append(1)
        elif g.op == "const":
            prog.append((g.op, g.args[0].numerator, 0, 0, 0))
            dens.append(g.args[0].denominator)
        elif g.op == "scale":
            a, h = g.args
            prog.append((g.op, h, a.numerator, 0, 0))
            dens.append(a.denominator * dens[h])
        else:
            u, v = g.args
            cg = lcm(dens[u], dens[v])
            prog.append((g.op, u, cg // dens[u], v, cg // dens[v]))
            dens.append(cg)
    common = lcm(*[dens[o] for o in c.outputs])
    outs = [(o, common // dens[o]) for o in c.outputs]
    d = c.d
    calls = 0
    generated = None

    def run(xs: list[int], D: int) -> tuple[list[int], int]:
        nonlocal calls, generated
        if generated is not None:
            return generated(xs, D)
        calls += 1
        if calls > GENERATE_AFTER:
            generated = _straight_line(d, prog, outs, common)
            return generated(xs, D)
        if len(xs) != d:
            raise ValueError("point dimension mismatch")
        n: list[int] = []
        push = n.append
        for op, a, b, e, f in prog:
            if op == "scale":
                push(b * n[a])
            elif op == "add":
                push(n[a] * b + n[e] * f)
            elif op == "input":
                push(xs[a])
            elif op == "const":
                push(a * D)
            elif op == "sub":
                push(n[a] * b - n[e] * f)
            elif op == "max":
                push(max(n[a] * b, n[e] * f))
            else:
                push(min(n[a] * b, n[e] * f))
        return [n[o] * k for o, k in outs], D * common

    return run


# The right-hand side of gate g's statement, per op: {x} is an input's read
# of xs, {k} a closure cell and {u}, {v} the operands, each a gate's local
# or that local times a cell.
_TEMPLATES = {
    "input": "{x}",
    "const": "{k} * D",
    "scale": "{k} * {u}",
    "add": "{u} + {v}",
    "sub": "{u} - {v}",
    "max": "a if (a := {u}) >= (b := {v}) else b",
    "min": "a if (a := {u}) <= (b := {v}) else b",
}


def _straight_line(d: int, prog: list, outs: list, common: int):
    """`compile_circuit`'s program as one generated Python function: gate g
    is the statement n<g> = (its op's template).  Only integers formatted
    with :d go into the source: gate and cell positions, input positions
    and d.  Every integer of the program (const and scale numerators, lcm
    factors, the common denominator) is a closure cell k<i> of `make`, so
    no value becomes source text, however long or wherever it came from.
    A factor of 1 is left out, which does not change a product."""
    cells: list[int] = []

    def cell(value: int) -> str:
        cells.append(value)
        return f"k{len(cells) - 1:d}"

    names = [f"n{g:d}" for g in range(len(prog))]
    reads = [f"xs[{j:d}]" for j in range(d)]

    def term(g, factor: int) -> str:
        return names[g] if factor == 1 else f"{names[g]} * {cell(factor)}"

    body = []
    for name, (op, a, b, e, f) in zip(names, prog):
        if op == "input":
            rhs = _TEMPLATES[op].format(x=reads[a])
        elif op == "const":
            rhs = _TEMPLATES[op].format(k=cell(a))
        elif op == "scale":
            rhs = _TEMPLATES[op].format(k=cell(b), u=names[a])
        else:
            rhs = _TEMPLATES[op].format(u=term(a, b), v=term(e, f))
        body.append(f"        {name} = {rhs}")
    result = ", ".join(term(o, k) for o, k in outs)
    body.append(f"        return [{result}], D * {cell(common)}")
    source = "\n".join([
        f"def make({', '.join(f'k{i:d}' for i in range(len(cells)))}):",
        "    def run(xs, D):",
        f"        if len(xs) != {d:d}:",
        '            raise ValueError("point dimension mismatch")',
        *body,
        "    return run",
    ])
    namespace: dict = {}
    exec(compile(source, "<circuit program>", "exec"), namespace)
    return namespace["make"](*cells)


def measure(c: Circuit) -> dict:
    """Circuit size d + m + sum b(zeta) plus the bit-lengths of the induced
    LCP; n is the LCP dimension."""
    size = c.d + len(c.gates) + sum(bit_length(z) for z in c.constants())
    m_lcp, q_lcp = circuit_to_lcp(c)
    from .rational import mat_bit_length, vec_bit_length

    return {
        "size": size,
        "n": len(q_lcp),
        "bM": max(1, mat_bit_length(m_lcp)),
        "bq": max(1, vec_bit_length(q_lcp)),
    }


def _affine_add(a, b):
    return {k: a.get(k, Fraction(0)) + b.get(k, Fraction(0)) for k in a.keys() | b.keys()}


def _affine_scale(a, c):
    return {k: v * c for k, v in a.items()}


def circuit_to_lcp(c: Circuit) -> tuple[Mat, Vec]:
    """Encode fixpoints of f as solutions of an LCP (M, q).

    Variables, in order: x_1..x_d (the fixpoint coordinates), one cap
    variable per coordinate (forcing x <= 1), one slack per max/min gate.
    Complementarity makes every max/min gate exact for any x >= 0, the cap
    rows rule out x above the unit box, and the x rows force f(x) = x.
    Solutions y map to fixpoints via (y_1, ..., y_d) and conversely.
    """
    d = c.d
    # Affine forms over basis: ('x', i), ('s', j) and the constant key 1.
    slack_count = sum(1 for g in c.gates if g.op in ("max", "min"))
    n = 2 * d + slack_count
    var_index = {("x", i): i for i in range(d)}
    for i in range(d):
        var_index[("r", i)] = d + i

    forms: list[dict] = []
    slack_rows: list[dict] = []  # complementary partner of each slack, in order
    s_seen = 0
    for g in c.gates:
        if g.op == "input":
            forms.append({("x", g.args[0]): Fraction(1)})
        elif g.op == "const":
            forms.append({1: g.args[0]})
        elif g.op == "scale":
            forms.append(_affine_scale(forms[g.args[1]], g.args[0]))
        elif g.op == "add":
            forms.append(_affine_add(forms[g.args[0]], forms[g.args[1]]))
        elif g.op == "sub":
            forms.append(_affine_add(forms[g.args[0]], _affine_scale(forms[g.args[1]], Fraction(-1))))
        else:
            u, v = forms[g.args[0]], forms[g.args[1]]
            key = ("s", s_seen)
            var_index[key] = 2 * d + s_seen
            s_seen += 1
            sterm = {key: Fraction(1)}
            if g.op == "max":
                # m = u + s, partner t = m - v = u - v + s
                forms.append(_affine_add(u, sterm))
                slack_rows.append(_affine_add(_affine_add(u, _affine_scale(v, Fraction(-1))), sterm))
            else:
                # m = u - s, partner t = v - m = v - u + s
                forms.append(_affine_add(u, _affine_scale(sterm, Fraction(-1))))
                slack_rows.append(_affine_add(_affine_add(v, _affine_scale(u, Fraction(-1))), sterm))

    rows: list[dict] = []
    for i in range(d):
        # w_i = x_i - f_i(x): zero exactly at fixpoints.
        rows.append(_affine_add({("x", i): Fraction(1)}, _affine_scale(forms[c.outputs[i]], Fraction(-1))))
    for i in range(d):
        # cap: w = 1 - x_i + r_i, complementary to r_i; forces x_i <= 1.
        rows.append({1: Fraction(1), ("x", i): Fraction(-1), ("r", i): Fraction(1)})
    rows.extend(slack_rows)

    m_out = [[Fraction(0)] * n for _ in range(n)]
    q_out = [Fraction(0)] * n
    for r, form in enumerate(rows):
        for k, v in form.items():
            if k == 1:
                q_out[r] = v
            else:
                m_out[r][var_index[k]] = v
    return m_out, q_out


def circuit_to_json(c: Circuit) -> dict:
    gates = []
    for g in c.gates:
        if g.op == "const":
            gates.append({"op": "const", "args": [frac_str(g.args[0])]})
        elif g.op == "scale":
            gates.append({"op": "scale", "args": [frac_str(g.args[0]), g.args[1]]})
        else:
            gates.append({"op": g.op, "args": list(g.args)})
    return {"d": c.d, "gates": gates, "outputs": list(c.outputs)}


# Gate op -> the decoders of its JSON args, one per arg.
_ARG_DECODERS = {"input": (json_int,), "const": (frac,), "scale": (frac, json_int),
                 **{op: (json_int, json_int) for op in _BINARY}}


def _decoded(name: str, decode, value):
    try:
        return decode(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def circuit_from_json(data: dict) -> Circuit:
    """The circuit of a JSON object.  d, outputs and gate indices must be
    JSON integers and each op gets exactly its number of args; anything
    else raises TypeError or ValueError naming the field."""
    gates = []
    for idx, g in enumerate(data["gates"]):
        op, args = g["op"], g["args"]
        decoders = _ARG_DECODERS.get(op)
        if decoders is None:
            raise ValueError(f"unsupported gate op {op!r} (division and comparison are rejected)")
        if not isinstance(args, list) or len(args) != len(decoders):
            want = f"{len(decoders)} arg" + "s" * (len(decoders) > 1)
            got = len(args) if isinstance(args, list) else type(args).__name__
            raise ValueError(f"gate {idx} ({op}): expected {want}, got {got}")
        gates.append(Gate(op, tuple(_decoded(f"gate {idx} arg {k}", dec, a)
                                    for k, (dec, a) in enumerate(zip(decoders, args)))))
    d = _decoded("field 'd'", json_int, data["d"])
    outputs = _decoded("field 'outputs'", lambda v: tuple(json_int(o) for o in v), data["outputs"])
    return Circuit(d, tuple(gates), outputs)


# -- convenience builders ---------------------------------------------------

def affine_circuit(a: Mat, b: Vec) -> Circuit:
    """Circuit for f(x) = A x + b built from scale/add/const gates."""
    d = len(b)
    gates: list[Gate] = [Gate("input", (i,)) for i in range(d)]
    outputs = []
    for i in range(d):
        acc = None
        for j in range(d):
            if a[i][j] == 0:
                continue
            gates.append(Gate("scale", (Fraction(a[i][j]), j)))
            term = len(gates) - 1
            if acc is None:
                acc = term
            else:
                gates.append(Gate("add", (acc, term)))
                acc = len(gates) - 1
        gates.append(Gate("const", (Fraction(b[i]),)))
        cterm = len(gates) - 1
        if acc is None:
            acc = cterm
        else:
            gates.append(Gate("add", (acc, cterm)))
            acc = len(gates) - 1
        outputs.append(acc)
    return Circuit(d, tuple(gates), tuple(outputs))
