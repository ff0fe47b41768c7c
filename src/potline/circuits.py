"""Piecewise-linear arithmetic circuits over {+, -, *const, max, min}.

A circuit computes f : [0,1]^d -> Q^d exactly.  Evaluation never clamps;
out-of-box outputs are reported by callers as out-of-range violations.

The gate ops are stated once, in the table `_OPS`.  A row gives the
kind of each arg, which fixes the op's arity (an input index, a rational
or a reference to an earlier gate, each kind read from JSON by its
decoder in `_DECODERS`), and the op's value on `Fraction`s.  `Circuit`
checks every circuit against the table where it is built, in code or
from JSON, and `evaluate`, `Circuit.constants` and the JSON reader and
writer read it too.  Only `compile_circuit` and `circuit_to_lcp` name
ops besides, one rule per op each, as the integer program and the LCP
encoding are other arithmetic; the program never reads the table's
`Fraction` rule, so `evaluate` stays an independent reference.

`compile_circuit` turns a circuit into an integer straight-line program
that the fixpoint searches run.  A point is given as integer numerators
xs over one denominator D > 0 that the caller picks (any positive D
works); gate g holds an integer num_g whose value is num_g / (D * C_g),
with C_g fixed at compile time, and the program returns f(x) as integer
numerators over one positive denominator.  No `Fraction` is built.  The
program is generated Python code, one statement per gate, and answers
from its first call.  Only integer positions are written into the
generated source, and the circuit's values reach it as closure cells, so
the source depends only on the circuit's shape: it is compiled once per
shape per process, and circuits of one shape with different constants
share that code.  `evaluate` computes the same map on `Fraction`s, one
per gate; it stays the reference that the verifiers and the tests use.

`circuit_from_json` reads d, outputs and gate indices as JSON integers
only; a gate with the wrong number of args is refused by `Circuit`.

Also houses the circuit -> LCP encoding whose solutions are exactly the
fixpoints of the circuit, used for bit-length accounting (`measure`, and
`compute_kappa`, the closed-form grid exponents of PL-Contraction -> OPDC
read from it) and cross-validation of the exact fixpoint solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, NamedTuple

from .rational import Mat, Vec, bit_length, ceil_log2, frac, frac_str, json_int, mat_bit_length, vec_bit_length


# The kinds of gate arg, each with its JSON decoder: an input index "x",
# a rational constant "q" and a reference "g" to an earlier gate.  Rules
# test an arg's kind, never a decoder's identity, which a wrapper that
# rebinds the module's functions (as `perfbench/tracer.py` does) would change.
_DECODERS = {"x": json_int, "q": frac, "g": json_int}


class _Op(NamedTuple):
    kinds: str  # the kind of each arg, so also the op's arity
    value: Callable  # the op on Fractions: value(x, *args), a "g" arg read as that gate's value


# The gate ops, one row each.
_OPS = {
    "input": _Op("x", lambda x, i: Fraction(x[i])),
    "const": _Op("q", lambda x, a: a),
    "scale": _Op("qg", lambda x, a, u: a * u),
    "add": _Op("gg", lambda x, u, v: u + v),
    "sub": _Op("gg", lambda x, u, v: u - v),
    "max": _Op("gg", lambda x, u, v: max(u, v)),
    "min": _Op("gg", lambda x, u, v: min(u, v)),
}


@dataclass(frozen=True)
class Gate:
    op: str  # a key of _OPS
    args: tuple


@dataclass(frozen=True)
class Circuit:
    """A circuit, checked against `_OPS` where it is built: each gate's op
    is known and has its number of args, an input index lies in 0..d-1 and
    a reference names an earlier gate."""

    d: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("circuit dimension must be positive")
        if len(self.outputs) != self.d:
            raise ValueError("circuit must have exactly d outputs")
        for idx, g in enumerate(self.gates):
            row = _OPS.get(g.op)
            if row is None:
                raise ValueError(f"unsupported gate op {g.op!r} (division and comparison are rejected)")
            args, n = g.args, len(row.kinds)
            got = len(args) if isinstance(args, (tuple, list)) else type(args).__name__
            if got != n:
                raise ValueError(f"gate {idx} ({g.op}): expected {n} arg" + "s" * (n > 1) + f", got {got}")
            for kind, a in zip(row.kinds, args):
                if kind != "q" and not 0 <= a < (idx if kind == "g" else self.d):
                    raise ValueError("gate references must be acyclic" if kind == "g" else "input index out of range")
        for o in self.outputs:
            if not 0 <= o < len(self.gates):
                raise ValueError("output reference out of range")

    def constants(self) -> list[Fraction]:
        return [a for g in self.gates for kind, a in zip(_OPS[g.op].kinds, g.args) if kind == "q"]


def evaluate(c: Circuit, x: Vec) -> Vec:
    """Exact f(x); x must have dimension d (coordinates normally in [0,1])."""
    if len(x) != c.d:
        raise ValueError("point dimension mismatch")
    vals: list[Fraction] = []
    for g in c.gates:
        kinds, value = _OPS[g.op]
        vals.append(value(x, *[vals[a] if kind == "g" else a for kind, a in zip(kinds, g.args)]))
    return [vals[o] for o in c.outputs]


# The right-hand side of a binary gate's statement: {u} and {v} are its
# operands, each a gate's local or that local times a cell.
_TEMPLATES = {
    "add": "{u} + {v}",
    "sub": "{u} - {v}",
    "max": "a if (a := {u}) >= (b := {v}) else b",
    "min": "a if (a := {u}) <= (b := {v}) else b",
}


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

    The program is one generated Python function with one statement per
    gate, which assigns gate g's local n<g>.  Only integers formatted with
    :d go into the source: gate and cell positions, input positions and d.
    Every integer of the program (const and scale numerators, lcm factors,
    the common denominator) is a closure cell k<i> of a generated `make`,
    so no value becomes source text, however long or wherever it came
    from.  A factor of 1 is left out, which does not change a product.
    The source thus depends only on the circuit's shape; `_make` compiles
    it once per process, and each call binds this circuit's cells."""
    cells: list[int] = []

    def cell(value: int) -> str:
        cells.append(value)
        return f"k{len(cells) - 1:d}"

    names = [f"n{g:d}" for g in range(len(c.gates))]
    dens: list[int] = []  # C_g

    def term(g, factor: int) -> str:
        return names[g] if factor == 1 else f"{names[g]} * {cell(factor)}"

    body = []
    for name, g in zip(names, c.gates):
        if g.op == "input":
            rhs, den = f"xs[{g.args[0]:d}]", 1
        elif g.op == "const":
            rhs, den = f"{cell(g.args[0].numerator)} * D", g.args[0].denominator
        elif g.op == "scale":
            a, h = g.args
            rhs, den = f"{cell(a.numerator)} * {names[h]}", a.denominator * dens[h]
        else:
            u, v = g.args
            den = lcm(dens[u], dens[v])
            rhs = _TEMPLATES[g.op].format(u=term(u, den // dens[u]), v=term(v, den // dens[v]))
        dens.append(den)
        body.append(f"        {name} = {rhs}")
    common = lcm(*[dens[o] for o in c.outputs])
    result = ", ".join(term(o, common // dens[o]) for o in c.outputs)
    body.append(f"        return [{result}], D * {cell(common)}")
    source = "\n".join([
        f"def make({', '.join(f'k{i:d}' for i in range(len(cells)))}):",
        "    def run(xs, D):",
        f"        if len(xs) != {c.d:d}:",
        '            raise ValueError("point dimension mismatch")',
        *body,
        "    return run",
    ])
    return _make(source)(*cells)


@lru_cache(maxsize=64)
def _make(source: str):
    """The `make` function that `compile_circuit`'s source defines, compiled
    once per source text.  It holds code only: every value comes in as an
    argument of `make`, so circuits of one shape share it."""
    namespace: dict = {}
    exec(compile(source, "<circuit program>", "exec"), namespace)
    return namespace["make"]


def measure(c: Circuit) -> dict:
    """Circuit size d + m + sum b(zeta) plus the bit-lengths of the induced
    LCP; n is the LCP dimension."""
    size = c.d + len(c.gates) + sum(bit_length(z) for z in c.constants())
    m_lcp, q_lcp = circuit_to_lcp(c)
    return {
        "size": size,
        "n": len(q_lcp),
        "bM": max(1, mat_bit_length(m_lcp)),
        "bq": max(1, vec_bit_length(q_lcp)),
    }


def compute_kappa(c: Circuit) -> tuple:
    """Closed-form per-dimension grid exponents
    kappa_i = (d-i+1)((5n+2) log n + n + (4n+2) b(M) + 1) + b(q)
    with log = ceil log2 and (n, b(M), b(q)) measured from the induced
    LCP.  Monotone non-increasing in i."""
    stats = measure(c)
    n, bm, bq = stats["n"], stats["bM"], stats["bq"]
    inner = (5 * n + 2) * ceil_log2(n) + n + (4 * n + 2) * bm + 1
    return tuple((c.d - i + 1) * inner + bq for i in range(1, c.d + 1))


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
    gates = [{"op": g.op, "args": [frac_str(a) if kind == "q" else a for kind, a in zip(_OPS[g.op].kinds, g.args)]}
             for g in c.gates]
    return {"d": c.d, "gates": gates, "outputs": list(c.outputs)}


def _decoded(decode, value, name: str, *fields):
    """decode(value); an error names the field, name.format(*fields)."""
    try:
        return decode(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name.format(*fields)}: {exc}") from None


def circuit_from_json(data: dict) -> Circuit:
    """The circuit of a JSON object.  d, outputs and gate indices must be
    JSON integers; anything else raises TypeError or ValueError naming the
    field.  A gate's args are decoded when the op has that many, and
    `Circuit` checks the rest."""
    gates = []
    for idx, g in enumerate(data["gates"]):
        op, args = g["op"], g["args"]
        kinds = _OPS[op].kinds if op in _OPS else ""
        if isinstance(args, list) and len(args) == len(kinds):
            args = tuple([_decoded(_DECODERS[kind], a, "gate {} arg {}", idx, k)
                          for k, (kind, a) in enumerate(zip(kinds, args))])
        gates.append(Gate(op, args))
    d = _decoded(json_int, data["d"], "field 'd'")
    outputs = _decoded(lambda v: tuple(json_int(o) for o in v), data["outputs"], "field 'outputs'")
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
