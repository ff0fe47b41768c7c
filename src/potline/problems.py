"""Search-problem instances, the certificate taxonomy, and exact verifiers.

Instances wrap oracles (explicit tables in tests, lazy reduction views in
production); verifiers accept or reject a candidate certificate using only
oracle queries and exact arithmetic, so they work on instances that are
exponentially large.

Every oracle must be a pure function of its arguments.  Each line, grid
and orientation instance memoizes its oracles with `memoize`, up to
ORACLE_CACHE_SIZE entries per oracle, so a chain of reduction views asks
each stage below for a value once rather than once per query above it.  A
line instance's S, P and V are the memos, so a hit runs no Python frame.

Conventions:
  * line-problem vertices are ints in [0, 2^n); a bit-string x with
    S(x) = x is a non-vertex (self-loop) in every flavor;
  * grid points are int tuples; dimensions are 0-based everywhere (the
    level field of a slice certificate counts its free dimensions
    0..level-1);
  * end-of-line conditions are checked in raw form, e.g. U1 is literally
    P(S(x)) != x, which both excludes full self-loops and catches stalled
    vertices whose successor is a self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Optional

from .pivoting import LemkeSystem
from .rational import Mat, Vec, frac, frac_str, lp_pow, mat

UP, DOWN, ZERO = "up", "down", "zero"

# Entries kept per memoized oracle; the least recently used go first.
ORACLE_CACHE_SIZE = 1 << 14


def memoize(fn):
    """Memo of a pure function, bounded by ORACLE_CACHE_SIZE."""
    return lru_cache(maxsize=ORACLE_CACHE_SIZE)(fn)


class VariantMismatch(ValueError):
    """Certificate kind does not apply to this instance."""


class OffGrid(ValueError):
    """A point lies outside the instance's grid."""


class MissingField(AttributeError, ValueError):
    """Instance JSON or a certificate lacks a field its kind needs.  An
    AttributeError too, so getattr and hasattr on certificates behave."""


class BadField(ValueError):
    """Instance JSON or a certificate holds a field of the wrong type or
    shape."""


class UnmappableCert(RuntimeError):
    """A verified target certificate could not be mapped back: a bug in a
    reduction, or a shape its map-back's case analysis does not cover."""


@dataclass(frozen=True)
class Certificate:
    kind: str
    data: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.data[name]
        except KeyError:
            raise MissingField(f"{self.kind} certificate has no field {name!r}") from None

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.data.items())
        return f"{self.kind}({inner})"

    def __hash__(self):
        return hash((self.kind, repr(sorted(self.data.items(), key=lambda kv: kv[0]))))

    def __eq__(self, other):
        return (
            isinstance(other, Certificate)
            and self.kind == other.kind
            and self.data == other.data
        )


def cert(kind: str, **data) -> Certificate:
    return Certificate(kind, data)


# Line flavors and their certificate kinds, in the order brute force lists
# them.  The kinds in LINE_PAIRS name two vertices (x, y), the others one (x).
LINE_KINDS = {
    "endofline": ("E1", "E2"),
    "sinkofdag": ("S1",),
    "eopl": ("R1", "R2"),
    "ueopl": ("U1", "UV1", "UV2", "UV3"),
    "eoml": ("T1", "T2", "T3"),
    "ufeopl": ("UF1", "UFV1"),
    "ufeoplplus1": ("UFP1", "UFPV1"),
}
LINE_PAIRS = frozenset({"UV3", "UFV1", "UFPV1"})


# ---------------------------------------------------------------------------
# Instances

@dataclass
class LineInstance:
    """Successor/predecessor/potential graph over n-bit strings.

    One type serves every line flavor; `predecessor` may be None for the
    forward-only flavors and `potential` is required for all potential
    flavors.  `vertex_iter` optionally enumerates the (reachable or valid)
    vertex ids for desk-scale brute force when 2^n is too large.

    S, P and V are the memos of the pure oracles (module docstring); a
    missing P or V raises VariantMismatch on every call.
    """

    n: int
    successor: Callable[[int], int]
    potential: Optional[Callable[[int], int]] = None
    predecessor: Optional[Callable[[int], int]] = None
    flavor: str = "eopl"
    m_pot: int = 0
    vertex_iter: Optional[Callable[[], "list[int]"]] = None

    def __post_init__(self):
        if self.flavor not in LINE_KINDS:
            raise ValueError(f"unknown flavor {self.flavor}")

    # Memos are built on first use, since views are often built in bulk and
    # queried one at a time.  They hold the oracle, not the instance, so no
    # reference cycle keeps a dropped instance and its cache alive.
    @cached_property
    def S(self) -> Callable[[int], int]:
        return memoize(self.successor)

    @cached_property
    def P(self) -> Callable[[int], int]:
        return memoize(self.predecessor or _missing(self.flavor, "predecessor"))

    @cached_property
    def V(self) -> Callable[[int], int]:
        return memoize(self.potential or _missing(self.flavor, "potential"))

    @property
    def size(self) -> int:
        return 1 << self.n


def _missing(flavor: str, oracle: str):
    """An absent oracle: raises VariantMismatch and holds no instance."""

    def raiser(x):
        raise VariantMismatch(f"{flavor} has no {oracle} oracle")

    return raiser


def line_from_tables(n, s_table, p_table=None, v_table=None, flavor="eopl", m_pot=None):
    """Explicit-table instance; absent keys default to self-loop / 0.
    Potentials must lie in [0, 2^m_pot), the range the walks and the
    normalization assume; any other raises BadField naming V."""
    s_table = dict(s_table)
    p_table = dict(p_table) if p_table is not None else None
    v_table = dict(v_table or {})
    if m_pot is None:
        m_pot = max(v_table.values(), default=0).bit_length() or 1
    for x, v in v_table.items():
        if not 0 <= v < 1 << m_pot:
            raise BadField(f"field 'V': potential {v} of vertex {bits_str(x, n)} is outside [0, 2^{m_pot})")
    return LineInstance(
        n=n,
        successor=lambda x: s_table.get(x, x),
        predecessor=(None if p_table is None else (lambda x: p_table.get(x, x))),
        potential=lambda x: v_table.get(x, 0),
        flavor=flavor,
        m_pot=m_pot,
    )


@dataclass
class OpdcInstance:
    """Grid widths (k_0..k_{d-1}) plus direction oracles D_i(p).

    `direction` must be pure: D memoizes it (module docstring) after the
    grid check, so an off-grid point raises OffGrid on every call.
    """

    widths: tuple
    direction: Callable[[int, tuple], str]

    @cached_property
    def _D(self):
        return memoize(self.direction)

    @property
    def d(self) -> int:
        return len(self.widths)

    def check_point(self, p) -> tuple:
        """p as a tuple; raises OffGrid naming the first bad coordinate (or
        the coordinate count) and the grid's dimension count, not its
        widths, which may run to thousands."""
        p = tuple(p)
        if len(p) != self.d:
            raise OffGrid(f"point has {len(p)} coordinates; the grid has {self.d} dimensions")
        for i, (x, k) in enumerate(zip(p, self.widths)):
            if not 0 <= x <= k:
                raise OffGrid(f"coordinate {i} of the point is {x}, outside 0..{k} "
                              f"(the grid has {self.d} dimensions)")
        return p

    def D(self, i: int, p) -> str:
        return self._D(i, self.check_point(p))

    def points(self):
        from itertools import product

        return product(*[range(k + 1) for k in self.widths])


@dataclass
class UsoInstance:
    """Orientation of the n-cube: `orient(v)` is v's out-map bits, or None
    for a dash.  It must be pure: it is memoized in place (module
    docstring)."""

    n: int
    orient: Callable[[int], Optional[int]]

    def __post_init__(self):
        self.orient = memoize(self.orient)


@dataclass
class LcpInstance:
    """Find y >= 0 with w = M y + q >= 0 and y . w = 0.  M and q are not
    mutated after construction, so `system`, the Lemke system over them,
    is built once and shared by every out-map and cone solve."""

    M: Mat
    q: Vec

    def __post_init__(self):
        self.M = mat(self.M)
        self.q = [frac(x) for x in self.q]
        if len(self.M) != len(self.q) or any(len(r) != len(self.q) for r in self.M):
            raise ValueError("LCP dimensions disagree")

    @property
    def d(self) -> int:
        return len(self.q)

    @cached_property
    def system(self) -> LemkeSystem:
        return LemkeSystem(self.M, self.q)

    def w_of(self, y: Vec) -> Vec:
        return _affine(self.M, y, self.q)


def _affine(m: Mat, x: Vec, q: Vec | None = None) -> Vec:
    """M x + q exactly (M x when q is None), with one Fraction per row.
    Zero coordinates of x are skipped; x is scaled to integers by the lcm
    of its denominators and each row of [M | q] by its own, so every row
    is summed in int."""
    xs = [(j, v) for j, v in enumerate(x) if v]
    sx = lcm(*[v.denominator for _, v in xs])
    xs = [(j, v.numerator * (sx // v.denominator)) for j, v in xs]
    out = []
    for i, row in enumerate(m):
        qi = 0 if q is None else q[i]
        entries = [(row[j], xj) for j, xj in xs if row[j]]
        sr = lcm(qi.denominator, *[a.denominator for a, _ in entries])
        acc = sum(a.numerator * (sr // a.denominator) * xj for a, xj in entries)
        out.append(Fraction(acc + qi.numerator * (sr // qi.denominator) * sx, sr * sx))
    return out


@dataclass
class ContractionInstance:
    """Purported contraction map with factor c under the l_p norm.

    `func` is any exact rational evaluator; `circuit` additionally enables
    the exact grid machinery.  `kappa` overrides the per-dimension grid
    exponents, one int >= 1 per dimension (defaults to the closed-form
    bound computed from the circuit); `eps`, when set, is approximate
    mode's default tolerance and a bound every APPROX_FIX must meet
    besides its own.
    """

    d: int
    c: Fraction
    p: int
    func: Callable[[Vec], Vec] = None
    circuit: object = None
    eps: Optional[Fraction] = None
    kappa: Optional[tuple] = None

    def __post_init__(self):
        self.c = frac(self.c)
        if not (0 < self.c < 1):
            raise ValueError("contraction factor must lie in (0, 1)")
        if self.p < 1:
            raise ValueError("norm index must be a positive integer")
        if self.func is None and self.circuit is None:
            raise ValueError("need a circuit or a black-box evaluator")
        if self.kappa is not None:
            kappa = tuple(self.kappa)
            if len(kappa) != self.d or not all(type(k) is int and k >= 1 for k in kappa):
                raise BadField(f"field 'kappa': expected one integer >= 1 per dimension ({self.d}), "
                               f"got {list(kappa)}")
            self.kappa = kappa
        if self.func is None:
            from .circuits import evaluate

            self.func = lambda x: evaluate(self.circuit, x)

    def f(self, x: Vec) -> Vec:
        return [Fraction(v) for v in self.func([Fraction(c) for c in x])]

    def effective_kappa(self) -> tuple:
        if self.kappa is not None:
            return self.kappa
        if self.circuit is None:
            raise ValueError("kappa unavailable: no circuit and none supplied")
        from .reductions_opdc import compute_kappa

        return compute_kappa(self.circuit)


# ---------------------------------------------------------------------------
# Verifiers

def _in_box(x) -> bool:
    return all(0 <= v <= 1 for v in x)


def verify_line(inst: LineInstance, c: Certificate) -> bool:
    if c.kind not in LINE_KINDS[inst.flavor]:
        raise VariantMismatch(f"{c.kind} does not apply to {inst.flavor}")
    S, V = inst.S, inst.V
    k = c.kind
    if k in ("U1", "E1"):
        x = c.x
        return inst.P(S(x)) != x
    if k == "E2":
        x = c.x
        return x != 0 and S(inst.P(x)) != x
    if k == "R1":
        x = c.x
        return (x != 0 and S(inst.P(x)) != x) or inst.P(S(x)) != x
    if k in ("R2", "UV1"):
        x = c.x
        return x != S(x) and inst.P(S(x)) == x and V(S(x)) - V(x) <= 0
    if k == "UV2":
        x = c.x
        return x != 0 and S(inst.P(x)) != x
    if k in ("UV3", "UFV1"):
        x, y = c.x, c.y
        if x == y or x == S(x) or y == S(y):
            return False
        # Second disjunct read as V(x) < V(y) < V(S(x)).
        return V(x) == V(y) or (V(x) < V(y) < V(S(x)))
    if k in ("S1", "UF1"):
        x = c.x
        return S(x) != x and (S(S(x)) == S(x) or V(S(x)) <= V(x))
    if k == "UFP1":
        x = c.x
        return S(x) != x and (S(S(x)) == S(x) or V(S(x)) != V(x) + 1)
    if k == "UFPV1":
        x, y = c.x, c.y
        return x != y and x != S(x) and y != S(y) and V(x) == V(y)
    if k == "T1":
        x = c.x
        return (x != 0 and S(inst.P(x)) != x) or inst.P(S(x)) != x
    if k == "T2":
        x = c.x
        return x != 0 and V(x) == 1
    if k == "T3":
        x = c.x
        return (V(x) > 0 and V(S(x)) - V(x) != 1) or (
            V(x) > 1 and V(x) - V(inst.P(x)) != 1
        )
    raise VariantMismatch(c.kind)


def _same_slice(p, q, level) -> bool:
    return all(p[j] == q[j] for j in range(level, len(p)))


def verify_opdc(inst: OpdcInstance, c: Certificate) -> bool:
    D = inst.D
    if c.kind == "O1":
        p = inst.check_point(c.p)
        return all(D(i, p) == ZERO for i in range(inst.d))
    if c.kind == "OV1":
        lvl, p, q = c.level, inst.check_point(c.p), inst.check_point(c.q)
        if not (1 <= lvl <= inst.d) or p == q or not _same_slice(p, q, lvl):
            return False
        return all(D(j, p) == ZERO and D(j, q) == ZERO for j in range(lvl))
    if c.kind == "OV2":
        lvl, p, q = c.level, inst.check_point(c.p), inst.check_point(c.q)
        if not (1 <= lvl <= inst.d) or not _same_slice(p, q, lvl):
            return False
        i = lvl - 1
        if p[i] != q[i] + 1:
            return False
        if not all(D(j, p) == ZERO and D(j, q) == ZERO for j in range(i)):
            return False
        return D(i, p) == DOWN and D(i, q) == UP
    if c.kind == "OV3":
        lvl, p = c.level, inst.check_point(c.p)
        if not (1 <= lvl <= inst.d):
            return False
        i = lvl - 1
        if not all(D(j, p) == ZERO for j in range(i)):
            return False
        return (p[i] == 0 and D(i, p) == DOWN) or (p[i] == inst.widths[i] and D(i, p) == UP)
    raise VariantMismatch(c.kind)


def verify_uso(inst: UsoInstance, c: Certificate) -> bool:
    if c.kind == "US1":
        return inst.orient(c.v) == 0
    if c.kind == "USV1":
        return inst.orient(c.v) is None
    if c.kind == "USV2":
        v, u = c.v, c.u
        ov, ou = inst.orient(v), inst.orient(u)
        if v == u or ov is None or ou is None:
            return False
        return (v ^ u) & (ov ^ ou) == 0
    raise VariantMismatch(c.kind)


def verify_lcp(inst: LcpInstance, c: Certificate) -> bool:
    """Q1 and PV2 are checked from M and q alone: the products M y + q
    and M x clear denominators and sum in int (`_affine`), and never read
    the Lemke tableau.  PV1 takes a determinant; PV3 compares out-maps."""
    d = inst.d
    if c.kind == "Q1":
        y = [frac(v) for v in c.y]
        if len(y) != d or any(v < 0 for v in y):
            return False
        w = inst.w_of(y)
        return all(v >= 0 for v in w) and all(y[i] * w[i] == 0 for i in range(d))
    if c.kind == "PV1":
        alpha = sorted(set(c.alpha))
        if not alpha or any(not 0 <= i < d for i in alpha):
            return False
        from .rational import determinant

        minor = [[inst.M[i][j] for j in alpha] for i in alpha]
        return determinant(minor) <= 0
    if c.kind == "PV2":
        x = [frac(v) for v in c.x]
        if len(x) != d or all(v == 0 for v in x):
            return False
        mx = _affine(inst.M, x)
        return all(x[i] * mx[i] <= 0 for i in range(d))
    if c.kind == "PV3":
        from .reductions_lcp import out_map

        alpha, beta = frozenset(c.alpha), frozenset(c.beta)
        if alpha == beta:
            return False
        oa, ob = out_map(inst, alpha), out_map(inst, beta)
        if oa is None or ob is None:
            return False
        chi_a = sum(1 << i for i in alpha)
        chi_b = sum(1 << i for i in beta)
        return (chi_a ^ chi_b) & (oa ^ ob) == 0
    raise VariantMismatch(c.kind)


def verify_contraction(inst: ContractionInstance, c: Certificate) -> bool:
    d = inst.d
    if c.kind == "CM1":
        x = [frac(v) for v in c.x]
        return len(x) == d and _in_box(x) and inst.f(x) == x
    if c.kind == "CMV1":
        x = [frac(v) for v in c.x]
        y = [frac(v) for v in c.y]
        if len(x) != d or len(y) != d or not (_in_box(x) and _in_box(y)):
            return False
        lhs = lp_pow([a - b for a, b in zip(inst.f(x), inst.f(y))], inst.p)
        rhs = (inst.c ** inst.p) * lp_pow([a - b for a, b in zip(x, y)], inst.p)
        return lhs > rhs
    if c.kind == "CMV2":
        x = [frac(v) for v in c.x]
        return len(x) == d and _in_box(x) and not _in_box(inst.f(x))
    if c.kind == "CMV3":
        lvl = c.level
        x = [frac(v) for v in c.x]
        y = [frac(v) for v in c.y]
        if not (1 <= lvl <= d) or not (_in_box(x) and _in_box(y)):
            return False
        if any(x[j] != y[j] for j in range(lvl, d)):
            return False
        i = lvl - 1
        kappa = inst.effective_kappa()
        k_i = 1 << kappa[i]
        if k_i * x[i] != k_i * y[i] + 1:
            return False
        fx, fy = inst.f(x), inst.f(y)
        if any(fx[j] != x[j] or fy[j] != y[j] for j in range(i)):
            return False
        return fx[i] < x[i] and fy[i] > y[i]
    if c.kind == "APPROX_FIX":
        # ||f(v) - v||_p <= eps in the certificate's (eps, p), and in the
        # instance's when it sets its own eps, which is never loosened.
        if not _approx_claim_ok(c):
            return False
        v = [frac(u) for u in c.v]
        if len(v) != d or not _in_box(v):
            return False
        r = [a - b for a, b in zip(inst.f(v), v)]
        bounds = [(c.eps, c.p)] + ([(inst.eps, inst.p)] if inst.eps is not None else [])
        return all(lp_pow(r, p) <= frac(eps) ** p for eps, p in bounds)
    raise VariantMismatch(c.kind)


def _approx_claim_ok(c: Certificate) -> bool:
    """An APPROX_FIX names its tolerance: eps >= 0 and an integer p >= 1."""
    eps, p = c.data.get("eps"), c.data.get("p")
    return isinstance(eps, Fraction) and eps >= 0 and type(p) is int and p >= 1


def explain_rejection(inst, c: Certificate) -> str:
    """Reason string for a certificate its verifier rejected: clause level
    for Q1, CM1, UV3 and UFV1, generic otherwise."""
    if c.kind == "Q1":
        y = [frac(v) for v in c.y]
        if len(y) != inst.d:
            return "dimension mismatch"
        for i, v in enumerate(y):
            if v < 0:
                return f"nonnegativity y_{i + 1} < 0"
        w = inst.w_of(y)
        for i, v in enumerate(w):
            if v < 0:
                return f"feasibility w_{i + 1} < 0"
        for i in range(inst.d):
            if y[i] * w[i] != 0:
                return f"complementarity y_{i + 1} w_{i + 1} != 0"
    elif c.kind == "CM1":
        x = [frac(v) for v in c.x]
        if len(x) != inst.d:
            return "dimension mismatch"
        if not _in_box(x):
            return "point outside the unit box"
        fx = inst.f(x)
        for i in range(inst.d):
            if fx[i] != x[i]:
                return f"f(x)_{i + 1} != x_{i + 1}"
    elif c.kind == "APPROX_FIX" and not _approx_claim_ok(c):
        return "APPROX_FIX needs eps >= 0 and an integer p >= 1"
    elif c.kind in ("UV3", "UFV1"):
        x, y = c.x, c.y
        if x == y:
            return "points coincide"
        if x == inst.S(x) or y == inst.S(y):
            return "a point is not a vertex"
        if inst.V(x) != inst.V(y) and not (inst.V(x) < inst.V(y) < inst.V(inst.S(x))):
            return "V(y) neither equals V(x) nor lies in (V(x), V(S(x)))"
    return "certificate conditions do not hold on this instance"


# ---------------------------------------------------------------------------
# JSON formats

def bits_str(x: int, n: int) -> str:
    return format(x, f"0{n}b")


# -- JSON field decoding ----------------------------------------------------

_REQUIRED = object()


def _decode(data: dict, name: str, decode, default=_REQUIRED):
    """decode(data[name]), or default when the field is absent; a missing
    required field raises KeyError(name).  A value that decode cannot read
    raises BadField naming the field."""
    if name not in data:
        if default is _REQUIRED:
            raise KeyError(name)
        return default
    try:
        return decode(data[name])
    except (TypeError, ValueError) as exc:
        raise BadField(f"field {name!r}: {exc}") from None


def _of_type(v, cls, what: str):
    if not isinstance(v, cls):
        raise TypeError(f"expected {what}, got {type(v).__name__}")
    return v


def _array(v) -> list:
    return _of_type(v, list, "a JSON array")


def _object(v) -> dict:
    return _of_type(v, dict, "a JSON object")


def _string(v) -> str:
    return _of_type(v, str, "a string")


def _fracs(v) -> list:
    return [frac(t) for t in _array(v)]


def _index_set(v) -> frozenset:
    return frozenset(int(t) for t in _array(v))


def _point(v) -> tuple:
    return tuple(int(t) for t in _array(v))


def _vertex(v) -> int:
    if isinstance(v, str) and set(v) <= {"0", "1"}:
        return int(v, 2)
    return int(_of_type(v, (str, int), "a bit string or an integer"))


def _bits_table(v) -> dict:
    return {int(k, 2): int(x, 2) for k, x in _object(v).items()}


def line_to_json(inst: LineInstance) -> dict:
    out = {"flavor": inst.flavor, "n": inst.n, "m": inst.m_pot, "S": {}, "V": {}}
    if inst.predecessor is not None:
        out["P"] = {}
    for x in range(inst.size):
        s = inst.S(x)
        if s != x:
            out["S"][bits_str(x, inst.n)] = bits_str(s, inst.n)
        if inst.predecessor is not None:
            p = inst.P(x)
            if p != x:
                out["P"][bits_str(x, inst.n)] = bits_str(p, inst.n)
        if inst.potential is not None:
            v = inst.V(x)
            if v:
                out["V"][bits_str(x, inst.n)] = v
    return out


def line_from_json(data: dict) -> LineInstance:
    return line_from_tables(
        _decode(data, "n", int),
        _decode(data, "S", _bits_table, {}),
        _decode(data, "P", _bits_table, None),
        _decode(data, "V", lambda t: {int(k, 2): int(x) for k, x in _object(t).items()}, {}),
        flavor=_decode(data, "flavor", _string, "eopl"),
        m_pot=_decode(data, "m", int, None),
    )


def lcp_to_json(inst: LcpInstance) -> dict:
    return {
        "M": [[frac_str(x) for x in row] for row in inst.M],
        "q": [frac_str(x) for x in inst.q],
    }


def lcp_from_json(data: dict) -> LcpInstance:
    return LcpInstance(M=_decode(data, "M", lambda rows: [_fracs(r) for r in _array(rows)]),
                       q=_decode(data, "q", _fracs))


def opdc_to_json(inst: OpdcInstance) -> dict:
    table = {}
    for p in inst.points():
        table[",".join(map(str, p))] = [inst.D(i, p) for i in range(inst.d)]
    return {"k": list(inst.widths), "D": table}


def opdc_from_json(data: dict) -> OpdcInstance:
    widths = _decode(data, "k", _point)
    table = _decode(data, "D", lambda t: {_point(key.split(",")): _array(dirs)
                                          for key, dirs in _object(t).items()})

    def direction(i, p):
        return table[p][i]

    inst = OpdcInstance(widths=widths, direction=direction)
    for p in inst.points():
        if len(table.get(p, ())) != len(widths):
            raise MissingField(f"opdc instance has no {len(widths)} directions at point {p}")
    return inst


def uso_to_json(inst: UsoInstance) -> dict:
    table = {}
    for v in range(1 << inst.n):
        o = inst.orient(v)
        table[bits_str(v, inst.n)] = "dash" if o is None else bits_str(o, inst.n)
    return {"n": inst.n, "orient": table}


def uso_from_json(data: dict) -> UsoInstance:
    n = _decode(data, "n", int)
    table = _decode(data, "orient", lambda t: {
        int(k, 2): (None if v == "dash" else int(v, 2)) for k, v in _object(t).items()
    })
    return UsoInstance(n=n, orient=lambda v: table.get(v))


def contraction_to_json(inst: ContractionInstance) -> dict:
    from .circuits import circuit_to_json

    if inst.circuit is None:
        raise ValueError("only circuit-mode contraction instances serialize")
    out = {
        "circuit": circuit_to_json(inst.circuit),
        "c": frac_str(inst.c),
        "p": inst.p,
    }
    if inst.eps is not None:
        out["eps"] = frac_str(inst.eps)
    if inst.kappa is not None:
        out["kappa"] = list(inst.kappa)
    return out


def contraction_from_json(data: dict) -> ContractionInstance:
    from .circuits import circuit_from_json

    circ = _decode(data, "circuit", lambda v: circuit_from_json(_object(v)))
    return ContractionInstance(
        d=circ.d,
        c=_decode(data, "c", frac),
        p=_decode(data, "p", int),
        circuit=circ,
        eps=_decode(data, "eps", frac, None),
        kappa=_decode(data, "kappa", _array, None),
    )


# -- certificate JSON -------------------------------------------------------

def cert_to_json(c: Certificate) -> dict:
    def enc(v):
        if isinstance(v, Fraction):
            return frac_str(v)
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        if isinstance(v, frozenset):
            return sorted(v)
        return v

    return {"kind": c.kind, **{k: enc(v) for k, v in c.data.items()}}


_VERTEX_FIELDS = {"v": _vertex, "u": _vertex, "x": _vertex, "y": _vertex}


# ---------------------------------------------------------------------------
# The problem kinds

@dataclass(frozen=True)
class Kind:
    """What differs between problem kinds: the instance class, its JSON
    loader and dumper, its verifier, and the decoders of certificate JSON
    fields (fields without a decoder keep their parsed value)."""

    cls: type
    from_json: Callable[[dict], object]
    to_json: Callable[[object], dict]
    verify: Callable[[object, Certificate], bool]
    fields: dict


# Keyed by the CLI problem name.
KINDS = {
    "plcp": Kind(LcpInstance, lcp_from_json, lcp_to_json, verify_lcp,
                 {"x": _fracs, "y": _fracs, "alpha": _index_set, "beta": _index_set}),
    "uso": Kind(UsoInstance, uso_from_json, uso_to_json, verify_uso, _VERTEX_FIELDS),
    "opdc": Kind(OpdcInstance, opdc_from_json, opdc_to_json, verify_opdc, {"p": _point, "q": _point}),
    "line": Kind(LineInstance, line_from_json, line_to_json, verify_line, _VERTEX_FIELDS),
    "contraction": Kind(ContractionInstance, contraction_from_json, contraction_to_json,
                        verify_contraction, {"x": _fracs, "y": _fracs, "v": _fracs, "eps": frac}),
}
_KIND_OF_CLASS = {k.cls: k for k in KINDS.values()}


def verify(inst, c: Certificate) -> bool:
    """Check c with the verifier of the instance's kind."""
    kind = _KIND_OF_CLASS.get(type(inst))
    if kind is None:
        raise TypeError(f"no verifier for {type(inst)}")
    return kind.verify(inst, c)


def first_verifying(inst, candidates, what: str) -> Certificate:
    """The first of `candidates` that passes `verify` on `inst`; raises
    UnmappableCert(what) when none does.  Every map-back is a generator
    of the source certificates its construction's case analysis names,
    consumed here, so a candidate is only built if those before it failed."""
    for c in candidates:
        try:
            if verify(inst, c):
                return c
        except VariantMismatch:
            continue
    raise UnmappableCert(what)


def cert_from_json(data: dict, problem: str) -> Certificate:
    if "kind" not in data:
        raise MissingField("certificate has no field 'kind'")
    fields = KINDS[problem].fields
    try:
        kind = _decode(data, "kind", _string)
        payload = {k: _decode(data, k, fields[k]) if k in fields else v
                   for k, v in data.items() if k != "kind"}
    except BadField as exc:
        raise BadField(f"certificate {exc}") from None
    return Certificate(kind, payload)
