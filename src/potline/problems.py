"""Search-problem instances, the certificate taxonomy, and exact verifiers.

Instances wrap oracles (explicit tables in tests, lazy reduction views in
production); verifiers accept or reject a candidate certificate using only
oracle queries and exact arithmetic, so they work on instances that are
exponentially large.

Every oracle must be a pure function of its arguments.  Each line, grid
and orientation instance memoizes its oracles with `memoize`, up to
ORACLE_CACHE_SIZE entries per oracle, so a chain of reduction views asks
each stage below for a value once rather than once per query above it.
The memos are built on first use beside the oracles the instance was
given, which stay as they were: a line instance's S, P and V and an
orientation's O are the memos, so a hit runs no Python frame; a grid
memoizes its directions per point, all d of them in one entry.

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
from functools import cached_property, lru_cache, partial
from itertools import product
from operator import ge
from typing import Callable, Optional

from .circuits import circuit_from_json, circuit_to_json, compile_circuit, compute_kappa, evaluate
from .pivoting import IntForm, LemkeSystem, principal_minor
from .rational import Mat, Vec, frac, frac_str, int_row, integer, json_int, lp_pow, mat

UP, DOWN, ZERO = "up", "down", "zero"

# Entries kept per memoized oracle; the least recently used go first.
ORACLE_CACHE_SIZE = 1 << 14

# The most bits a file may give a vertex id or a potential: a `line` file's
# n and m, a `uso` file's n.  Far above any table a file can hold (n = 64
# is legal), and small enough that 2^n is a cheap int; a larger value is
# refused where it is read, before anything is built from it.
MAX_BITS = 1 << 10

# The largest grid exponent kappa_i a contraction instance may give.  The
# exact search works over the denominator 2^(2 kappa + 2), which stays under
# 131,075 bits, and the bound lies above the closed-form kappa
# (`circuits.compute_kappa`) of the `gen_contraction` maps up to d = 22
# (3083 at d = 6, about 57,700 at d = 22); a larger kappa is refused
# where it is read.
MAX_KAPPA = 1 << 16


def memoize(fn):
    """Memo of a pure function, bounded by ORACLE_CACHE_SIZE."""
    return lru_cache(maxsize=ORACLE_CACHE_SIZE)(fn)


def keep(cache: dict, key, value):
    """Store value under key in a dict cache and return it; the cache is
    emptied first when it holds ORACLE_CACHE_SIZE entries.  The one bound of
    the dicts that views keep per code, which a view fills from more than
    one place, so no lru_cache can hold them."""
    if len(cache) >= ORACLE_CACHE_SIZE:
        cache.clear()
    cache[key] = value
    return value


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


class Exhausted(RuntimeError):
    """A budget ran out: a walk's steps, an enumeration's size or its
    certificate cap.  It signals a budget problem, not the absence of a
    solution."""


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


def cert(kind: str, **data) -> Certificate:
    return Certificate(kind, data)


@dataclass(frozen=True)
class Flavor:
    """A line flavor: its certificate kinds, in the order brute force lists
    them; `pair`, the kind that names two vertices (x, y), the others
    naming one (x); `end`, the kind at an end of the line (P(S(x)) != x),
    None on the forward-only flavors; `violation`, the kind at a bad step
    x -> S(x), and `bad(V(x), V(S(x)))`, the rule for one (both None on
    EndOfLine, whose steps are never bad)."""

    kinds: tuple
    pair: Optional[str]
    end: Optional[str]
    violation: Optional[str]
    bad: Optional[Callable[[int, int], bool]]


# The one definition of each line flavor, keyed by its name.
LINE_KINDS = {
    "endofline": Flavor(("E1", "E2"), None, "E1", None, None),
    "sinkofdag": Flavor(("S1",), None, None, "S1", ge),
    "eopl": Flavor(("R1", "R2"), None, "R1", "R2", ge),
    "ueopl": Flavor(("U1", "UV1", "UV2", "UV3"), "UV3", "U1", "UV1", ge),
    "eoml": Flavor(("T1", "T2", "T3"), None, "T1", "T3", lambda vx, vy: vx > 0 and vy - vx != 1),
    "ufeopl": Flavor(("UF1", "UFV1"), "UFV1", None, "UF1", ge),
    "ufeoplplus1": Flavor(("UFP1", "UFPV1"), "UFPV1", None, "UFP1", lambda vx, vy: vy != vx + 1),
}


# ---------------------------------------------------------------------------
# Instances

@dataclass
class LineInstance:
    """Successor/predecessor/potential graph over n-bit strings.

    One type serves every line flavor; `predecessor` may be None for the
    forward-only flavors and `potential` is required for all potential
    flavors.  `vertex_iter(budget)` optionally enumerates the (reachable or
    valid) vertex ids for desk-scale brute force when 2^n is too large,
    raising Exhausted when it would scan or list more than budget.

    `run`, optional like `predecessor`, is a pure oracle that lets a walk
    cross plain +1 steps in one jump: run(x) is a count r >= 0 such that
    for each j < r, S(x+j) = x+j+1, P(x+j+1) = x+j and V(x+j+1) =
    V(x+j) + 1.  0 is always a correct answer.  Only the walks of the
    two-way flavors read it, since a forward-only walk also checks S at
    the vertex after the last step.

    S, P and V are the memos of the pure oracles (module docstring); a
    missing P or V raises VariantMismatch on every call.  `run` is not
    memoized: a walk asks it once per jump.
    """

    n: int
    successor: Callable[[int], int]
    potential: Optional[Callable[[int], int]] = None
    predecessor: Optional[Callable[[int], int]] = None
    flavor: str = "eopl"
    m_pot: int = 0
    vertex_iter: Optional[Callable[[int], "list[int]"]] = None
    run: Optional[Callable[[int], int]] = None

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

    def ids(self, budget: int):
        """The ids worth scanning for vertices: `vertex_iter(budget)` when
        the instance has one, else all 2^n, which raise Exhausted above
        budget."""
        if self.vertex_iter is not None:
            return self.vertex_iter(budget)
        if self.n >= budget.bit_length():  # 2^n > budget
            raise Exhausted(f"2^{self.n} ids exceed budget {budget}")
        return range(self.size)


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
        if v < 0 or v.bit_length() > m_pot:
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
    """Grid widths (k_0..k_{d-1}) plus one direction oracle per point:
    direction(p) is the tuple (D_0(p), ..., D_{d-1}(p)).

    `direction` must be pure: the grid memoizes it per point (module
    docstring) after the grid check, so an off-grid point raises OffGrid
    on every call.
    """

    widths: tuple
    direction: Callable[[tuple], tuple]

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
        return self._D(self.check_point(p))[i]

    def surface(self, p) -> int:
        """The largest i <= d with D_j(p) = zero for every j < i: p lies on
        the j-surface for every j <= surface(p)."""
        i = 0
        for di in self._D(self.check_point(p)):
            if di != ZERO:
                break
            i += 1
        return i

    def points(self):
        return product(*[range(k + 1) for k in self.widths])


@dataclass
class UsoInstance:
    """Orientation of the n-cube: `orient(v)` is v's out-map bits, or None
    for a dash.  It must be pure: `O` is its memo (module docstring), which
    the verifier, brute force and the views read; `orient` stays the
    function the instance was given."""

    n: int
    orient: Callable[[int], Optional[int]]

    @cached_property
    def O(self) -> Callable[[int], Optional[int]]:
        return memoize(self.orient)


@dataclass
class LcpInstance:
    """Find y >= 0 with w = M y + q >= 0 and y . w = 0.  M and q are not
    mutated after construction, so `system`, the Lemke system over them,
    is built once, here alone, and shared by `lemke`, the generator's cone
    checks, every out-map and cone solve and the Lemke line view."""

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

    @property
    def form(self) -> IntForm:  # built once, with `system`
        return self.system.form


def out_map(inst: LcpInstance, alpha) -> int | None:
    """Sign bit-string of A_alpha^{-1} q, or None (dash) on singularity.

    Entry i is the value of cone alpha's basic variable of label i (y_i or
    w_i); zero entries are resolved by the lexicographic perturbation of
    the Lemke system.
    """
    sys = inst.system
    v = sys.cone_vertex(alpha)
    if v is None:
        return None
    return sum(1 << var % sys.d for var in sys.lex_negative(v))


@dataclass
class ContractionInstance:
    """Purported contraction map with factor c under the l_p norm.

    `func` is any exact rational evaluator; `circuit` additionally enables
    the exact grid machinery, and `func` defaults to its `evaluate` (a
    `func` given with a circuit must compute the circuit's map).  The
    searches read f through one integer image, `f_int(xs, D) = (nums, den)`
    with f(x)_j = nums[j] / den and den > 0 at the point x_j = xs[j] / D,
    D > 0: a circuit's compiled integer program, or func's values at that
    point put over their lcm.  The searched points stay integers over D;
    `Fraction`s are built only for a black-box `func` and for
    certificates.  `f` and the verifier read `func`, so they stay
    independent of the compiled program.
    `kappa` overrides the per-dimension grid
    exponents, one int >= 1 per dimension (defaults to the closed-form
    bound computed from the circuit).  An entry above MAX_KAPPA is refused
    as a `BadField` when the instance is built, so the search's
    denominator 2^(2 kappa + 2) stays a small int; this bounds the size
    of the numbers, not the run time.  `eps`, when set, is approximate
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
            if max(kappa) > MAX_KAPPA:
                raise BadField(f"field 'kappa': expected entries up to {MAX_KAPPA}, got {max(kappa)}")
            self.kappa = kappa
        if self.func is None:
            self.func = partial(evaluate, self.circuit)

    def f(self, x: Vec) -> Vec:
        return [Fraction(v) for v in self.func([Fraction(c) for c in x])]

    @cached_property
    def f_int(self) -> Callable[[list[int], int], tuple[list[int], int]]:
        """f at the point xs / D over one positive denominator, compiled
        once per instance."""
        if self.circuit is not None:
            return compile_circuit(self.circuit)

        def over_lcm(xs, D):
            den, nums = int_row(self.f([Fraction(x, D) for x in xs]))
            return nums, den

        return over_lcm

    def effective_kappa(self) -> tuple:
        if self.kappa is not None:
            return self.kappa
        if self.circuit is None:
            raise ValueError("kappa unavailable: no circuit and none supplied")
        return compute_kappa(self.circuit)


# ---------------------------------------------------------------------------
# Verifiers

def _in_box(x) -> bool:
    return all(0 <= v <= 1 for v in x)


def _box_point(inst: ContractionInstance, v) -> Optional[Vec]:
    """v as Fractions when it is a point of the instance's unit box, else
    None."""
    x = [frac(t) for t in v]
    return x if len(x) == inst.d and _in_box(x) else None


# The clauses of Q1, PV1, PV2, CM1, UV3 and UFV1 once each: the reason of
# the first that fails, or None when all hold.  The verifiers accept on
# None, and `explain_rejection` reports the reason.  Q1 and PV2 convert
# their vector to integers once (`rational.int_row`: c times it for some
# c > 0, so with its signs) and test every clause on those integers and
# on `IntForm.sums`.

def _first(*clauses) -> Optional[str]:
    """The first failure among clauses (reason, fails), fails a list of
    bools: the reason formatted with the 1-based index of the first True."""
    for reason, fails in clauses:
        if any(fails):
            return reason.format(fails.index(True) + 1)
    return None


def _q1_failure(inst: LcpInstance, c: Certificate) -> Optional[str]:
    y = [frac(v) for v in c.y]
    if len(y) != inst.d:
        return "dimension mismatch"
    sy, ys = int_row(y)
    w = inst.form.sums(ys + [sy])
    return _first(("nonnegativity y_{} < 0", [a < 0 for a in ys]),
                  ("feasibility w_{} < 0", [b < 0 for b in w]),
                  ("complementarity y_{0} w_{0} != 0", [a * b != 0 for a, b in zip(ys, w)]))


def _pv1_failure(inst: LcpInstance, c: Certificate) -> Optional[str]:
    alpha = sorted(set(c.alpha))
    if not alpha:
        return "nonempty alpha = {}"
    outside = [i for i in alpha if not 0 <= i < inst.d]
    if outside:
        return f"label {outside[0]} outside 0..{inst.d - 1}"
    return None if principal_minor(inst.M, alpha) <= 0 else "principal minor det(M_alpha,alpha) > 0"


def _pv2_failure(inst: LcpInstance, c: Certificate) -> Optional[str]:
    x = [frac(v) for v in c.x]
    if len(x) != inst.d:
        return "dimension mismatch"
    xs = int_row(x)[1]
    mx = inst.form.sums(xs + [0])
    return _first(("nonzero x = 0", [not any(xs)]),
                  ("sign reversal x_{0} (M x)_{0} > 0", [a * b > 0 for a, b in zip(xs, mx)]))


def _cm1_failure(inst: ContractionInstance, c: Certificate) -> Optional[str]:
    x = [frac(v) for v in c.x]
    if len(x) != inst.d:
        return "dimension mismatch"
    if not _in_box(x):
        return "point outside the unit box"
    fx = inst.f(x)
    return _first(("f(x)_{0} != x_{0}", [a != b for a, b in zip(fx, x)]),
                  ("f(x) has the wrong dimension", [len(fx) != len(x)]))


def _pair_failure(inst: LineInstance, c: Certificate) -> Optional[str]:
    """UV3 and UFV1 on vertices x, y inside [0, 2^n); the last clause is
    read as V(x) = V(y) or V(x) < V(y) < V(S(x))."""
    S, V, x, y = inst.S, inst.V, c.x, c.y
    if x == y:
        return "points coincide"
    if x == S(x) or y == S(y):
        return "a point is not a vertex"
    if V(x) != V(y) and not (V(x) < V(y) < V(S(x))):
        return "V(y) neither equals V(x) nor lies in (V(x), V(S(x)))"
    return None


_FAILURES = {"Q1": _q1_failure, "PV1": _pv1_failure, "PV2": _pv2_failure, "CM1": _cm1_failure,
             "UV3": _pair_failure, "UFV1": _pair_failure}


def verify_line(inst: LineInstance, c: Certificate) -> bool:
    """Check c's conditions on the line; a vertex field outside [0, 2^n)
    names no vertex of the instance, so it is rejected."""
    flavor = LINE_KINDS[inst.flavor]
    if c.kind not in flavor.kinds:
        raise VariantMismatch(f"{c.kind} does not apply to {inst.flavor}")
    S, V = inst.S, inst.V
    k, x = c.kind, c.x
    y = c.y if k == flavor.pair else x
    if not (0 <= x < inst.size and 0 <= y < inst.size):
        return False
    if k in ("U1", "E1"):
        return inst.P(S(x)) != x
    if k in ("E2", "UV2"):
        return x != 0 and S(inst.P(x)) != x
    if k in ("R1", "T1"):
        return (x != 0 and S(inst.P(x)) != x) or inst.P(S(x)) != x
    if k in ("R2", "UV1"):
        return x != S(x) and inst.P(S(x)) == x and flavor.bad(V(x), V(S(x)))
    if k in ("UV3", "UFV1"):
        return _pair_failure(inst, c) is None
    if k in ("S1", "UF1", "UFP1"):
        return S(x) != x and (S(S(x)) == S(x) or flavor.bad(V(x), V(S(x))))
    if k == "UFPV1":
        return x != y and x != S(x) and y != S(y) and V(x) == V(y)
    if k == "T2":
        return x != 0 and V(x) == 1
    if k == "T3":
        return flavor.bad(V(x), V(S(x))) or (V(x) > 1 and V(x) - V(inst.P(x)) != 1)
    raise VariantMismatch(c.kind)


def verify_opdc(inst: OpdcInstance, c: Certificate) -> bool:
    """O1 is a point on the d-surface.  The violations name a level in
    1..d, i = level - 1, and points on the i-surface that agree from
    dimension `level` on: OV1 two distinct points on the level-surface,
    OV2 p one above q in dimension i with D_i(p) = down and D_i(q) = up,
    OV3 p at a boundary of dimension i with D_i(p) pointing out.  A point
    off the grid names no point of the instance, so it is rejected."""
    if c.kind not in ("O1", "OV1", "OV2", "OV3"):
        raise VariantMismatch(c.kind)
    try:
        p = inst.check_point(c.p)
        q = inst.check_point(c.q) if c.kind in ("OV1", "OV2") else p
    except OffGrid:
        return False
    if c.kind == "O1":
        return inst.surface(p) == inst.d
    lvl = c.level
    if not (1 <= lvl <= inst.d) or p[lvl:] != q[lvl:]:
        return False
    if c.kind == "OV1":
        return p != q and inst.surface(p) >= lvl and inst.surface(q) >= lvl
    i = lvl - 1
    if inst.surface(p) < i or inst.surface(q) < i:
        return False
    if c.kind == "OV2":
        return p[i] == q[i] + 1 and inst.D(i, p) == DOWN and inst.D(i, q) == UP
    return (p[i] == 0 and inst.D(i, p) == DOWN) or (p[i] == inst.widths[i] and inst.D(i, p) == UP)


def szabo_welzl(v: int, u: int, ov: Optional[int], ou: Optional[int]) -> bool:
    """The Szabo-Welzl condition, which no unique sink orientation meets:
    distinct cube vertices v and u whose out-maps ov and ou are defined
    (None is a dash) and agree wherever v and u differ.  USV2 and PV3 are
    its witnesses."""
    return v != u and ov is not None and ou is not None and (v ^ u) & (ov ^ ou) == 0


def verify_uso(inst: UsoInstance, c: Certificate) -> bool:
    """Check c on the cube; a vertex outside [0, 2^n) is rejected."""
    if c.kind not in ("US1", "USV1", "USV2"):
        raise VariantMismatch(c.kind)
    ids = (c.v, c.u) if c.kind == "USV2" else (c.v,)
    if not all(0 <= v < 1 << inst.n for v in ids):
        return False
    if c.kind == "US1":
        return inst.O(c.v) == 0
    if c.kind == "USV1":
        return inst.O(c.v) is None
    return szabo_welzl(c.v, c.u, inst.O(c.v), inst.O(c.u))


def verify_lcp(inst: LcpInstance, c: Certificate) -> bool:
    """Q1, PV1 and PV2 hold when none of their clauses fails (`_FAILURES`).
    Q1 and PV2 convert the certificate's vector to integers once and read
    the signs of M y + q and M x from `inst.form.sums`: beyond the
    certificate's own entries no Fraction is built, and no Lemke tableau
    is read.  PV1 takes a determinant; PV3 compares out-maps."""
    d = inst.d
    if c.kind in ("Q1", "PV1", "PV2"):
        return _FAILURES[c.kind](inst, c) is None
    if c.kind == "PV3":
        alpha, beta = frozenset(c.alpha), frozenset(c.beta)
        if any(not 0 <= i < d for i in alpha | beta):
            return False
        chi_a, chi_b = (sum(1 << i for i in s) for s in (alpha, beta))
        return szabo_welzl(chi_a, chi_b, out_map(inst, alpha), out_map(inst, beta))
    raise VariantMismatch(c.kind)


def verify_contraction(inst: ContractionInstance, c: Certificate) -> bool:
    d = inst.d
    if c.kind == "CM1":
        return _cm1_failure(inst, c) is None
    if c.kind == "CMV1":
        x, y = _box_point(inst, c.x), _box_point(inst, c.y)
        if x is None or y is None:
            return False
        lhs = lp_pow([a - b for a, b in zip(inst.f(x), inst.f(y))], inst.p)
        rhs = (inst.c ** inst.p) * lp_pow([a - b for a, b in zip(x, y)], inst.p)
        return lhs > rhs
    if c.kind == "CMV2":
        x = _box_point(inst, c.x)
        return x is not None and not _in_box(inst.f(x))
    if c.kind == "CMV3":
        lvl, x, y = c.level, _box_point(inst, c.x), _box_point(inst, c.y)
        if not (1 <= lvl <= d) or x is None or y is None:
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
        v = _box_point(inst, c.v)
        if v is None:
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
    """Reason string for a certificate its verifier rejected: the failed
    clause for Q1, PV1, PV2, CM1, UV3 and UFV1 and an APPROX_FIX's
    tolerance claim, generic otherwise."""
    if c.kind == "APPROX_FIX" and not _approx_claim_ok(c):
        return "APPROX_FIX needs eps >= 0 and an integer p >= 1"
    failure = _FAILURES.get(c.kind)
    return (failure and failure(inst, c)) or "certificate conditions do not hold on this instance"


# ---------------------------------------------------------------------------
# JSON formats

def bits_str(x: int, n: int) -> str:
    return format(x, f"0{n}b")


def bits_int(bits, n: int) -> int:
    """The vertex id a bit string names: only the digits 0 and 1, at least
    one, and the value must fit in n bits."""
    if not isinstance(bits, str) or not bits or bits.strip("01") or len(bits.lstrip("0")) > n:
        raise ValueError(f"{bits!r} is not a bit string of {n} bits")
    return int(bits, 2)


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
    return frozenset(json_int(t) for t in _array(v))


def _bit_count(v) -> int:
    n = json_int(v)
    if not 0 <= n <= MAX_BITS:
        raise ValueError(f"expected a bit count in [0, {MAX_BITS}], got {n}")
    return n


def _point(v) -> tuple:
    return tuple(json_int(t) for t in _array(v))


def grid_key(key: str) -> tuple:
    """A grid point written as an OPDC table key or a `reduce --query D`
    point: ASCII decimal digits, split by commas."""
    try:
        return tuple(integer(t, signed=False) for t in key.split(","))
    except ValueError:
        raise ValueError(f"table key {key!r} is not a grid point") from None


def _vertex(v, n: Optional[int] = None) -> int:
    """A vertex id, as a bit string (`bits_int`, at most n bits wide when
    n is given) or an integer, which the verifier checks against the
    instance's n."""
    if isinstance(v, str) and set(v) <= {"0", "1"}:
        return bits_int(v, len(v) if n is None else min(len(v), n))
    if type(v) is not int:
        raise TypeError(f"expected a bit string or an integer, got {type(v).__name__}")
    return v


def _table(v, key, value) -> dict:
    """{key(k): value(x)} over the JSON object v; two keys that name one
    entry (such as bit strings '01' and '001') raise BadField naming both."""
    table = {}
    for k, x in _object(v).items():
        entry = key(k)
        if entry in table:
            first = next(j for j in v if key(j) == entry)
            raise BadField(f"table keys {first!r} and {k!r} name one entry")
        table[entry] = value(x)
    return table


def _bits_table(v, n: int) -> dict:
    bits = partial(bits_int, n=n)
    return _table(v, bits, bits)


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
    n = _decode(data, "n", _bit_count)
    return line_from_tables(
        n,
        _decode(data, "S", lambda t: _bits_table(t, n), {}),
        _decode(data, "P", lambda t: _bits_table(t, n), None),
        _decode(data, "V", lambda t: _table(t, partial(bits_int, n=n), json_int), {}),
        flavor=_decode(data, "flavor", _string, "eopl"),
        m_pot=_decode(data, "m", _bit_count, None),
    )


def lcp_to_json(inst: LcpInstance) -> dict:
    return {
        "M": [[frac_str(x) for x in row] for row in inst.M],
        "q": [frac_str(x) for x in inst.q],
    }


def lcp_from_json(data: dict) -> LcpInstance:
    return LcpInstance(M=_decode(data, "M", lambda rows: [_fracs(r) for r in _array(rows)]),
                       q=_decode(data, "q", _fracs))


def _widths(v) -> tuple:
    widths = _point(v)
    if any(k < 0 for k in widths):
        raise ValueError(f"grid width {min(widths)} is negative")
    return widths


def _directions(v) -> tuple:
    dirs = tuple(_array(v))
    for di in dirs:
        if di not in (UP, DOWN, ZERO):
            raise ValueError(f"direction {di!r} is not one of {UP!r}, {DOWN!r}, {ZERO!r}")
    return dirs


def opdc_to_json(inst: OpdcInstance) -> dict:
    table = {}
    for p in inst.points():
        table[",".join(map(str, p))] = [inst.D(i, p) for i in range(inst.d)]
    return {"k": list(inst.widths), "D": table}


def opdc_from_json(data: dict) -> OpdcInstance:
    widths = _decode(data, "k", _widths)
    table = _decode(data, "D", lambda t: _table(t, grid_key, _directions))
    inst = OpdcInstance(widths=widths, direction=lambda p: table[p])
    for p in inst.points():
        if len(table.get(p, ())) != len(widths):
            raise MissingField(f"opdc instance has no {len(widths)} directions at point {p}")
    return inst


def uso_to_json(inst: UsoInstance) -> dict:
    table = {}
    for v in range(1 << inst.n):
        o = inst.O(v)
        table[bits_str(v, inst.n)] = "dash" if o is None else bits_str(o, inst.n)
    return {"n": inst.n, "orient": table}


def uso_from_json(data: dict) -> UsoInstance:
    n = _decode(data, "n", _bit_count)
    table = _decode(data, "orient", lambda t: _table(
        t, partial(bits_int, n=n), lambda v: None if v == "dash" else bits_int(v, n)))
    return UsoInstance(n=n, orient=lambda v: table.get(v))


def contraction_to_json(inst: ContractionInstance) -> dict:
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
    circ = _decode(data, "circuit", lambda v: circuit_from_json(_object(v)))
    return ContractionInstance(
        d=circ.d,
        c=_decode(data, "c", frac),
        p=_decode(data, "p", json_int),
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
    "opdc": Kind(OpdcInstance, opdc_from_json, opdc_to_json, verify_opdc,
                 {"p": _point, "q": _point, "level": json_int}),
    "line": Kind(LineInstance, line_from_json, line_to_json, verify_line, _VERTEX_FIELDS),
    "contraction": Kind(ContractionInstance, contraction_from_json, contraction_to_json,
                        verify_contraction, {"x": _fracs, "y": _fracs, "v": _fracs, "eps": frac,
                                             "p": json_int, "level": json_int}),
}
_KIND_OF_CLASS = {k.cls: k for k in KINDS.values()}


def verify(inst, c: Certificate) -> bool:
    """Check c with the verifier of the instance's kind."""
    kind = _KIND_OF_CLASS.get(type(inst))
    if kind is None:
        raise TypeError(f"no verifier for {type(inst)}")
    return kind.verify(inst, c)


def cert_from_json(data: dict, problem: str, n: Optional[int] = None) -> Certificate:
    """The certificate `data` encodes for `problem`; n, the instance's bit
    count, bounds vertex bit strings (a wider one raises BadField)."""
    if "kind" not in data:
        raise MissingField("certificate has no field 'kind'")
    fields = {k: partial(_vertex, n=n) if f is _vertex else f for k, f in KINDS[problem].fields.items()}
    try:
        kind = _decode(data, "kind", _string)
        payload = {k: _decode(data, k, fields[k]) if k in fields else v
                   for k, v in data.items() if k != "kind"}
    except BadField as exc:
        raise BadField(f"certificate {exc}") from None
    return Certificate(kind, payload)
