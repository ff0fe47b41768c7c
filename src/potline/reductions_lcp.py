"""P-LCP to USO (out-maps) and P-LCP to UniqueEOPL (Lemke-path encoding),
with map-back of every target certificate.

Vertex codes are 2d-bit strings: the low d bits select the tight side per
label (bit i set means w_i = 0), the next d bits one-hot encode the
duplicate label (all zero when z = 0), whose two variables are both
nonbasic, so its tight bit is set.  The line view decodes a code in one
place (`PlcpLineView._compute_state`), which rejects every code that no
basis has, and encodes one in two: the pivot that reaches a vertex
(`_code_after`) and the Lemke start (`start`).  Invalid codes self-loop.
The potential of a vertex packs d + 1 digits, one per eps coefficient of
z and each in [0, 2^b) for b the bit length of 2 Delta^3, in radix 2^b,
so it fits in m_pot = b (d + 1) bits (`PlcpLineView`).
Both reductions read the one exact engine, `pivoting.LemkeSystem`: the
out-map of a cone is the sign pattern of its complementary vertex, whose
right-hand side carries the perturbation of the Lemke path, so the
out-map and the line view resolve degenerate ties by one rule.

Both reductions are `reductions_line.View`s: an `image()` and the source
certificates the case analysis names, in order, of which `map_back`
returns the first that verifies.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .pivoting import Vertex, principal_minor
from .problems import (
    Certificate,
    LcpInstance,
    LineInstance,
    UsoInstance,
    cert,
    out_map,
)
from .reductions_line import LineView, View
from math import factorial


class PlcpToUso(View):
    """Orient vertex v by out(alpha(v)) with alpha(v) = set bits of v."""

    def _alpha(self, v: int) -> frozenset:
        return frozenset(i for i in range(self.src.d) if v >> i & 1)

    def image(self) -> UsoInstance:
        return UsoInstance(n=self.src.d, orient=lambda v: out_map(self.src, self._alpha(v)))

    def candidates(self, c):
        """US1 -> Q1, USV1 -> PV1 (singular cone), USV2 -> PV3."""
        if c.kind == "US1":
            sys = self.src.system
            yield cert("Q1", y=sys.numeric_point(sys.cone_vertex(self._alpha(c.v)))[0])
        elif c.kind == "USV1":
            yield cert("PV1", alpha=self._alpha(c.v))
        elif c.kind == "USV2":
            yield cert("PV3", alpha=self._alpha(c.v), beta=self._alpha(c.u))


def plcp_to_uso(inst: LcpInstance) -> UsoInstance:
    return PlcpToUso(inst).image()


def map_back_uso(inst: LcpInstance, uso: UsoInstance, c: Certificate) -> Certificate:
    return PlcpToUso(inst).map_back(c)


# ---------------------------------------------------------------------------
# P-LCP -> UniqueEOPL via the Lemke path

class PlcpLineView(LineView):
    """Lazy UniqueEOPL instance over 2d-bit codes of Lemke-path vertices.
    It pivots on the source's own `LcpInstance.system`, the engine that
    `PlcpToUso`'s out-map reads too.

    The potential needs integer data, so it is that of (M, q) scaled by
    `scale`, the lcm of their denominators.  The uniform row scale
    multiplies by `scale` the constant term of z and i_max, the largest
    |entry| of M and q, of which Delta is built; it leaves z's eps
    coefficients as they are: the perturbation is added after the scale.
    Both come from the instance's `IntForm` (i_max >= 1: some q_i < 0).

    The right-hand side is perturbed symbolically, so z values are
    polynomials in eps.  The potential applies the floor(Delta^2 *
    (Delta - z)) digit construction to every eps coefficient of z and
    packs the d + 1 digits, the constant term's most significant, in radix
    2^b, where b is the bit length of 2 Delta^3: V is d + 1 floor divisions
    and shifts, with no product of big numbers, and `m_pot` = b (d + 1)
    bits hold it.  That keeps the potential an integer, keeps V(0^n) = 0,
    and separates any two vertices whose z values differ even only in the
    perturbation (without this, degenerate instances sever the line at
    edges of numeric length zero).  No digit reaches 2^b (below), so V
    orders vertices as the lex order of their digit tuples does.

    Every digit lies in [Delta^2, 2 Delta^3 - Delta^2], inside [0, 2^b), so
    none is clamped.  Substitute
    w~ = scale * w and z~ = scale * z: the Lemke system becomes
    [scale M | -I | 1] (y, w~, z~) = -scale q - scale eps, whose integer
    entries are at most i_max >= 1 in absolute value.  By Cramer's rule,
    the constant term of z times `scale` (as `potential` reads it) is
    det(B with z's column replaced by -scale q) / det(B), and the eps^k
    coefficient of z is det(B with z's column replaced by -e_k) / det(B),
    for the basis matrix B.  Each such c is a ratio of two integer minors
    of order d, the denominator a nonzero integer, so by Hadamard's bound
    on the numerator |c| <= d^(d/2) i_max^d <= d! i_max^d, an integer below
    Delta = (2d)! i_max^(2d + 1) + 1.  So |c| <= Delta - 1, and the digit
    Delta^3 + floor(-Delta^2 c) lies in [Delta^2, 2 Delta^3 - Delta^2].

    The state of a code is its vertex (`vertex_of`).  A walk costs one
    tableau pivot per path edge, as `lemke` does: the start vertex is one
    pivot from the slack tableau and is seeded under its code.  The pivot
    that crosses an edge u -> w, forward (`jump`, which S takes one step
    of) or backward (`_step_back`), gives w's code from u's by the bits of
    its entering and leaving variables (`_code_after`), seeds w's vertex,
    and records the edge back (`LineView._arrive`): P(w) = u after a
    forward step, S(w) = u after a backward one.  Under the lex perturbation a
    pivot is exactly reversible, and an edge's orientation is a property
    of the edge (the `pivoting` docstring), so the walk's P(S(x)) is that
    read, with no pivot and no orientation.  The same edge is w's other
    one: forward, w's forward variable (`Vertex.fwd`) is the complement
    of the leaving variable, backward the leaving variable itself.  Only
    codes reached through `_compute_state` (the start, sampled or queried
    codes) work their orientation out from a determinant sign.

    A walk crosses the path in jumps (`jump`): it pivots edge to edge as
    `successor` does, from one vertex object to the next, and seeds only
    the vertex it lands on, so it holds a few states, not one per step.
    It asks no potential, yet V rises on every step it takes, as the walk's
    UV1 check wants: it only takes edges on which `dz_sign` is -1, and
    from a lex-feasible vertex the step is lex-positive, so z falls
    lexicographically.  At the first eps coefficient where the two z
    values differ, the new one, n'/D', is below the old, n/D, both in
    lowest terms with |D|, |D'| < Delta (the bound above, on the minor
    that is the denominator), so they differ by at least 1/|D D'| >
    1/Delta^2.  Times Delta^2 that is more than 1, so that digit rises,
    the digits before it are equal, and V, which orders as the digit
    tuples do, rises."""

    flavor = "ueopl"

    def __init__(self, inst: LcpInstance):
        if inst.form.q_nonnegative():
            raise ValueError("q >= 0 is solved by y = 0; the line view needs min q < 0")
        super().__init__(inst)
        self.d = inst.d
        self.sys = inst.system
        self.nbits = 2 * self.d
        self.scale = inst.form.scale
        self.delta = factorial(2 * self.d) * inst.form.i_max ** (2 * self.d + 1) + 1
        self._d2 = self.delta**2
        self._d3 = self._d2 * self.delta
        self._b = (2 * self._d3).bit_length()
        self.m_pot = self._b * (self.d + 1)
        self._start = None

    # -- code <-> vertex -----------------------------------------------------
    def start(self) -> tuple[int, Vertex]:
        """(code, vertex) of the Lemke start, pivoted to once per view: z
        replaces the w of the start label l, which is then the duplicate
        label, and tight, so the code sets bits l and d + l."""
        if self._start is None:
            v, l = self.sys.start_vertex()
            self._start = 1 << l | 1 << (self.d + l), v
        return self._start

    vertex_of = LineView.state

    def _compute_state(self, u: int):
        """The vertex of a valid code, else None: the layout's one decoder
        (`_code_after` and `start` encode).  A valid code has no bit at or
        above 2d and at most one duplicate bit, whose label is tight
        (neither of its variables is basic), and names a solvable,
        lex-feasible basis."""
        d = self.d
        dup = u >> d
        l = dup.bit_length() - 1  # the duplicate label, -1 for none
        if u == 0 or dup & (dup - 1) or l >= d or (dup and not u >> l & 1):
            return None  # 0 stands for the primary ray, the rest for no basis
        # The nontight side of each label is basic; z replaces the duplicate label.
        basis = [i if u >> i & 1 else d + i for i in range(d) if i != l]
        if dup:
            basis.append(self.sys.zvar)
        v = self.sys.vertex_at(frozenset(basis))
        if v is None or not self.sys.feasible(v):
            return None
        return v

    def _code_after(self, u: int, w: Vertex, entering: int, leaving: int, forward: bool) -> int:
        """The code of w, reached from code u by the pivot on which
        `entering` entered and `leaving` left, forward (z falling) or
        backward; sets w's forward variable from the edge crossed (class
        docstring).  The one statement of the code's bit update."""
        d = self.d
        # A w entering clears its tight bit and a w leaving sets it; the
        # duplicate label becomes the leaving variable's, none if z left.
        code = u & ((1 << d) - 1)
        if d <= entering < 2 * d:
            code &= ~(1 << (entering - d))
        if leaving != self.sys.zvar:
            if leaving >= d:
                code |= 1 << (leaving - d)
            code |= 1 << (d + leaving % d)
            # Entering `leaving` at w crosses this edge back, which is w's
            # forward edge after a backward step; after a forward step w's
            # forward edge is the other one, its complement's.
            w.fwd = (leaving + d) % (2 * d) if forward else leaving
        return code

    def _step_back(self, u: int, v: Vertex, entering: int) -> int | None:
        """Code of the neighbour w of u (vertex v) across the edge on which
        `entering` grows, if z rises along it, so that it is the edge into
        u.  The pivot gives w's code and its forward variable from u's, and
        the edge back, which it records (class docstring); w is
        lex-feasible, so its vertex is seeded."""
        sys = self.sys
        if sys.dz_sign(v, entering) != 1:
            return None
        step = sys.ratio_step(v, entering)
        if step is None:
            return None  # the edge is a ray
        w, leaving = step
        code = self._code_after(u, w, entering, leaving, False)
        self.seed(code, w)
        return self._arrive(u, code, False)

    def jump(self, u: int, cap: int) -> tuple[int, int]:
        """(r, y): the r <= cap forward steps from code u to y, each a pivot
        on an edge along which z falls (`LineInstance.jump`); S is the
        landing of one.  It stops at z = 0, at a ray, at an edge along which
        z does not fall, at a code whose successor a backward step has
        recorded, and at cap: from there the walk steps through S.  It asks
        no S, P or V; it seeds y's vertex and records the edge into y, and
        keeps none of the vertices it passes."""
        v = self.vertex_of(u)
        if v is None:
            return 0, u
        sys, zvar = self.sys, self.sys.zvar
        r = 0
        while r < cap and v.pos[zvar] < 0 and self._arrived_from(u, False) is None:
            entering = sys.forward_entering(v)
            if sys.dz_sign(v, entering) != -1:
                break
            step = sys.ratio_step(v, entering)
            if step is None:
                break
            w, leaving = step
            prev, u, v = u, self._code_after(u, w, entering, leaving, True), w
            r += 1
        if r:
            self.seed(u, v)
            self._arrive(prev, u, True)
        return r, u

    # -- oracles ---------------------------------------------------------------
    def successor(self, u: int) -> int:
        nxt = self._arrived_from(u, False)
        if nxt is not None:
            return nxt
        if u == 0:
            code, v = self.start()
            self.seed(code, v)
            return code
        # u itself, a self-loop, where no forward step leaves: no vertex,
        # z = 0 (an end of the line) or a stall.
        return self.jump(u, 1)[1]

    def predecessor(self, u: int) -> int:
        prev = self._arrived_from(u, True)
        if prev is not None:
            return prev
        v = self.vertex_of(u)
        if v is None:
            return u
        if u == self.start()[0]:
            return 0
        if v.pos[self.sys.zvar] >= 0:
            # relax z = 0; the edge points into u iff the cone minor is
            # positive (its z-decreasing side is forward).
            if self.sys.cone_sign(v) < 0:
                return u
            entering = self.sys.zvar
        else:
            entering = self.sys.backward_entering(v)
        nxt = self._step_back(u, v, entering)
        return u if nxt is None else nxt

    def potential(self, u: int) -> int:
        v = self.vertex_of(u)
        if v is None:
            return 0
        # z's eps coefficients are zs[k] / det, so digit k is
        # floor(delta^2 * (delta - zs[k] / det)) = delta^3 + (-delta^2 * zs[k]) // det,
        # which lies in [0, 2^b) (class docstring): V holds it at bit b * (d - k).
        zs, det = self.sys.z_row(v)
        zs[0] *= self.scale
        d2, d3, b = self._d2, self._d3, self._b
        val = 0
        for x in zs:
            val = val << b | (d3 + (-d2 * x) // det if x else d3)
        return val

    # -- map-back ----------------------------------------------------------------
    def candidates(self, c):
        """Q1 at z = 0 ends.  A stalled vertex (z > 0) yields two LCP
        solutions for one shifted q and hence a sign-reversing vector (PV2),
        or a non-positive principal minor (PV1) when a degenerate cone is
        involved.  Equal or straddling potentials (UV3) yield PV2 the same
        way.  UV1 cannot occur: the potential never decreases along valid
        edges of the Lemke line."""
        sys = self.sys
        if c.kind in ("U1", "UV2"):
            v = self.vertex_of(c.x)
            if v is None:
                return
            if v.pos[sys.zvar] >= 0:
                yield cert("Q1", y=sys.numeric_point(v)[0])
                return
            pair = _stall_pair(self, v)
            if pair:
                yield from _pv2(*pair)
            yield from self._pv1_candidates(v)
        elif c.kind == "UV3":
            if c.x == 0 or c.y == 0:
                other = self.vertex_of(c.y if c.x == 0 else c.x)
                if other is not None:
                    yield from self._ray_pv2(other)
                return
            va, vb = self.vertex_of(c.x), self.vertex_of(c.y)
            if va is None or vb is None:
                return
            ya, za = sys.numeric_point(va)
            yb, zb = sys.numeric_point(vb)
            if za == zb:
                yield from _pv2(ya, yb)
            elif va.pos[sys.zvar] < 0:
                # V(x) < V(y) < V(S(x)): a point on the edge out of x shares
                # y's z value.
                eta = sys.direction(va, sys.forward_entering(va))
                dz = eta.get(sys.zvar, Fraction(0))
                t = (zb - za) / dz if dz != 0 else Fraction(0)
                if t > 0:
                    y_mid, z_mid = sys.edge_point(va, eta, t)
                    if z_mid == zb:
                        yield from _pv2(y_mid, yb)
            for v in (va, vb):
                yield from self._pv1_candidates(v)

    def _pv1_candidates(self, v: Vertex):
        alpha = self.sys.support(v)
        l = self.sys.duplicate_label(v)
        for a in [alpha, alpha | {l}] if l is not None else [alpha]:
            if a and principal_minor(self.src.M, a) <= 0:
                yield cert("PV1", alpha=frozenset(a))
        # A severed line is impossible for P-matrices, so some principal
        # minor is non-positive; scan them all (desk scale).
        for r in range(1, self.d + 1):
            for sub in combinations(range(self.d), r):
                if principal_minor(self.src.M, sub) <= 0:
                    yield cert("PV1", alpha=frozenset(sub))

    def _ray_pv2(self, other: Vertex):
        # The start code stands for the primary ray (y = 0, z >= z0); the
        # ray point at the other vertex's z value pairs with it for PV2.
        y_other, z_other = self.sys.numeric_point(other)
        if all(qi + z_other >= 0 for qi in self.src.q):
            yield from _pv2(y_other, [Fraction(0)] * self.d)


def plcp_to_eopl(inst: LcpInstance) -> tuple[LineInstance, PlcpLineView]:
    """The UniqueEOPL line of the Lemke path and its view."""
    view = PlcpLineView(inst)
    return view.image(), view


def _pv2(y1, y2):
    """PV2 from two LCP points with one z value, unless they coincide."""
    x = [a - b for a, b in zip(y1, y2)]
    if any(x):
        yield cert("PV2", x=x)


def _stall_pair(view: PlcpLineView, v: Vertex):
    """The y's of two points, one on each relaxation edge at the duplicate
    vertex v, that share one z value, or None.  Both edges moving z one way
    are stepped to z0 +/- eps with eps below both z spans; an edge along
    which z is constant pairs v with a point inside it."""
    sys = view.sys
    # z is basic at v, so its other d - 1 basic variables leave some label l
    # with neither y_l nor w_l basic.
    l = sys.duplicate_label(v)
    edges = []
    for entering in (l, sys.d + l):
        eta = sys.direction(v, entering)
        dz = eta.get(sys.zvar, Fraction(0))
        step = sys.ratio_step(v, entering)
        # A ray (no step) stays feasible for any positive step.
        t_max = None if step is None else sys.value(step[0], entering)
        edges.append((entering, eta, dz, t_max))
    signs = [dz for _, _, dz, _ in edges]
    if all(s > 0 for s in signs) or all(s < 0 for s in signs):
        spans = [abs(dz) * t_max for _, _, dz, t_max in edges if t_max is not None]
        if 0 in spans:
            return None
        # Two rays: a unit of the scaled z (class docstring), 1/scale of z.
        eps = min(spans) / 2 if spans else Fraction(1, view.scale)
        return tuple(sys.edge_point(v, eta, eps / abs(dz))[0] for _, eta, dz, _ in edges)
    for entering, eta, dz, t_max in edges:
        if dz == 0:
            # A ray steps a unit of the scaled (M, q): 1 of a y, 1/scale of a w.
            unit = Fraction(1) if entering < sys.d else Fraction(1, view.scale)
            t = unit if t_max is None else t_max / 2
            if t == 0:
                continue
            return sys.numeric_point(v)[0], sys.edge_point(v, eta, t)[0]
    return None


def map_back_lcp(inst: LcpInstance, view: PlcpLineView, c: Certificate) -> Certificate:
    return view.map_back(c)
