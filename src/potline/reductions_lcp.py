"""P-LCP to USO (out-maps) and P-LCP to UniqueEOPL (Lemke-path encoding),
with map-back of every target certificate.

Vertex codes are 2d-bit strings: the low d bits select the tight side per
label (bit i set means w_i = 0), the next d bits one-hot encode the
duplicate label (all zero when z = 0).  Invalid codes self-loop.
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

from . import problems
from .pivoting import Vertex, principal_minor
from .problems import (
    Certificate,
    LcpInstance,
    LineInstance,
    UsoInstance,
    cert,
    out_map,
)
from .rational import ceil_log2
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
    combines the digits in radix 2 Delta^3 + 1; that keeps the potential an
    integer, keeps V(0^n) = 0, and separates any two vertices whose z
    values differ even only in the perturbation (without this, degenerate
    instances sever the line at edges of numeric length zero).  A zero
    coefficient gives the digit Delta^3, so V is a base, the potential of
    all-zero coefficients, plus one product per nonzero eps coefficient of
    z, over a table of radix powers shared by all views of one (d, i_max).

    The state of a code is its vertex (`vertex_of`).  A walk costs one
    tableau pivot per path edge, as `lemke` does: the start vertex is one
    pivot from the slack tableau and is seeded under its code.  The pivot
    that crosses an edge u -> w (`_step`) gives w's code from u's by the
    bits of its entering and leaving variables, seeds w's vertex, and
    records the edge back (`LineView._arrive`): P(w) = u after a forward
    step, S(w) = u after a backward one.  Under the lex perturbation a
    pivot is exactly reversible, and an edge's orientation is a property
    of the edge (the `pivoting` docstring), so the walk's P(S(x)) is that
    read, with no pivot and no orientation.  The same edge is w's other
    one: forward, w's forward variable (`Vertex.fwd`) is the complement
    of the leaving variable, backward the leaving variable itself.  Only
    codes reached through `_compute_state` (the start, sampled or queried
    codes) work their orientation out from a determinant sign."""

    flavor = "ueopl"

    def __init__(self, inst: LcpInstance):
        if all(qi >= 0 for qi in inst.q):
            raise ValueError("q >= 0 is solved by y = 0; the line view needs min q < 0")
        super().__init__(inst)
        self.d = inst.d
        self.sys = inst.system
        self.nbits = 2 * self.d
        self.scale, i_max = inst.form.scale, inst.form.i_max
        (self.delta, self._d2, self._d3, self.m_pot,
         self._powers, self._base) = _potential_constants(self.d, i_max)
        self._start = None

    # -- code <-> vertex -----------------------------------------------------
    def code_of(self, basis) -> int:
        d = self.d
        u = 0
        for i in range(d):
            if d + i not in basis:  # w_i nonbasic, i.e. w_i = 0
                u |= 1 << i
        dl = self.sys.duplicate_label(basis)
        if dl is not None:
            u |= 1 << (d + dl)
        return u

    def start_vertex(self) -> Vertex:
        if self._start is None:
            self._start, _ = self.sys.start_vertex()
        return self._start

    vertex_of = LineView.state

    def _compute_state(self, u: int):
        """The vertex of a valid code, else None.  Validity: at most one
        duplicate bit, canonical (the round trip code_of reproduces u),
        solvable and lex-feasible."""
        d = self.d
        if u == 0:
            return None  # the start code stands for the primary ray
        dup_bits = [i for i in range(d) if u >> (d + i) & 1]
        if len(dup_bits) > 1:
            return None
        # The nontight side of each label is basic; z replaces the duplicate label.
        basis = {i if u >> i & 1 else d + i for i in range(d) if i not in dup_bits}
        if dup_bits:
            basis.add(self.sys.zvar)
        basis = frozenset(basis)
        if self.code_of(basis) != u:
            return None
        v = self.sys.vertex_at(basis)
        if v is None or not self.sys.feasible(v):
            return None
        return v

    def _step(self, u: int, v: Vertex, entering: int, dz: int) -> int | None:
        """Code of the neighbour w of u (vertex v) across the edge on which
        `entering` grows, if z moves in the direction `dz` along it: -1
        steps forward, +1 backward.  The pivot gives w's code and its
        forward variable from u's, and the edge back, which it records
        (class docstring); w is lex-feasible, so its vertex is seeded."""
        sys, d = self.sys, self.d
        if sys.dz_sign(v, entering) != dz:
            return None
        step = sys.ratio_step(v, entering)
        if step is None:
            return None  # the edge is a ray
        w, leaving = step
        # A w entering clears its tight bit and a w leaving sets it; the
        # duplicate label becomes the leaving variable's, none if z left.
        code = u & ((1 << d) - 1)
        if d <= entering < 2 * d:
            code &= ~(1 << (entering - d))
        if leaving != sys.zvar:
            if leaving >= d:
                code |= 1 << (leaving - d)
            code |= 1 << (d + leaving % d)
            # Entering `leaving` at w crosses this edge back, which is w's
            # forward edge after a backward step; after a forward step w's
            # forward edge is the other one, its complement's.
            w.fwd = leaving if dz > 0 else (leaving + d) % (2 * d)
        self.seed(code, w)
        return self._arrive(u, code, dz < 0)

    # -- oracles ---------------------------------------------------------------
    def successor(self, u: int) -> int:
        nxt = self._arrived_from(u, False)
        if nxt is not None:
            return nxt
        if u == 0:
            v = self.start_vertex()
            code = self.code_of(v.basis)
            self.seed(code, v)
            return code
        v = self.vertex_of(u)
        if v is None or self.sys.zvar not in v.basis:
            return u  # z = 0: ends of the line have no successor
        nxt = self._step(u, v, self.sys.forward_entering(v), -1)
        return u if nxt is None else nxt

    def predecessor(self, u: int) -> int:
        prev = self._arrived_from(u, True)
        if prev is not None:
            return prev
        v = self.vertex_of(u)
        if v is None:
            return u
        if v.basis == self.start_vertex().basis:
            return 0
        if self.sys.zvar not in v.basis:
            # relax z = 0; the edge points into u iff the cone minor is
            # positive (its z-decreasing side is forward).
            if self.sys.cone_sign(v) < 0:
                return u
            entering = self.sys.zvar
        else:
            entering = self.sys.backward_entering(v)
        nxt = self._step(u, v, entering, 1)
        return u if nxt is None else nxt

    def potential(self, u: int) -> int:
        v = self.vertex_of(u)
        if v is None:
            return 0
        # z's eps coefficients are zs[k] / det, so digit k is
        # floor(delta^2 * (delta - zs[k] / det)) = delta^3 + (-delta^2 * zs[k]) // det,
        # clamped to [0, radix - 1] = [0, 2 delta^3].  Negative digits clamp
        # to 0, so flooring gives the same digits as truncating.  V is the
        # base plus (digit_k - delta^3) * radix^(d - k) for each nonzero
        # zs[k]; a zero one leaves digit k at delta^3.
        zs, det = self.sys.z_row(v)
        zs[0] *= self.scale
        d2, d3 = self._d2, self._d3
        val = self._base
        for x, power in zip(zs, self._powers):
            if x:
                val += min(max((-d2 * x) // det, -d3), d3) * power
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
            if sys.zvar not in v.basis:
                yield cert("Q1", y=sys.numeric_point(v)[0])
                return
            pair = _stall_pair(self, v)
            if pair:
                yield from _pv2(*pair)
            yield from self._pv1_candidates(v.basis)
        elif c.kind == "UV3":
            if c.x == 0 or c.y == 0:
                other = self.vertex_of(c.y if c.x == 0 else c.x)
                if other is not None:
                    yield from self._ray_pv2(other)
                return
            va, vb = self.vertex_of(c.x), self.vertex_of(c.y)
            if va is None or vb is None:
                return
            ya, _, za = sys.numeric_point(va)
            yb, _, zb = sys.numeric_point(vb)
            if za == zb:
                yield from _pv2(ya, yb)
            elif sys.zvar in va.basis:
                # V(x) < V(y) < V(S(x)): a point on the edge out of x shares
                # y's z value.
                eta = sys.direction(va, sys.forward_entering(va))
                dz = eta.get(sys.zvar, Fraction(0))
                t = (zb - za) / dz if dz != 0 else Fraction(0)
                if t > 0:
                    y_mid, _, z_mid = sys.edge_point(va, eta, t)
                    if z_mid == zb:
                        yield from _pv2(y_mid, yb)
            for v in (va, vb):
                yield from self._pv1_candidates(v.basis)

    def _pv1_candidates(self, basis):
        alpha = self.sys.support(basis)
        l = self.sys.duplicate_label(basis)
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
        y_other, _, z_other = self.sys.numeric_point(other)
        if all(qi + z_other >= 0 for qi in self.src.q):
            yield from _pv2(y_other, [Fraction(0)] * self.d)


@problems.memoize
def _potential_constants(d: int, i_max: int) -> tuple[int, int, int, int, tuple[int, ...], int]:
    """(Delta, Delta^2, Delta^3, m_pot, powers, base) with
    Delta = (2d)! * i_max^(2d + 1) + 1 and radix = 2 Delta^3 + 1: powers is
    radix^d, ..., radix^0, the place values of z's eps coefficients, and
    base = Delta^3 * (radix^d + ... + 1), the potential whose every digit
    is Delta^3.  As radix - 1 = 2 Delta^3, base = (radix^(d + 1) - 1) / 2,
    and m_pot bounds radix^(d + 1) too."""
    delta = factorial(2 * d) * i_max ** (2 * d + 1) + 1
    d3 = delta**3
    radix = 2 * d3 + 1
    powers = [1]
    for _ in range(d):
        powers.append(powers[-1] * radix)
    top = radix * powers[-1]
    return delta, delta**2, d3, ceil_log2(top) + 1, tuple(reversed(powers)), top >> 1


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
    l = sys.duplicate_label(v.basis)
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
