"""Reductions into and out of OPDC: USO -> OPDC, PL-Contraction -> OPDC
(on the grid of `ContractionInstance.effective_kappa`), OPDC ->
UniqueForwardEOPL, plus map-backs.

The OPDC -> UFEOPL vertices are surface tuples (p_0, ..., p_d): position
i holds the most recent point visited on the i-surface (all directions
zero in dimensions 0..i-1), or a dash.  Two validity rules are tightened
relative to the obvious reading of the construction, both needed to keep
the image line unique on violation-free sources:

  * a witness at a non-minimal position must point strictly up in its
    next dimension (a zero there would let stale witnesses coexist with
    the point they should have committed past);
  * a tuple with position d occupied is the terminal form and must be
    dash everywhere else.

Every reduction here is a `reductions_line.View`: an `image()` and the
source certificates the case analysis names, in order, of which `map_back`
returns the first that verifies.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from operator import gt

from .problems import (
    DOWN,
    UP,
    ZERO,
    Certificate,
    ContractionInstance,
    Exhausted,
    LineInstance,
    OpdcInstance,
    UsoInstance,
    cert,
)
from .rational import ceil_log2
from .reductions_line import LineView, Slots, View


# ---------------------------------------------------------------------------
# USO -> OPDC

class UsoToOpdc(View):
    """Grid {0,1}^n; directions follow the orientation: zero where the
    edge points in, otherwise toward the neighbour; dash vertices are
    all-zero."""

    def image(self) -> OpdcInstance:
        def direction(p):
            o = self.src.orient(_vid(p)) or 0
            return tuple([ZERO if o >> i & 1 == 0 else UP if x == 0 else DOWN for i, x in enumerate(p)])

        return OpdcInstance(widths=(1,) * self.src.n, direction=direction)

    def candidates(self, c):
        """O1 -> US1/USV1; OV1, OV2 -> USV1/USV2; OV3 never occurs."""
        if c.kind == "O1":
            v = _vid(c.p)
            yield from (cert("US1", v=v), cert("USV1", v=v))
        elif c.kind in ("OV1", "OV2"):
            v, u = _vid(c.p), _vid(c.q)
            yield from (cert("USV1", v=v), cert("USV1", v=u), cert("USV2", v=v, u=u))


def _vid(p) -> int:
    return sum(bit << j for j, bit in enumerate(p))


def uso_to_opdc(inst: UsoInstance) -> OpdcInstance:
    return UsoToOpdc(inst).image()


def map_back_uso(inst: UsoInstance, c: Certificate) -> Certificate:
    return UsoToOpdc(inst).map_back(c)


# ---------------------------------------------------------------------------
# PL-Contraction -> OPDC

class ContractionToOpdc(View):
    """Grid widths k_i = 2^kappa_i with kappa = `src.effective_kappa()`;
    directions follow the sign of f(p')_i - p'_i at the mapped point
    p' = (p_i / k_i), read from the integer image (nums, den) of p' as the
    sign of nums[i] * k_i - p_i * den.  Every width is a power of two, so
    p' is put over the largest width W as p_i * (W / k_i) / W; only
    certificates build `Fraction`s."""

    def __init__(self, src: ContractionInstance):
        self.src = src
        self.widths = tuple((1 << k) for k in src.effective_kappa())

    def _to_box(self, p):
        return [Fraction(p[j], self.widths[j]) for j in range(len(self.widths))]

    def image(self) -> OpdcInstance:
        top = max(self.widths)
        scales = [top // k for k in self.widths]

        def direction(p):  # the sign of f(p')_i - p'_i, for all d directions
            nums, den = self.src.f_int([q * m for q, m in zip(p, scales)], top)
            signs = (n * k - q * den for n, k, q in zip(nums, self.widths, p))
            return tuple(UP if s > 0 else DOWN if s < 0 else ZERO for s in signs)

        return OpdcInstance(widths=self.widths, direction=direction)

    def candidates(self, c):
        """O1 -> CM1, OV1 -> CMV1, OV2 -> CMV3, OV3 -> CMV2."""
        if c.kind == "O1":
            yield cert("CM1", x=self._to_box(c.p))
        elif c.kind == "OV1":
            yield cert("CMV1", x=self._to_box(c.p), y=self._to_box(c.q))
        elif c.kind == "OV2":
            yield cert("CMV3", level=c.level, x=self._to_box(c.p), y=self._to_box(c.q))
        elif c.kind == "OV3":
            yield cert("CMV2", x=self._to_box(c.p))


# ---------------------------------------------------------------------------
# OPDC -> UniqueForwardEOPL (surface tuples)

DASH = None


class OpdcLineView(LineView):
    """Lazy UFEOPL instance whose vertices encode surface tuples: one slot
    of `slots` per position, a point or a dash (an empty slot), XORed with
    the start tuple's code so that the start is 0^n.  The state of a code
    is its tuple when that is a vertex tuple, else None; S, V and the UF1
    map-back read it."""

    flavor = "ufeopl"

    def __init__(self, inst: OpdcInstance):
        super().__init__(inst)
        self.d = inst.d
        self.widths = inst.widths
        self.slots = Slots(self.d + 1, [max(1, ceil_log2(k + 1)) for k in inst.widths])
        self.nbits = self.slots.nbits
        # Weight base for the lexicographic potential: digits are
        # coordinates + 1, so strictly below max(k) + 2.
        self.base = max(inst.widths) + 2
        self.m_pot = ceil_log2(self.base ** self.d) + 1
        self._start_code = self.slots.pack(((0,) * self.d,) + (DASH,) * self.d)

    # -- encoding ------------------------------------------------------------
    def encode(self, tup) -> int:
        return self.slots.pack(tup) ^ self._start_code

    def decode(self, code: int):
        """Tuple for a code, or None when a dash carries a coordinate or
        any coordinate is off-grid."""
        tup = self.slots.unpack(code ^ self._start_code)
        if tup is None or any(p is not DASH and any(map(gt, p, self.widths)) for p in tup):
            return None
        return tuple(tup)

    def _compute_state(self, code: int):
        tup = self.decode(code)
        return tup if tup is not None and self.is_vertex_tuple(tup) else None

    # -- validity ------------------------------------------------------------
    def is_vertex_tuple(self, tup) -> bool:
        d, src = self.d, self.src
        present = [i for i in range(d + 1) if tup[i] is not DASH]
        if not present:
            return False
        if tup[d] is not DASH and len(present) > 1:
            return False
        lowest = present[0]
        for i in present:
            p = tup[i]
            if src.surface(p) < i:
                return False
            if i < d:
                di = src.D(i, p)
                if i == lowest:
                    if di == DOWN:
                        return False
                elif di != UP:
                    return False
            for j in range(i + 1, d):
                if tup[j] is DASH:
                    if p[j] != 0:
                        return False
                elif p[j] != tup[j][j] + 1:
                    return False
        return True

    # -- successor rules -------------------------------------------------------
    def successor_tuple(self, tup):
        """S on vertex tuples; returns the input for self-loops."""
        d, D = self.d, self.src.D
        i = next(k for k in range(d + 1) if tup[k] is not DASH)
        if i == d:
            return tup  # terminal: the solution sits at its predecessor
        p = tup[i]
        if D(i, p) == ZERO:
            new = list(tup)
            new[i] = DASH
            new[i + 1] = p
            return tuple(new)
        if p[i] + 1 > self.widths[i]:
            return tup  # stuck at the boundary: OV3
        # One up in dimension i, zeros below it, at position 0 (below i
        # every position is a dash).
        return ((0,) * i + (p[i] + 1,) + p[i + 1:],) + tup[1:]

    def successor(self, code: int) -> int:
        tup = self.state(code)
        if tup is None:
            return code
        nxt = self.successor_tuple(tup)
        return code if nxt == tup else self.encode(nxt)

    def potential(self, code: int) -> int:
        tup = self.state(code)
        if tup is None:
            return 0
        raw = 0
        for j in range(self.d):
            digit = 0 if tup[j] is DASH else tup[j][j] + 1
            raw += digit * self.base**j
        return max(0, raw - 1)  # the start tuple's raw potential is 1

    def enumerate_codes(self, budget: int):
        """All codes of valid vertex tuples; raises Exhausted when the
        tuples to scan exceed budget."""
        choices = prod(k + 1 for k in self.src.widths) + 1  # a point or a dash
        if choices ** (self.d + 1) > budget:
            raise Exhausted(f"{choices}^{self.d + 1} tuples exceed budget {budget}")
        pts = list(self.src.points())
        options = [pts + [DASH]] * (self.d + 1)
        out = []
        for tup in product(*options):
            if self.is_vertex_tuple(tup):
                out.append(self.encode(tup))
        return out

    # -- map-back ----------------------------------------------------------------
    def candidates(self, c):
        """UF1 -> O1/OV2/OV3 by which successor rule stalled; UFV1 -> OV1 via
        the largest differing tuple position (or a boundary OV3, or a
        column binary search)."""
        d, D = self.d, self.src.D
        if c.kind == "UF1":
            x = self.state(c.x)
            if x is None:
                return
            y = self.successor_tuple(x)
            i = next(k for k in range(d + 1) if x[k] is not DASH)
            p = x[i]
            # A UF1 has S(x) != x, so y != x.
            if self.state(self.encode(y)) is not None:
                iy = next(k for k in range(d + 1) if y[k] is not DASH)
                if iy == d:
                    yield cert("O1", p=y[d])
                if self.successor_tuple(y) == y and iy < d:
                    # valid self-loop: stuck at the boundary going up
                    yield cert("OV3", level=iy + 1, p=y[iy])
            elif D(i, p) == ZERO:
                # rule 2 fired and the moved witness is rejected:
                # D_{i+1}(p) = down against the old witness or 0-edge
                if i + 1 < d and D(i + 1, p) == DOWN:
                    if x[i + 1] is not DASH:
                        yield cert("OV2", level=i + 2, p=p, q=x[i + 1])
                    yield cert("OV3", level=i + 2, p=p)
            elif i > 0:
                # rules 3/4 fired and the advanced point q looks down
                yield cert("OV3", level=1, p=y[0])
            else:
                yield cert("OV2", level=1, p=y[0], q=p)

        elif c.kind == "UFV1":
            x = self.decode(c.x)
            y = self.decode(c.y)
            if x is None or y is None:
                return
            diff = [k for k in range(d + 1) if x[k] != y[k]]
            if not diff:
                return
            j = max(diff)
            px, py = x[j], y[j]
            if px is DASH or py is DASH:
                return
            if j == d or px[j] == py[j]:
                yield cert("OV1", level=j, p=px, q=py)
                return
            lo_pt, hi_pt = (px, py) if px[j] < py[j] else (py, px)
            if D(j, lo_pt) == ZERO and D(j, hi_pt) == ZERO:
                yield cert("OV1", level=j + 1, p=lo_pt, q=hi_pt)
            if hi_pt[j] == self.widths[j] and D(j, hi_pt) == UP:
                yield cert("OV3", level=j + 1, p=hi_pt)
            if j == 0 and D(0, lo_pt) == ZERO and D(0, hi_pt) == UP:
                found = _column_search(self.src, lo_pt, hi_pt)
                if found is not None:
                    yield found


def _column_search(inst: OpdcInstance, zero_pt, up_pt) -> Certificate | None:
    """Both points lie in one column of the grid along dimension 0, where
    every point is on the 0-surface; zero_pt has direction zero, up_pt sits
    above it pointing up.  Binary search for a second zero (OV1), an
    adjacent down-over-up pair (OV2), or up at the top boundary (OV3)."""

    def at(t):
        return (t,) + tuple(up_pt[1:])

    k = inst.widths[0]
    top = at(k)
    if inst.D(0, top) == UP:
        return cert("OV3", level=1, p=top)
    if inst.D(0, top) == ZERO and top != zero_pt:
        return cert("OV1", level=1, p=zero_pt, q=top)
    lo, hi = up_pt[0], k
    # invariant: D(lo) = up, D(hi) in {down, zero-with-OV1-return}
    while hi - lo > 1:
        mid = (lo + hi) // 2
        dmid = inst.D(0, at(mid))
        if dmid == ZERO:
            return cert("OV1", level=1, p=zero_pt, q=at(mid))
        if dmid == UP:
            lo = mid
        else:
            hi = mid
    if inst.D(0, at(hi)) == DOWN:
        return cert("OV2", level=1, p=at(hi), q=at(lo))
    return None


def opdc_to_ufeopl(inst: OpdcInstance) -> tuple[LineInstance, OpdcLineView]:
    view = OpdcLineView(inst)
    return view.image(), view


def map_back_opdc(inst: OpdcInstance, view: OpdcLineView, c: Certificate) -> Certificate:
    return view.map_back(c)
