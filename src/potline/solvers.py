"""Solvers: Lemke pivoting, line following and Aldous sampling through one
walk over the flavor table `problems.LINE_KINDS`, fixpoints by one nested
binary search, with a stop rule for exact and one for approximate, and
brute force for testing: each kind names candidates, its verifier keeps them.

Every solver returns a Certificate (violations are answers, not errors)
together with machine-readable counters on the run record.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import lcm, prod

from .pivoting import LemkeSystem, Vertex, principal_minor
from .problems import (
    LINE_KINDS,
    Certificate,
    ContractionInstance,
    Exhausted,
    LcpInstance,
    LineInstance,
    OpdcInstance,
    UsoInstance,
    cert,
    out_map,
    szabo_welzl,
    verify,
)
from .rational import frac, integer
from .reductions_opdc import ContractionToOpdc


# Enumeration sizes: brute force's default, and the cone scans that
# `potline generate` refuses above it.  POTLINE_BUDGET is read once, here.
# Importing never raises: a malformed value leaves BUDGET 0.
_BUDGET_TEXT = os.environ.get("POTLINE_BUDGET", str(1 << 16))
try:
    BUDGET = integer(_BUDGET_TEXT)
except ValueError:  # not an integer, or more digits than `int` converts
    BUDGET = 0


def default_budget() -> int:
    """BUDGET, if POTLINE_BUDGET is a positive integer in ASCII digits;
    else a ValueError that names the variable."""
    if BUDGET < 1:
        raise ValueError(f"POTLINE_BUDGET={_BUDGET_TEXT!r} is not a positive integer in decimal digits")
    return BUDGET


@dataclass
class RunStats:
    steps: int = 0
    pivots: int = 0
    oracle_calls: int = 0


# ---------------------------------------------------------------------------
# Lemke's complementary pivot algorithm

def _edge_cone(sys: LemkeSystem, v: Vertex, x: int) -> frozenset:
    """The cone of a path edge, whose minor sign gives the z direction
    along it (Todd orientation): the y's among the edge's d + 1 variables,
    the basis of its end v and x, the variable that enters there (or
    leaves at the other end)."""
    alpha = sys.support(v)
    return alpha | {x} if x < sys.d else alpha


def lemke(inst: LcpInstance, stats: RunStats | None = None) -> Certificate:
    """Run Lemke's algorithm with the all-ones covering vector.

    Returns Q1 on success; PV1 when the path would increase z (the active
    cone then has a non-positive principal minor) or hits a ray with a
    non-positive principal minor; PV2 with the ray's y-direction on any
    other ray.  Degeneracy is resolved by symbolic lexicographic
    perturbation.  The path walks `pivoting.Vertex` to `Vertex` through
    `LemkeSystem.ratio_step`.  z at a vertex is its right-hand-side entry
    x over D, and never negative, so z rises across a pivot from (x, D) to
    (x', D') iff |x'| * |D| > |x| * |D'|: the test is in integers.
    """
    stats = stats if stats is not None else RunStats()
    d = inst.d
    if inst.form.q_nonnegative():
        return cert("Q1", y=[Fraction(0)] * d)
    sys = inst.system
    zvar, rhs = sys.zvar, sys.rhs
    v, entering = sys.start_vertex()  # relax y_{i*}=0: the complement of the leaving w_{i*}
    zx, zd = abs(v.cols[rhs][~v.pos[zvar]]), abs(v.det)  # z = zx / zd
    while True:
        step = sys.ratio_step(v, entering)
        stats.pivots += 1
        if step is None:
            alpha = _edge_cone(sys, v, entering)
            if principal_minor(inst.M, alpha) <= 0:
                return cert("PV1", alpha=alpha)
            # Along the ray dz >= 0 and dy_i * dw_i = 0 with dw = M dy + dz * 1,
            # so x = dy gives x_i (Mx)_i = -dz * x_i <= 0: a PV2 witness.
            ray = sys.direction(v, entering)
            c = cert("PV2", x=[ray.get(i, Fraction(0)) for i in range(d)])
            if not verify(inst, c):
                raise RuntimeError("secondary ray gave no PV2 certificate")
            return c
        v, leaving = step
        if leaving == zvar:  # z falls to 0 from a lex-feasible, so nonnegative, value
            return cert("Q1", y=sys.numeric_point(v)[0])
        x, det = abs(v.cols[rhs][~v.pos[zvar]]), abs(v.det)
        if x * zd > zx * det:
            # z increased while traversing cone alpha, which by Todd's
            # orientation means det(M_aa) < 0.
            alpha = _edge_cone(sys, v, leaving)
            if principal_minor(inst.M, alpha) <= 0:
                return cert("PV1", alpha=alpha)
            raise RuntimeError("z increased across a cone with a positive minor")
        zx, zd = x, det
        # Complementary pivot rule: enter the complement of the leaver.
        entering = leaving + d if leaving < d else leaving - d


# ---------------------------------------------------------------------------
# Line following and Aldous' algorithm

def _walk(inst: LineInstance, x: int, watched: dict, max_steps: int | None,
          stats: RunStats) -> Certificate:
    """Walk x <- S(x) until a certificate fires: a verified UV3 of x with a
    watched vertex whose potential equals V(x) or lies strictly between
    V(x) and V(S(x)), else the certificate of x's flavor that fires before
    stepping from x (`problems.LINE_KINDS`): two-way flavors end where
    P(S(x)) != x and violate where the step x -> S(x) is bad; forward-only
    ones stop where S(x) self-loops or the step is bad.  Each step asks for
    S(x) once.  Raises Exhausted after
    max_steps (default 2^m_pot, the potential range, which bounds any
    line's length).

    On a two-way line with a `jump` oracle and no watch list, the r >= 1
    steps x -> ... -> y that jump(x, cap) names are taken in one call: no
    certificate can fire on them (`LineInstance`), so the walk adds r to
    `steps` and moves to y without asking S, P or V.  cap is the steps
    left under the budget, so `steps` and Exhausted are those of the
    step-by-step walk."""
    if max_steps is None:
        max_steps = 1 << max(inst.m_pot, 1)
    flavor = LINE_KINDS[inst.flavor]
    end, violation, bad = flavor.end, flavor.violation, flavor.bad
    S, P, V = inst.S, inst.P, inst.V
    jump = None if watched or end is None else inst.jump
    # Steps are counted up from 0, not down from the budget: the budget
    # 2^m_pot is a long int on the Lemke line, and arithmetic on it every
    # step costs more than the step's own bookkeeping.
    limit, taken = max_steps + 1, 0
    while taken < limit:
        if jump is not None:
            r, y = jump(x, limit - taken)
            if r:
                stats.steps += r
                taken += r
                x = y
                continue
        taken += 1
        stats.steps += 1
        y = S(x)
        if watched and y != x:
            vx, vy = V(x), V(y)
            for w, vw in watched.items():
                if w != x and (vw == vx or vx < vw < vy):
                    uv3 = cert("UV3", x=x, y=w)
                    if verify(inst, uv3):
                        return uv3
        if end is not None and P(y) != x:
            return cert(end, x=x)
        if y == x:
            # Self-loop without a certificate: walk cannot continue.
            raise Exhausted(f"walk stalled at non-vertex {x}")
        if violation is not None and ((end is None and S(y) == y) or bad(V(x), V(y))):
            return cert(violation, x=x)
        x = y
    raise Exhausted(f"no certificate within {max_steps} steps")


def follow_line(inst: LineInstance, start: int = 0, max_steps: int | None = None,
                stats: RunStats | None = None) -> Certificate:
    """Walk x <- S(x) from `start` until a certificate fires (`_walk`)."""
    return _walk(inst, start, {}, max_steps, stats if stats is not None else RunStats())


def aldous(inst: LineInstance, samples: int, rng: random.Random,
           max_steps: int | None = None, stats: RunStats | None = None) -> Certificate:
    """Sample candidate vertices, keep the best by potential, then follow
    the line from it.  Ties break toward the numerically smallest id so
    runs are reproducible.

    On UniqueEOPL, sampled vertices double as a watch list: if the walk
    ever straddles or matches a sampled vertex's potential, that pair
    witnesses a second line (UV3) and is returned immediately.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    stats = stats if stats is not None else RunStats()
    best = 0
    best_v = inst.V(0)
    watched: dict[int, int] = {}
    for _ in range(samples):
        x = rng.randrange(inst.size)
        stats.oracle_calls += 1
        if inst.S(x) == x:
            continue
        v = inst.V(x)
        watched[x] = v
        if v > best_v or (v == best_v and x < best):
            best, best_v = x, v
    return _walk(inst, best, watched if inst.flavor == "ueopl" else {}, max_steps, stats)


# ---------------------------------------------------------------------------
# Fixpoint search: one nested binary search over slices of the box, with a
# stop rule for exact and one for approximate

def _box(v) -> list[Fraction]:
    """The point of a search result (xs, D, nums, den) as Fractions, for a
    certificate."""
    xs, D, _, _ = v
    return [Fraction(x, D) for x in xs]


def _nested_search(inst: ContractionInstance, rules, found, stats: RunStats | None) -> Certificate:
    """The certificate of the nested bisection of the box: found(x) for
    the fixpoint x it stops at, as Fractions, or the violation a level
    meets.  Level i (d - 1 at the top, 0 innermost) searches the slice
    whose coordinates i+1..d-1 are fixed (`outer`) for its fixpoint, by
    bisection of coordinate i on the sign of f(v)_i - t, where v is the
    fixpoint of the slice one level down at x_i = t (at level 0, v is the
    point (t,) + outer itself).

    One loop runs every level.  The current level's state lives in locals:
    i, outer, D, the bracket [lo, hi] with its points v_lo and v_hi, the
    saved pair, the probe count k and the pending probe t over Dt.  A probe
    at level i > 0 pushes that state on `stack` and starts level i - 1 at
    the probe's point; at level 0 it calls `inst.f_int`, counts the oracle
    call and returns a CMV2 when the value leaves the unit box.  A level
    that ends pops the level above, whose pending probe it answers.  So f
    is evaluated once per point, and the probe order is that of the
    recursive search.

    Points are integer numerators over one denominator: `outer` and t are
    over D > 0, and a slice fixpoint v is (xs, D', nums, den) with D
    dividing D' and f(v)_j = nums[j] / den.  Every test is an integer
    compare: a probe at t answers with v and f(v)_i - t = r / s, s > 0.
    The bracket starts at [0, D], each bisection takes (lo + hi) >> 1,
    which is exact while 2^(halvings + 1) divides D: the top level starts
    at D = 2^H, H = 1 + the most halvings of any level.

    rules[i] = ((e, q), halvings, grid, last, violation) is the solver's
    stop rule at level i + 1.  The level probes t = 0, then t = D, then
    bisects at most `halvings` times, and returns v as soon as
    |f(v)_i - t| <= e / q.  After bisection number `grid` (None: none) it
    saves the bracket's pair (v_hi, v_lo).  When the bisections are spent,
    last(lo, hi, D) names one final probe (t, Dt), Dt a multiple of D, or
    None; a final probe that does not stop the level, or None, returns
    violation(v, r, v_lo, v_hi, saved), with v and r None when there was
    no final probe."""
    stats = stats if stats is not None else RunStats()
    f_int, stack = inst.f_int, []
    i, outer = inst.d - 1, ()
    D = 1 << (1 + max(halvings for _, halvings, _, _, _ in rules))
    (e, q), halvings, grid, last, violation = rules[i]
    lo, hi, v_lo, v_hi, saved, k, t, Dt = 0, D, None, None, None, -1, 0, D
    while True:
        point = (t,) + (outer if Dt == D else tuple(o * (Dt // D) for o in outer))
        while i:
            stack.append((i, outer, D, lo, hi, v_lo, v_hi, saved, k, t, Dt))
            i -= 1
            (e, q), halvings, grid, last, violation = rules[i]
            outer, D = point, Dt
            lo, hi, v_lo, v_hi, saved, k, t = 0, D, None, None, None, -1, 0
            point = (0,) + outer
        stats.oracle_calls += 1
        nums, den = f_int(point, Dt)
        v = (point, Dt, nums, den)
        if min(nums) < 0 or max(nums) > den:
            return cert("CMV2", x=_box(v))
        while True:
            r = nums[i] * Dt - t * den
            if r and (not e or abs(r) * q > e * den * Dt):  # e = 0: stop on r = 0 alone
                break
            if not stack:
                return found(_box(v))
            i, outer, D, lo, hi, v_lo, v_hi, saved, k, t, Dt = stack.pop()
            (e, q), halvings, grid, last, violation = rules[i]
        # The probe did not stop level i.  k is its bisection number: the
        # ends t = 0 and t = D are -1 and 0, the final probe halvings + 1.
        if k > halvings:
            return violation(v, r, v_lo, v_hi, saved)
        if r > 0:
            lo, v_lo = t, v
        else:
            hi, v_hi = t, v
        if k == grid:
            saved = (v_hi, v_lo)
        k += 1
        if k <= halvings:
            t = (lo + hi) >> 1 if k else D
        else:
            step = last(lo, hi, D)
            if step is None:
                return violation(None, None, v_lo, v_hi, saved)
            t, Dt = step


def _min_den_rational(a: int, b: int, D: int) -> tuple[int, int]:
    """The minimal-denominator rational p / q in the open interval
    (a / D, b / D), 0 <= a < b and D > 0, as (p, q) in lowest terms.

    A Stern-Brocot search as a loop over the bracket (ln / ld, hn / hd):
    while the bracket holds no integer, it shares the integer part k with
    its lower end, the answer is k + 1 / y for the simplest y in
    (hd / (hn - k hd), ld / (ln - k ld)), and the map y -> k + 1 / y is
    folded into the matrix [[P, Q], [R, S]] (determinant +-1, so the
    result is in lowest terms)."""
    # Iterative on purpose: the bracket keeps its two ends as separate
    # fractions and swaps them, so no operand outgrows the input.  Recursing
    # on the interval (D / (b - k D), D / (a - k D)) over one common
    # denominator multiplies the operands at every level instead.
    ln, ld, hn, hd = a, D, b, D
    P, Q, R, S = 1, 0, 0, 1
    while True:
        k = ln // ld
        if (k + 1) * hd < hn:
            y = k + 1
            break
        ln, hn = ln - k * ld, hn - k * hd
        P, Q, R, S = P * k + Q, P, R * k + S, R
        if ln == 0:
            # (0, hn / hd): the simplest is 1 / y with y = floor(hd / hn) + 1.
            y = hd // hn + 1
            break
        ln, ld, hn, hd = hd, hn, ld, ln
    return P * y + Q, R * y + S


def _exact_rule(level: int, kap: int):
    """Stop on f(v)_i == t; bisect to 2^-(2 kap + 1), past the 2^-kap grid.

    The final probe is the only candidate left: the minimal-denominator
    rational strictly inside (lo, hi); the true fixpoint coordinate has
    denominator at most 2^kap and two such rationals cannot both fit in the
    interval.  It is the one probe whose t need not be a multiple of 1/D:
    the point moves to the denominator lcm(D, q).  Without it, the
    violation is the CMV3 of the pair saved on the 2^-kap grid, which is
    adjacent and opposing."""

    def last(lo, hi, D):
        p, q = _min_den_rational(lo, hi, D)
        Dq = lcm(D, q)
        return (p * (Dq // q), Dq) if q <= 1 << kap else None

    def violation(v, r, v_lo, v_hi, saved):
        return cert("CMV3", level=level, x=_box(saved[0]), y=_box(saved[1]))

    return (0, 1), 2 * kap + 1, kap, last, violation


def find_fp(inst: ContractionInstance, stats: RunStats | None = None) -> Certificate:
    """Exact fixpoint of a piecewise-linear map by nested binary search
    over slices of the 2^kappa grid (`inst.effective_kappa()`); returns
    CM1, or CMV3 with the adjacent opposing pair when a slice has no grid
    fixpoint (CMV2 if an evaluation leaves the unit box)."""
    rules = [_exact_rule(i + 1, k) for i, k in enumerate(inst.effective_kappa())]
    return _nested_search(inst, rules, lambda x: cert("CM1", x=x), stats)


def eps_schedule(p: int, d: int, eps: Fraction) -> list[Fraction]:
    """Per-dimension tolerances eps_1..eps_d (the returned list is
    0-indexed).  For p = 1: eps/2^(2(d+1-i)); for p >= 2:
    eps^(p^(d+1-i)) * (dp)^(-2*sum_{j=0}^{d+1-i} p^j)."""
    eps = frac(eps)
    out = []
    for i in range(1, d + 1):
        if p == 1:
            out.append(eps / (1 << (2 * (d + 1 - i))))
        else:
            e = d + 1 - i
            power = sum(p**j for j in range(e + 1))
            out.append(eps ** (p**e) / Fraction(d * p) ** (2 * power))
    return out


def _approx_rule(eps_i: Fraction):
    """Stop on |f(v)_i - t| <= eps_i = e / q, which with f(v)_i - t = r / s
    reads |r| q <= e s; bisect to eps_i / 2.  One halving beyond eps_i
    keeps the final midpoint strictly within eps_i/2 of both pivots, which
    the violation-pair guarantee needs.  The final probe is that midpoint;
    where it does not stop, the sign of r picks the CMV1 pair: the midpoint
    with the upper end when f(v)_i lies above it, else the lower end with
    the midpoint."""
    e, q = eps_i.as_integer_ratio()

    def last(lo, hi, D):
        return (lo + hi) >> 1, D

    def violation(v, r, v_lo, v_hi, saved):
        return cert("CMV1", x=_box(v), y=_box(v_hi)) if r > 0 else cert("CMV1", x=_box(v_lo), y=_box(v))

    # The fewest halvings k with 2^-k <= eps_i / 2 = e / 2q: 2^k >= ceil(2q / e).
    return (e, q), (-(-2 * q // e) - 1).bit_length(), None, last, violation


def approx_find_fp(inst: ContractionInstance, eps=None, stats: RunStats | None = None,
                   p: int | None = None) -> Certificate:
    """Black-box approximate fixpoint: returns APPROX_FIX(v, eps, p) with
    ||f(v)-v||_p <= eps, a CMV1 pair with ||f(x)-f(y)||_p >= ||x-y||_p
    (a contraction violation for every c < 1), or a CMV2 point whose image
    leaves the unit box.  eps and p default to the instance's.  When the
    instance sets its own eps, an APPROX_FIX must meet it too (in the
    instance's p), so each level takes the smaller of the two schedules'
    tolerances."""
    eps = eps if eps is not None else inst.eps
    p = p if p is not None else inst.p
    if eps is None or frac(eps) <= 0:
        raise ValueError("approximate mode needs eps > 0")
    if p < 1:
        raise ValueError("norm index must be a positive integer")
    eps = frac(eps)
    schedule = eps_schedule(p, inst.d, eps)
    if inst.eps is not None:
        schedule = map(min, schedule, eps_schedule(inst.p, inst.d, inst.eps))
    rules = [_approx_rule(e) for e in schedule]
    return _nested_search(inst, rules, lambda v: cert("APPROX_FIX", v=v, eps=eps, p=p), stats)


# ---------------------------------------------------------------------------
# Brute force: each kind's candidates in a fixed order, kept by its verifier

def _lcp_certs(inst: LcpInstance, budget: int):
    """PV1 per nonempty support, Q1 per cone of out-map 0, PV3 per pair."""
    if 1 << inst.d > budget:
        raise Exhausted("too many supports")
    subsets = [frozenset(s) for r in range(inst.d + 1) for s in combinations(range(inst.d), r)]
    for alpha in subsets[1:]:
        yield cert("PV1", alpha=alpha)
    # (alpha, its labels as a bit mask, its out-map) per cone.
    cones = [(alpha, sum(1 << i for i in alpha), out_map(inst, alpha)) for alpha in subsets]
    sys = inst.system
    for alpha, _, out in cones:
        if out == 0:
            # out_map is not None, so A_alpha is nonsingular.
            yield cert("Q1", y=sys.numeric_point(sys.cone_vertex(alpha))[0])
    for (a1, chi1, o1), (a2, chi2, o2) in combinations(cones, 2):
        if szabo_welzl(chi1, chi2, o1, o2):
            yield cert("PV3", alpha=a1, beta=a2)


def _uso_certs(inst: UsoInstance, budget: int):
    if inst.n >= budget.bit_length():  # 2^n > budget
        raise Exhausted("cube too large")
    vs = range(1 << inst.n)
    for v in vs:
        o = inst.O(v)
        if o is None:
            yield cert("USV1", v=v)
        elif o == 0:
            yield cert("US1", v=v)
    for v, u in combinations(vs, 2):
        yield cert("USV2", v=v, u=u)


def _opdc_certs(inst: OpdcInstance, budget: int):
    """The points and levels `verify_opdc` may accept."""
    if prod(k + 1 for k in inst.widths) > budget:
        raise Exhausted("grid too large")
    pts = list(inst.points())
    for p in pts:
        yield cert("O1", p=p)
        for i in range(min(inst.surface(p), inst.d - 1) + 1):
            yield cert("OV3", level=i + 1, p=p)
            if p[i] > 0:
                yield cert("OV2", level=i + 1, p=p, q=p[:i] + (p[i] - 1,) + p[i + 1:])
    surface: dict[tuple, list] = {}
    for p in pts:
        # p is on the j-surface for every j <= surface(p)
        for j in range(1, inst.surface(p) + 1):
            surface.setdefault((j, p[j:]), []).append(p)
    for (lvl, _), group in sorted(surface.items()):
        for p, q in combinations(group, 2):
            yield cert("OV1", level=lvl, p=p, q=q)


def _line_certs(inst: LineInstance, budget: int):
    ids = inst.ids(budget)
    pair = LINE_KINDS[inst.flavor].pair
    singles = [k for k in LINE_KINDS[inst.flavor].kinds if k != pair]
    for x in ids:
        for kind in singles:
            yield cert(kind, x=x)
    if pair is None:
        return
    verts = [x for x in ids if inst.S(x) != x]
    by_v: dict[int, list] = {}
    for x in verts:
        by_v.setdefault(inst.V(x), []).append(x)
    # Equal potentials, then y strictly between V(x) and V(S(x)).
    for group in by_v.values():
        for x, y in combinations(group, 2):
            yield cert(pair, x=x, y=y)
    vs_sorted = sorted(by_v)
    for x in verts:
        vx, vs_x = inst.V(x), inst.V(inst.S(x))
        for v in vs_sorted:
            if vx < v < vs_x:
                for y in by_v[v]:  # V(y) > V(x), so y != x
                    yield cert(pair, x=x, y=y)


def _contraction_certs(inst: ContractionInstance, budget: int):
    """The grid's certificates mapped back, each once."""
    view = ContractionToOpdc(inst)
    seen = []
    for c in certificates(view.image(), budget):
        mapped = view.map_back(c)
        if mapped not in seen:
            seen.append(mapped)
            yield mapped


_CANDIDATES = {LcpInstance: _lcp_certs, UsoInstance: _uso_certs, OpdcInstance: _opdc_certs,
               LineInstance: _line_certs, ContractionInstance: _contraction_certs}


def certificates(inst, budget: int | None = None):
    """A generator of every certificate that passes its verifier, in the
    order of the kind's candidates.  Raises Exhausted, once iterated, when
    the domain has more than `budget` points (by default `default_budget()`)."""
    candidates = _CANDIDATES.get(type(inst))
    if candidates is None:
        raise TypeError(f"brute force cannot handle {type(inst)}")
    budget = default_budget() if budget is None else budget
    return (c for c in candidates(inst, budget) if verify(inst, c))


def brute_force(inst, budget: int | None = None, max_certs: int = 20000) -> list[Certificate]:
    """The list of `certificates`.  Raises Exhausted when the domain has
    more than `budget` points or more than `max_certs` certificates verify
    (on a contraction map, counted after mapping back)."""
    found = list(islice(certificates(inst, budget), max_certs + 1))
    if len(found) > max_certs:
        raise Exhausted("certificate cap hit")
    return found
