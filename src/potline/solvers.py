"""Solvers: Lemke pivoting, line following, Aldous sampling, fixpoints by
one nested binary search, with a stop rule for exact and one for
approximate, and brute-force enumeration oracles for testing.

Every solver returns a Certificate (violations are answers, not errors)
together with machine-readable counters on the run record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import eq, ge

from .pivoting import LemkeSystem, principal_minor
from .problems import (
    DOWN,
    LINE_KINDS,
    LINE_PAIRS,
    UP,
    ZERO,
    Certificate,
    ContractionInstance,
    LcpInstance,
    LineInstance,
    OpdcInstance,
    UsoInstance,
    cert,
    verify,
)
from .rational import frac


class Exhausted(RuntimeError):
    """Step budget exceeded; signals a budget problem, not absence of a
    solution."""


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class RunStats:
    steps: int = 0
    pivots: int = 0
    oracle_calls: int = 0
    z_trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Lemke's complementary pivot algorithm

def _edge_cone(sys: LemkeSystem, v, entering: int) -> frozenset:
    """The cone of the edge that `entering` opens at `v`, whose minor sign
    gives the z direction along it (Todd orientation): v's support with
    y_l added when y_l enters and l dropped when w_l enters."""
    alpha = sys.support(v.basis)
    if entering < sys.d:
        return alpha | {entering}
    if entering < sys.zvar:
        return alpha - {entering - sys.d}
    return alpha


def lemke(inst: LcpInstance, stats: RunStats | None = None) -> Certificate:
    """Run Lemke's algorithm with the all-ones covering vector.

    Returns Q1 on success; PV1 when the path would increase z (the active
    cone then has a non-positive principal minor) or hits a ray with a
    non-positive principal minor; PV2 with the ray's y-direction on any
    other ray.  Degeneracy is resolved by symbolic lexicographic
    perturbation.
    """
    stats = stats if stats is not None else RunStats()
    d = inst.d
    if all(qi >= 0 for qi in inst.q):
        return cert("Q1", y=[Fraction(0)] * d)
    sys = LemkeSystem(inst.M, inst.q)
    v, i_star = sys.start_vertex()
    stats.z_trace.append(sys.value(v, sys.zvar))
    entering = i_star  # relax y_{i*}=0: the complement of the leaving w_{i*}
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
        prev, (v, leaving) = v, step
        z_new = sys.value(v, sys.zvar)
        z_prev = stats.z_trace[-1]
        stats.z_trace.append(z_new)
        if z_new > z_prev:
            # z increased while traversing cone alpha, which by Todd's
            # orientation means det(M_aa) < 0.
            alpha = _edge_cone(sys, prev, entering)
            if principal_minor(inst.M, alpha) <= 0:
                return cert("PV1", alpha=alpha)
            raise RuntimeError("z increased across a cone with a positive minor")
        if sys.zvar not in v.basis:
            y, _, _ = sys.numeric_point(v)
            return cert("Q1", y=y)
        # Complementary pivot rule: enter the complement of the leaver.
        entering = leaving + d if leaving < d else leaving - d


def lcp_brute_force(inst: LcpInstance) -> list[Certificate]:
    """All Q1 (support enumeration), PV1 and PV3 certificates."""
    from .reductions_lcp import out_map

    d = inst.d
    found = []
    subsets = [frozenset(s) for r in range(d + 1) for s in combinations(range(d), r)]
    for alpha in subsets:
        if alpha and principal_minor(inst.M, alpha) <= 0:
            found.append(cert("PV1", alpha=alpha))
    outs = {alpha: out_map(inst, alpha) for alpha in subsets}
    sys = inst.system
    for alpha in subsets:
        if outs[alpha] == 0:
            # out_map is not None, so A_alpha is nonsingular.
            c = cert("Q1", y=sys.numeric_point(sys.cone_vertex(alpha))[0])
            if verify(inst, c):
                found.append(c)
    for a1, a2 in combinations(subsets, 2):
        o1, o2 = outs[a1], outs[a2]
        if o1 is None or o2 is None:
            continue
        chi1 = sum(1 << i for i in a1)
        chi2 = sum(1 << i for i in a2)
        if (chi1 ^ chi2) & (o1 ^ o2) == 0:
            found.append(cert("PV3", alpha=a1, beta=a2))
    return found


# ---------------------------------------------------------------------------
# Line following and Aldous' algorithm

# flavor -> (end kind, violation kind, bad(V(x), V(S(x)))).  Two-way flavors
# end where P(S(x)) != x and violate where the step x -> S(x) is bad;
# forward-only ones (no end kind) stop where S(x) self-loops or the step is bad.
_STEP_CERTS = {
    "eopl": ("R1", "R2", ge),
    "ueopl": ("U1", "UV1", ge),
    "eoml": ("T1", "T3", lambda vx, vy: vx > 0 and vy - vx != 1),
    "endofline": ("E1", None, None),
    "ufeopl": (None, "UF1", ge),
    "ufeoplplus1": (None, "UFP1", lambda vx, vy: vy != vx + 1),
    "sinkofdag": (None, "S1", ge),
}


def _walk(inst: LineInstance, x: int, watched: dict, max_steps: int | None,
          stats: RunStats) -> Certificate:
    """Walk x <- S(x) until a certificate fires: a verified UV3 of x with a
    watched vertex whose potential equals V(x) or lies strictly between
    V(x) and V(S(x)), else the certificate of x's flavor that fires before
    stepping from x.  Each step asks for S(x) once.  Raises Exhausted after
    max_steps (default 2^m_pot, the potential range, which bounds any
    line's length)."""
    if max_steps is None:
        max_steps = 1 << max(inst.m_pot, 1)
    end, violation, bad = _STEP_CERTS[inst.flavor]
    S, P, V = inst.S, inst.P, inst.V
    for _ in range(max_steps + 1):
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

class _Violation(Exception):
    def __init__(self, certificate):
        self.certificate = certificate


def _nested_search(inst: ContractionInstance, rules, outer: tuple, stats: RunStats) -> list:
    """The fixpoint of the slice whose coordinates i+1..d-1 are `outer`
    (i = d - 1 - len(outer)), by bisection of coordinate i on the sign of
    f(v)_i - t, where v solves the inner slice at x_i = t.  Raises
    _Violation with a CMV2 when an evaluation leaves the unit box.

    rules[i] = (close, halvings, grid, finish) is the solver's stop rule
    at level i + 1: the level returns v as soon as close(f(v)_i, t); it
    bisects [0, 1] at most `halvings` times; after bisection number
    `grid` (0: none) it saves the bracket's pair (v_hi, v_lo); then it
    returns finish(probe, lo, hi, v_lo, v_hi, saved)."""
    i = inst.d - 1 - len(outer)
    if i < 0:
        return list(outer)
    close, halvings, grid, finish = rules[i]

    def probe(t):
        v = _nested_search(inst, rules, (t,) + outer, stats)
        stats.oracle_calls += 1
        fv = inst.f(v)
        if not all(0 <= c <= 1 for c in fv):
            raise _Violation(cert("CMV2", x=v))
        return v, fv[i]

    lo, hi = Fraction(0), Fraction(1)
    v_lo, g = probe(lo)
    if close(g, lo):
        return v_lo
    v_hi, g = probe(hi)
    if close(g, hi):
        return v_hi
    saved = None
    for k in range(1, halvings + 1):
        mid = (lo + hi) / 2
        v, g = probe(mid)
        if close(g, mid):
            return v
        if g > mid:
            lo, v_lo = mid, v
        else:
            hi, v_hi = mid, v
        if k == grid:
            saved = (v_hi, v_lo)
    return finish(probe, lo, hi, v_lo, v_hi, saved)


def _min_den_rational(lo: Fraction, hi: Fraction) -> Fraction:
    """Minimal-denominator rational in the open interval (lo, hi), lo < hi,
    via the Stern-Brocot search."""

    def rec(lo, hi):
        # Find the simplest fraction in (lo, hi), both endpoints >= 0.
        fl = lo.numerator // lo.denominator
        if fl + 1 < hi:
            return Fraction(fl + 1)
        # lo and hi share the integer part fl.
        a, b = lo - fl, hi - fl
        if a == 0:
            # (0, b): simplest is 1/ceil(1/b + eps)
            k = b.denominator // b.numerator + 1
            if Fraction(1, k) >= b:
                k += 1
            return fl + Fraction(1, k)
        inner = rec(Fraction(1) / b, Fraction(1) / a)
        return fl + Fraction(1) / inner

    return rec(lo, hi)


def _exact_rule(level: int, kap: int):
    """Stop on f(v)_i == t; bisect to 2^-(2 kap + 1), past the 2^-kap grid."""

    def finish(probe, lo, hi, v_lo, v_hi, saved):
        # The only candidate left: the minimal-denominator rational strictly
        # inside (lo, hi); the true fixpoint coordinate has denominator at
        # most 2^kap and two such rationals cannot both fit in the interval.
        cand = _min_den_rational(lo, hi)
        if cand.denominator <= (1 << kap):
            v, g = probe(cand)
            if g == cand:
                return v
        # saved is the adjacent opposing pair on the 2^-kap grid.
        raise _Violation(cert("CMV3", level=level, x=saved[0], y=saved[1]))

    return eq, 2 * kap + 1, kap, finish


def find_fp(inst: ContractionInstance, stats: RunStats | None = None) -> Certificate:
    """Exact fixpoint of a piecewise-linear map by nested binary search
    over slices of the 2^kappa grid (`inst.effective_kappa()`); returns
    CM1, or CMV3 with the adjacent opposing pair when a slice has no grid
    fixpoint (CMV2 if an evaluation leaves the unit box)."""
    stats = stats if stats is not None else RunStats()
    rules = [_exact_rule(i + 1, k) for i, k in enumerate(inst.effective_kappa())]
    try:
        x = _nested_search(inst, rules, (), stats)
    except _Violation as v:
        return v.certificate
    return cert("CM1", x=x)


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
    """Stop on |f(v)_i - t| <= eps_i; bisect to eps_i / 2.  One halving
    beyond eps_i keeps the final midpoint strictly within eps_i/2 of both
    pivots, which the violation-pair guarantee needs."""

    def finish(probe, lo, hi, v_lo, v_hi, saved):
        mid = (lo + hi) / 2
        v, g = probe(mid)
        if g - mid > eps_i:
            raise _Violation(cert("CMV1", x=v, y=v_hi))
        if mid - g > eps_i:
            raise _Violation(cert("CMV1", x=v_lo, y=v))
        return v

    # The fewest halvings k with 2^-k <= eps_i / 2 = a / b: 2^k >= ceil(b / a).
    a, b = (eps_i / 2).as_integer_ratio()
    return (lambda g, t: abs(g - t) <= eps_i), (-(-b // a) - 1).bit_length(), 0, finish


def approx_find_fp(inst: ContractionInstance, eps=None, stats: RunStats | None = None,
                   p: int | None = None) -> Certificate:
    """Black-box approximate fixpoint: returns APPROX_FIX(v, eps, p) with
    ||f(v)-v||_p <= eps, a CMV1 pair with ||f(x)-f(y)||_p >= ||x-y||_p
    (a contraction violation for every c < 1), or a CMV2 point whose image
    leaves the unit box.  eps and p default to the instance's."""
    stats = stats if stats is not None else RunStats()
    eps = eps if eps is not None else inst.eps
    p = p if p is not None else inst.p
    if eps is None or frac(eps) <= 0:
        raise ValueError("approximate mode needs eps > 0")
    if p < 1:
        raise ValueError("norm index must be a positive integer")
    eps = frac(eps)
    rules = [_approx_rule(e) for e in eps_schedule(p, inst.d, eps)]
    try:
        v = _nested_search(inst, rules, (), stats)
    except _Violation as viol:
        return viol.certificate
    return cert("APPROX_FIX", v=v, eps=eps, p=p)


# ---------------------------------------------------------------------------
# Brute force enumeration

def _verified(inst, candidates, max_certs: int) -> list[Certificate]:
    found = []
    for c in candidates:
        if verify(inst, c):
            found.append(c)
            if len(found) > max_certs:
                raise BudgetExceeded("certificate cap hit")
    return found


def _lcp_certs(inst: LcpInstance, budget: int, max_certs: int) -> list[Certificate]:
    if 1 << inst.d > budget:
        raise BudgetExceeded("too many supports")
    return [c for c in lcp_brute_force(inst) if verify(inst, c)]


def _uso_certs(inst: UsoInstance, budget: int, max_certs: int) -> list[Certificate]:
    if 1 << inst.n > budget:
        raise BudgetExceeded("cube too large")

    def candidates():
        vs = range(1 << inst.n)
        for v in vs:
            o = inst.orient(v)
            if o is None:
                yield cert("USV1", v=v)
            elif o == 0:
                yield cert("US1", v=v)
        for v, u in combinations(vs, 2):
            yield cert("USV2", v=v, u=u)

    return _verified(inst, candidates(), max_certs)


def _opdc_certs(inst: OpdcInstance, budget: int, max_certs: int) -> list[Certificate]:
    total = 1
    for k in inst.widths:
        total *= k + 1
    if total > budget:
        raise BudgetExceeded("grid too large")
    pts = list(inst.points())
    d, D = inst.d, inst.D

    def candidates():
        for p in pts:
            if all(D(i, p) == ZERO for i in range(d)):
                yield cert("O1", p=p)
            for lvl in range(1, d + 1):
                i = lvl - 1
                if all(D(j, p) == ZERO for j in range(i)):
                    if (p[i] == 0 and D(i, p) == DOWN) or (p[i] == inst.widths[i] and D(i, p) == UP):
                        yield cert("OV3", level=lvl, p=p)
                    if p[i] > 0:
                        q = p[:i] + (p[i] - 1,) + p[i + 1:]
                        if D(i, p) == DOWN and D(i, q) == UP and all(D(j, q) == ZERO for j in range(i)):
                            yield cert("OV2", level=lvl, p=p, q=q)
        surface: dict[tuple, list] = {}
        for p in pts:
            lvl = 0
            while lvl < d and D(lvl, p) == ZERO:
                lvl += 1
            # p is on the j-surface for every j <= lvl
            for j in range(1, lvl + 1):
                surface.setdefault((j, p[j:]), []).append(p)
        for (lvl, _), group in sorted(surface.items()):
            for p, q in combinations(group, 2):
                yield cert("OV1", level=lvl, p=p, q=q)

    return _verified(inst, candidates(), max_certs)


def _line_certs(inst: LineInstance, budget: int, max_certs: int) -> list[Certificate]:
    if inst.vertex_iter is not None:
        ids = list(inst.vertex_iter())
    elif inst.size > budget:
        raise BudgetExceeded(f"2^{inst.n} ids exceed budget {budget}")
    else:
        ids = range(inst.size)
    singles = [k for k in LINE_KINDS[inst.flavor] if k not in LINE_PAIRS]
    pairs = [k for k in LINE_KINDS[inst.flavor] if k in LINE_PAIRS]

    def candidates():
        for x in ids:
            for kind in singles:
                yield cert(kind, x=x)
        for pair in pairs:
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
                        for y in by_v[v]:
                            if y != x:
                                yield cert(pair, x=x, y=y)

    return _verified(inst, candidates(), max_certs)


def _contraction_certs(inst: ContractionInstance, budget: int, max_certs: int) -> list[Certificate]:
    from .reductions_opdc import ContractionToOpdc

    view = ContractionToOpdc(inst)
    out = []
    for c in brute_force(view.image(), budget=budget, max_certs=max_certs):
        mapped = view.map_back(c)
        if mapped not in out:
            out.append(mapped)
    return out


_ENUMERATORS = {
    LcpInstance: _lcp_certs,
    UsoInstance: _uso_certs,
    OpdcInstance: _opdc_certs,
    LineInstance: _line_certs,
    ContractionInstance: _contraction_certs,
}


def brute_force(inst, budget: int = 1 << 16, max_certs: int = 20000) -> list[Certificate]:
    """Exhaustively enumerate the instance domain and return every
    certificate of every kind that passes its verifier (capped)."""
    enumerate_certs = _ENUMERATORS.get(type(inst))
    if enumerate_certs is None:
        raise TypeError(f"brute_force cannot handle {type(inst)}")
    return enumerate_certs(inst, budget, max_certs)
