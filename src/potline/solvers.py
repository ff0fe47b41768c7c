"""Solvers: Lemke pivoting, line following, Aldous sampling, exact and
approximate nested-binary-search fixpoint algorithms, and brute-force
enumeration oracles for testing.

Every solver returns a Certificate (violations are answers, not errors)
together with machine-readable counters on the run record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

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
        # The cone about to be traversed; its minor sign determines the z
        # direction along the edge (Todd orientation).
        alpha = sys.support(v.basis) | ({entering} if entering < d else set())
        if entering >= d and entering < 2 * d:
            alpha = alpha - {entering - d}
        step = sys.ratio_step(v, entering)
        stats.pivots += 1
        if step is None:
            if principal_minor(inst.M, alpha) <= 0:
                return cert("PV1", alpha=frozenset(alpha))
            # Along the ray dz >= 0 and dy_i * dw_i = 0 with dw = M dy + dz * 1,
            # so x = dy gives x_i (Mx)_i = -dz * x_i <= 0: a PV2 witness.
            ray = sys.direction(v, entering)
            c = cert("PV2", x=[ray.get(i, Fraction(0)) for i in range(d)])
            if not verify(inst, c):
                raise RuntimeError("secondary ray gave no PV2 certificate")
            return c
        v, leaving = step
        z_new = sys.value(v, sys.zvar)
        z_prev = stats.z_trace[-1]
        stats.z_trace.append(z_new)
        if z_new > z_prev:
            # z increased while traversing cone alpha, which by Todd's
            # orientation means det(M_aa) < 0.
            if principal_minor(inst.M, alpha) <= 0:
                return cert("PV1", alpha=frozenset(alpha))
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
    sys = LemkeSystem(inst.M, inst.q)
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

def _line_step_cert(inst: LineInstance, x: int) -> Certificate | None:
    """Certificate triggered at x before advancing, per flavor, or None."""
    fl = inst.flavor
    S = inst.S
    y = S(x)
    if fl == "eopl":
        if inst.P(y) != x:
            return cert("R1", x=x)
        if x != y and inst.V(y) <= inst.V(x):
            return cert("R2", x=x)
    elif fl == "ueopl":
        if inst.P(y) != x:
            return cert("U1", x=x)
        if x != y and inst.V(y) <= inst.V(x):
            return cert("UV1", x=x)
    elif fl == "eoml":
        if inst.P(y) != x:
            return cert("T1", x=x)
        if x != y and inst.V(x) > 0 and inst.V(y) - inst.V(x) != 1:
            return cert("T3", x=x)
    elif fl == "ufeopl":
        if y != x and (S(y) == y or inst.V(y) <= inst.V(x)):
            return cert("UF1", x=x)
    elif fl == "ufeoplplus1":
        if y != x and (S(y) == y or inst.V(y) != inst.V(x) + 1):
            return cert("UFP1", x=x)
    elif fl == "sinkofdag":
        if y != x and (S(y) == y or inst.V(y) <= inst.V(x)):
            return cert("S1", x=x)
    elif fl == "endofline":
        if inst.P(y) != x:
            return cert("E1", x=x)
    return None


def follow_line(inst: LineInstance, start: int = 0, max_steps: int | None = None,
                stats: RunStats | None = None) -> Certificate:
    """Walk x <- S(x) from `start` until a certificate fires.

    Raises Exhausted after max_steps (default 2^m_pot, the potential
    range, which bounds any line's length).
    """
    stats = stats if stats is not None else RunStats()
    if max_steps is None:
        max_steps = 1 << max(inst.m_pot, 1)
    x = start
    for _ in range(max_steps + 1):
        c = _line_step_cert(inst, x)
        stats.steps += 1
        if c is not None:
            return c
        nxt = inst.S(x)
        if nxt == x:
            # Self-loop without a certificate: walk cannot continue.
            raise Exhausted(f"walk stalled at non-vertex {x}")
        x = nxt
    raise Exhausted(f"no certificate within {max_steps} steps")


def aldous(inst: LineInstance, samples: int, rng: random.Random,
           max_steps: int | None = None, stats: RunStats | None = None) -> Certificate:
    """Sample candidate vertices, keep the best by potential, then follow
    the line from it.  Ties break toward the numerically smallest id so
    runs are reproducible.

    Sampled vertices double as a watch list: if the walk ever straddles or
    matches a sampled vertex's potential, that pair witnesses a second
    line (UV3) and is returned immediately.
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
    if max_steps is None:
        max_steps = 1 << max(inst.m_pot, 1)
    x = best
    for _ in range(max_steps + 1):
        stats.steps += 1
        if inst.flavor == "ueopl" and x != inst.S(x):
            vx, vsx = inst.V(x), inst.V(inst.S(x))
            for y, vy in watched.items():
                if y != x and (vy == vx or vx < vy < vsx):
                    uv3 = cert("UV3", x=x, y=y)
                    if verify(inst, uv3):
                        return uv3
        c = _line_step_cert(inst, x)
        if c is not None:
            return c
        nxt = inst.S(x)
        if nxt == x:
            raise Exhausted(f"walk stalled at non-vertex {x}")
        x = nxt
    raise Exhausted(f"no certificate within {max_steps} steps")


# ---------------------------------------------------------------------------
# Exact fixpoint search (nested binary search on the kappa grid)

class _Violation(Exception):
    def __init__(self, certificate):
        self.certificate = certificate


def _findfp_rec(inst: ContractionInstance, kappa, fixed: dict, dim: int, stats: RunStats):
    """Unique fixpoint of the slice fixing coordinates dim..d-1 to `fixed`,
    free coordinates 0..dim-1.  Raises _Violation with a CMV2/CMV3
    certificate when the search cannot complete."""
    d = inst.d
    if dim == 0:
        return [fixed[j] for j in range(d)]

    i = dim - 1  # coordinate searched at this level
    kap = kappa[i]
    grid = Fraction(1, 1 << kap)
    deep = Fraction(1, 1 << (2 * kap + 1))

    def sub(t):
        fixed2 = dict(fixed)
        fixed2[i] = t
        return _findfp_rec(inst, kappa, fixed2, dim - 1, stats)

    def fi(v):
        stats.oracle_calls += 1
        fv = inst.f(v)
        if not all(0 <= c <= 1 for c in fv):
            raise _Violation(cert("CMV2", x=list(v)))
        return fv[i]

    lo, hi = Fraction(0), Fraction(1)
    v_lo = sub(lo)
    if fi(v_lo) == lo:  # fi keeps f inside the box or raises CMV2
        return v_lo
    v_hi = sub(hi)
    if fi(v_hi) == hi:
        return v_hi
    saved = None
    while hi - lo > deep:
        mid = (lo + hi) / 2
        v = sub(mid)
        g = fi(v)
        if g == mid:
            return v
        if g > mid:
            lo, v_lo = mid, v
        else:
            hi, v_hi = mid, v
        if saved is None and hi - lo == grid:
            saved = (list(v_hi), list(v_lo))
    # The only candidate left: the minimal-denominator rational strictly
    # inside (lo, hi); the true fixpoint coordinate has denominator at
    # most 2^kap and two such rationals cannot both fit in the interval.
    cand = _min_den_rational(lo, hi)
    if cand is not None and cand.denominator <= (1 << kap):
        v = sub(cand)
        if fi(v) == cand:
            return v
    if saved is None:
        raise _Violation(cert("CMV2", x=list(v_lo)))
    x_hi, x_lo = saved
    raise _Violation(cert("CMV3", level=dim, x=x_hi, y=x_lo))


def _min_den_rational(lo: Fraction, hi: Fraction) -> Fraction | None:
    """Minimal-denominator rational in the open interval (lo, hi) via the
    Stern-Brocot search."""
    if not lo < hi:
        return None

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


def find_fp(inst: ContractionInstance, kappa=None, stats: RunStats | None = None) -> Certificate:
    """Exact fixpoint of a piecewise-linear map by nested binary search
    over slices of the 2^kappa grid; returns CM1, or CMV3 with the
    adjacent opposing pair when a slice has no grid fixpoint (CMV2 if an
    evaluation leaves the unit box)."""
    stats = stats if stats is not None else RunStats()
    kappa = tuple(kappa) if kappa is not None else inst.effective_kappa()
    if len(kappa) != inst.d or any(k < 1 for k in kappa):
        raise ValueError("kappa must give one exponent >= 1 per dimension")
    try:
        x = _findfp_rec(inst, kappa, {}, inst.d, stats)
    except _Violation as v:
        return v.certificate
    return cert("CM1", x=list(x))


# ---------------------------------------------------------------------------
# Approximate fixpoint search (black box, eps schedules)

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


def _approx_rec(inst: ContractionInstance, es, fixed: dict, dim: int, stats: RunStats):
    d = inst.d
    if dim == 0:
        return [fixed[j] for j in range(d)]

    i = dim - 1
    eps_i = es[i]

    def sub(t):
        fixed2 = dict(fixed)
        fixed2[i] = t
        return _approx_rec(inst, es, fixed2, dim - 1, stats)

    def delta(v):
        stats.oracle_calls += 1
        return inst.f(v)[i] - v[i]

    lo, hi = Fraction(0), Fraction(1)
    v_lo = sub(lo)
    if abs(delta(v_lo)) <= eps_i:
        return v_lo
    v_hi = sub(hi)
    if abs(delta(v_hi)) <= eps_i:
        return v_hi
    # One halving beyond eps_i keeps the final midpoint strictly within
    # eps_i/2 of both pivots, which the violation-pair guarantee needs.
    while hi - lo > eps_i / 2:
        mid = (lo + hi) / 2
        v = sub(mid)
        dv = delta(v)
        if abs(dv) <= eps_i:
            return v
        if dv > 0:
            lo, v_lo = mid, v
        else:
            hi, v_hi = mid, v
    mid = (lo + hi) / 2
    v_star = sub(mid)
    dv = delta(v_star)
    if abs(dv) > eps_i:
        if dv > eps_i:
            raise _Violation(cert("CMV1", x=list(v_star), y=list(v_hi)))
        raise _Violation(cert("CMV1", x=list(v_lo), y=list(v_star)))
    return v_star


def approx_find_fp(inst: ContractionInstance, eps=None, stats: RunStats | None = None,
                   p: int | None = None) -> Certificate:
    """Black-box approximate fixpoint: returns APPROX_FIX(v, eps, p) with
    ||f(v)-v||_p <= eps, or a CMV1 pair with ||f(x)-f(y)||_p >= ||x-y||_p
    (a contraction violation for every c < 1).  eps and p default to the
    instance's."""
    stats = stats if stats is not None else RunStats()
    eps = eps if eps is not None else inst.eps
    p = p if p is not None else inst.p
    if eps is None or frac(eps) <= 0:
        raise ValueError("approximate mode needs eps > 0")
    if p < 1:
        raise ValueError("norm index must be a positive integer")
    eps = frac(eps)
    es = eps_schedule(p, inst.d, eps)
    try:
        v = _approx_rec(inst, es, {}, inst.d, stats)
    except _Violation as viol:
        return viol.certificate
    return cert("APPROX_FIX", v=list(v), eps=eps, p=p)


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
    from .reductions_opdc import contraction_to_opdc, map_back_contraction

    view = contraction_to_opdc(inst)
    out = []
    for c in brute_force(view, budget=budget, max_certs=max_certs):
        mapped = map_back_contraction(inst, view, c)
        if verify(inst, mapped) and mapped not in out:
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
