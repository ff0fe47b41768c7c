import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from potline.circuits import affine_circuit, evaluate
from potline.cli import compose, main
from potline.generators import gen_contraction, gen_lcp, gen_line, gen_uso
from potline.pivoting import LemkeSystem
from potline.problems import (
    ContractionInstance,
    LcpInstance,
    OpdcInstance,
    UsoInstance,
    cert,
    line_from_tables,
    verify,
)
from potline.reductions_line import NormalizeView, UfeoplToPlus1
from potline.reductions_opdc import ContractionToOpdc, OpdcLineView
from potline import solvers
from potline.solvers import (
    Exhausted,
    RunStats,
    aldous,
    approx_find_fp,
    brute_force,
    certificates,
    eps_schedule,
    find_fp,
    follow_line,
    lemke,
    _min_den_rational,
)

from helpers import FULL_CHAIN, check_schedule, fibonacci_contraction, lemke_zs
from test_fixpoint_pin import black_box, clamped_rotation
from test_integration import SOURCES
from test_kinds import CASES


# -- Lemke -------------------------------------------------------------------

def test_lemke_trivial_q():
    assert lemke(LcpInstance(M=[[1, 0], [0, 1]], q=[1, 1])) == cert("Q1", y=[F(0), F(0)])


def test_lemke_worked_example():
    c = lemke(LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1]))
    assert c == cert("Q1", y=[F(1, 3), F(1, 3)])


def test_lemke_identity():
    c = lemke(LcpInstance(M=[[1, 0], [0, 1]], q=[-1, -2]))
    assert c == cert("Q1", y=[F(1), F(2)])


def test_lemke_matches_brute_force():
    for seed in range(12):
        inst = gen_lcp(3, seed)
        c = lemke(inst)
        assert c.kind == "Q1" and verify(inst, c)
        q1s = [b for b in brute_force(inst) if b.kind == "Q1"]
        assert len(q1s) == 1 and q1s[0].y == c.y


def test_lemke_z_monotone_on_p_matrices():
    for seed in range(8):
        inst = gen_lcp(4, seed, nondegenerate=True)
        c, zs = lemke_zs(inst)
        assert c.kind == "Q1"
        assert all(a > b for a, b in zip(zs, zs[1:])), zs


def test_lemke_non_p_violation():
    inst = LcpInstance(M=[[-1, 0], [0, -1]], q=[-1, -2])
    c = lemke(inst)
    assert c.kind == "PV1" and verify(inst, c)


def test_lemke_ray_pv2(monkeypatch):
    # No known instance ends on a ray whose cone has a positive principal
    # minor; faking that minor makes this one do so.  The ray raises y_1, z
    # and w_0 together, so x = dy = (0, 1) is a PV2 witness.
    from potline import solvers

    inst = LcpInstance(M=[[-1, 0], [0, -1]], q=[-1, -2])
    monkeypatch.setattr(solvers, "principal_minor", lambda m, alpha: F(1))
    c = lemke(inst)
    assert c == cert("PV2", x=[F(0), F(1)]) and verify(inst, c)


def test_lemke_refuses_an_infeasible_start(monkeypatch):
    # Only a start on the lex-min row of q(eps) is feasible.  Starting on
    # row 0 leaves w_1 = q_1 - q_0 < 0, or, with q tied, w_1 = eps^1 - eps^0,
    # which only the lex rule finds negative.
    monkeypatch.setattr(LemkeSystem, "start_row", lambda sys: 0)
    for q in ([-1, -2], [-1, -1]):
        inst = LcpInstance(M=[[1, 0], [0, 1]], q=q)
        for start in (lemke, lambda inst: inst.system.start_vertex()):
            with pytest.raises(RuntimeError, match="Lemke start vertex is infeasible"):
                start(inst)


# -- line following ------------------------------------------------------------

def test_follow_line_finds_end():
    inst = line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 1, 2: 2}, flavor="ueopl")
    assert follow_line(inst, 0) == cert("U1", x=2)


def test_follow_line_r2():
    inst = line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 2, 2: 1}, flavor="eopl")
    assert follow_line(inst, 0) == cert("R2", x=1)


def test_follow_line_exhausted():
    inst = gen_line(32, seed=0, flavor="eopl", gaps=[1] * 31)
    with pytest.raises(Exhausted):
        follow_line(inst, 0, max_steps=5)


def _normalized_chain(d, seed):
    return compose(gen_lcp(d, seed, nondegenerate=True), FULL_CHAIN)[0]


def _walk_outcome(walk, inst):
    """(certificate or Exhausted message, steps) of walk(inst, stats)."""
    stats = RunStats()
    try:
        return walk(inst, stats), stats.steps
    except Exhausted as exc:
        return str(exc), stats.steps


def test_jump_keeps_the_step_budget():
    # A jump cut at the budget raises the same Exhausted after the same
    # steps as the step-by-step walk, and otherwise ends on the same
    # certificate: budgets below, at and around each chain's length.
    exhausted = 0
    for d, seed in ((1, 0), (2, 0), (2, 2), (3, 2)):
        line = _normalized_chain(d, seed)
        jumpless = replace(line, jump=None)
        _, n = _walk_outcome(lambda inst, st: follow_line(inst, 0, stats=st), line)
        for max_steps in sorted({-1, 0, 1, 2, 3, n // 2, n - 3, n - 2, n - 1, n, n + 1, 2 * n}):
            walk = lambda inst, st: follow_line(inst, 0, max_steps, st)
            got = _walk_outcome(walk, line)
            assert got == _walk_outcome(walk, jumpless), (d, seed, max_steps, got)
            exhausted += isinstance(got[0], str)
    assert exhausted >= 4 * 7


def test_jump_matches_the_step_by_step_walk_from_every_code():
    # Gapped sources give chains of +1 steps inside the line as well as
    # tails; a walk may start anywhere, also inside a chain or on junk.
    for seed, two in ((7, False), (1, True), (2, False)):
        src = gen_line(5, seed, flavor="ueopl", gaps=[2, 1, 3, 1], two_lines=two)
        line = NormalizeView(src).image()
        jumpless = replace(line, jump=None)
        for start in range(line.size):
            for max_steps in (None, 0, 1, 2, 5):
                walk = lambda inst, st: follow_line(inst, start, max_steps, st)
                assert _walk_outcome(walk, line) == _walk_outcome(walk, jumpless), (seed, start, max_steps)


def test_forward_only_walk_takes_no_jump():
    # A forward-only walk checks S at the vertex after each step, which a
    # jump would skip: jump(0, cap) = (2, 2) must not hide UF1 at 1, whose
    # successor self-loops.
    inst = line_from_tables(2, {0: 1, 1: 2}, v_table={1: 1, 2: 2}, flavor="ufeopl")
    jumping = replace(inst, jump=lambda x, cap: (min(2, cap),) * 2 if x == 0 else (0, x))
    assert follow_line(jumping, 0) == follow_line(inst, 0) == cert("UF1", x=1)


def test_aldous_with_and_without_the_jump():
    # With a watch list the walk takes no jump: a watched vertex of a
    # second line may share a potential with a code inside a jump (UV3).
    # With none (samples = 0) it jumps and must still end where the
    # step-by-step walk does.
    lines = [_normalized_chain(d, seed) for d, seed in ((1, 0), (2, 0), (2, 2))]
    lines += [NormalizeView(gen_line(6, seed, flavor="ueopl", gaps=[3, 1, 4, 2, 3],
                                     two_lines=True)).image() for seed in range(4)]
    uv3 = 0
    for line in lines:
        jumpless = replace(line, jump=None)
        for samples in (0, 1, 8, 64, 256):
            for rng_seed in range(4):
                for cap in (None, 5):
                    walk = lambda inst, st: aldous(inst, samples, random.Random(rng_seed), cap, st)
                    got = _walk_outcome(walk, line)
                    assert got == _walk_outcome(walk, jumpless), (line.n, samples, rng_seed, cap)
                    uv3 += getattr(got[0], "kind", None) == "UV3"
    assert uv3 > 0


# -- Aldous ---------------------------------------------------------------------

def test_aldous_degenerate_sampling():
    inst = gen_line(8, seed=1, flavor="ueopl", gaps=[1] * 7)
    base = follow_line(inst, 0)
    assert aldous(inst, samples=0, rng=random.Random(1)) == base


def test_aldous_matches_follow_line():
    inst = gen_line(64, seed=2, flavor="ueopl")
    base = follow_line(inst, 0)
    for seed in range(6):
        st = RunStats()
        assert aldous(inst, samples=32, rng=random.Random(seed), stats=st) == base
        assert st.steps <= 64


def test_aldous_two_lines_verifies():
    inst = gen_line(8, seed=3, flavor="ueopl", two_lines=True)
    c = aldous(inst, samples=16, rng=random.Random(0))
    assert verify(inst, c)


def test_aldous_exposes_uv3():
    # two lines whose tops tie in potential: dense sampling watches both,
    # and the walk reports the second line instead of an end
    a1, a2, a3, b1, b2 = 1, 2, 3, 4, 5
    inst = line_from_tables(
        3,
        {0: a1, a1: a2, a2: a3, a3: 0, b1: b2, b2: 0},
        {a1: 0, a2: a1, a3: a2, b2: b1},
        {a1: 1, a2: 5, a3: 9, b1: 5, b2: 9},
        flavor="ueopl",
    )
    c = aldous(inst, samples=64, rng=random.Random(0))
    assert c.kind == "UV3" and verify(inst, c)


# -- exact fixpoint ----------------------------------------------------------------

def test_find_fp_worked_examples():
    circ = affine_circuit([[F(1, 2)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(6,))
    assert find_fp(inst) == cert("CM1", x=[F(1, 2)])

    circ2 = affine_circuit([[F(0), F(1, 2)], [F(1, 2), F(0)]], [F(1, 4), F(1, 4)])
    inst2 = ContractionInstance(d=2, c=F(1, 2), p=2, circuit=circ2, kappa=(6, 6))
    assert find_fp(inst2) == cert("CM1", x=[F(1, 2), F(1, 2)])


def test_find_fp_nondyadic():
    circ = affine_circuit([[F(1, 4)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(8,))
    assert find_fp(inst) == cert("CM1", x=[F(1, 3)])


def test_find_fp_with_a_long_continued_fraction():
    # x* has a 2000-bit odd denominator and 2881 continued-fraction terms:
    # a minimal-denominator search with one stack frame per term would pass
    # Python's recursion limit.
    inst, x_star = fibonacci_contraction(2000)
    stats = RunStats()
    c = find_fp(inst, stats=stats)
    assert c == cert("CM1", x=[x_star]) and verify(inst, c)
    # Both ends, 4001 halvings and the minimal-denominator candidate.
    assert stats.oracle_calls == 2 + 4001 + 1


@st.composite
def triangular_maps(draw):
    """f(x) = A (x - x*) + x* with A lower triangular, mapping the box into
    itself: row i's absolute sum is at most min(x*_i, 1 - x*_i).  Each x*_i
    has a denominator q_i <= 2^kappa_i that is not a power of two, so every
    level's answer is off the dyadic grid."""
    d = draw(st.integers(1, 3))
    kappa = tuple(draw(st.integers(2, 8)) for _ in range(d))
    x_star = []
    for k in kappa:
        q = draw(st.integers(3, 1 << k).filter(lambda q: q & (q - 1)))
        x_star.append(F(draw(st.integers(1, q - 1)), q))
    a = []
    for i in range(d):
        row = [draw(st.fractions(-1, 1, max_denominator=16)) if j <= i else F(0) for j in range(d)]
        room = min(x_star[i], 1 - x_star[i])
        total = sum(abs(v) for v in row)
        a.append([v * room / total for v in row] if total > room else row)
    b = [x_star[i] - sum(a[i][j] * x_star[j] for j in range(d)) for i in range(d)]
    inst = ContractionInstance(d=d, c=F(1, 2), p=1, circuit=affine_circuit(a, b), kappa=kappa)
    return inst, x_star


@settings(max_examples=60, deadline=None)
@given(triangular_maps())
def test_find_fp_returns_non_dyadic_fixpoints(case):
    # The slice fixpoint of level i is x*_i whatever the outer coordinates
    # are, and its denominator is not a power of two: every level ends on
    # the probe that moves the point to lcm(D, q_i), inner levels included.
    inst, x_star = case
    c = find_fp(inst)
    assert c == cert("CM1", x=x_star) and verify(inst, c)


def test_find_fp_cmv3():
    inst = gen_contraction(1, seed=0, contracting=False, kappa=(4,))
    c = find_fp(inst)
    assert c.kind == "CMV3" and verify(inst, c)


def test_find_fp_cmv3_2d():
    inst = gen_contraction(2, seed=1, contracting=False, kappa=(4, 4))
    c = find_fp(inst)
    assert c.kind == "CMV3" and verify(inst, c)


def test_find_fp_cmv3_at_the_untouched_upper_end():
    # f(x) = 1 below 1 and f(1) = 0: every bisection moves the lower end
    # up, so the upper end of the last bracket is still the probe at t = 1
    # and the CMV3 pair is (1, 15/16).
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, func=lambda x: [F(1) if x[0] < 1 else F(0)], kappa=(4,))
    c = find_fp(inst)
    assert c == cert("CMV3", level=1, x=[F(1)], y=[F(15, 16)]) and verify(inst, c)


def test_find_fp_cmv2_when_f_leaves_the_box():
    # f(x) = x/2 + 3/4 maps 1 to 5/4.
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=affine_circuit([[F(1, 2)]], [F(3, 4)]), kappa=(8,))
    c = find_fp(inst)
    assert c == cert("CMV2", x=[F(1)]) and verify(inst, c)


def _min_den_ref(a, b, D):
    """The least q, then the least p, with a / D < p / q < b / D."""
    q = 1
    while (a * q // D + 1) * D >= b * q:
        q += 1
    return a * q // D + 1, q


def test_min_den_rational_matches_a_brute_force_search():
    # Every open interval (a / D, b / D) with 0 <= a < b <= D <= 40; those
    # with a = 0 and b < D leave the Stern-Brocot loop at its a = 0 exit.
    cases = [(a, b, D) for D in range(1, 41) for b in range(1, D + 1) for a in range(b)]
    assert len(cases) == 11480
    for a, b, D in cases:
        assert _min_den_rational(a, b, D) == _min_den_ref(a, b, D), (a, b, D)


def test_find_fp_agrees_with_lcp_view():
    from potline.circuits import circuit_to_lcp, evaluate

    inst = gen_contraction(1, seed=4, kappa=(8,))
    c = find_fp(inst)
    assert c.kind == "CM1"
    m, q = circuit_to_lcp(inst.circuit)
    li = LcpInstance(M=m, q=q)
    fixpoints = {tuple(b.y[: inst.d]) for b in brute_force(li) if b.kind == "Q1"}
    assert tuple(c.x) in fixpoints


# -- approximate fixpoint ----------------------------------------------------------

def test_approx_halving_map():
    circ = affine_circuit([[F(1, 2), F(0)], [F(0), F(1, 2)]], [F(0), F(0)])
    inst = ContractionInstance(d=2, c=F(1, 2), p=2, circuit=circ, eps=F(1, 1024))
    c = approx_find_fp(inst)
    assert c.kind == "APPROX_FIX" and verify(inst, c)


def test_approx_1d_near_half():
    circ = affine_circuit([[F(1, 2)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=1, circuit=circ, eps=F(1, 256))
    c = approx_find_fp(inst)
    assert c.kind == "APPROX_FIX" and verify(inst, c)
    assert abs(c.v[0] - F(1, 2)) <= F(1, 128)


def test_approx_boundary_fixpoint():
    # f(x) = min(1, x + 1/4): exact fixpoint at 1
    from potline.circuits import Circuit, Gate

    gates = (
        Gate("input", (0,)),
        Gate("const", (F(1, 4),)),
        Gate("add", (0, 1)),
        Gate("const", (F(1),)),
        Gate("min", (2, 3)),
    )
    circ = Circuit(1, gates, (4,))
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, eps=F(1, 256))
    c = approx_find_fp(inst)
    assert verify(inst, c)


def test_approx_fix_carries_its_tolerance():
    # f(x) = x/2 + 1/3 has the non-dyadic fixpoint 2/3.
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, func=lambda x: [x[0] / 2 + F(1, 3)])
    c = approx_find_fp(inst, eps=F(1, 4))
    assert c.kind == "APPROX_FIX" and (c.eps, c.p) == (F(1, 4), 2)
    assert verify(inst, c)  # the instance sets no eps: the certificate's holds
    inst.eps = F(1, 4096)  # |f(v) - v| = 1/1536: an eps set on the instance is kept
    assert not verify(inst, c)


@pytest.mark.parametrize("eps, p", [(F(1, 2), 1), (F(1, 16), 1), (F(1, 2), 2), (F(1, 16), 3)])
def test_approx_fix_meets_the_instance_eps(eps, p):
    # A looser eps than the instance's, in its p or another: each level
    # takes the smaller tolerance of the two schedules, so the APPROX_FIX
    # meets the instance's bound besides its own.
    inst = clamped_rotation((F(1, 3), F(2, 7)), (8, 8))
    inst.eps = F(1, 1024)
    c = approx_find_fp(inst, eps=eps, p=p)
    assert c.kind == "APPROX_FIX" and (c.eps, c.p) == (eps, p) and verify(inst, c), c


def test_approx_violation_pair():
    def jump(x):
        return [F(1) if x[0] < F(1, 2) else F(0)]

    inst = ContractionInstance(d=1, c=F(1, 2), p=2, func=jump, eps=F(1, 256))
    c = approx_find_fp(inst)
    assert c.kind == "CMV1" and verify(inst, c)


def test_approx_rule_reaches_each_final_step(monkeypatch):
    # f(x) = clamp_[0,1](s (c0 - x)) expands by s around its fixpoint, so
    # the final midpoint of the bisection is within eps_1 of its image
    # (APPROX_FIX), above it (CMV1 with the midpoint as x and the upper end
    # as y) or below it (CMV1 from the lower end to the midpoint).
    finishes = Counter()
    rule = solvers._approx_rule
    mids = []

    def logged_rule(eps_i):
        tol, halvings, grid, last, violation = rule(eps_i)

        def logged_last(lo, hi, D):
            mids.append([F((lo + hi) >> 1, D)])
            return last(lo, hi, D)

        def logged_violation(v, r, v_lo, v_hi, saved):
            c = violation(v, r, v_lo, v_hi, saved)
            assert c.kind == "CMV1" and mids[-1] in (c.x, c.y), c
            finishes["upper CMV1" if c.x == mids[-1] else "lower CMV1"] += 1
            return c

        return tol, halvings, grid, logged_last, logged_violation

    monkeypatch.setattr(solvers, "_approx_rule", logged_rule)
    for s in (3, 5, 8, 13):
        for k in range(41):
            c0 = F(k, 41)
            inst = ContractionInstance(d=1, c=F(1, 2), p=1, eps=F(1, 64),
                                       func=lambda x, s=s, c0=c0: [min(max(s * (c0 - x[0]), F(0)), F(1))])
            mids.clear()
            c = approx_find_fp(inst)
            assert c.kind in ("APPROX_FIX", "CMV1") and verify(inst, c), (s, k, c)
            if c.kind == "APPROX_FIX" and mids:  # the one level's final probe stopped it
                assert c.v == mids[-1], c
                finishes["APPROX_FIX"] += 1
    assert set(finishes) == {"upper CMV1", "lower CMV1", "APPROX_FIX"}, finishes


@pytest.mark.parametrize("b", [[F(3, 4)], [F(1, 4), F(3, 4)]])
def test_approx_cmv2_when_f_leaves_the_box(b):
    # f(x) = x/2 + b leaves the box where the last coordinate is 1; the
    # answer is such a point, not a CMV1 pair that its verifier rejects.
    inst = ContractionInstance(d=len(b), c=F(1, 2), p=2, func=lambda x: [xi / 2 + bi for xi, bi in zip(x, b)])
    c = approx_find_fp(inst, eps=F(1, 256))
    assert c.kind == "CMV2" and c.x[-1] == 1 and verify(inst, c)


@pytest.mark.parametrize("make", [lambda: gen_contraction(2, 1), lambda: gen_contraction(2, 0, contracting=False),
                                  lambda: clamped_rotation((F(1, 3), F(2, 7)), (8, 8))],
                         ids=["contracting", "non-contracting", "rotation"])
def test_circuit_and_black_box_share_one_search_path(make):
    # The circuit instance runs its compiled integer program, the black box
    # its Fractions put over their lcm: the same questions, the same answers.
    runs = [lambda inst, st: find_fp(inst, stats=st)]
    runs += [lambda inst, st, p=p: approx_find_fp(inst, eps=F(1, 1024), p=p, stats=st) for p in (1, 2, 3)]
    circuit = make()
    box = ContractionInstance(d=circuit.d, c=circuit.c, p=circuit.p, func=lambda x: evaluate(circuit.circuit, x),
                              kappa=circuit.effective_kappa())
    for run in runs:
        outcomes = []
        for inst in (circuit, box):
            stats = RunStats()
            outcomes.append((run(inst, stats), stats.oracle_calls))
        assert outcomes[0] == outcomes[1]


def _counted(inst: ContractionInstance) -> list:
    """Record each point at which the searches evaluate f, as Fractions:
    through a circuit's compiled program, or a black box's `func`."""
    points = []
    if inst.circuit is not None:
        f_int = inst.f_int

        def program(xs, D):
            points.append(tuple(F(x, D) for x in xs))
            return f_int(xs, D)

        inst.f_int = program
    else:
        func = inst.func

        def box(x):
            points.append(tuple(x))
            return func(x)

        inst.func = box
    return points


def _evaluated_cases():
    for d in range(1, 7):
        for seed in range(3):
            for contracting in (True, False):
                yield find_fp, gen_contraction(d, seed, contracting=contracting)
    yield find_fp, clamped_rotation((F(1, 3), F(2, 7)), (60, 20))
    for d in (1, 2):
        for p in (1, 2, 3):
            for contracting in (True, False):
                yield approx_find_fp, black_box(gen_contraction(d, 0, p=p, contracting=contracting), p)
    for p in (1, 2):
        yield approx_find_fp, black_box(clamped_rotation((F(1, 3), F(2, 7)), (8, 8)), p)


def test_each_point_is_evaluated_once():
    # A level hands its slice fixpoint up with f there, so the level above
    # reads f at it instead of asking again: every oracle call is a new point.
    for solve, inst in _evaluated_cases():
        points, stats = _counted(inst), RunStats()
        c = solve(inst, stats=stats)
        assert len(set(points)) == len(points) == stats.oracle_calls, (inst, c)
        assert verify(inst, c)


def test_schedules_exact():
    for p in (1, 2, 3):
        for d in (1, 2, 3, 4):
            for eps in (F(1, 1024), F(1, 3), F(1, 2)):
                assert check_schedule(p, d, eps)


def test_schedule_values():
    es = eps_schedule(1, 2, F(1, 4))
    assert es == [F(1, 4) / 16, F(1, 4) / 4]


# -- brute force -------------------------------------------------------------------

def test_brute_force_lcp():
    inst = LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1])
    certs = brute_force(inst)
    assert [c.kind for c in certs] == ["Q1"]


def test_brute_force_lcp_keeps_the_certificate_cap():
    # As every other enumerator: more than max_certs certificates raise.
    inst = gen_lcp(5, 0, p_matrix=False)
    certs = brute_force(inst)
    assert len(certs) == 48
    assert brute_force(inst, max_certs=48) == certs
    with pytest.raises(Exhausted, match="certificate cap hit"):
        brute_force(inst, max_certs=47)


@pytest.mark.parametrize("inst, message", [
    (LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1]), "too many supports"),
    (UsoInstance(n=2, orient=lambda v: v ^ 0b11), "cube too large"),
    (OpdcInstance(widths=(1, 1), direction=lambda p: ("zero", "zero")), "grid too large"),
    (line_from_tables(2, {0: 1}), r"2\^2 ids exceed budget 3"),
    # The views' code lists: 2 source ids but 4 codes, and 3^2 tuples.
    (UfeoplToPlus1(line_from_tables(1, {0: 1}, v_table={1: 4}, flavor="ufeopl")).image(), "more than 3 codes"),
    (OpdcLineView(OpdcInstance(widths=(1,), direction=lambda p: ("zero",))).image(),
     r"3\^2 tuples exceed budget 3"),
])
def test_brute_force_refuses_a_domain_over_its_budget(inst, message):
    with pytest.raises(Exhausted, match=message):
        brute_force(inst, budget=3)


def test_brute_force_uso():
    inst = UsoInstance(n=1, orient=lambda v: {0: 1, 1: 0}[v])
    certs = brute_force(inst)
    assert [c.kind for c in certs] == ["US1"]


def test_brute_force_opdc():
    d2 = {(0,): "up", (1,): "down"}
    inst = OpdcInstance(widths=(1,), direction=lambda p: (d2[p],))
    certs = brute_force(inst)
    assert [c.kind for c in certs] == ["OV2"]


def test_brute_force_line_totality():
    for seed in range(6):
        inst = gen_line(10, seed=seed, flavor="eopl")
        certs = brute_force(inst)
        assert any(c.kind in ("R1", "R2") for c in certs)


# One instance of every kind and line flavor; test_kinds' contraction map is
# left out, as its grid is over the budget (SOURCES has one that is not).
STREAMS = {**{f"stage/{name}": build for name, build in SOURCES.items()},
           **{f"kind/{name}": build for name, (build, _) in CASES.items() if name != "contraction"}}


@pytest.mark.parametrize("build", list(STREAMS.values()), ids=list(STREAMS))
def test_brute_force_lists_the_certificate_stream(build):
    inst = build()
    certs = brute_force(inst)
    assert certs and list(certificates(inst)) == certs
    assert next(certificates(inst)) == certs[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_the_first_certificate_needs_no_pair(monkeypatch, seed):
    # A unique sink orientation's sink comes before its 2^23 USV2 candidate
    # pairs, so the stream yields it after at most one verifier call per
    # vertex.
    calls = []
    monkeypatch.setattr("potline.solvers.verify", lambda inst, c: calls.append(c) or verify(inst, c))
    c = next(certificates(gen_uso(12, seed)))
    assert c.kind == "US1" and len(calls) <= 1 << 12


def test_brute_force_caps_a_contraction_by_its_own_certificates():
    # The identity on the 3 x 3 grid: 9 O1 and 45 OV1 grid certificates, of
    # which 9 pairs are OV1 on both levels, map back to 9 CM1 and 36 CMV1.
    inst = ContractionInstance(d=2, c=F(1, 2), p=2, func=lambda x: list(x), kappa=(1, 1))
    assert len(brute_force(ContractionToOpdc(inst).image())) == 54
    assert len(brute_force(inst, max_certs=45)) == 45
    with pytest.raises(Exhausted, match="certificate cap hit"):
        brute_force(inst, max_certs=44)


def test_cli_brute_round_trip(tmp_path, capsys):
    uso, record, c = tmp_path / "uso.json", tmp_path / "record.json", tmp_path / "cert.json"
    assert main(["generate", "--kind", "uso", "--d", "10", "-o", str(uso)]) == 0
    assert main(["solve", str(uso), "--problem", "uso", "--algo", "brute", "-o", str(record)]) == 0
    answer = json.loads(record.read_text())
    assert answer["certificate"]["kind"] == "US1" and answer["verified"] is True
    c.write_text(json.dumps(answer["certificate"]))
    assert main(["verify", str(uso), str(c), "--problem", "uso"]) == 0
    assert json.loads(capsys.readouterr().out) == {"accepted": True, "kind": "US1"}
