import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest

from potline.cli import compose
from potline.generators import gen_lcp
from potline.pivoting import IntForm, LemkeSystem
from potline.problems import LcpInstance, UnmappableCert, cert, verify
from potline.reductions_lcp import PlcpLineView, PlcpToUso, out_map
from potline.solvers import RunStats, aldous, brute_force, follow_line, lemke

from helpers import count_calls, lemke_code, murty, potential_ref, v_digits, wild_lcps
from test_cone_pin import FAMILIES, SEEDS
from test_pivoting import _line_sources, _wild_integer
from test_solvers import _walk_outcome


WORKED = LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1])


def test_out_map_examples():
    assert out_map(WORKED, frozenset()) == 0b11
    assert out_map(WORKED, frozenset({0})) == 0b10
    assert out_map(WORKED, frozenset({0, 1})) == 0b00


def test_out_map_dash_on_singular():
    inst = LcpInstance(M=[[0, 1], [1, 2]], q=[-1, -1])
    assert out_map(inst, frozenset({0})) is None


def test_plcp_to_uso_worked():
    uso = PlcpToUso(WORKED).image()
    assert uso.orient(0b11) == 0  # sink at 11
    c = cert("US1", v=0b11)
    assert verify(uso, c)
    assert PlcpToUso(WORKED).map_back(c) == cert("Q1", y=[F(1, 3), F(1, 3)])


def test_plcp_to_uso_trivial_sink():
    inst = LcpInstance(M=[[2, 1], [1, 2]], q=[1, 2])
    uso = PlcpToUso(inst).image()
    assert uso.orient(0) == 0


def _szabo_welzl_ok(uso, n):
    for v, u in combinations(range(1 << n), 2):
        ov, ou = uso.orient(v), uso.orient(u)
        if ov is None or ou is None:
            return False
        if (v ^ u) & (ov ^ ou) == 0:
            return False
    return True


def test_plcp_to_uso_p_matrices_are_usos():
    for seed in range(10):
        inst = gen_lcp(3, seed, nondegenerate=True)
        uso = PlcpToUso(inst).image()
        assert _szabo_welzl_ok(uso, 3)
        sinks = [v for v in range(8) if uso.orient(v) == 0]
        assert len(sinks) == 1
        q1 = PlcpToUso(inst).map_back(cert("US1", v=sinks[0]))
        assert q1 == lemke(inst)


def test_plcp_to_uso_non_p_violation():
    # Negative principal minor, all cones nonsingular: some pair fails
    # Szabo-Welzl and maps back to PV3.
    inst = LcpInstance(M=[[-1, 0], [0, 1]], q=[-1, -2])
    uso = PlcpToUso(inst).image()
    certs = brute_force(uso)
    usv2 = [c for c in certs if c.kind == "USV2"]
    assert usv2
    pv3 = PlcpToUso(inst).map_back(usv2[0])
    assert pv3.kind == "PV3" and verify(inst, pv3)


def test_plcp_to_uso_singular_cone_gives_usv1():
    # Zero principal minors make the out-map dash, mapping to PV1.
    inst = LcpInstance(M=[[0, 1], [1, 0]], q=[-1, -1])
    uso = PlcpToUso(inst).image()
    certs = brute_force(uso)
    usv1 = [c for c in certs if c.kind == "USV1"]
    assert usv1
    pv1 = PlcpToUso(inst).map_back(usv1[0])
    assert pv1.kind == "PV1" and verify(inst, pv1)


def test_plcp_to_eopl_worked():
    view = PlcpLineView(WORKED)
    line = view.image()
    assert view.delta == 769  # 4! * 2^5 + 1 with I_max = 2
    assert line.V(0) == 0
    c = follow_line(line, 0)
    assert c.kind == "U1"
    assert view.map_back(c) == cert("Q1", y=[F(1, 3), F(1, 3)])


def test_plcp_to_eopl_delta_reads_negative_entries_of_m():
    # The largest entry of M is 1 and its largest |entry| 1000.  Delta must
    # bound |z|, which reaches 1000, so it is taken over |entries|: with
    # I_max = 1 the potential fell along the path and the walk ended at a
    # UV1 that maps back to nothing.
    inst = LcpInstance(M=[[1, -1000], [0, 1]], q=[-1, -1])
    view = PlcpLineView(inst)
    line = view.image()
    assert view.delta == 4 * 3 * 2 * 1000**5 + 1
    c = follow_line(line, 0)
    assert c.kind == "U1"
    assert view.map_back(c) == lemke(inst) == cert("Q1", y=[F(1001), F(1)])


def test_one_integer_form_per_instance(monkeypatch):
    # Views read scale and I_max from the instance's one IntForm, and a
    # second view rescans nothing: it shares the form of the first.  Delta
    # is built from the form's I_max.
    built = []
    init = IntForm.__init__

    def counting_init(self, m, q):
        built.append(self)
        init(self, m, q)

    monkeypatch.setattr(IntForm, "__init__", counting_init)
    inst = LcpInstance(M=[[2, 1], [1, 2]], q=[F(-1, 3), F(-1, 2)])
    first = PlcpLineView(inst)
    second = PlcpLineView(inst)
    assert built == [inst.form] and inst.form is inst.system.form
    assert first.scale == second.scale == 6 and inst.form.i_max == 12
    assert first.delta == second.delta == 4 * 3 * 2 * 12**5 + 1
    assert verify(inst, lemke(inst))
    assert built == [inst.form]
    # Another instance of the same d and I_max (scale 1 here) has the same
    # Delta.
    other = LcpInstance(M=[[12, 1], [1, 2]], q=[-1, -1])
    third = PlcpLineView(other)
    assert other.form.i_max == 12 and third.scale == 1
    assert third.delta == first.delta


def _walk_codes(view: PlcpLineView) -> list[int]:
    """The codes along the view's line from 0 to where S or P stops it."""
    codes, x = [0], 0
    for _ in range(1 << view.nbits):
        y = view.successor(x)
        if y == x or view.predecessor(y) != x:
            break
        codes.append(y)
        x = y
    return codes


def test_potential_matches_reference():
    # The view's V splits into the digits that an exact Fraction solve of
    # the unscaled Lemke system gives, on every code of the pinned line
    # sources (degenerate, non-P and wild ones among them), of an LCP with
    # fractional q, and along whole walks up to d = 16.
    frac = LcpInstance(M=[[2, 1], [1, 2]], q=[F(-1, 3), F(-1, 2)])
    for inst in [*_line_sources().values(), frac]:
        view = PlcpLineView(inst)
        for u in range(1 << view.nbits):
            assert v_digits(view, view.potential(u)) == potential_ref(view, u), (inst, u)
    walks = [murty(n) for n in range(2, 9)]
    walks += [gen_lcp(8, s) for s in range(40)] + [gen_lcp(16, s) for s in range(4)]
    for inst in walks:
        view = PlcpLineView(inst)
        codes = _walk_codes(view)
        for u in codes:
            assert v_digits(view, view.potential(u)) == potential_ref(view, u), (inst, u)
        # The walk ends where z leaves the basis: every digit is Delta^3.
        end = view.vertex_of(codes[-1])
        assert view.sys.zvar not in end.rows
        assert v_digits(view, view.potential(codes[-1])) == (view.delta**3,) * (view.d + 1)
    assert len(_walk_codes(PlcpLineView(murty(8)))) == (1 << 8) + 1


def test_potential_fits_m_pot():
    # A line instance takes V in [0, 2^m_pot), and the normalized stage
    # sizes the low field of its codes, which holds V, by m_pot.
    for inst in _line_sources().values():
        view = PlcpLineView(inst)
        for u in range(1 << view.nbits):
            assert 0 <= view.potential(u) < 1 << view.m_pot, (inst, u)


NORMALIZED_SOURCES = {f"gen_lcp({d},{s})": gen_lcp(d, s) for d in (2, 3, 4) for s in range(3)}
NORMALIZED_SOURCES.update({f"murty({n})": murty(n) for n in range(1, 6)})


@pytest.mark.parametrize("name", NORMALIZED_SOURCES)
def test_lemke_line_through_the_normalization(name):
    # Walking plcp:ueopl:normalized and mapping its end back through both
    # stages gives Lemke's solution.
    inst = NORMALIZED_SOURCES[name]
    line, map_back = compose(inst, ("plcp", "ueopl", "normalized"))
    c = map_back(follow_line(line, 0))
    assert c.kind == "Q1" and c == lemke(inst)


def test_eps_coefficients_of_z_obey_the_minor_bound():
    # The potential takes no clamp because every eps coefficient c of z
    # (the constant term times scale) is a ratio of integer minors with
    # |c| <= d! I_max^d < Delta (PlcpLineView docstring); checked at every
    # walked vertex of Murty's family, the pinned line sources and P and
    # non-P gen_lcp lines.
    insts = [murty(n) for n in range(2, 9)] + list(_line_sources().values())
    insts += [gen_lcp(d, s, p_matrix=p) for d in range(2, 9) for s in range(10) for p in (True, False)]
    worst = F(0)
    for inst in insts:
        view = PlcpLineView(inst)
        bound = factorial(view.d) * inst.form.i_max ** view.d
        assert bound < view.delta
        for u in _walk_codes(view)[1:]:
            zs, det = view.sys.z_row(view.vertex_of(u))
            zs[0] *= view.scale
            for x in zs:
                assert abs(F(x, det)) <= bound, (inst, u)
                worst = max(worst, abs(F(x, det)) / bound)
    assert 0 < worst <= 1


def test_plcp_to_eopl_line_integrity():
    for seed in range(6):
        inst = gen_lcp(2, seed, nondegenerate=True)
        view = PlcpLineView(inst)
        line = view.image()
        certs = brute_force(line)
        kinds = sorted(c.kind for c in certs)
        assert kinds == ["U1"], (seed, certs)
        # follow the line and check V strictly increases
        x, vs = 0, [line.V(0)]
        while True:
            nxt = line.S(x)
            if nxt == x or line.P(nxt) != x:
                break
            vs.append(line.V(nxt))
            x = nxt
        assert all(a < b for a, b in zip(vs, vs[1:]))
        assert view.map_back(certs[0]) == lemke(inst)


def test_plcp_to_eopl_agrees_with_lemke():
    for seed in range(6):
        inst = gen_lcp(3, seed, nondegenerate=True)
        view = PlcpLineView(inst)
        line = view.image()
        c = follow_line(line, 0)
        assert view.map_back(c) == lemke(inst)


def test_one_lemke_system_per_instance(monkeypatch):
    # gen_lcp's cone checks, lemke, the line view, the out-map and a PV3
    # verify all pivot on the instance's one `system`, also when q is not
    # integral.
    built = []
    init = LemkeSystem.__init__

    def counting_init(self, m, q):
        built.append(self)
        init(self, m, q)

    monkeypatch.setattr(LemkeSystem, "__init__", counting_init)
    inst = gen_lcp(3, 0, nondegenerate=True)
    c = lemke(inst)
    view = PlcpLineView(inst)
    line = view.image()
    assert view.scale > 1
    assert view.map_back(follow_line(line, 0)) == c
    assert out_map(inst, frozenset({0})) is not None
    verify(inst, cert("PV3", alpha=frozenset({0}), beta=frozenset({1})))
    assert len(built) == 1 and built[0] is inst.system, len(built)


def test_plcp_to_eopl_non_p_map_backs():
    planted = [
        LcpInstance(M=[[-1, 0], [0, 1]], q=[-1, -2]),
        LcpInstance(M=[[0, -1], [1, 0]], q=[-1, -1]),
        LcpInstance(M=[[1, -3], [-3, 1]], q=[F(-3, 2), -1]),
    ]
    for inst in planted:
        view = PlcpLineView(inst)
        line = view.image()
        certs = brute_force(line)
        assert certs
        for c in certs:
            mb = view.map_back(c)
            assert verify(inst, mb), (inst.M, c, mb)


def test_plcp_to_eopl_v_separation():
    inst = gen_lcp(2, 3, nondegenerate=True)
    view = PlcpLineView(inst)
    line = view.image()
    # distinct z values get potentials separated by at least 1
    zs = {}
    for u in range(1, 1 << line.n):
        vtx = view.vertex_of(u)
        if vtx is not None:
            _, z = view.sys.numeric_point(vtx)
            zs.setdefault(z, set()).add(line.V(u))
    seen = sorted((min(vs), z) for z, vs in zs.items())
    for (v1, _), (v2, _) in zip(seen, seen[1:]):
        assert v2 - v1 >= 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_line_view_oracles_match_a_fresh_view(family):
    # One view keeps its vertex cache, start vertex and reverse edges across
    # queries; each answer must be the one a view with none of them gives.
    # Walk order meets the reverse edges forwards, descending codes
    # meet them from either end.
    for d in range(1, 5):
        for seed in SEEDS:
            inst = FAMILIES[family](d, seed)
            if all(qi >= 0 for qi in inst.q):
                continue
            shared = PlcpLineView(inst)

            def check(u):
                fresh = [getattr(PlcpLineView(LcpInstance(M=inst.M, q=inst.q)), oracle)(u)
                         for oracle in ("successor", "predecessor")]
                assert [shared.successor(u), shared.predecessor(u)] == fresh, (family, d, seed, u)
                return fresh[0]

            walked, u = set(), 0
            while u not in walked:
                walked.add(u)
                u = check(u)
            for u in reversed(range(1 << shared.nbits)):
                check(u)


def _check_carried(view):
    """Every kept vertex's code is the code of its basis, and a forward
    variable it carries is the one the determinant-sign rule gives."""
    sys = view.sys
    for u, v in view._states.items():
        if v is not None:
            assert u == lemke_code(sys, frozenset(v.rows)), u
            if v.fwd is not None:
                assert v.fwd == sys.forward_entering(sys.vertex_at(frozenset(v.rows))), u


def test_line_view_oracles_stay_pure():
    # A step carries the code, the forward variable and the edge back of
    # the vertex it reaches; S, P and V must read the same on every code
    # whether the view was asked in a random order, walked, or sampled
    # and walked by aldous first.
    insts = [murty(n) for n in range(2, 7)]
    insts += [gen_lcp(d, s, p_matrix=p) for d in range(1, 5) for s in range(3) for p in (True, False)]
    insts += [_wild_integer(s) for s in range(40)]
    rng = random.Random(0)
    for inst in insts:
        if all(qi >= 0 for qi in inst.q):
            continue
        fresh = PlcpLineView(inst)
        line = fresh.image()
        codes = list(range(line.size))
        rng.shuffle(codes)
        want = {u: (line.S(u), line.P(u), line.V(u)) for u in codes}
        _check_carried(fresh)
        for walk in (lambda line: follow_line(line, 0),
                     lambda line: aldous(line, 8, random.Random(1))):
            view = PlcpLineView(inst)
            line = view.image()
            walk(line)
            _check_carried(view)
            assert {u: (line.S(u), line.P(u), line.V(u)) for u in range(line.size)} == want, inst


def test_line_walk_orients_once_and_reads_the_edge_back(monkeypatch):
    # Only the start vertex's orientation is worked out from a sign; every
    # later vertex takes its forward variable from the edge it was reached
    # by.  P(S(x)) reads the edge back: S(0) pivots to the start and every
    # later S one dz_sign and one pivot, so no dz_sign is left for P.
    pivots = count_calls(monkeypatch, LemkeSystem, "_pivot")
    dz = count_calls(monkeypatch, LemkeSystem, "dz_sign")
    signs = count_calls(monkeypatch, LemkeSystem, "_label_order_sign")
    for inst in [murty(8)] + [gen_lcp(8, s) for s in range(20)]:
        line = PlcpLineView(inst).image()
        pivots[0] = dz[0] = signs[0] = 0
        stats = RunStats()
        follow_line(line, 0, stats=stats)
        assert pivots[0] == stats.steps - 1 and dz[0] == pivots[0] - 1, inst
        assert signs[0] <= 1, inst


def _jump_sources():
    """Murty's, seeded P and non-P, and the wild LCPs: every source has
    some q_i < 0."""
    yield from (murty(n) for n in range(2, 5))
    for d in range(1, 5):
        for s in range(12):
            yield from (gen_lcp(d, s, p_matrix=p) for p in (True, False))
    yield from (src for _, src in wild_lcps())


def test_lemke_jump_matches_the_step_by_step_walk_from_every_code():
    # From every code (the start, path vertices, codes off the path, junk)
    # and under every step budget, the jumped walk ends where the step by
    # step one does, after as many steps.  Each jump is walked again on a
    # jump-free image: every step is an edge S and P agree on, and V rises
    # on it.  A stall (U1 at a vertex with z > 0) ends some walks.
    walks = jumped = stalls = 0
    for inst in _jump_sources():
        ref = replace(PlcpLineView(inst).image(), jump=None)
        for start in range(ref.size):
            for cap in (None, 0, 1, 2, 5):
                view = PlcpLineView(inst)
                line, jumps = view.image(), []

                def jump(x, c, jump=line.jump):
                    jumps.append((x, *jump(x, c)))
                    return jumps[-1][1:]

                line.jump = jump
                walk = lambda inst, st: follow_line(inst, start, cap, st)
                got = _walk_outcome(walk, line)
                want = _walk_outcome(walk, replace(PlcpLineView(inst).image(), jump=None))
                assert got == want, (inst, start, cap, got, want)
                for x, r, y in jumps:
                    for _ in range(r):
                        nxt = ref.S(x)
                        assert nxt != x and ref.P(nxt) == x and ref.V(nxt) > ref.V(x), (inst, start, x)
                        x = nxt
                    assert x == y, (inst, start, jumps)
                    jumped += r
                c = got[0]
                if getattr(c, "kind", None) == "U1":
                    v = view.vertex_of(c.x)
                    stalls += v is not None and v.pos[view.sys.zvar] < 0
                walks += 1
    assert stalls > 0 and jumped > 0, (walks, jumped, stalls)


def test_lemke_jump_leaves_a_recorded_successor_to_s():
    # A backward step (a P query) records the successor of the code it
    # reaches, and S answers that code from the record; the jump stops
    # there and leaves the step to S.  The walk ends as a fresh one does.
    inst = murty(4)
    view = PlcpLineView(inst)
    line = view.image()
    for u in range(line.size):
        line.P(u)
    recorded = [u for u in range(line.size) if view._arrived_from(u, False) is not None]
    assert len(recorded) > 8, recorded
    for u in recorded:
        assert view.jump(u, line.size) == (0, u), u
    walk = lambda inst, st: follow_line(inst, 0, None, st)
    assert _walk_outcome(walk, line) == _walk_outcome(walk, PlcpLineView(inst).image())


def test_jumped_lemke_walk_keeps_a_few_states():
    # The jump seeds only the vertex it lands on and the edge into it, so a
    # walk of 2^n + 1 steps keeps a handful of states and edges back, and
    # asks S, P and V a few times each, not once per step.
    inst = murty(10)
    view = PlcpLineView(inst)
    line = view.image()
    stats = RunStats()
    c = follow_line(line, 0, stats=stats)
    assert stats.steps == (1 << 10) + 1 and c.kind == "U1"
    assert len(view._states) <= 4 and len(view._arrivals) <= 2, (len(view._states), len(view._arrivals))
    for memo in (line.S, line.P, line.V):
        assert len(memo.__self__) <= 4
    assert view.map_back(c) == lemke(inst)


def test_map_back_rejects_r2():
    view = PlcpLineView(WORKED)
    line = view.image()
    with pytest.raises(UnmappableCert):
        view.map_back(cert("UV1", x=3))
