"""The oracle memo at the instance boundary: checks still raise on every
call, a bounded cache gives the same answers as an unbounded one, a
composed chain evaluates each stage's oracle once per distinct argument,
the walk asks each memo a bounded number of times per step, and a dropped
instance frees its memos."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from potline import problems
from potline.generators import gen_contraction, gen_lcp, gen_line, gen_uso
from potline.problems import (
    DOWN,
    UP,
    ZERO,
    LineInstance,
    OffGrid,
    OpdcInstance,
    UsoInstance,
    VariantMismatch,
    line_from_tables,
    uso_to_json,
    verify,
)
from potline.cli import REDUCTIONS
from potline.reductions_lcp import PlcpLineView
from potline.reductions_line import NormalizeView, PebblingView, UeoplToOpdc
from potline.reductions_opdc import ContractionToOpdc, OpdcLineView, UsoToOpdc
from potline.solvers import RunStats, brute_force, follow_line, lemke

from helpers import FULL_CHAIN, gen_normalized_line, murty


def test_missing_predecessor_raises_on_every_call():
    inst = line_from_tables(2, {0: 1}, v_table={1: 1}, flavor="ufeopl")
    for _ in range(3):
        with pytest.raises(VariantMismatch):
            inst.P(0)


def test_missing_potential_raises_on_every_call():
    inst = LineInstance(n=2, successor=lambda x: x, predecessor=lambda x: x, flavor="endofline")
    for _ in range(3):
        with pytest.raises(VariantMismatch):
            inst.V(1)


def test_off_grid_raises_on_every_call():
    inst = OpdcInstance(widths=(1, 1), direction=lambda p: (problems.ZERO,) * 2)
    assert inst.D(0, (1, 1)) == problems.ZERO
    for _ in range(3):
        with pytest.raises(OffGrid):
            inst.D(0, (2, 0))


# -- the chain plcp -> uso -> opdc -> ufeopl -> plus1 -> ueopl -> normalized ----

def _chain(lcp, wrap=lambda stage, inst: inst):
    """The full chain through `REDUCTIONS`, and each stage's (source,
    map-back) from the last stage to the first; `wrap(stage, inst)` may
    rebuild each instance between the first and the last."""
    inst, backs = lcp, []
    for step in zip(FULL_CHAIN, FULL_CHAIN[1:]):
        view = REDUCTIONS[step](inst)
        backs.insert(0, (inst, view.map_back))
        inst = view.image()
        if step[1] != FULL_CHAIN[-1]:
            inst = wrap(step[1], inst)
    return inst, backs


def _solve_chain(norm, backs, stats=None):
    c = follow_line(norm, 0, stats=stats)
    for inst, back in backs:
        c = back(c)
        assert verify(inst, c)
    return c


def _counting(fn, calls: Counter):
    def counted(*args):
        calls[args] += 1
        return fn(*args)

    return counted


def test_chain_evaluates_each_oracle_once_per_argument():
    for seed in range(4):
        lcp = gen_lcp(2, seed, nondegenerate=True)
        calls: dict[tuple, Counter] = {}

        def wrap(stage, inst):
            def count(field, fn):
                return _counting(fn, calls.setdefault((stage, field), Counter()))

            if isinstance(inst, UsoInstance):
                return UsoInstance(n=inst.n, orient=count("orient", inst.orient))
            if isinstance(inst, OpdcInstance):
                return replace(inst, direction=count("direction", inst.direction))
            fields = ("successor", "predecessor", "potential")
            return replace(inst, **{f: count(f, getattr(inst, f))
                                    for f in fields if getattr(inst, f) is not None})

        norm, backs = _chain(lcp, wrap)
        assert _solve_chain(norm, backs) == lemke(lcp)
        assert len(calls) == 9  # orient, direction, and the line oracles of four stages
        for key, counter in calls.items():
            assert counter and max(counter.values()) == 1, (seed, key, counter.most_common(1))


def test_uso_keeps_its_oracle_and_memoizes_it_once_per_vertex():
    # `orient` stays the function given; the verifier, brute force, the
    # JSON writer and the grid view read the memo `O`, which asks it once
    # per vertex.
    calls = Counter()
    orient = _counting(lambda v: None if v == 2 else 0b11 ^ v, calls)
    inst = UsoInstance(n=2, orient=orient)
    assert inst.orient is orient and not calls
    for _ in range(2):
        brute_force(inst)
        uso_to_json(inst)
        brute_force(UsoToOpdc(inst).image())
    assert calls == {(v,): 1 for v in range(4)}


def test_grid_evaluates_each_point_once():
    # direction(p) gives all d directions of p, and the grid memoizes it
    # per point, so brute force asks each image at most once per point.
    for seed in range(3):
        views = (UsoToOpdc(gen_uso(3, seed)),
                 ContractionToOpdc(gen_contraction(2, seed, kappa=(2, 2))),
                 UeoplToOpdc(gen_normalized_line(2, seed)))
        for view in views:
            grid, calls = view.image(), Counter()
            brute_force(replace(grid, direction=_counting(grid.direction, calls)))
            points = len(list(grid.points()))
            assert 0 < sum(calls.values()) <= points, (seed, type(view).__name__, calls, points)


# (d, seed) of gen_lcp -> memo misses of S, P and V at the ufeopl, plus1,
# ueopl and normalized stages after the step-by-step walk (the normalized
# image without its `run` oracle) and the map-back, recorded before the
# pebbling and normalization views kept per-code state.  A view may ask the
# stage below fewer times, but for the same set of arguments.
PINNED_MISSES = {
    (1, 0): (3, 0, 3, 2, 0, 1, 1, 1, 1, 128, 128, 128),
    (1, 1): (3, 0, 3, 2, 0, 1, 1, 1, 1, 128, 128, 128),
    (1, 2): (3, 0, 3, 2, 0, 1, 1, 1, 1, 128, 128, 128),
    (2, 0): (4, 0, 4, 3, 0, 2, 2, 1, 2, 1024, 1024, 1024),
    (2, 1): (4, 0, 4, 3, 0, 2, 2, 1, 2, 1024, 1024, 1024),
    (2, 2): (5, 0, 5, 6, 0, 5, 10, 9, 10, 1024, 1024, 1024),
    (3, 0): (8, 0, 8, 18, 0, 17, 82, 81, 82, 4096, 4096, 4096),
    (3, 1): (11, 0, 11, 18, 0, 17, 82, 81, 82, 4096, 4096, 4096),
    (3, 2): (5, 0, 5, 9, 0, 8, 14, 13, 14, 4096, 4096, 4096),
    (4, 0): (25, 0, 25, 54, 0, 53, 334, 333, 334, 32768, 32768, 32768),
}

# The same walks with the jump: the stages below the normalized one are
# asked as before, and the normalized S, P and V are each missed once per
# code the walk steps from.  Every source edge of these chains has gap 1,
# so that is each source vertex's code (v, 0) but the end's, whose tail is
# one jump, and the tail's top; the ueopl stage's S misses, and 2 at d = 1,
# where the start 0 is the end.
PINNED_JUMP_MISSES = {
    (1, 0): 2, (1, 1): 2, (1, 2): 2,
    (2, 0): 2, (2, 1): 2, (2, 2): 10,
    (3, 0): 82, (3, 1): 82, (3, 2): 14,
    (4, 0): 334,
}


def _stage_misses(d, seed, jump):
    stages = {}

    def keep(stage, inst):
        stages[stage] = inst
        return inst

    norm, backs = _chain(gen_lcp(d, seed, nondegenerate=True), keep)
    if not jump:
        norm = replace(norm, run=None)
    stages["normalized"] = norm
    _solve_chain(norm, backs)
    return tuple(getattr(stages[stage], name).cache_info().misses
                 for stage in ("ufeopl", "plus1", "ueopl", "normalized") for name in "SPV")


def test_stage_memo_misses_pinned():
    for (d, seed), want in PINNED_MISSES.items():
        got = _stage_misses(d, seed, jump=False)
        assert got == want, (d, seed, got)


def test_stage_memo_misses_pinned_with_the_jump():
    for (d, seed), want in PINNED_MISSES.items():
        got = _stage_misses(d, seed, jump=True)
        assert got == want[:9] + (PINNED_JUMP_MISSES[d, seed],) * 3, (d, seed, got)


def _walk_record(lcp):
    norm, backs = _chain(lcp)
    stats = RunStats()
    c = _solve_chain(norm, backs, stats)
    return c, stats


class _SizeLog(dict):
    """A dict that logs its size after every insert."""

    def __init__(self, sizes: list):
        super().__init__()
        self.sizes = sizes

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.sizes.append(len(self))


def test_walk_longer_than_cap_matches_unbounded(monkeypatch):
    cap = 16
    lcps = [gen_lcp(2, s, nondegenerate=True) for s in (0, 1)] + [gen_lcp(3, 0, nondegenerate=True)]
    monkeypatch.setattr(problems, "ORACLE_CACHE_SIZE", 1 << 30)
    unbounded = [_walk_record(lcp) for lcp in lcps]
    monkeypatch.setattr(problems, "ORACLE_CACHE_SIZE", cap)
    sizes = {"ueopl": [], "normalized": []}
    for lcp, want in zip(lcps, unbounded):
        stages = {}

        def keep(stage, inst):
            stages[stage] = inst
            return inst

        norm, backs = _chain(lcp, keep)
        stages["normalized"] = norm
        # The pebbling and normalization views keep per-key state in dicts;
        # each view's sizes are logged on their own.
        views = [stages[stage].successor.__self__ for stage in sizes]
        for view, logged in zip(views, sizes.values()):
            view._states = _SizeLog(logged)
        stats = RunStats()
        got = _solve_chain(norm, backs, stats)
        assert stats.steps > 10 * cap
        assert (got, stats) == want
        # A walk seeds most states; keys it never reached are worked out
        # by `state` itself, and those inserts are bounded too.
        for view in views:
            for key in range(4 * cap):
                view.state(key)
        for memo in (norm.S, norm.P, norm.V):
            info = memo.cache_info()
            assert info.maxsize == cap and info.currsize <= cap
    for name, logged in sizes.items():
        assert max(logged) <= cap < len(logged), (name, max(logged), len(logged))


def test_opdc_line_walk_longer_than_cap_matches_unbounded(monkeypatch):
    # The surface-tuple view keeps each code's checked tuple (or None) as
    # its state; evicting states must not change a walk or a map-back.
    cap = 8
    grids = [ContractionToOpdc(gen_contraction(2, s, kappa=(k, k))).image()
             for k, s in ((4, 0), (4, 1), (3, 1), (3, 2))]

    def solve(grid, sizes=None):
        view = OpdcLineView(grid)
        if sizes is not None:
            view._states = _SizeLog(sizes)
        stats = RunStats()
        c = follow_line(view.image(), 0, stats=stats)
        return c, stats, view.map_back(c)

    monkeypatch.setattr(problems, "ORACLE_CACHE_SIZE", 1 << 30)
    unbounded = [solve(grid) for grid in grids]
    assert {back.kind for _, _, back in unbounded} == {"O1", "OV2"}
    monkeypatch.setattr(problems, "ORACLE_CACHE_SIZE", cap)
    sizes = []
    for grid, want in zip(grids, unbounded):
        assert solve(grid, sizes) == want
    assert max(sizes) <= cap < len(sizes) and max(s.steps for _, s, _ in unbounded) > 10 * cap


def test_vertex_cache_stays_within_cap(monkeypatch):
    cap = 8
    inst = murty(5)
    want_stats = RunStats()
    want = follow_line(PlcpLineView(inst).image(), 0, stats=want_stats)
    monkeypatch.setattr(problems, "ORACLE_CACHE_SIZE", cap)
    view = PlcpLineView(inst)
    line = view.image()
    # Every insert is logged: the vertices worked out and the ones seeded
    # by a step, and the edges back that the steps record.
    sizes, back_sizes = [], []
    view._states = _SizeLog(sizes)
    view._arrivals = _SizeLog(back_sizes)
    stats = RunStats()
    assert follow_line(line, 0, stats=stats) == want
    assert stats == want_stats and stats.steps > 2 * cap
    # The walk seeds almost every vertex; the codes below are worked out.
    for u in range(4 * cap):
        view.vertex_of(u)
    assert max(sizes) <= cap < len(sizes)
    assert max(back_sizes) <= cap < len(back_sizes)


def _lookups(line):
    infos = {name: getattr(line, name).cache_info() for name in "SPV"}
    return {name: info.hits + info.misses for name, info in infos.items()}


def test_walk_queries_each_memo_a_bounded_number_of_times_per_step():
    # One S and one P lookup per step, V(x) and V(S(x)) for the violation
    # check; a walk that asks for S(x) again shows up here.  The normalized
    # line is walked step by step, without its `run` oracle.
    norm = _chain(gen_lcp(2, 0, nondegenerate=True))[0]
    lines = [replace(norm, run=None), PlcpLineView(murty(5)).image()]
    for line in lines:
        stats = RunStats()
        follow_line(line, 0, stats=stats)
        lookups = _lookups(line)
        assert stats.steps > 10 and lookups["S"] >= stats.steps, (stats, lookups)
        assert lookups["S"] <= stats.steps and lookups["P"] <= stats.steps, (stats, lookups)
        assert lookups["V"] <= 2 * stats.steps, (stats, lookups)


def test_walk_with_the_jump_queries_only_the_steps_it_takes():
    # A jump asks no memo: S is looked up once per step that is not jumped.
    for d, seed in ((1, 0), (2, 0), (2, 2), (3, 1)):
        norm = _chain(gen_lcp(d, seed, nondegenerate=True))[0]
        jumped = []

        def run(x, run=norm.run):
            jumped.append(run(x))
            return jumped[-1]

        line = replace(norm, run=run)
        stats = RunStats()
        follow_line(line, 0, stats=stats)
        taken = stats.steps - sum(jumped)
        lookups = _lookups(line)
        assert sum(jumped) > 0 and lookups["S"] == taken, (d, seed, stats, sum(jumped), lookups)
        assert lookups["P"] <= taken and lookups["V"] <= 2 * taken, (d, seed, stats, lookups)


def test_dropped_instance_frees_its_memos():
    # Memos hold the oracles, and the stand-in for a missing P or V holds
    # only the flavor string, so no reference cycle outlives `del`.
    insts = [
        line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 1, 2: 2}),
        line_from_tables(2, {0: 1}, v_table={1: 1}, flavor="ufeopl"),
        LineInstance(n=2, successor=lambda x: x, predecessor=lambda x: x, flavor="endofline"),
    ]
    gc.disable()
    try:
        refs = []
        for inst in insts:
            for name in "SPV":
                try:
                    getattr(inst, name)(0)
                except VariantMismatch:
                    pass
            refs.append(weakref.ref(inst))
        del inst, insts
        assert [ref() for ref in refs] == [None, None, None]
        # The pebbling and normalization views keep per-code state in
        # dicts; a walked chain of them is freed by reference counts alone.
        src = gen_line(1 << 4, seed=1, flavor="ufeoplplus1", gaps=[1] * 15)
        peb = PebblingView(src)
        ueopl = peb.image()
        norm = NormalizeView(ueopl)
        line = norm.image()
        assert follow_line(line, 0).kind == "U1"
        assert peb._states and norm._states
        refs = [weakref.ref(obj) for obj in (peb, ueopl, norm, line)]
        del peb, ueopl, norm, line
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_dropped_contraction_and_grid_view_free_their_memos():
    # A circuit contraction's evaluator and the UniqueEOPL -> OPDC view's
    # decoded points hold no reference back to their owner, so both are
    # freed by reference counts alone.
    gc.disable()
    try:
        inst = gen_contraction(2, 0)
        assert inst.f(inst.fixpoint) == inst.fixpoint
        view = UeoplToOpdc(gen_normalized_line(3, 0))
        grid = view.image()
        assert grid.D(0, (0,) * grid.d) in (UP, DOWN, ZERO)
        refs = [weakref.ref(obj) for obj in (inst, view)]
        del inst, view, grid
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_chain_d1_round_trip():
    # The first pebbling move on d = 1 stalls at the start config; the
    # pebbling view makes that start a U1, which maps back to the source.
    for seed in range(20):
        lcp = gen_lcp(1, seed, nondegenerate=True)
        norm, backs = _chain(lcp)
        assert _solve_chain(norm, backs) == lemke(lcp), seed
