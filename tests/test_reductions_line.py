import random

import pytest

from potline import problems
from potline.cli import compose
from potline.generators import gen_lcp, gen_line
from potline.problems import Exhausted, UnmappableCert, VariantMismatch, cert, line_from_tables, verify
from potline.reductions_line import (
    EomlToEopl,
    EoplToEoml,
    NormalizeView,
    PebblingView,
    Slots,
    TrivialInstance,
    UeoplToOpdc,
    UfeoplToPlus1,
    View,
)
from potline.solvers import RunStats, brute_force, default_budget, follow_line, lemke

from helpers import FULL_CHAIN, count_calls, gen_normalized_line, pebbling_index, pebbling_move


def test_map_back_raises_on_a_foreign_candidate():
    # No construction names a certificate kind of another problem, so a view
    # that yields one has a bug, which map_back reports instead of skipping
    # the candidate.
    src = gen_line(4, seed=0, flavor="eopl")

    class Foreign(View):
        def candidates(self, c):
            yield cert("U1", x=c.x)
            yield from (cert("R1", x=x) for x in range(src.size))

    with pytest.raises(VariantMismatch, match="U1 does not apply to eopl"):
        Foreign(src).map_back(cert("T1", x=0))


# -- EOML -> EOPL -----------------------------------------------------------------

def eoml_line(length=4, seed=0):
    # metered: V(0^n) = 1 and every edge raises the potential by exactly 1
    rng = random.Random(seed)
    n = max(1, (length - 1).bit_length())
    ids = list(range(1, 1 << n))
    rng.shuffle(ids)
    verts = [0] + ids[: length - 1]
    s, p, v = {}, {}, {}
    for pos, x in enumerate(verts):
        v[x] = pos + 1
        if pos + 1 < length:
            s[x] = verts[pos + 1]
            p[verts[pos + 1]] = x
    return line_from_tables(n, s, p, v, flavor="eoml")


def test_eoml_to_eopl_structure():
    src = eoml_line(3)
    view = EomlToEopl(src)
    line = view.image()
    assert line.S(0) == 1 << src.n  # S'(0^{n+1}) = (1, 0^n)
    junk = 2  # (0, u) with u != 0
    assert line.S(junk) == junk and line.P(junk) == junk
    # (1, u) with V(u) = 0 and u != 0 self-loops
    u0 = next(x for x in range(1, 1 << src.n) if src.V(x) == 0)
    code = (1 << src.n) | u0
    assert line.S(code) == code


def test_eoml_to_eopl_map_back():
    src = eoml_line(5, seed=2)
    view = EomlToEopl(src)
    line = view.image()
    c = follow_line(line, 0)
    assert verify(src, view.map_back(c))
    for cc in brute_force(line):
        assert verify(src, view.map_back(cc))


# -- EOPL -> EOML -----------------------------------------------------------------

def test_eopl_to_eoml_chains():
    # gap-3 edge becomes a chain with V' increasing by exactly 1
    src = gen_line(4, seed=0, flavor="eopl", gaps=[1, 3, 1])
    view = EoplToEoml(src)
    line = view.image()
    x = 0
    seen = [line.V(x)]
    while True:
        nxt = line.S(x)
        if nxt == x:
            break
        seen.append(line.V(nxt))
        x = nxt
    assert seen[0] == 1  # V'(0^k) = 1 in EndOfMeteredLine
    assert all(b - a == 1 for a, b in zip(seen, seen[1:]))


def test_eopl_to_eoml_trivial_guard():
    src = line_from_tables(2, {0: 1}, {1: 0}, {1: 1}, flavor="eopl")
    with pytest.raises(TrivialInstance):
        EoplToEoml(src)


def test_eopl_to_eoml_round_trip():
    for seed in range(8):
        src = gen_line(6, seed=seed, flavor="eopl")
        try:
            v1 = EoplToEoml(src)
            eoml = v1.image()
        except TrivialInstance as t:
            assert verify(src, t.certificate)
            continue
        c = follow_line(eoml, 0)
        assert verify(src, v1.map_back(c))
        v2 = EomlToEopl(eoml)
        eopl2 = v2.image()
        c2 = follow_line(eopl2, 0)
        assert verify(src, v1.map_back(v2.map_back(c2)))


def test_eopl_to_eoml_exhaustive_map_back():
    src = gen_line(5, seed=4, flavor="eopl")
    view = EoplToEoml(src)
    eoml = view.image()
    for cc in brute_force(eoml):
        assert verify(src, view.map_back(cc))


# -- UFEOPL -> UFEOPL+1 -------------------------------------------------------------

def test_plus1_gap_one_passthrough():
    src = gen_line(3, seed=0, flavor="ufeopl", gaps=[1, 1])
    view = UfeoplToPlus1(src)
    line = view.image()
    x = 0
    hops = 0
    while line.S(x) != x:
        nxt = line.S(x)
        assert line.V(nxt) == line.V(x) + 1
        x, hops = nxt, hops + 1
    assert hops == 2


def test_plus1_inserts_chain():
    src = gen_line(2, seed=0, flavor="ufeopl", gaps=[4])
    view = UfeoplToPlus1(src)
    line = view.image()
    hops = 0
    x = 0
    while line.S(x) != x:
        x = line.S(x)
        hops += 1
    assert hops == 4  # three inserted vertices plus the real edge


def test_plus1_map_backs():
    for seed in range(6):
        src = gen_line(5, seed=seed, flavor="ufeopl", two_lines=seed % 2 == 0)
        view = UfeoplToPlus1(src)
        line = view.image()
        certs = brute_force(line)
        assert certs
        for cc in certs:
            assert verify(src, view.map_back(cc))


def test_plus1_asks_its_source_once_per_vertex(monkeypatch):
    # The +1 view reads S(v), V(v) and V(S(v)) of a source vertex v once,
    # as v's state; only V(x) of a +1 code asks V of its vertex again, once
    # per code through the +1 memo.  The d = 5 ueopl walk meets each +1
    # code's successor once, and most source vertices under many codes.
    ufeopl = compose(gen_lcp(5, 0, nondegenerate=True), FULL_CHAIN[:FULL_CHAIN.index("ufeopl") + 1])[0]
    s, v = (count_calls(monkeypatch, ufeopl, name) for name in "SV")  # memo lookups
    # Evaluations of the +1 oracles, which are its memos' misses.
    plus1_s, plus1_v = (count_calls(monkeypatch, UfeoplToPlus1, name) for name in ("successor", "potential"))
    view = UfeoplToPlus1(ufeopl)
    plus1 = view.image()
    stats = RunStats()
    follow_line(PebblingView(plus1).image(), 0, stats=stats)
    vertices = len(view._states)
    assert stats.steps == 2431 and plus1_s[0] > 2 * vertices > 0
    assert s[0] == vertices
    assert v[0] == 2 * vertices + plus1_v[0]


def test_view_codes_count_against_the_budget():
    # A view lists its codes from its source's ids: brute force of its image
    # refuses a source of more than budget ids at once, as it refuses a
    # table of 2^n ids, and refuses a list of more than budget codes.
    src = line_from_tables(18, {0: 1}, v_table={1: 4}, flavor="ufeopl")
    with pytest.raises(Exhausted, match=r"2\^18 ids exceed budget 65536"):
        brute_force(UfeoplToPlus1(src).image())
    chain = line_from_tables(3, {i: i + 1 for i in range(7)}, v_table={i: i for i in range(8)},
                             flavor="ufeoplplus1")
    assert len(PebblingView(chain).enumerate_codes(13)) == 13
    with pytest.raises(Exhausted, match="more than 12 codes"):
        brute_force(PebblingView(chain).image(), budget=12)


# -- slot codec ---------------------------------------------------------------------

def test_slots_round_trip():
    slots = Slots(3, (2, 3))
    assert slots.width == 6 and slots.nbits == 18
    rng = random.Random(0)
    for _ in range(200):
        entries = [None if rng.random() < 0.3 else (rng.randrange(4), rng.randrange(8))
                   for _ in range(3)]
        code = slots.pack(entries)
        assert 0 <= code < 1 << slots.nbits
        assert slots.unpack(code) == entries, entries
    # Each full slot is its presence bit, then the fields, lowest first.
    assert slots.pack([(1, 5), None, (0, 0)]) == 0b1 | 1 << 1 | 5 << 3 | 1 << 12


def test_slots_reject_a_field_wider_than_its_width():
    # A field that does not fit would spill into the next field or slot,
    # and the code would name other entries; no code names such entries.
    slots = Slots(2, (2, 3))
    assert slots.pack([(3, 7), None]) == 0b111111
    for entries in ([(4, 0), None], [None, (0, 8)], [(1, -1), None]):
        assert slots.pack(entries) is None, entries
    assert slots.pack([None, None]) == 0


def test_slots_unpack_rejects_a_set_bit_in_an_empty_slot():
    slots = Slots(2, (1, 1))
    assert slots.unpack(0) == [None, None]
    for code in (0b10, 0b100, 0b100000, 0b010111):
        assert slots.unpack(code) is None, bin(code)
    assert slots.unpack(0b111111) == [(1, 1), (1, 1)]


# -- pebbling -----------------------------------------------------------------------

def test_pebbling_strategy_moves():
    src = gen_line(4, seed=0, flavor="ufeoplplus1", gaps=[1, 1, 1])
    view = PebblingView(src)
    line = view.image()
    assert view.total == 4
    assert [view.move(t) for t in range(4)] == [
        ("place", 1, 1),
        ("place", 2, 2),
        ("remove", 1, 1),
        ("place", 1, 3),
    ]


def test_pebbling_moves_and_index_match_recursive_references():
    rng = random.Random(0)
    for n_peb in range(1, 8):
        view = PebblingView(line_from_tables(1, {}, flavor="ufeoplplus1", m_pot=n_peb))
        config = [None] * n_peb
        states = [list(config)]
        for t in range(view.total):
            assert view.move(t) == pebbling_move(n_peb, t), (n_peb, t)
            op, peb, pos = view.move(t)
            config[peb - 1] = (0, pos) if op == "place" else None
            states.append(list(config))
        for t, state in enumerate(states):
            assert view.index_of(state) == pebbling_index(state) == t, (n_peb, t)
        # Non-states: a strategy state with one pebble dropped or moved to
        # any position up to one past the range, and random placements.
        changes = [None] + [(0, pos) for pos in range((1 << n_peb) + 1)]
        near = [state[:k] + [new] + state[k + 1:]
                for state in (states if n_peb <= 5 else rng.sample(states, 30))
                for k in range(n_peb) for new in changes]
        wild = [[(0, rng.randrange((1 << n_peb) + 2)) if rng.random() < 0.5 else None
                 for _ in range(n_peb)] for _ in range(300)]
        for config in near + wild:
            assert view.index_of(config) == pebbling_index(config), (n_peb, config)
        assert any(pebbling_index(config) is None for config in near)


def test_pebbling_walk_integrity():
    # The second source climbs 0 -> 1 -> ... -> 7 by +1 and steps from 7 to
    # 9, no vertex: its pebbling walk reaches the last strategy state (t =
    # total = 13) and maps back from there.
    climb = line_from_tables(4, {**{j: j + 1 for j in range(7)}, 7: 9}, v_table={j: j for j in range(8)},
                             flavor="ufeoplplus1")
    for src in (gen_line(16, seed=1, flavor="ufeoplplus1", gaps=[1] * 15), climb):
        view = PebblingView(src)
        line = view.image()
        x = 0
        for t in range(view.total):
            nxt = line.S(x)
            if nxt == x:
                break
            assert line.P(nxt) == x and line.S(x) == nxt
            assert line.V(nxt) == line.V(x) + 1
            x = nxt
        c = follow_line(line, 0)
        assert c.kind == "U1"
        mb = view.map_back(c)
        assert verify(src, mb)
        # the unique U1 maps back to the source's single UFP1 end
        ends = [b for b in brute_force(src) if b.kind == "UFP1"]
        assert mb in ends
    assert line.V(c.x) == view.total == 13 and mb == cert("UFP1", x=7)


def test_pebbling_exhaustive_single_line():
    src = gen_line(4, seed=2, flavor="ufeoplplus1", gaps=[1, 1, 1])
    view = PebblingView(src)
    line = view.image()
    certs = brute_force(line)
    assert [c.kind for c in certs].count("U1") == 1
    for cc in certs:
        assert verify(src, view.map_back(cc))


def test_pebbling_two_lines():
    src = gen_line(4, seed=5, flavor="ufeoplplus1", gaps=[1, 1, 1], two_lines=True)
    view = PebblingView(src)
    line = view.image()
    certs = brute_force(line)
    kinds = set(c.kind for c in certs)
    assert "UV3" in kinds or "UV2" in kinds
    for cc in certs:
        assert verify(src, view.map_back(cc))


def test_pebbling_stalled_start_is_an_end():
    # S(0) = 1 has potential 3, not 1: the first strategy move stalls.
    src = line_from_tables(2, {0: 1}, v_table={1: 3}, flavor="ufeoplplus1", m_pot=2)
    view = PebblingView(src)
    line = view.image()
    c = follow_line(line, 0)
    assert c == cert("U1", x=0)
    assert view.map_back(c) == cert("UFP1", x=0)


# -- normalization ---------------------------------------------------------------------

def test_normalize_end_potential():
    src = gen_line(5, seed=7, flavor="ueopl", gaps=[2, 1, 3, 1])
    view = NormalizeView(src)
    norm = view.image()
    c = follow_line(norm, 0)
    assert norm.V(c.x) == (1 << view.low_bits) - 1
    assert verify(src, view.map_back(c))


def test_normalize_gap_one_line_walk():
    src = gen_line(8, seed=1, flavor="ueopl", gaps=[1] * 7)
    view = NormalizeView(src)
    norm = view.image()
    x, steps = 0, 0
    while True:
        nxt = norm.S(x)
        if nxt == x or norm.P(nxt) != x:
            break
        assert norm.V(nxt) == norm.V(x) + 1
        x, steps = nxt, steps + 1
    assert steps == (1 << view.low_bits) - 1


def test_normalize_map_backs():
    for seed in range(4):
        src = gen_line(5, seed=seed, flavor="ueopl", two_lines=seed % 2 == 0)
        view = NormalizeView(src)
        norm = view.image()
        for cc in brute_force(norm, budget=1 << 18, max_certs=3000):
            assert verify(src, view.map_back(cc))


def _check_jump(line, x):
    """jump's contract at x, one step at a time: a jump of r > 0 from x lands
    on x + r, and is a +1 step to x + 1 followed by a jump of r - 1 from
    there; a cap below r cuts it there.  Returns r."""
    cap = 1 << (line.m_pot + 1)  # above any walk's budget
    r, y = line.jump(x, cap)
    assert 0 <= r and y == x + r, (x, r, y)
    if r:
        y = x + 1
        assert line.S(x) == y and line.P(y) == x and line.V(y) == line.V(x) + 1, (x, r)
        assert line.jump(y, cap) == (r - 1, x + r), (x, r)
    for c in {0, 1, r // 2, r - 1}:
        if 0 <= c < r:
            assert line.jump(x, c) == (c, x + c), (x, r, c)
    return r


def _walk_codes(line, start=0):
    """The codes of the step-by-step walk from start, its end last."""
    x, codes = start, [start]
    while True:
        y = line.S(x)
        if y == x or line.P(y) != x:
            return codes
        codes.append(y)
        x = y


def test_normalize_run_contract_on_full_chains():
    rng = random.Random(0)
    for d in (1, 2, 3):
        for seed in range(3):
            line = compose(gen_lcp(d, seed, nondegenerate=True), FULL_CHAIN)[0]
            codes = _walk_codes(line)
            assert line.jump(0, line.size) == (0, 0)
            runs = [_check_jump(line, x) for x in codes]
            # Chain tops: the walk leaves a chain or tail with a step that
            # is not x + 1, and the end steps off the line.
            for x, r in zip(codes, runs):
                if line.S(x) != x + 1:
                    assert r == 0, (d, seed, x)
            assert runs[-1] == 0 and max(runs) > 0
            # Codes off the walk, junk among them: junk self-loops, so no
            # jump leaves it.
            sample = [rng.randrange(line.size) for _ in range(2000)]
            runs = {x: _check_jump(line, x) for x in sample}
            junk = [x for x in sample if line.S(x) == x]
            assert junk and not any(runs[x] for x in junk), (d, seed)


def test_normalize_run_contract_on_gapped_lines():
    # Source edges with gaps above 1 give chains of +1 steps inside the
    # line, not only tails; check every code of the image.
    for seed, two in ((7, False), (1, True), (2, False), (3, True)):
        src = gen_line(5, seed, flavor="ueopl", gaps=[2, 1, 3, 1], two_lines=two)
        line = NormalizeView(src).image()
        runs = [_check_jump(line, x) for x in range(line.size)]
        inner_tops = {x + r for x, r in enumerate(runs) if r and line.S(x + r) != 0}
        assert inner_tops, seed


def test_pebbling_neighbour_states_are_the_decoded_ones(monkeypatch):
    # successor and predecessor hand the neighbour's state to _state; each
    # such state must be the one _state would decode from the code.
    monkeypatch.setattr(problems, "ORACLE_CACHE_SIZE", 1 << 30)
    for d in range(1, 6):
        for seed in range(4):
            lcp = gen_lcp(d, seed, nondegenerate=True)
            plus1, back_plus1 = compose(lcp, FULL_CHAIN[:FULL_CHAIN.index("plus1") + 1])
            view = PebblingView(plus1)
            decoded = set()
            compute = view._compute_state

            def decode(code, compute=compute, decoded=decoded):
                decoded.add(code)
                return compute(code)

            view._compute_state = decode
            back_norm = NormalizeView(view.image())
            norm = back_norm.image()
            c = follow_line(norm, 0)
            assert back_plus1(view.map_back(back_norm.map_back(c))) == lemke(lcp)
            handed = set(view._states) - decoded
            assert handed or d == 1, (d, seed)
            for code, state in view._states.items():
                assert state == compute(code), (d, seed, code)


def test_pebbling_plans_each_move_once(monkeypatch):
    # Each step records the edge back, so P(S(x)) plans no move again and
    # packs no config: the d = 5 ueopl walk plans each of its moves once.
    ueopl = compose(gen_lcp(5, 0, nondegenerate=True), FULL_CHAIN[:-1])[0]
    moves = count_calls(monkeypatch, PebblingView, "move")
    packs = count_calls(monkeypatch, Slots, "pack")
    stats = RunStats()
    follow_line(ueopl, 0, stats=stats)
    assert (stats.steps, moves[0], packs[0]) == (2431, 2431, 2448)


def test_pebbling_reads_a_backward_step_back(monkeypatch):
    # A step back from x to P(x) records S(P(x)) = x, so S of each code
    # reached from the end of the line by P plans and applies no move.
    moves = count_calls(monkeypatch, PebblingView, "move")
    applies = count_calls(monkeypatch, PebblingView, "_apply")
    for d, seed, length in ((2, 2, 10), (3, 0, 82)):
        plus1 = compose(gen_lcp(d, seed, nondegenerate=True), FULL_CHAIN[:FULL_CHAIN.index("plus1") + 1])[0]
        end = follow_line(PebblingView(plus1).image(), 0).x
        line = PebblingView(plus1).image()
        path = [end]
        while line.P(path[-1]) != path[-1]:
            path.append(line.P(path[-1]))
        assert len(path) == length and path[-1] == 0, (d, path)
        moves[0] = applies[0] = 0
        assert [line.S(x) for x in path[1:]] == path[:-1], d
        assert moves[0] == applies[0] == 0, d


def test_pebbling_keeps_no_state_for_a_label_wider_than_its_field():
    # S(1) = 5 does not fit in n = 2 bits, so the code of the config that
    # pebbles it decodes as another config: its state is decoded, not handed.
    src = line_from_tables(2, {0: 1, 1: 5, 5: 6}, v_table={1: 1, 5: 2, 6: 3},
                           flavor="ufeoplplus1", m_pot=2)
    view = PebblingView(src)
    line = view.image()
    assert follow_line(line, 0) == cert("U1", x=11)
    for code, state in view._states.items():
        assert state == view._compute_state(code), code


# -- UEOPL -> OPDC -----------------------------------------------------------------------

def test_ueopl_to_opdc_single_lines():
    for exp in (1, 2, 3):
        src = gen_normalized_line(exp, seed=exp)
        view = UeoplToOpdc(src)
        opdc = view.image()
        certs = brute_force(opdc, budget=1 << 18)
        o1s = [c for c in certs if c.kind == "O1"]
        assert len(o1s) == 1
        assert not any(c.kind == "OV3" for c in certs)
        mb = view.map_back(o1s[0])
        assert mb.kind == "U1" and verify(src, mb)
        assert src.V(mb.x) == (1 << exp) - 1


def test_ueopl_to_opdc_two_lines():
    for seed in range(4):
        src = gen_normalized_line(2, seed=seed, two_lines=True)
        view = UeoplToOpdc(src)
        opdc = view.image()
        certs = brute_force(opdc, budget=1 << 20, max_certs=4000)
        assert not any(c.kind == "OV3" for c in certs)
        for c in certs:
            if c.kind in ("OV1", "OV2"):
                mb = view.map_back(c)
                assert mb.kind == "UV3" and verify(src, mb)
            else:
                assert verify(src, view.map_back(c))


def test_ueopl_to_opdc_subline_decode():
    src = gen_normalized_line(2, seed=9)
    view = UeoplToOpdc(src)
    opdc = view.image()
    # decode of the unique O1 equals the end of the line
    o1 = [c for c in brute_force(opdc, budget=1 << 18) if c.kind == "O1"][0]
    _, dec = view.decode(o1.p)
    assert src.V(dec) == 3


def _pebbling_sources():
    """The UFEOPL+1 sources of the pebbling views that the tests build: the
    full chains at d = 1..3 and the `gen_line` lines."""
    for d in (1, 2, 3):
        for seed in range(3):
            lcp = gen_lcp(d, seed, nondegenerate=True)
            yield f"chain d={d} seed={seed}", compose(lcp, FULL_CHAIN[:FULL_CHAIN.index("plus1") + 1])[0]
    for seed in range(100):
        yield f"gen_line(4, {seed})", gen_line(4, seed=seed, flavor="ufeoplplus1", gaps=[1, 1, 1],
                                               two_lines=seed % 2 == 1)
    for length, seed in ((4, 2), (8, 3), (16, 1), (1 << 10, 1)):
        yield f"gen_line({length}, {seed})", gen_line(length, seed=seed, flavor="ufeoplplus1",
                                                      gaps=[1] * (length - 1))


def test_pebbling_enumerate_codes_yields_each_code_once():
    # `index_of` reads positions alone, so each strategy state has its own
    # positions, and labels under them pack to distinct codes: no code can
    # repeat, and `enumerate_codes` keeps no set of those it has yielded.
    for label, src in _pebbling_sources():
        codes = PebblingView(src).enumerate_codes(default_budget())
        assert codes and len(set(codes)) == len(codes), label
