"""Lemke pivoting pinned to recorded paths, Murty's exponential family, the
Todd orientation sign, cone solves read from the tableau, and Lemke at
sizes brute force cannot reach."""

import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import lcm

from hypothesis import given, settings, strategies as st

from potline.generators import gen_lcp
from potline import pivoting
from potline.pivoting import LemkeSystem, principal_minor
from potline.problems import LcpInstance, verify
from potline.rational import determinant
from potline.reductions_lcp import PlcpLineView, out_map
from potline.solvers import RunStats, follow_line, lemke

from helpers import a_alpha, count_calls, lemke_rows, lemke_zs, murty, v_digits, wild_lcps


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def _is_p_matrix(m) -> bool:
    d = len(m)
    return all(principal_minor(m, a) > 0 for r in range(1, d + 1) for a in combinations(range(d), r))


def _wild_non_p():
    """The non-P sources of test_wild_sources.test_wild_lcp_matrices."""
    return {trial: inst for trial, inst in wild_lcps() if not _is_p_matrix(inst.M)}


def _lemke_record(inst):
    st_ = RunStats()
    c, zs = lemke_zs(inst, st_)
    return c.kind, _digest(c), st_.pivots, _digest(zs)


def _line_record(inst):
    view = PlcpLineView(inst)
    line = view.image()
    return _digest([(line.S(u), line.P(u), v_digits(view, line.V(u))) for u in range(1 << line.n)])


def _line_sources():
    srcs = {f"p{d}/{s}": gen_lcp(d, s) for d in (1, 2, 3) for s in range(4)}
    srcs.update({f"np{d}/{s}": gen_lcp(d, s, p_matrix=False) for d in (2, 3) for s in range(3)})
    srcs.update({f"wild{t}": inst for t, inst in _wild_non_p().items()})
    return srcs


# The pinned values were recorded with the earlier kernel, which solved every
# basis afresh with Bareiss elimination; the tableau must reproduce them.

# (kind, digest of the certificate, pivots, digest of the z values) per source.
PINNED_LEMKE = {
    (4, 0): ('Q1', '1f0f83ab408367fe', 3, '0ac88a7fb3d1561d'),
    (4, 1): ('Q1', 'd6a7e6fa621f6af8', 1, '1da96a7e62142b4c'),
    (4, 2): ('Q1', '1ce3e3229413bd3c', 1, '49a2218d7c309481'),
    (4, 3): ('Q1', '93bf07af716a8cfa', 2, 'f57740b88e2916a8'),
    (4, 4): ('Q1', '2fdcf2872f24693e', 3, 'f52cc0979b2a32bf'),
    (4, 5): ('Q1', 'ce38a8ab3aabed7f', 2, 'be3c8165a059e65d'),
    (4, 6): ('Q1', '7e5a2306bcbcd9ca', 1, 'f3d5dde37f27f0bb'),
    (4, 7): ('Q1', '5b8883fe8fe9647c', 2, 'a41bb41f0290bbfe'),
    (8, 0): ('Q1', '53ca87a66b52249d', 6, '587d193debed9d8c'),
    (8, 1): ('Q1', '41cc5e8e24898afe', 4, '3b90a9fdf5d7cf6a'),
    (8, 2): ('Q1', '737c246d95bb74c6', 1, '4eca96b84a3966bc'),
    (8, 3): ('Q1', '8db7c1ef353ad383', 4, '0ea44ef814c77fe0'),
    (8, 4): ('Q1', 'afc3eda1fd829081', 5, 'fc510473f7c4f31b'),
    (8, 5): ('Q1', '77c5262d64d06d4a', 2, '762805f293eedf19'),
    (8, 6): ('Q1', '0b8f775549fb3198', 2, 'f14cdcc1b7f33075'),
    (8, 7): ('Q1', 'd88271b0845dfb88', 3, '0a3229f7283bce29'),
    (16, 0): ('Q1', 'd479556a97d4b57a', 4, 'ca07d608b72d9bca'),
    (16, 1): ('Q1', '7eba03dfc7bb3eb9', 8, 'fbd6cf39167e9423'),
    (16, 2): ('Q1', '81fb5bbac2adb17b', 8, 'b3182294171aec04'),
    (16, 3): ('Q1', 'ccdaac8af71a3f0f', 9, '4884da590a1f10ac'),
    (16, 4): ('Q1', '376d6393ea830df9', 10, '2ba1366bf48b8c85'),
    (16, 5): ('Q1', 'addb856f392ae67c', 2, '8de9482a9f4e1a0f'),
    (16, 6): ('Q1', 'af9cbf2b742d66c2', 7, 'aedf15d682c8a2bc'),
    (16, 7): ('Q1', '5f4fefa04af066a6', 8, 'f4c1c354ded48e1f'),
    'wild0': ('Q1', '70cf6f9947e447ed', 1, '78eed426fd19a2d4'),
    'wild1': ('PV1', 'c76c625f3f3f8a0b', 2, '8451e68c8136d4cd'),
    'wild2': ('PV1', '2af3b82012264958', 3, 'c319e9c4574cd8a9'),
    'wild3': ('PV1', '2af3b82012264958', 1, '8338ea6ebb95cb00'),
    'wild4': ('Q1', '82aca5b03a704ffe', 1, '78eed426fd19a2d4'),
    'wild5': ('Q1', 'acf6cae446c9335d', 1, '4eca96b84a3966bc'),
    'wild6': ('PV1', '2af3b82012264958', 1, '023798d4e3102ad8'),
    'wild7': ('PV1', '2af3b82012264958', 1, '1012872710400cbe'),
    'wild8': ('PV1', '2af3b82012264958', 1, '023798d4e3102ad8'),
    'wild9': ('PV1', '68508b86e8c1672f', 1, '0d7eff2770509f8b'),
    'wild10': ('Q1', '1cdc36be213f0604', 1, '4eca96b84a3966bc'),
    'wild11': ('PV1', '65207571a40b8d8b', 2, 'df4c48371ce86ba9'),
    'wild13': ('PV1', '3587576f77461f6e', 3, '29c769f305be91e5'),
    'wild15': ('PV1', '68508b86e8c1672f', 1, '0d7eff2770509f8b'),
    'wild17': ('PV1', '2af3b82012264958', 3, '72899223f0c26238'),
    'wild18': ('Q1', 'f099991f381eb316', 2, '5a49d917b0ce6a7a'),
    'wild19': ('PV1', '2af3b82012264958', 1, 'ec6c21e4c6d6afc4'),
    'wild20': ('Q1', 'b16c895baca9d050', 1, '1da96a7e62142b4c'),
    'wild21': ('Q1', '0f6dbf483bcf1c03', 1, 'cc13e43bf52df06f'),
    'wild22': ('Q1', '82aca5b03a704ffe', 1, '822b8c73884a02b3'),
    'wild23': ('PV1', '2af3b82012264958', 1, 'ec6c21e4c6d6afc4'),
    'wild28': ('PV1', '3587576f77461f6e', 1, '8338ea6ebb95cb00'),
    'wild29': ('PV1', '65207571a40b8d8b', 2, '06571d8ccd5f9c1e'),
    'wild31': ('PV1', '68508b86e8c1672f', 1, '1a1ea98fc91cb148'),
    'wild32': ('PV1', '2af3b82012264958', 1, '3cadc021ff4f3f79'),
    'wild33': ('Q1', '4346e29a5c64c18c', 1, 'cc13e43bf52df06f'),
    'wild34': ('Q1', 'c09f79d39fd59819', 1, '822b8c73884a02b3'),
    'wild35': ('Q1', 'aaaa36b8b5c13ded', 1, '60415184e4b7b30d'),
    'wild36': ('PV1', '4a5ce8b70971febb', 2, 'f9cd3f0df81c9a87'),
    'wild39': ('PV1', '3587576f77461f6e', 1, '93929110c6a5843d'),
    'wild40': ('PV1', '2af3b82012264958', 1, '3069cd2865884db4'),
    'wild41': ('PV1', 'ec61eb19b80dcff6', 3, '1fbc3f448bdadd3c'),
    'wild42': ('PV1', '4a5ce8b70971febb', 2, 'ef4709f8f27e200f'),
    'wild43': ('PV1', '3587576f77461f6e', 1, '0d7eff2770509f8b'),
    'wild44': ('PV1', '3587576f77461f6e', 1, 'b1b4d35894d83a65'),
    'wild45': ('PV1', '68508b86e8c1672f', 1, '0d7eff2770509f8b'),
    'wild46': ('PV1', '3587576f77461f6e', 1, '81c1567519b507b5'),
    'wild47': ('Q1', '20df2fa6f7fca122', 1, '4eca96b84a3966bc'),
    'wild49': ('PV1', '2af3b82012264958', 1, '1012872710400cbe'),
    'wild50': ('Q1', '9cf8f54f6d243d35', 2, 'c614a3869298886e'),
    'wild53': ('Q1', 'bec19b1ccdf9d242', 2, 'ad6e858852a47e19'),
    'wild57': ('PV1', 'c76c625f3f3f8a0b', 2, '5cab7f066376c62a'),
    'wild58': ('PV1', '4a5ce8b70971febb', 2, '74ea1b40f402c2c9'),
    'wild59': ('PV1', '2af3b82012264958', 1, '8338ea6ebb95cb00'),
}

# Digest of [(S(u), P(u), digits of V(u)) for every code u] of the PlcpLineView
# image per source (`helpers.v_digits`).
PINNED_LINES = {
    'p1/0': '751fd149b7719cf6',
    'p1/1': '556d4d22f99be6b1',
    'p1/2': 'c4483ceb85b4ea82',
    'p1/3': '74eb9f3e4aea4e56',
    'p2/0': '33bff5912291c02f',
    'p2/1': '59d41a9b579ec780',
    'p2/2': '47b5e6b2f5692906',
    'p2/3': '677d28b8627c636d',
    'p3/0': 'de449937c45185d0',
    'p3/1': '1a5e729d3e84b590',
    'p3/2': '0e09313deef58dd7',
    'p3/3': '7c7294ec4970b3c5',
    'np2/0': '2c5826b5b83f72f3',
    'np2/1': 'f5e62d0fd919b2b7',
    'np2/2': '0d3252e573955e89',
    'np3/0': '2f6fb52308c2f7d8',
    'np3/1': 'ac319483e27c4345',
    'np3/2': 'ceb4921ea43e48a5',
    'wild0': '72615c46f8a5c519',
    'wild1': 'd430fa827c2167cd',
    'wild2': 'fd405b1bb99c308e',
    'wild3': '1c7503384e09221c',
    'wild4': 'fe618237b1e3f2ff',
    'wild5': '2c746fc1b1834ba3',
    'wild6': 'bd4e6206f95f8b89',
    'wild7': 'cf9b8305a22cedc6',
    'wild8': '7734826175e42b61',
    'wild9': '50f65c175aeb2c69',
    'wild10': '6e877a863576ac01',
    'wild11': 'c33ffefb8a729ea3',
    'wild13': 'bf5309e05362da7a',
    'wild15': '394c8056b3ae761e',
    'wild17': '6dcbd4e588e7e96c',
    'wild18': 'f340800cd2f1c2d8',
    'wild19': 'bb4888ce1e819493',
    'wild20': '391f277daf17e1f7',
    'wild21': 'a1adc12ff6dcdb6a',
    'wild22': '0d5e891f6c619cb2',
    'wild23': '1c376d0f4e7b3416',
    'wild28': '5f022504e3eef9b2',
    'wild29': 'aec44ac699669905',
    'wild31': '1f962b182ab63165',
    'wild32': 'c5eabd84df0367c8',
    'wild33': '3fbe0129c8add24b',
    'wild34': '4bf865e983b25faf',
    'wild35': 'a1969c60d40fb9f9',
    'wild36': 'ab26a4ea99ba151d',
    'wild39': 'e98834ec28e99a48',
    'wild40': 'a1b1176e3f18225b',
    'wild41': 'a8178ff10691b7ca',
    'wild42': '2cd1e61712f23f98',
    'wild43': '8842ec544ec05e20',
    'wild44': 'c861618a1fa3bc6c',
    'wild45': '8cd929c2505421ae',
    'wild46': '3ee47a5469350c97',
    'wild47': '6bdeb51316d1dfff',
    'wild49': 'd07ee60d15b3a6ae',
    'wild50': 'ae183a2e18dbf174',
    'wild53': '464723586a8aaaf5',
    'wild57': '81251687a340b0d9',
    'wild58': '2225d3c6fa6f648d',
    'wild59': '1808ae5ba346dd43',
}


def test_lemke_pinned_gen_lcp():
    got = {(d, s): _lemke_record(gen_lcp(d, s)) for d in (4, 8, 16) for s in range(8)}
    assert got == {k: v for k, v in PINNED_LEMKE.items() if isinstance(k, tuple)}


def test_lemke_pinned_wild_non_p():
    got = {f"wild{t}": _lemke_record(inst) for t, inst in _wild_non_p().items()}
    assert got == {k: v for k, v in PINNED_LEMKE.items() if isinstance(k, str)}
    # Q1 and PV1 ends, most PV1 paths on a ray.  No source here reaches
    # PV2 (test_solvers.test_lemke_ray_pv2 covers it).
    assert {kind for kind, *_ in got.values()} == {"Q1", "PV1"}


def test_line_view_pinned_oracles():
    assert {k: _line_record(inst) for k, inst in _line_sources().items()} == PINNED_LINES


# -- Murty's family (Murty 1978) -----------------------------------------------

def test_murty_lemke_pivots():
    for n in range(2, 15):
        inst, st_ = murty(n), RunStats()
        c = lemke(inst, stats=st_)
        assert c.kind == "Q1" and verify(inst, c)
        assert st_.pivots == (1 << n) - 1, n


def test_murty_line_steps():
    for n in range(2, 11):
        line = PlcpLineView(murty(n)).image()
        st_ = RunStats()
        follow_line(line, 0, stats=st_)
        assert st_.steps == (1 << n) + 1, n


def test_line_view_pivots_once_per_edge(monkeypatch):
    # The start vertex is one pivot from the slack tableau, as in lemke, and
    # every later step one more: the view neither pivots an edge again when
    # the walk asks for P(S(x)) nor rebuilds a vertex it has met.
    insts = [murty(n) for n in range(2, 9)] + [gen_lcp(d, s) for d in range(2, 9) for s in range(20)]
    pivots = count_calls(monkeypatch, LemkeSystem, "_pivot")
    lemke_pivots = []
    for inst in insts:
        want = RunStats()
        pivots[0] = 0
        c = lemke(inst, stats=want)
        lemke_pivots.append(pivots[0])
        view = PlcpLineView(inst)
        line = view.image()
        pivots[0], got = 0, RunStats()
        assert view.map_back(follow_line(line, 0, stats=got)) == c
        assert (pivots[0], got.steps) == (want.pivots + 1, want.pivots + 2), inst
    # lemke's own tableau pivots, recorded with the 2d + 2 column tableau.
    assert (sum(lemke_pivots), _digest(lemke_pivots)) == (989, "c93e35cb0c355fd6")


# -- lemke against the row-form reference (`helpers.lemke_rows`) ----------------

def _wild_integer(seed):
    """A seeded LCP with integer entries in -2..3: zero entries and ties in
    q, so degenerate dictionaries, are common."""
    rng = random.Random(seed)
    d = rng.randint(2, 6)
    return LcpInstance(M=[[rng.randint(-2, 3) for _ in range(d)] for _ in range(d)],
                       q=[rng.randint(-2, 3) for _ in range(d)])


def _walks(inst):
    """lemke's and the reference row walk's (certificate, pivots, z values)."""
    got, want, path = RunStats(), RunStats(), []
    c, zs = lemke_zs(inst, got)
    ref = lemke_rows(inst, want, path)
    sys = inst.system
    return ((c, got.pivots, zs),
            (ref, want.pivots, [sys.value(v.as_vertex(), sys.zvar) for v in path]))


def test_lemke_matches_the_row_walk():
    insts = [gen_lcp(d, s) for d in range(2, 25, 2) for s in range(15)]
    insts += [gen_lcp(d, s, p_matrix=False) for d in range(2, 9) for s in range(40)]
    insts += [murty(n) for n in range(2, 10)] + [_wild_integer(s) for s in range(400)]
    kinds = Counter()
    for inst in insts:
        got, want = _walks(inst)
        assert got == want, inst
        kinds[got[0].kind] += 1
    assert kinds == {"Q1": 493, "PV1": 375}


def _tied_lcps():
    """LCPs whose least q_i is tied on two or more rows, built by hand, as
    `gen_lcp` rejects a tied minimum: row r of a `gen_lcp` M times 1/c_r,
    which keeps the sign of every principal minor and gives the rows
    unequal scales s_r."""
    rng = random.Random(7)
    for seed in range(60):
        d = 2 + seed % 5
        base = gen_lcp(d, seed, p_matrix=seed % 3 > 0)
        m = [[x / c for x in row] for row, c in zip(base.M, (rng.randint(1, 6) for _ in range(d)))]
        least = F(-rng.randint(1, 8), rng.randint(1, 4))
        q = [least + F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(d)]
        for i in rng.sample(range(d), rng.randint(2, d)):
            q[i] = least
        yield LcpInstance(M=m, q=q)


def test_start_row_is_the_least_q_ties_to_the_larger_label():
    # start_row compares the integers q_i * scale of the IntForm; the rule
    # it must follow is the lex-min row of q(eps), read in Fraction.
    insts = [gen_lcp(d, s, p_matrix=p) for d in range(1, 9) for s in range(40) for p in (True, False)]
    insts += [murty(n) for n in range(1, 9)] + [inst for _, inst in wild_lcps()]
    insts += [_wild_integer(s) for s in range(400)]
    tied = list(_tied_lcps())
    for inst in insts + tied:
        q = inst.q
        assert inst.system.start_row() == min(range(inst.d), key=lambda i: (q[i], -i)), inst
    unequal = 0
    for inst in tied:
        s = inst.form.s
        unequal += len({s[i] for i, v in enumerate(inst.q) if v == min(inst.q)}) > 1
        got, want = RunStats(), RunStats()
        assert (lemke(inst, got), got.pivots) == (lemke_rows(inst, want), want.pivots), inst
    assert unequal > len(tied) // 2


def _behind(v) -> int:
    """The pivots behind v that a column may still be replayed through."""
    n = 0
    while v.back is not None:
        v, n = v.back[0], n + 1
    return n


def test_every_slot_of_lemkes_path_matches_the_row_walk(monkeypatch):
    # Murty's paths tie at their first ratio test.  On Murty's matrix at
    # d = 3, q = -(1, 2, 3) ties at its second, q = (-4, -6, -7) walks all 7
    # edges without a tie and q = -1 starts with zero values.  The vertices,
    # and the slots of each, are read in a seeded random order, so that a
    # column is replayed through up to d pivots, from any vertex.
    rng = random.Random(0)
    m3 = murty(3).M
    insts = [murty(n) for n in range(2, 8)]
    insts += [LcpInstance(M=m3, q=q) for q in ([-1, -2, -3], [-4, -6, -7], [-1, -1, -1])]
    pivot = LemkeSystem._pivot
    for inst in insts:
        got = []

        def logged_pivot(self, *args):
            v = pivot(self, *args)
            got.append((v, _behind(v)))
            return v

        with monkeypatch.context() as patch:
            patch.setattr(LemkeSystem, "_pivot", logged_pivot)
            c = lemke(inst)
        want = []
        assert lemke_rows(inst, RunStats(), path=want) == c and c.kind == "Q1"
        assert len(got) == len(want)
        d = inst.d
        assert max(n for _, n in got) == d, inst
        for i in rng.sample(range(len(got)), len(got)):
            (v, _), ref = got[i], want[i]
            assert (v.rows, v.pos, v.det) == (ref.rows, ref.pos, ref.det)
            for k in rng.sample(range(d + 2), d + 2):
                assert v.column(k) == [row[k] for row in ref.t], (inst, i, k)


def _keyed(sys, v) -> dict:
    """v's dictionary as Fractions keyed by variables: (basic, nonbasic or
    "rhs") -> T[row of basic][slot] / D, which no row order or sign of D
    changes."""
    cols = {x: v.column(k) for x, k in enumerate(v.pos) if k >= 0}
    cols["rhs"] = v.column(sys.rhs)
    return {(b, x): F(col[i], v.det) for x, col in cols.items() for i, b in enumerate(v.rows)}


def _long_walks():
    """Sources whose Lemke walk is longer than d pivots, so runs eagerly."""
    yield from (murty(n) for n in range(2, 11))
    insts = [gen_lcp(d, s, p_matrix=False) for d in range(2, 9) for s in range(40)]
    insts += [*_wild_non_p().values(), *(_wild_integer(s) for s in range(2000))]
    for inst in insts:
        stats = RunStats()
        lemke(inst, stats)
        if stats.pivots > inst.d:
            yield inst


def test_eager_dictionaries_match_a_fresh_basis(monkeypatch):
    # After d lazy pivots every pivot computes all columns in one pass.  Each
    # vertex must equal the one that `vertex_at` builds afresh from the
    # slack dictionary, and no vertex past the first flush may hold a link
    # back.
    pivot = LemkeSystem._pivot
    walks = 0
    for inst in _long_walks():
        got = []

        def logged_pivot(self, *args):
            v = pivot(self, *args)
            got.append((v, v.back is None and None not in v.cols))
            return v

        with monkeypatch.context() as patch:
            patch.setattr(LemkeSystem, "_pivot", logged_pivot)
            lemke(inst)
        d, fresh = inst.d, LemkeSystem(inst.M, inst.q)
        assert len(got) > d
        assert [eager for _, eager in got] == [False] * d + [True] * (len(got) - d), inst
        for v, _ in got:
            assert _keyed(inst.system, v) == _keyed(fresh, fresh.vertex_at(frozenset(v.rows))), inst
        walks += 1
    assert walks == 35  # Murty n = 2..10, one gen_lcp, one wild non-P, 24 wild integer


def test_support_and_duplicate_label_match_the_rows(monkeypatch):
    # `support` and `duplicate_label` read the basis from `pos`; the
    # references here read it from `rows` alone, at every vertex a Lemke
    # walk or a cone solve pivots to.
    pivot, seen = LemkeSystem._pivot, []

    def checked_pivot(self, *args):
        v = pivot(self, *args)
        d = self.d
        dup = [l for l in range(d) if l not in v.rows and d + l not in v.rows]
        assert len(dup) <= 1, v.rows
        assert self.support(v) == {i for i in range(d) if i in v.rows}, v.rows
        assert self.duplicate_label(v) == (dup[0] if dup else None), v.rows
        seen.append(bool(dup))
        return v

    insts = [murty(n) for n in range(2, 9)]
    insts += [gen_lcp(d, s, p_matrix=p) for d in range(1, 9) for s in range(40) for p in (True, False)]
    insts += [inst for _, inst in wild_lcps()]
    monkeypatch.setattr(LemkeSystem, "_pivot", checked_pivot)
    for inst in insts:
        lemke(inst)
        if inst.d <= 4:
            for r in range(inst.d + 1):
                for alpha in combinations(range(inst.d), r):
                    inst.system.cone_vertex(frozenset(alpha))
    assert Counter(seen) == {True: 2099, False: 4788}  # with a duplicate label, without


# -- Todd orientation from the running determinant ----------------------------

def _path_vertices(sys, max_pivots=200):
    """Duplicate-label vertices of the complementary pivot path from the
    Lemke start, followed until z leaves, a ray, or max_pivots."""
    v, entering = sys.start_vertex()
    out = [v]
    for _ in range(max_pivots):
        step = sys.ratio_step(v, entering)
        if step is None:
            break
        v, leaving = step
        if sys.zvar not in v.rows:
            break
        out.append(v)
        entering = leaving + sys.d if leaving < sys.d else leaving - sys.d
    return out


def test_forward_entering_matches_determinant():
    checked = 0
    for d in range(3, 7):
        for s in range(10):
            for inst in (gen_lcp(d, s), gen_lcp(d, s, p_matrix=False)):
                sys = LemkeSystem(inst.M, inst.q)
                for v in _path_vertices(sys):
                    l = sys.duplicate_label(v)
                    alpha = sys.support(v)
                    a = a_alpha(inst.M, alpha)
                    for r in range(d):
                        a[r][l] = F(1)
                    dd = determinant(a)
                    assert dd != 0
                    want = l if (dd > 0) == (len(alpha) % 2 == 0) else d + l
                    assert sys.forward_entering(v) == want, (d, s, sorted(v.rows))
                    checked += 1
    assert checked > 150


# -- sizes brute force cannot reach --------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(20, 24), st.integers(0, 2**31 - 1))
def test_lemke_large_p_lcp_verifies(d, seed):
    inst = gen_lcp(d, seed)
    c = lemke(inst)
    assert c.kind == "Q1" and verify(inst, c)


# -- the cone sign at z = 0 vertices, read from the tableau -----------------------

def test_cone_sign_matches_principal_minor():
    checked = 0
    for inst in _line_sources().values():
        view = PlcpLineView(inst)
        sys = view.sys
        for u in range(1 << view.nbits):
            v = view.vertex_of(u)
            if v is None or sys.zvar in v.rows:
                continue
            minor = principal_minor(view.src.M, sys.support(v))
            assert minor != 0
            assert sys.cone_sign(v) == (1 if minor > 0 else -1), sorted(v.rows)
            checked += 1
    assert checked >= 40  # 42 vertices


# -- cone solves: the complementary vertex of each cone ---------------------------

# Small entries with many zeros and repeats: singular cones and zero entries
# of A_alpha^-1 q (degenerate right-hand sides) are common.
small = st.one_of(st.integers(-2, 2).map(F), st.fractions(-2, 2, max_denominator=4))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_cone_vertex_solves_every_cone(d, data):
    m = [[data.draw(small) for _ in range(d)] for _ in range(d)]
    q = [data.draw(small) for _ in range(d)]
    sys = LemkeSystem(m, q)
    for r in range(d + 1):
        for alpha in map(frozenset, combinations(range(d), r)):
            v = sys.cone_vertex(alpha)
            assert (v is None) == (determinant(a_alpha(m, alpha)) == 0)
            if v is None:
                assert out_map(LcpInstance(M=m, q=q), alpha) is None
                continue
            y, z = sys.numeric_point(v)
            w = [sys.value(v, d + i) for i in range(d)]
            assert z == 0
            assert w == [sum((m[i][j] * y[j] for j in range(d)), q[i]) for i in range(d)]
            assert all(y[i] == 0 for i in range(d) if i not in alpha)
            assert all(w[i] == 0 for i in alpha)
            # A nonzero entry of A_alpha^-1 q = (y_alpha, w_rest) sets its
            # out-map bit iff it is negative; zeros are the perturbation's.
            bits = out_map(LcpInstance(M=m, q=q), alpha)
            for i in range(d):
                x = y[i] if i in alpha else w[i]
                if x != 0:
                    assert bool(bits >> i & 1) == (x < 0)


def test_out_map_replays_at_most_a_triangle_of_columns(monkeypatch):
    # A cone solve pivots |alpha| times from the slack dictionary.  The
    # k-th pivot replays its entering column through the k - 1 pivots
    # before it and the right-hand side through its own; a cone with no
    # zero basic value reads no other column.
    insts = [gen_lcp(d, s, nondegenerate=True) for d in range(1, 9) for s in range(2)]
    replays = count_calls(monkeypatch, pivoting, "_replay")
    for inst in insts:
        for r in range(inst.d + 1):
            for alpha in map(frozenset, combinations(range(inst.d), r)):
                replays[0] = 0
                assert out_map(inst, alpha) is not None
                assert replays[0] <= r * (r + 1) // 2, (inst, alpha)


# -- the dictionary against an independent solve -----------------------------------

def _columns(m, q, scaled):
    """Columns of [S M | -I | S 1 | -S q] (scaled) or [M | -I | 1 | -q]:
    variables 0..2d, then the right-hand side."""
    d = len(q)
    s = [lcm(qr.denominator, *[x.denominator for x in mr]) if scaled else 1 for mr, qr in zip(m, q)]
    rows = [[s[r] * x for x in m[r]] + [F(-(k == r)) for k in range(d)] + [F(s[r]), -s[r] * q[r]]
            for r in range(d)]
    return [[row[j] for row in rows] for j in range(2 * d + 2)]


def _cramer(basis_cols, b):
    """det(B) * B^-1 b by Cramer's rule: entry i is det(B) with column i
    replaced by b."""
    d = len(b)
    return [determinant([[(b if k == i else basis_cols[k])[r] for k in range(d)] for r in range(d)])
            for i in range(d)]


def _check_dictionary(sys, m, q, v):
    d = len(q)
    assert sorted(v.rows) == sorted(frozenset(v.rows)) and len(v.rows) == d
    assert all(v.pos[var] == ~i for i, var in enumerate(v.rows))
    assert sorted(c for c in v.pos if c >= 0) == list(range(d + 1))
    cols = _columns(m, q, scaled=True)
    det = determinant([[cols[var][r] for var in v.rows] for r in range(d)])
    assert v.det == det
    basis = [cols[var] for var in v.rows]
    for x in range(2 * d + 1):
        if v.pos[x] >= 0:
            assert v.column(v.pos[x]) == _cramer(basis, cols[x]), x
    assert v.column(sys.rhs) == _cramer(basis, cols[2 * d + 1])
    # The read-outs against a Fraction solve of the unscaled system.
    cols0 = _columns(m, q, scaled=False)
    basis0 = [cols0[var] for var in v.rows]
    det0 = determinant([[c[r] for c in basis0] for r in range(d)])
    x0 = [a / det0 for a in _cramer(basis0, cols0[2 * d + 1])]
    point = [F(0)] * (2 * d + 1)
    for var, val in zip(v.rows, x0):
        point[var] = val
    assert [sys.value(v, var) for var in range(2 * d + 1)] == point
    assert sys.numeric_point(v) == (point[:d], point[2 * d])
    for x in range(2 * d + 1):
        if v.pos[x] >= 0:
            eta = {var: -a / det0 for var, a in zip(v.rows, _cramer(basis0, cols0[x]))}
            eta[x] = F(1)
            assert sys.direction(v, x) == eta, x
    zs, zdet = sys.z_row(v)
    if sys.zvar in v.rows:
        # eps^k enters the right-hand side -q(eps) as -e_k.
        i = v.rows.index(sys.zvar)
        eps = [_cramer(basis0, [F(-(r == k)) for r in range(d)])[i] / det0 for k in range(d)]
        assert [F(x, zdet) for x in zs] == [point[2 * d]] + eps
    else:
        assert not any(zs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_dictionary_matches_independent_solve(d, data):
    m = [[data.draw(small) for _ in range(d)] for _ in range(d)]
    q = [data.draw(small) for _ in range(d)]
    sys = LemkeSystem(m, q)
    for r in range(d + 1):
        for alpha in map(frozenset, combinations(range(d), r)):
            v = sys.cone_vertex(alpha)
            if v is not None:
                _check_dictionary(sys, m, q, v)
    if min(q) >= 0:
        return
    v, entering = sys.start_vertex()
    for _ in range(50):  # every vertex of Lemke's path, the last included
        _check_dictionary(sys, m, q, v)
        if sys.zvar not in v.rows:
            break
        step = sys.ratio_step(v, entering)
        if step is None:
            break
        v, leaving = step
        entering = leaving + d if leaving < d else leaving - d
