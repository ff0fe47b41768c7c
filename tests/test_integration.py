"""End-to-end composition of the whole reduction web through
`cli.REDUCTIONS` and `cli.compose`.

A P-matrix LCP is pushed through USO -> grid directions -> forward
potential line -> +1 chains -> pebbling (which restores a predecessor)
-> potential normalization.  Following the line of the final instance and
mapping the answer back through every stage must reproduce exactly the
Lemke solution of the original LCP.
"""

from collections import Counter

import pytest

from potline.cli import REDUCTIONS, UsageError, compose
from potline.generators import gen_contraction, gen_lcp, gen_line, gen_uso
from potline.problems import ContractionInstance, LcpInstance, LineInstance, OpdcInstance, UsoInstance
from potline.reductions_line import TrivialInstance
from potline.solvers import RunStats, follow_line, lemke

from helpers import FULL_CHAIN, gen_normalized_line, murty


def test_full_chain_round_trip():
    for seed in (0, 1, 2):
        lcp = gen_lcp(2, seed, nondegenerate=True)
        norm, map_back = compose(lcp, FULL_CHAIN)
        c = follow_line(norm, 0)
        assert c.kind == "U1"
        # Every stage's map-back returns a certificate that verifies there.
        assert map_back(c) == lemke(lcp)


@pytest.mark.parametrize("d, steps", [(4, 1 << 15), (6, 1 << 20)])
def test_full_chain_beyond_brute_force(d, steps):
    # The normalized lines of these LCPs are too long for brute force; the
    # walk crosses each tail of +1 steps in one jump, and the end maps back
    # through all six stages to Lemke's answer.
    lcp = gen_lcp(d, 0, nondegenerate=True)
    line, map_back = compose(lcp, FULL_CHAIN)
    stats = RunStats()
    c = map_back(follow_line(line, 0, stats=stats))
    assert stats.steps == steps
    assert c.kind == "Q1" and c == lemke(lcp)


# Steps of the plcp -> ueopl walk, recorded at f354643: d = 16 LCPs with
# fractional q, and Murty's n = 10 LCP (1023 Lemke pivots).
LEMKE_LINES = [(f"gen_lcp(16, {s})", lambda s=s: gen_lcp(16, s), steps)
               for s, steps in enumerate((6, 10, 10, 11, 12, 4, 9, 10))]
LEMKE_LINES.append(("murty(10)", lambda: murty(10), 1025))


@pytest.mark.parametrize("build, steps", [case[1:] for case in LEMKE_LINES],
                         ids=[case[0] for case in LEMKE_LINES])
def test_lemke_line_steps_pinned(build, steps):
    lcp = build()
    line, map_back = compose(lcp, ("plcp", "ueopl"))
    stats = RunStats()
    c = map_back(follow_line(line, 0, stats=stats))
    assert stats.steps == steps
    assert c == lemke(lcp)


def test_full_chain_walk_lengths():
    lcp = gen_lcp(2, 5, nondegenerate=True)
    plus1, _ = compose(lcp, FULL_CHAIN[:FULL_CHAIN.index("plus1") + 1])
    view = REDUCTIONS["plus1", "ueopl"](plus1)
    ueopl = view.image()
    # the pebbled walk is the strategy prefix ending at the line's end
    x, steps = 0, 0
    while True:
        nxt = ueopl.S(x)
        if nxt == x:
            break
        assert ueopl.P(nxt) == x
        assert ueopl.V(nxt) == ueopl.V(x) + 1
        x, steps = nxt, steps + 1
    assert 0 < steps <= view.total


# The instance class of every stage and the line flavors it admits (None
# for the problems that are not lines).
STAGES = {
    "plcp": (LcpInstance, None),
    "uso": (UsoInstance, None),
    "opdc": (OpdcInstance, None),
    "contraction": (ContractionInstance, None),
    "eopl": (LineInstance, {"eopl"}),
    "eoml": (LineInstance, {"eoml"}),
    "ufeopl": (LineInstance, {"ufeopl"}),
    "plus1": (LineInstance, {"ufeoplplus1"}),
    "ueopl": (LineInstance, {"ueopl"}),
    "normalized": (LineInstance, {"ueopl"}),
}

# A small source for every stage a reduction starts from.
SOURCES = {
    "plcp": lambda: gen_lcp(2, 0, nondegenerate=True),
    "uso": lambda: gen_uso(2, 0),
    "opdc": lambda: compose(gen_uso(2, 0), ("uso", "opdc"))[0],
    "contraction": lambda: gen_contraction(1, 0, kappa=(4,)),
    "eopl": lambda: gen_line(8, 1, flavor="eopl"),
    "eoml": lambda: gen_line(8, 1, flavor="eoml"),
    "ufeopl": lambda: gen_line(5, 0, flavor="ufeopl"),
    "plus1": lambda: gen_line(4, 0, flavor="ufeoplplus1", gaps=[1, 1, 1]),
    "ueopl": lambda: gen_line(5, 0, flavor="ueopl"),
    "normalized": lambda: gen_normalized_line(2, 0),
}


def _is_stage(inst, stage) -> bool:
    cls, flavors = STAGES[stage]
    return type(inst) is cls and (flavors is None or inst.flavor in flavors)


def test_reductions_table(monkeypatch):
    # Each entry's image is an instance of the kind and flavor its target
    # stage names.
    for step in REDUCTIONS:
        src = SOURCES[step[0]]()
        assert _is_stage(src, step[0]), step
        assert _is_stage(compose(src, step)[0], step[1]), step
    # An unknown step anywhere in the chain raises before any view is built.
    built = []
    monkeypatch.setitem(REDUCTIONS, ("plcp", "uso"), built.append)
    with pytest.raises(UsageError, match="no reduction uso -> foo"):
        compose(gen_lcp(2, 0), ("plcp", "uso", "foo"))
    assert built == []


def _sources_by_stage() -> dict:
    """Each stage's small source, and the image of every other stage's
    source under the steps of `REDUCTIONS` into it; a degenerate and a
    non-P LCP besides."""
    found = {stage: [build()] for stage, build in SOURCES.items()}
    found["plcp"] += [murty(4), gen_lcp(3, 0, p_matrix=False)]
    for (a, b), cls in REDUCTIONS.items():
        found[b].append(cls(SOURCES[a]()).image())
    return found


def _visited(line, budget: int = 1 << 12) -> set:
    """The codes at which a walk from 0 along S reads V: a run of plain +1
    steps (`LineInstance.run`) is crossed in one jump, as `follow_line`
    does."""
    x, seen = 0, {0}
    while len(seen) < budget:
        r = line.run(x) if line.run else 0
        x = x + r if r else line.S(x)
        if x in seen:
            return seen
        seen.add(x)
    raise AssertionError("walk longer than the budget")


def test_every_line_view_keeps_v_below_2_to_the_m_pot():
    # A line takes V in [0, 2^m_pot): the walks and the stages built on a
    # line (the normalized codes hold V in m_pot bits) rely on it, and an
    # explicit line checks it, but a view computes V lazily.
    sources, walked = _sources_by_stage(), Counter()
    for (a, b), cls in REDUCTIONS.items():
        if STAGES[b][1] is None:
            continue  # not a line
        for src in sources[a]:
            try:
                line = cls(src).image()
            except TrivialInstance:
                continue  # the view answers with a certificate of src instead
            for u in _visited(line):
                assert 0 <= line.V(u) < 1 << line.m_pot, (a, b, u)
            walked[a, b] += 1
    # Seven line views; one eopl source has an R2 at 0, so EoplToEoml refuses it.
    assert walked == {("plcp", "ueopl"): 3, ("opdc", "ufeopl"): 4, ("ufeopl", "plus1"): 2,
                      ("plus1", "ueopl"): 2, ("ueopl", "normalized"): 3, ("eoml", "eopl"): 2,
                      ("eopl", "eoml"): 1}
