"""Fixpoint searches pinned to recorded answers: SHA-256 digests of the
certificates of `find_fp` and `approx_find_fp` on seeded contractions,
planted non-contractions, black-box evaluators and a clamped rotation, and
apart from them the oracle-call count of each run, so a rewrite of the
nested search must give exactly the same answers, and a change in the
number of questions it asks shows in the call pins alone.  The order in
which four of the searches ask for f is pinned too."""

import hashlib
from functools import cache
from fractions import Fraction as F

import pytest

from potline.circuits import Circuit, Gate, affine_circuit
from potline.generators import gen_contraction
from potline.problems import ContractionInstance, cert_to_json, verify
from potline.solvers import RunStats, approx_find_fp, find_fp

EPS = F(1, 1024)

# A = (4/5) R with R the rotation [[3/5, -4/5], [4/5, 3/5]]: ||A||_2 = 4/5,
# but the rows of |A| sum to 28/25, so the map contracts only in l2.
ROTATION = [[F(12, 25), F(-16, 25)], [F(16, 25), F(12, 25)]]


def clamped_rotation(x_star, kappa) -> ContractionInstance:
    """f(x) = clamp_[0,1](A (x - x*) + x*): one max and one min gate per
    output of the affine circuit."""
    b = [x_star[i] - sum(a * x for a, x in zip(ROTATION[i], x_star)) for i in range(2)]
    affine = affine_circuit(ROTATION, b)
    gates, outputs = list(affine.gates), []
    for out in affine.outputs:
        gates += [Gate("const", (F(0),)), Gate("max", (out, len(gates))),
                  Gate("const", (F(1),)), Gate("min", (len(gates) + 1, len(gates) + 2))]
        outputs.append(len(gates) - 1)
    circ = Circuit(2, tuple(gates), tuple(outputs))
    return ContractionInstance(d=2, c=F(4, 5), p=2, circuit=circ, kappa=kappa)


def black_box(inst: ContractionInstance, p: int) -> ContractionInstance:
    return ContractionInstance(d=inst.d, c=inst.c, p=p, func=inst.f, eps=EPS)


def _record(solve, inst):
    """The verified certificate of one run and its oracle-call count."""
    stats = RunStats()
    c = solve(inst, stats=stats)
    assert verify(inst, c), c
    return c, stats.oracle_calls


def _digest(records) -> str:
    """The digest of the certificates alone, one JSON line each."""
    h = hashlib.sha256()
    for c, _ in records:
        h.update(f"{sorted(cert_to_json(c).items())}".encode() + b"\n")
    return h.hexdigest()[:16]


@cache
def _contracting():
    cases = [(d, s) for d in range(1, 6) for s in range(3)] + [(6, 0)]
    return [_record(find_fp, gen_contraction(d, s)) for d, s in cases]


@cache
def _noncontracting():
    out = [_record(find_fp, gen_contraction(d, s, contracting=False)) for d in range(1, 4) for s in range(2)]
    out += [_record(approx_find_fp, black_box(gen_contraction(d, 0, p=p, contracting=False), p))
            for d in (1, 2) for p in (1, 2, 3)]
    return out


def _jump(x):
    return [F(1) if x[0] < F(1, 2) else F(0)]


@cache
def _black_box():
    out = [_record(approx_find_fp, black_box(gen_contraction(d, s, p=p), p))
           for d in (1, 2) for p in (1, 2, 3) for s in range(2)]
    # A non-dyadic fixpoint (1/3, 2/7), which no bisection hits exactly.
    out += [_record(approx_find_fp, black_box(clamped_rotation((F(1, 3), F(2, 7)), (8, 8)), p)) for p in (1, 2)]
    # A jump across the diagonal: the search ends on a CMV1 pair.
    out.append(_record(approx_find_fp, ContractionInstance(d=1, c=F(1, 2), p=2, func=_jump, eps=EPS)))
    return out


@cache
def _rotation():
    out = []
    for x_star, kappa in [((F(3, 16), F(11, 16)), (8, 8)), ((F(1, 3), F(2, 7)), (60, 20))]:
        c, calls = _record(find_fp, clamped_rotation(x_star, kappa))
        assert c.kind == "CM1" and c.x == list(x_star), c
        out.append((c, calls))
    return out


FAMILIES = {"contracting": _contracting, "noncontracting": _noncontracting,
            "black_box": _black_box, "rotation": _rotation}

PINNED = {
    "contracting": "4ad246b41565926c",
    "noncontracting": "71f16c67a85b183d",
    "black_box": "f88aa516756022b3",
    "rotation": "16e1679b16b7d628",
}

# The oracle calls of each family's runs, in the order the family makes them.
PINNED_CALLS = {
    "contracting": [5, 5, 4, 25, 30, 24, 100, 90, 144, 300, 540, 864, 1200, 3240, 4320, 7200],
    "noncontracting": [19, 19, 19, 19, 19, 19, 15, 28, 45, 180, 2208, 8109],
    "black_box": [5, 5, 5, 5, 5, 5, 25, 30, 25, 30, 25, 30, 158, 2210, 30],
    "rotation": [69, 5333],
}


def test_find_fp_on_contractions_pinned():
    assert _digest(_contracting()) == PINNED["contracting"]


def test_fixpoint_searches_on_non_contractions_pinned():
    assert _digest(_noncontracting()) == PINNED["noncontracting"]


def test_approx_find_fp_black_box_pinned():
    assert _digest(_black_box()) == PINNED["black_box"]


def test_find_fp_on_clamped_rotation_pinned():
    assert _digest(_rotation()) == PINNED["rotation"]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_fixpoint_search_calls_pinned(family):
    assert [calls for _, calls in FAMILIES[family]()] == PINNED_CALLS[family]


# find_fp's point and oracle-call count on larger seeded maps.
PINNED_POINTS = {
    (5, 5): ([F(1, 2), F(9, 16), F(3, 4), F(1, 4), F(11, 16)], 1728),
    (6, 1): ([F(3, 8), F(5, 16), F(1, 2), F(5, 16), F(11, 16), F(11, 16)], 19440),
    (6, 2): ([F(1, 4), F(5, 16), F(5, 16), F(9, 16), F(3, 8), F(1, 2)], 12960),
    (6, 5): ([F(1, 2), F(9, 16), F(3, 4), F(1, 4), F(11, 16), F(7, 16)], 10368),
}


def test_find_fp_points_pinned():
    for (d, seed), (x, calls) in PINNED_POINTS.items():
        inst, stats = gen_contraction(d, seed), RunStats()
        c = find_fp(inst, stats=stats)
        assert (c.kind, c.x, stats.oracle_calls) == ("CM1", x, calls), (d, seed)
        assert verify(inst, c)


def _probe_order(solve, inst) -> str:
    """The digest of the points at which a run evaluates f, in the order
    the search asks for them: one (numerators, denominator) line each."""
    h, f_int = hashlib.sha256(), inst.f_int

    def logged(xs, D):
        h.update(f"{tuple(xs)} {D}".encode() + b"\n")
        return f_int(xs, D)

    inst.f_int = logged
    assert verify(inst, solve(inst))
    return h.hexdigest()[:16]


# The order of the points each search evaluates f at: seeded contractions
# at d = 5 and 6, a CMV3 on the clamped rotation and an approximate search.
PINNED_PROBES = {
    "find_fp(5, 5)": (lambda: (find_fp, gen_contraction(5, 5)), "41029aa7ccbee0e2"),
    "find_fp(6, 0)": (lambda: (find_fp, gen_contraction(6, 0)), "f7b5c90f0fc72a04"),
    "rotation CMV3": (lambda: (find_fp, clamped_rotation((F(1, 3), F(2, 7)), (40, 20))), "af8aa9568d0c13d4"),
    "approx": (lambda: (approx_find_fp, black_box(clamped_rotation((F(1, 3), F(2, 7)), (8, 8)), 2)), "3e365c4619c41976"),
}


@pytest.mark.parametrize("case", list(PINNED_PROBES))
def test_fixpoint_probe_order_pinned(case):
    make, digest = PINNED_PROBES[case]
    assert _probe_order(*make()) == digest
