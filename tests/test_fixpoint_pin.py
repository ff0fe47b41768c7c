"""Fixpoint searches pinned to recorded answers: SHA-256 digests of the
certificates and oracle-call counts of `find_fp` and `approx_find_fp` on
seeded contractions, planted non-contractions, black-box evaluators and a
clamped rotation, so a rewrite of the nested search must ask the same
number of questions and give exactly the same answers."""

import hashlib
from fractions import Fraction as F

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


def _solve(solve, inst):
    stats = RunStats()
    c = solve(inst, stats=stats)
    assert verify(inst, c), c
    return c, f"{sorted(cert_to_json(c).items())} {stats.oracle_calls}"


def _record(solve, inst) -> str:
    return _solve(solve, inst)[1]


def _digest(records) -> str:
    h = hashlib.sha256()
    for line in records:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _contracting():
    cases = [(d, s) for d in range(1, 6) for s in range(3)] + [(6, 0)]
    return [_record(find_fp, gen_contraction(d, s)) for d, s in cases]


def _noncontracting():
    out = [_record(find_fp, gen_contraction(d, s, contracting=False)) for d in range(1, 4) for s in range(2)]
    out += [_record(approx_find_fp, black_box(gen_contraction(d, 0, p=p, contracting=False), p))
            for d in (1, 2) for p in (1, 2, 3)]
    return out


def _jump(x):
    return [F(1) if x[0] < F(1, 2) else F(0)]


def _black_box():
    out = [_record(approx_find_fp, black_box(gen_contraction(d, s, p=p), p))
           for d in (1, 2) for p in (1, 2, 3) for s in range(2)]
    # A non-dyadic fixpoint (1/3, 2/7), which no bisection hits exactly.
    out += [_record(approx_find_fp, black_box(clamped_rotation((F(1, 3), F(2, 7)), (8, 8)), p)) for p in (1, 2)]
    # A jump across the diagonal: the search ends on a CMV1 pair.
    out.append(_record(approx_find_fp, ContractionInstance(d=1, c=F(1, 2), p=2, func=_jump, eps=EPS)))
    return out


def _rotation():
    out = []
    for x_star, kappa in [((F(3, 16), F(11, 16)), (8, 8)), ((F(1, 3), F(2, 7)), (60, 20))]:
        c, record = _solve(find_fp, clamped_rotation(x_star, kappa))
        assert c.kind == "CM1" and c.x == list(x_star), c
        out.append(record)
    return out


PINNED = {
    "contracting": "96cac6f827c6ce08",
    "noncontracting": "7ef98d9665972bd6",
    "black_box": "ed43e884af3d8ea5",
    "rotation": "244e5db76f4c6d56",
}


def test_find_fp_on_contractions_pinned():
    assert _digest(_contracting()) == PINNED["contracting"]


def test_fixpoint_searches_on_non_contractions_pinned():
    assert _digest(_noncontracting()) == PINNED["noncontracting"]


def test_approx_find_fp_black_box_pinned():
    assert _digest(_black_box()) == PINNED["black_box"]


def test_find_fp_on_clamped_rotation_pinned():
    assert _digest(_rotation()) == PINNED["rotation"]
