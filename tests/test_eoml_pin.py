"""The EOPL -> EOML view pinned on every code: one digest over S, P and V
of each code of the `eopl -> eoml` images of a family of sources.  Walks
and brute force reach only part of an image; this pin sees the self-loops
and the codes off every chain too, so a rewrite of the chain rule must give
each code the same successor, predecessor and potential."""

import hashlib
import random

from potline.generators import gen_line
from potline.problems import line_from_tables
from potline.reductions_line import EoplToEoml, TrivialInstance


def _planted(seed: int):
    """A 1-4-bit source with a planted line from 0 whose steps change the
    potential by -3..+3 (falling and flat edges included), and random
    tables elsewhere, where P mostly does not invert S."""
    rng = random.Random(f"planted/{seed}")
    n = 1 + seed % 4
    size = 1 << n
    s = {x: rng.randrange(size) for x in range(size)}
    p = {x: rng.randrange(size) for x in range(size)}
    v = {x: rng.randrange(8) for x in range(size)}
    line = [0] + rng.sample(range(1, size), rng.randrange(size))
    v[0] = rng.randrange(4)
    for a, b in zip(line, line[1:]):
        s[a], p[b] = b, a
        v[b] = max(0, v[a] + rng.randrange(-3, 4))
    return line_from_tables(n, s, p, v)


def _hand_tables():
    """Lines that rise to start, then fall by 1 and by more, stay flat, and
    rise again; one has a junk vertex whose S is not inverted by P."""
    chain = [0, 1, 2, 3, 4, 5, 6, 7]
    for pots in ([0, 2, 5, 4, 4, 1, 3, 6], [0, 1, 2, 2, 1, 0, 3, 3],
                 [1, 2, 4, 3, 3, 7, 6, 6], [0, 3, 7, 7, 2, 5, 5, 4]):
        s = dict(zip(chain, chain[1:]))
        p = {b: a for a, b in s.items()}
        yield line_from_tables(3, s, p, dict(zip(chain, pots)))
    s = {0: 1, 1: 3, 3: 2, 2: 6, 6: 5}
    p = {1: 0, 3: 1, 2: 3, 6: 7, 5: 6}
    yield line_from_tables(3, s, p, {1: 2, 3: 5, 2: 4, 6: 4, 5: 3, 7: 1})


def _sources():
    for length in (3, 4, 6, 9):
        for seed in range(60):
            yield gen_line(length, seed, flavor="eopl", two_lines=seed % 3 == 2)
    yield from _hand_tables()
    for seed in range(120):
        yield _planted(seed)


def _digest() -> str:
    h = hashlib.sha256()
    for src in _sources():
        try:
            view = EoplToEoml(src)
        except TrivialInstance as t:
            h.update(f"{t}\n".encode())
            continue
        line = view.image()
        for x in range(line.size):
            h.update(f"{x} {line.S(x)} {line.P(x)} {line.V(x)}\n".encode())
    return h.hexdigest()[:16]


# Recorded before the chain rule was stated once through `_edge`.
PINNED = "80391ff99ece3c77"


def test_eopl_to_eoml_every_code_pinned():
    assert _digest() == PINNED
