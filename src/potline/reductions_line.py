"""Line-to-line reductions: EOML <-> EOPL, UFEOPL -> UFEOPL+1, the
reversible-pebbling reduction UFEOPL+1 -> UniqueEOPL, potential
normalization, and the hardness direction UniqueEOPL -> OPDC.

Every reduction of the package is a `View` over its source `src`: the
lazy image instance (`image()`), and a generator of the source
certificates that the construction's case analysis names for an image
certificate (`candidates(c)`), in order.  `map_back` returns the first that
verifies on the source or raises UnmappableCert.
"""

from __future__ import annotations

from itertools import accumulate, product

from . import problems
from .problems import (
    DOWN,
    UP,
    ZERO,
    Certificate,
    Exhausted,
    LineInstance,
    OpdcInstance,
    UnmappableCert,
    cert,
    verify,
    verify_line,
)


class TrivialInstance(Exception):
    """The source instance is solved by 0^n or S(0^n); carries the answer."""

    def __init__(self, certificate):
        super().__init__(f"trivial instance: {certificate}")
        self.certificate = certificate


class View:
    """One reduction over the source `src`: subclasses define `image()`, the
    image instance, and `candidates(c)`, which yields the source
    certificates for an image certificate c."""

    def __init__(self, src):
        self.src = src

    def map_back(self, c: Certificate) -> Certificate:
        """The first candidate for c that verifies on the source; raises
        UnmappableCert when none does.  The candidates are a generator, so
        one is only built if those before it failed; one of a kind foreign
        to the source is a bug, and raises VariantMismatch."""
        for candidate in self.candidates(c):
            if verify(self.src, candidate):
                return candidate
        raise UnmappableCert(f"no source certificate for {c}")


class Slots:
    """A code of n slots, lowest first: an empty slot is all zero, a full
    one a set presence bit followed by fields of the given widths, lowest
    first.  `fields` holds each field's (offset in its slot, mask)."""

    def __init__(self, n: int, widths):
        self.n, self.width, self.fields = n, 1, []
        for w in widths:
            self.fields.append((self.width, (1 << w) - 1))
            self.width += w
        self.nbits = n * self.width

    def pack(self, entries) -> int | None:
        """The code of one field tuple or None (empty) per slot; None when a
        field is negative or wider than its width, so no code names it."""
        code = 0
        for k, entry in enumerate(entries):
            if entry is not None:
                chunk = 1
                for value, (off, mask) in zip(entry, self.fields):
                    if value & ~mask:
                        return None
                    chunk |= value << off
                code |= chunk << k * self.width
        return code

    def unpack(self, code: int) -> list | None:
        """The field tuple or None (empty) of each slot; None when an empty
        slot has a set bit."""
        out, slot = [], (1 << self.width) - 1
        for k in range(self.n):
            chunk = code >> k * self.width & slot
            if chunk & 1:
                out.append(tuple(chunk >> off & mask for off, mask in self.fields))
            elif chunk:
                return None
            else:
                out.append(None)
        return out


class LineView(View):
    """A lazy line instance over the source `src`.  Subclasses set `nbits`,
    `m_pot` and `flavor`, define `successor` and `potential` (and
    `predecessor`, `run` and `enumerate_codes` where they have them), and
    `candidates(c)`.  Codes that pack a high and a low field use `_split`
    and `_join` with the low field `low_bits` wide.

    A view that works something out per key (a code, or a source vertex)
    defines `_compute_state(key)` and reads it through `state(key)`, which
    keeps it in `_states`, a plain dict bounded by `problems.keep` (a memo
    of a bound method would make a reference cycle through the view); a
    step that already knows its neighbour's state hands it on (`seed`).

    A view whose steps are reversible records the edge that each step
    crossed under the code it reached (`_arrive`), one entry per edge in
    `_arrivals`, bounded the same way: P(w) = u after a forward step
    u -> w, S(w) = u after a backward one, so the oracle that asks the
    edge back, such as P(S(x)) on a walk, is a read (`_arrived_from`)."""

    def __init__(self, src):
        super().__init__(src)
        self._states: dict = {}
        self._arrivals: dict = {}

    def state(self, key):
        """`_compute_state(key)`, worked out once while it is kept."""
        try:
            return self._states[key]
        except KeyError:
            return problems.keep(self._states, key, self._compute_state(key))

    def seed(self, key, value) -> None:
        """Keep the state of key, known without `_compute_state`, unless
        one is kept already."""
        if key not in self._states:
            problems.keep(self._states, key, value)

    def _arrive(self, u, w, forward: bool):
        """Record that a forward (else backward) step from u reached w;
        returns w."""
        problems.keep(self._arrivals, w, (u, forward))
        return w

    def _arrived_from(self, w, forward: bool):
        """u when the last step recorded into w came from u forward
        (`forward`, so P(w) = u) or backward (S(w) = u), else None."""
        came = self._arrivals.get(w)
        return came[0] if came is not None and came[1] is forward else None

    def _split(self, x):
        return x >> self.low_bits, x & ((1 << self.low_bits) - 1)

    def _join(self, hi, lo):
        return (hi << self.low_bits) | lo

    def image(self) -> LineInstance:
        return LineInstance(
            n=self.nbits,
            successor=self.successor,
            predecessor=getattr(self, "predecessor", None),
            potential=self.potential,
            flavor=self.flavor,
            m_pot=self.m_pot,
            vertex_iter=getattr(self, "enumerate_codes", None),
            run=getattr(self, "run", None),
        )


# ---------------------------------------------------------------------------
# EOML -> EOPL  (one extra bit; dummies self-loop)

class EomlToEopl(LineView):
    flavor = "eopl"

    def __init__(self, src: LineInstance):
        if src.flavor != "eoml":
            raise ValueError("source must be EOML")
        super().__init__(src)
        self.low_bits = src.n
        self.nbits = src.n + 1
        self.m_pot = src.m_pot

    def successor(self, x):
        b, u = self._split(x)
        if x == 0:
            return self._join(1, 0)
        if b == 0 or self.src.V(u) == 0:
            return x
        return self._join(1, self.src.S(u))

    def predecessor(self, x):
        b, u = self._split(x)
        if b == 0:
            return x
        if u == 0:
            return 0
        if self.src.V(u) == 0:
            return x
        return self._join(1, self.src.P(u))

    def potential(self, x):
        b, u = self._split(x)
        return 0 if b == 0 else self.src.V(u)

    def candidates(self, c):
        _, u = self._split(c.x)
        for kind in ("T1", "T2", "T3"):
            yield cert(kind, x=u)


# ---------------------------------------------------------------------------
# EOPL -> EOML  (potential captured in the low bits)

def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


class EoplToEoml(LineView):
    """Code (u, pi), pi in the low m_pot bits, is the point of potential pi
    on the chain that cuts the source edge u -> S(u) into unit steps of
    sign(V(S(u)) - V(u)), from (u, V(u)) to (S(u), V(S(u))); a flat edge is
    one step.  The start chain 0, (0, 2), (0, 3), ... climbs from potential
    1 to (u2, p2), u2 = S(S(0)), p2 = V(u2).  Codes (0, 1) and (S(0), pi),
    and codes on no chain, are self-loops of potential 0."""

    flavor = "eoml"

    def __init__(self, src: LineInstance):
        if src.flavor != "eopl":
            raise ValueError("source must be EOPL")
        for x in (0, src.S(0)):
            for kind in ("R1", "R2"):
                c = cert(kind, x=x)
                if verify_line(src, c):
                    raise TrivialInstance(c)
        super().__init__(src)
        self.low_bits = src.m_pot
        self.nbits = src.n + src.m_pot
        self.m_pot = src.m_pot
        self.u1 = src.S(0)
        self.u2 = src.S(self.u1)
        self.p2 = src.V(self.u2)

    def _edge(self, u):
        """(S(u), V(u), V(S(u))) of a source edge u -> S(u), or None when
        S(u) = u or P(S(u)) != u."""
        src = self.src
        up = src.S(u)
        if src.P(up) != u or up == u:
            return None
        return up, src.V(u), src.V(up)

    def successor(self, x):
        u, pi = self._split(x)
        if (u == 0 and pi == 1) or u == self.u1:
            return x
        if u == 0:
            nxt = max(pi + 1, 2)
            if nxt < self.p2:
                return self._join(0, nxt)
            return self._join(self.u2, self.p2) if nxt == self.p2 else x
        edge = self._edge(u)
        if edge is None:
            return x
        up, p, pp = edge
        step = _sign(pp - p)
        if pi + step == pp:
            return self._join(up, pp)
        # Bounded by sign, not min/max: a falling edge runs from p down to pp.
        if 0 <= (pi - p) * step < (pp - p) * step:
            return self._join(u, pi + step)
        return x

    def predecessor(self, x):
        src = self.src
        u, pi = self._split(x)
        if (u == 0 and pi == 1) or u == self.u1:
            return x
        if (u == 0 and pi < self.p2) or (u == self.u2 and pi == self.p2):
            return 0 if pi <= 2 else self._join(0, pi - 1)
        if pi == src.V(u):
            w = src.P(u)
            if src.S(w) != u or w == u:
                return x
            return self._join(w, pi - _sign(pi - src.V(w)))
        edge = self._edge(u)
        if edge is None:
            return x
        _, p, pp = edge
        step = _sign(pp - p)
        if 0 < (pi - p) * step < (pp - p) * step:
            return self._join(u, pi - step)
        return x

    def potential(self, x):
        if x == 0:
            return 1
        if self.successor(x) == x and self.predecessor(x) == x:
            return 0
        _, pi = self._split(x)
        return pi

    def candidates(self, c):
        u, _ = self._split(c.x)
        w = self.src.P(u)
        for x in (u, w):
            yield cert("R1", x=x)
            yield cert("R2", x=x)
        yield cert("R2", x=self.src.P(w))


# ---------------------------------------------------------------------------
# UFEOPL -> UFEOPL+1  (chain insertion)

class UfeoplToPlus1(LineView):
    flavor = "ufeoplplus1"

    def __init__(self, src: LineInstance):
        if src.flavor != "ufeopl":
            raise ValueError("source must be UFEOPL")
        super().__init__(src)
        self.low_bits = src.m_pot  # chain index width: gaps are < 2^m_pot
        self.nbits = src.n + self.low_bits
        self.m_pot = src.m_pot + 1

    def successor(self, x):
        src = self.src
        v, i = self._split(x)
        sv = src.S(v)
        if sv == v:
            return x
        gap = src.V(sv) - src.V(v)
        if gap > i + 1:
            return self._join(v, i + 1)
        if gap == i + 1:
            return self._join(sv, 0)
        return x

    def potential(self, x):
        v, i = self._split(x)
        return self.src.V(v) + i

    def enumerate_codes(self, budget: int):
        """The codes that are no self-loop, in increasing order: (v, i) for
        each source vertex v and each i below both the gap V(S(v)) - V(v)
        and 2^low_bits.  Raises Exhausted past budget source ids or codes."""
        src, out = self.src, []
        for v in sorted(src.ids(budget)):
            sv = src.S(v)
            if sv != v:
                k = min(src.V(sv) - src.V(v), 1 << self.low_bits)
                if len(out) + k > budget:
                    raise Exhausted(f"more than {budget} codes")
                out += (self._join(v, i) for i in range(k))
        return out

    def candidates(self, c):
        if c.kind == "UFP1":
            v, _ = self._split(c.x)
            yield cert("UF1", x=v)
            yield cert("UF1", x=self.src.S(v))
        elif c.kind == "UFPV1":
            v, _ = self._split(c.x)
            u, _ = self._split(c.y)
            yield cert("UFV1", x=v, y=u)
            yield cert("UFV1", x=u, y=v)


def ufeopl_to_plus1(src: LineInstance):
    view = UfeoplToPlus1(src)
    return view.image(), view


# ---------------------------------------------------------------------------
# UFEOPL+1 -> UniqueEOPL  (reversible pebbling)

def _undo(mv):
    op, peb, pos = mv
    return ("remove" if op == "place" else "place", peb, pos)


class PebblingView(LineView):
    """Vertices are pebbling configurations ((v_1, a_1), ..., (v_np, a_np))
    of the optimal strategy; the potential is the move index.  The
    strategy step is recovered from the configuration alone, which makes
    both circuits stateless.

    A config is packed in `slots`, one slot (label, position) per pebble.
    Each code is decoded, validated against the source and indexed once
    per view: `successor`, `predecessor` and `potential` all read
    `state(code)`, and `successor` and `predecessor` seed the neighbour's
    state, which they already know, as they pack it (`_neighbour`).  A
    move and its undo are inverse, so each step records the edge back
    (`LineView._arrive`), and P(S(x)) plans and packs nothing.
    `index_of` and `move` are loops over the pebbles.
    """

    flavor = "ueopl"
    # A set payload bit in an empty pebble slot: never decodes, so it is a
    # self-loop whose predecessor is itself.
    NON_VERTEX = 0b10

    def __init__(self, src: LineInstance):
        if src.flavor != "ufeoplplus1":
            raise ValueError("source must be UFEOPL+1")
        super().__init__(src)
        self.n_peb = max(1, src.m_pot)
        # Per pebble: an n-bit label and a position as wide as a potential.
        self.slots = Slots(self.n_peb, (src.n, max(1, src.m_pot)))
        self.nbits = self.slots.nbits
        self.total = self._t(self.n_peb)
        self.m_pot = max(1, self.total.bit_length())

    @staticmethod
    def _t(n):
        """Moves of the optimal strategy with n pebbles: t(1) = 1 and
        t(n) = 3 t(n-1) + 1."""
        return (3**n - 1) // 2

    # -- configs ---------------------------------------------------------------
    def index_of(self, config):
        """Move count of a strategy state, or None for non-states.

        Read against `move`: when pebble n is placed, at mid = base +
        2^(n-1), 3^(n-1) moves lie behind it, less the count of pebbles
        1..n-1 when they all lie below mid (their moves are being undone)
        and plus their count from base mid otherwise.  The loop walks the
        pebbles down and keeps the count as offset + sign * (count of the
        rest).  A pebble off the strategy fails the position check at its
        own level, so the only other input is the top position below it."""
        pos = [-1 if entry is None else entry[1] for entry in config]
        hi = [-1, *accumulate(pos, max)]  # hi[k]: top position of pebbles 1..k
        offset, sign, base = 0, 1, 0
        for n in range(len(pos), 0, -1):
            if pos[n - 1] < 0:
                continue
            mid = base + (1 << (n - 1))
            if pos[n - 1] != mid:
                return None
            offset += sign * 3 ** (n - 1)
            if hi[n - 1] < mid:
                sign = -sign
            else:
                base = mid
        return offset

    def _neighbour(self, config, mv, t):
        """The code of the config after move mv, or None when the move
        stalls against the line or places a label that no code can hold.
        The neighbour's state, with move index t, is seeded, so it is not
        decoded again."""
        nxt = self._apply(config, mv)
        code = None if nxt is None else self.slots.pack(nxt)
        if code is not None:
            self.seed(code, (nxt, t))
        return code

    def _compute_state(self, code):
        """(config, move index) of a valid code, else None: the code
        decodes, each pebble's label is a source vertex whose potential is
        the pebble's position, and the positions are a strategy state."""
        config = self.slots.unpack(code)
        if config is None:
            return None
        src = self.src
        for entry in config:
            if entry is not None:
                v, a = entry
                if src.V(v) != a or src.S(v) == v:
                    return None
        t = self.index_of(config)
        return None if t is None else (config, t)

    def move(self, t):
        """The t-th move (0-indexed) of the optimal strategy: a tuple
        (op, pebble, position).  The n pebble strategy runs the n-1 pebble
        one (t(n-1) moves), places pebble n at base + 2^(n-1), undoes the
        n-1 pebble moves in reverse and runs them again from base +
        2^(n-1); the loop walks down to the level that makes move t,
        counting the reversals."""
        n, base, undone = self.n_peb, 0, False
        t1 = self._t(n - 1)
        while n > 1:
            if t == t1:
                mv = ("place", n, base + (1 << (n - 1)))
                break
            if t1 < t < 2 * t1 + 1:
                t, undone = 2 * t1 - t, not undone
            elif t > 2 * t1:
                t, base = t - (2 * t1 + 1), base + (1 << (n - 1))
            n, t1 = n - 1, (t1 - 1) // 3
        else:
            mv = ("place", 1, base + 1)
        return _undo(mv) if undone else mv

    # -- moves against the source line ------------------------------------------
    def _label_at(self, config, pos):
        if pos == 0:
            return 0  # the start vertex carries a virtual pebble
        for entry in config:
            if entry is not None and entry[1] == pos:
                return entry[0]
        return None

    def _step_vertex(self, config, pos):
        """Vertex that the strategy wants at `pos`: the successor of the
        pebble at pos-1.  None when the source line cannot supply it."""
        src = self.src
        jv = self._label_at(config, pos - 1)
        if jv is None:
            return None
        u = src.S(jv)
        if u == jv or src.V(u) != pos or src.S(u) == u:
            return None
        return u

    def _apply(self, config, mv):
        """Next config or None when the move stalls against the line."""
        op, peb, pos = mv
        u = self._step_vertex(config, pos)
        if u is None:
            return None
        config = list(config)
        if op == "place":
            config[peb - 1] = (u, pos)
            return config
        entry = config[peb - 1]
        if entry is None or entry[0] != u:
            return None
        config[peb - 1] = None
        return config

    def successor(self, code):
        nxt = self._arrived_from(code, False)
        if nxt is not None:
            return nxt
        state = self.state(code)
        if state is None:
            return code
        config, t = state
        if t >= self.total:
            return code
        nxt = self._neighbour(config, self.move(t), t + 1)
        if nxt is not None:
            return self._arrive(code, nxt, True)
        if code == 0 and self.src.S(0) != 0:
            # P(0) = 0, so a self-loop at the start would end no line; point
            # S(0) off the line instead, making 0 a U1 that maps to UFP1(0).
            return self.NON_VERTEX
        return code

    def predecessor(self, code):
        prev = self._arrived_from(code, True)
        if prev is not None:
            return prev
        state = self.state(code)
        if state is None:
            return code
        config, t = state
        if t == 0:
            return code
        prev = self._neighbour(config, _undo(self.move(t - 1)), t - 1)
        return code if prev is None else self._arrive(code, prev, False)

    def potential(self, code):
        state = self.state(code)
        return 0 if state is None else state[1]

    def enumerate_codes(self, budget: int):
        """All valid configs: the strategy states, replayed move by move,
        each crossed with the potential preimages of its positions.  Raises
        Exhausted past budget source ids or codes.  No code repeats:
        `index_of` reads positions alone, so each strategy state has its own
        positions, and distinct labels under them pack apart."""
        src = self.src
        by_pot = {}
        for v in src.ids(budget):
            if src.S(v) != v:
                by_pot.setdefault(src.V(v), []).append(v)
        position, out = {}, []  # position: pebble -> its place in the current state
        for t in range(self.total + 1):
            if t:
                op, peb, pos = self.move(t - 1)
                if op == "place":
                    position[peb] = pos
                else:
                    del position[peb]
            pebs = sorted(position)
            for labels in product(*(by_pot.get(position[p], []) for p in pebs)):
                config = [None] * self.n_peb
                for p, v in zip(pebs, labels):
                    config[p - 1] = (v, position[p])
                code = self.slots.pack(config)
                if code is not None:
                    out.append(code)
                    if len(out) > budget:
                        raise Exhausted(f"more than {budget} codes")
        return out

    # -- map-back ---------------------------------------------------------------
    def _stall_candidates(self, config, mv):
        op, peb, pos = mv
        jv = self._label_at(config, pos - 1)
        if jv is not None:
            yield cert("UFP1", x=jv)
            u = self.src.S(jv)
            if op == "remove" and config[peb - 1] is not None:
                # UFPV1 is symmetric in x and y: one order is enough.
                yield cert("UFPV1", x=config[peb - 1][0], y=u)
        for entry in config:
            if entry is not None:
                yield cert("UFP1", x=entry[0])

    def candidates(self, c):
        # UV1 cannot occur: the pebbling potential increases by exactly 1.
        if c.kind in ("U1", "UV2"):
            state = self.state(c.x)
            if state is None:
                return
            config, t = state
            if c.kind == "UV2":
                if t > 0:  # the start config has no predecessor to stall on
                    yield from self._stall_candidates(config, _undo(self.move(t - 1)))
            elif t < self.total:
                yield from self._stall_candidates(config, self.move(t))
            else:
                top = max((e for e in config if e is not None), key=lambda e: e[1])
                yield cert("UFP1", x=top[0])
        elif c.kind == "UV3":
            ca, cb = self.slots.unpack(c.x), self.slots.unpack(c.y)
            if ca is not None and cb is not None:
                for ea, eb in zip(ca, cb):
                    if ea is not None and eb is not None and ea[0] != eb[0]:
                        yield cert("UFPV1", x=ea[0], y=eb[0])


def plus1_to_ueopl(src: LineInstance):
    view = PebblingView(src)
    return view.image(), view


# ---------------------------------------------------------------------------
# Potential normalization (every edge +1; ends at potential 2^n - 1)

class NormalizeView(LineView):
    """Code (v, i), v in the high bits, is step i of the chain of +1 edges
    that replaces the source edge v -> S(v), as long as the edge's
    potential gap; at an end of the line v, a dummy tail climbs to
    potential 2^low_bits - 1 and then points at 0.

    What a step needs of the source vertex v is read from the source once
    per view, as the state of v (`state(v)`): the code at the top of v's
    chain (S(v)'s code, or 0 for a tail) and the chain's last index (-1 for
    a junk label).  `run` reads the same state, so a walk crosses a whole
    chain or tail in one jump and asks S, P and V only where it leaves one.
    Only (v, 0)'s predecessor, which enters from P(v)'s chain, asks the
    source again.
    """

    flavor = "ueopl"

    def __init__(self, src: LineInstance):
        if src.flavor != "ueopl":
            raise ValueError("source must be UniqueEOPL")
        super().__init__(src)
        self.low_bits = src.m_pot + 1  # 2^low_bits exceeds any line length
        self.top = (1 << self.low_bits) - 1
        self.nbits = src.n + self.low_bits
        self.m_pot = self.low_bits

    def _compute_state(self, v):
        """(code after source vertex v's chain, the chain's last index)."""
        src = self.src
        sv = src.S(v)
        if sv == v and src.P(v) == v:
            return 0, -1  # junk label
        if src.P(sv) != v or sv == v:  # v is an end of line: dummy tail
            return 0, self.top - src.V(v)  # 0 makes the top an end: P(0) = 0
        return sv << self.low_bits, src.V(sv) - src.V(v) - 1

    def successor(self, x):
        v, i = x >> self.low_bits, x & self.top
        after, last = self.state(v)
        if i < last:
            # (v, i + 1); _join keeps an overflow (V outside [0, 2^m_pot)) in range
            return x + 1 if i < self.top else self._join(v, i + 1)
        return after if i == last else x

    def run(self, x):
        """Plain +1 steps from x = (v, i): last - i while i < last, capped
        where the low field would overflow, else 0.  Also 0 at the start
        code 0, whose step a walk takes through S as on any line."""
        if x == 0:
            return 0
        v, i = x >> self.low_bits, x & self.top
        last = self.state(v)[1]
        return min(last, self.top) - i if i < last else 0

    def predecessor(self, x):
        if x == 0:
            return 0
        v, i = x >> self.low_bits, x & self.top
        if i > self.state(v)[1]:
            return x
        if i > 0:
            return x - 1
        # i == 0: enter through the source predecessor's chain
        src = self.src
        w = src.P(v)
        if w == v or src.S(w) != v or src.V(v) <= src.V(w):
            return x
        return self._join(w, src.V(v) - src.V(w) - 1)

    def potential(self, x):
        return self.src.V(x >> self.low_bits) + (x & self.top)

    def candidates(self, c):
        if c.kind in ("U1", "UV1", "UV2"):
            v, _ = self._split(c.x)
            kinds = {"U1": ["U1"], "UV1": ["UV1", "U1"], "UV2": ["UV2", "UV1", "U1"]}[c.kind]
            for k in kinds:
                yield cert(k, x=v)
            yield cert("UV1", x=self.src.P(v))
        elif c.kind == "UV3":
            v, _ = self._split(c.x)
            u, _ = self._split(c.y)
            yield from (cert("UV3", x=v, y=u), cert("UV3", x=u, y=v),
                        cert("U1", x=v), cert("U1", x=u))


def normalize_potentials(src: LineInstance):
    view = NormalizeView(src)
    return view.image(), view


# ---------------------------------------------------------------------------
# UniqueEOPL -> OPDC  (hardness direction)

class UeoplToOpdc(View):
    """Source must be normalized: every valid edge raises the potential by
    exactly 1 and x is a U1 iff V(x) = 2^n_blocks - 1.  Points of the OPDC
    instance are n_blocks-tuples of m-bit vertex labels; block b occupies
    dimensions b*m .. b*m + m - 1.
    """

    def __init__(self, src: LineInstance):
        if src.flavor != "ueopl":
            raise ValueError("source must be UniqueEOPL")
        self.src = src
        self.m = src.n
        self.n_blocks = src.m_pot
        self.dims = self.m * self.n_blocks

    def blocks_of(self, p):
        m = self.m
        return [
            sum(p[b * m + t] << t for t in range(m)) for b in range(self.n_blocks)
        ]

    def _chain(self, blocks):
        """Process blocks top-down; per block b return (lo, start) of the
        sub-instance before the block's half is chosen, and finally the
        decoded vertex."""
        src = self.src
        lo, start = 0, 0
        states = [None] * self.n_blocks
        for b in range(self.n_blocks - 1, -1, -1):
            states[b] = (lo, start)
            half = 1 << b
            if src.V(blocks[b]) - lo == half:
                lo += half
                start = blocks[b]
        return tuple(states), start

    def decode(self, p):
        return self._chain(self.blocks_of(p))

    def image(self) -> OpdcInstance:
        src, m = self.src, self.m

        def direction(p):  # block by block, from one decode of p
            blocks = self.blocks_of(p)
            states, dec = self._chain(blocks)
            out = []
            for b, (lo, _) in enumerate(states):
                half, bits = 1 << b, p[b * m:(b + 1) * m]
                if src.V(blocks[b]) - lo == half:
                    out += [ZERO] * m
                elif src.V(dec) - lo == half - 1:
                    u = src.S(dec)
                    out += [ZERO if x == u >> t & 1 else UP if x == 0 else DOWN for t, x in enumerate(bits)]
                else:
                    out += [DOWN if x == 1 else ZERO for x in bits]
            return tuple(out)

        return OpdcInstance(widths=(1,) * self.dims, direction=direction)

    def candidates(self, c):
        # OV3 cannot occur on images of this reduction.
        src = self.src
        if c.kind == "O1":
            _, dec = self.decode(c.p)
            yield cert("U1", x=dec)
        elif c.kind in ("OV1", "OV2"):
            p, q = tuple(c.p), tuple(c.q)
            bp, bq = self.blocks_of(p), self.blocks_of(q)
            _, dp = self.decode(p)
            _, dq = self.decode(q)
            anchors_p = [dp, src.S(dp)]
            anchors_q = [dq, src.S(dq)]
            diff = [b for b in range(self.n_blocks) if bp[b] != bq[b]]
            if diff:
                b_top = max(diff)
                anchors_p.append(bp[b_top])
                anchors_q.append(bq[b_top])
            for a in anchors_p:
                for b in anchors_q:
                    if a != b:
                        yield cert("UV3", x=a, y=b)
                        yield cert("UV3", x=b, y=a)
            yield cert("U1", x=dp)
            yield cert("U1", x=dq)
