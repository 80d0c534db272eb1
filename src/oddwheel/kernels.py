"""The combinatorial hot kernels: canonical form, cycle search and
longest path.

Rows are adjacency bitmasks (Python ints), so every kernel works at any
order.  Every kernel takes the rows alone, as any sequence, and the
order is their number.  Callers reach these functions through the module
attribute (`kernels.canon_code(...)`), so rebinding a name here reaches
every call site.

Every search draws on one node-expansion budget, `_Budget` (None: no
limit): the two searches here, the detectors and enumeration.  A search
here stops once its expansions pass the budget's `left`, returns -1, and
spends what it expanded on every return, so one budget can cover many
searches; its callers raise `BudgetExceededError` on the -1.

Canonical form
--------------
The canonical code of a graph is the least `graphs.triangle_value`
over all vertex orderings, framed by `frame_code` behind one order byte.
The value is an int of n(n-1)/2 bits, the triangle's first bit most
significant, so the least value is the lexicographically least bit
string.  `pack_code(rows)` frames the value of the rows as they stand,
without minimizing, and `code_to_rows(code)` reads the rows back: rows
carry the order as their number, so only the code stores it.

The value is column by column, so it splits into per-position
contributions: placing a vertex w at position j fixes exactly column j,
which is w's adjacencies to the vertices already placed, first-placed
first.  So the minimum can be found level by level.

At each level the search keeps every partial placement achieving the
minimal prefix (a frontier), because prefix-tied placements may differ
later.  A frontier entry is keyed by (used, planes): the mask of placed
vertices and, in placement order, the adjacency row of each placed
vertex masked to the unplaced ones.  Bit w of plane i is the i-th bit,
most significant first, of the contribution w would make.  The planes
are packed into one int, plane i at bit i*n, so a child's planes are a
few big-int operations: add the new vertex's row as the next plane and
mask every plane at once by the unplaced set repeated at each offset.

Each entry carries its minimal set: the unplaced vertices whose
contribution is minimal, all tying at the level's value `best`.  Placing
v from that set leaves the rest of it at 2*best + (1 if v is adjacent),
below every other unplaced vertex, which was above `best` already.  So
while the set has another vertex, the child's minimum is 2*best + b,
where b is 0 exactly when some other member is not adjacent to v, and
its minimal set is the members not adjacent to v, or all of them when
there are none.  A child whose set is used up loses to every such child
and is not built; children with b = 1 lose to children with b = 0, so
they are dropped once one with b = 0 turns up and not built after that.
Only when every entry's set is one vertex are the children's
contributions read from the planes, by one bit-sliced scan: start with
every unplaced vertex as a candidate and, plane by plane, keep only the
candidates without that bit whenever some exist (emitting a 0), else
keep them all (emitting a 1).

Two placements with the same used set and the same planes are
interchangeable from that point on: every unplaced vertex has the same
pending contribution in both, so the minimal set is a function of the
key.  Keying entries by that pair dedups the frontier; without it the
frontier blows up factorially on vertex-transitive graphs.  The guard
counts the entries kept at a level, after the losers are dropped.

Twins are placed in label order: a vertex is placed only after all its
lower-labelled open twins (equal rows) and closed twins (equal rows plus
self), read off the one pass `graphs.twin_classes`.  This keeps the code.
Any permutation of a set of twins is an automorphism, so applying one to
a placement leaves its code unchanged, and every placement has a copy
with its twins in label order.  Each prefix of such a copy is in label
order too, so the frontier of ordered placements holds, at every level, a
copy of every minimal prefix, and the levels reach the same minima.
Unplaced twins make the same contribution, so an entry's minimal set
holds the lowest unplaced twin of each of its members, which the rule
never skips.  The rule takes the vertices that must wait out of an
entry's choices, not out of its minimal set, which the children's b
still reads.  Without it the frontier would keep every order of the
twins, factorially many on K_n or the empty graph.
"""

from __future__ import annotations

from math import inf

from oddwheel.graphs import (
    bits_of,
    rows_from_triangle,
    triangle_value,
    twin_classes,
)

# There is one implementation, this one, and `oddwheel info` names it
# "pure" directly.  The flag stays, always False, because the benchmark's
# pass records (`perfbench/cold_pass.py`) read it and
# `tests/test_benchmark_contract.py` pins it.
HAVE_COMPILED = False


class BudgetExceededError(RuntimeError):
    """Search or enumeration exceeded its node-expansion budget."""


class _Budget:
    """Node expansions (or enumerated children) left for one call; None
    means no limit, held as an infinite count.  Every search draws on
    it: enumeration, the detectors and the kernels here."""

    __slots__ = ("left",)

    def __init__(self, limit: int | None):
        if limit is not None and limit < 0:
            raise ValueError(f"budget must be non-negative, got {limit}")
        self.left = inf if limit is None else limit

    def spend(self, ops: int) -> bool:
        """Draw `ops`; False once the budget is overrun."""
        self.left -= ops
        return self.left >= 0


def canon_code(rows) -> bytes:
    """The least triangle value over all orderings, framed."""
    n = len(rows)
    if n > 255:
        raise ValueError("canonical form limited to order <= 255")
    full = (1 << n) - 1
    # A vertex is placed only after its lower-labelled twins
    # (`twin_classes`); `late` holds the vertices that have one.
    class_of, masks = twin_classes(rows)
    late = 0
    for m in masks:
        late |= m & (m - 1)

    # Entries with pos - 1 vertices placed, each mapped to its minimal set;
    # the empty placement starts it, every vertex tying on no columns.
    frontier = {(0, 0): full}
    best = 0
    rep = 0  # one bit at each plane offset
    code = 0
    for pos in range(1, n):
        shift = (pos - 1) * n
        rep |= 1 << shift
        nxt = {}
        b = 1
        for (used, packed), cand in frontier.items():
            if not cand & (cand - 1):
                continue
            m = cand
            wait = cand & late
            while wait:
                low = wait & -wait
                wait ^= low
                # a lower-labelled twin of the vertex is still unplaced
                if masks[class_of[low.bit_length() - 1]] & (low - 1) & ~used:
                    m ^= low
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                rest = cand ^ low
                zero = rest & ~rows[v]
                if zero:
                    if b:
                        nxt = {}
                        b = 0
                    rest = zero
                elif not b:
                    continue
                now = used | low
                planes = (packed | rows[v] << shift) & (full ^ now) * rep
                nxt[now, planes] = rest
        if nxt:
            best = best << 1 | b
        else:
            # Every minimal set is one vertex: rescan each child's planes.
            best = -1
            for (used, packed), single in frontier.items():
                now = used | single
                cand = full ^ now
                row = rows[single.bit_length() - 1]
                planes = (packed | row << shift) & cand * rep
                c = 0
                for i in range(0, pos * n, n):
                    rest = cand & ~(planes >> i)
                    if rest:
                        cand = rest
                        c <<= 1
                    else:
                        c = (c << 1) | 1
                if best < 0 or c < best:
                    best = c
                    nxt = {(now, planes): cand}
                elif c == best:
                    nxt[now, planes] = cand
        code = (code << pos) | best
        frontier = nxt
        if len(frontier) > 1_000_000:
            raise RuntimeError(
                "canonical-form frontier explosion; canonicalize per "
                "component instead of the whole graph"
            )
    return frame_code(n, code)


def frame_code(n: int, value: int) -> bytes:
    """The order byte, then `value`, the `graphs.triangle_value` of an
    order-n graph, big-endian and zero-padded at the front to whole
    bytes."""
    if n > 255:
        raise ValueError("code format limited to order <= 255")
    return bytes([n]) + value.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def pack_code(rows) -> bytes:
    """The code of a labelled graph as it stands, without minimizing."""
    return frame_code(len(rows), triangle_value(rows))


def code_to_rows(code: bytes) -> tuple[int, ...]:
    """The adjacency rows of the graph a code labels."""
    return rows_from_triangle(code[0], int.from_bytes(code[1:], "big"))


def has_cycle_of_length(rows, length: int, budget=None) -> int:
    """1 if some cycle on exactly `length` vertices exists, 0 if none,
    -1 if the node-expansion budget ran out first.

    Exact backtracking over simple paths.  Each cycle is sought with its
    minimum vertex as the anchor, so every other vertex on the path is
    restricted to higher labels.  Vertices outside the 2-core cannot lie
    on any cycle and are dropped first.
    """
    n = len(rows)
    if length < 3 or length > n:
        return 0
    alive = (1 << n) - 1
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if (alive >> v) & 1 and (rows[v] & alive).bit_count() < 2:
                alive ^= 1 << v
                changed = True
    if alive.bit_count() < length:
        return 0
    left = inf if budget is None else budget.left
    ops = 0
    try:
        for s in bits_of(alive):
            gt = alive & ~((1 << (s + 1)) - 1)
            rs = rows[s]
            if (rs & gt).bit_count() < 2:
                continue
            frames = [[s, rs & gt]]
            used = 1 << s
            while frames:
                v, m = frames[-1]
                if len(frames) == length - 1:
                    if m & rs:
                        return 1
                    frames.pop()
                    used &= ~(1 << v)
                    continue
                if m == 0:
                    frames.pop()
                    used &= ~(1 << v)
                    continue
                low = m & -m
                frames[-1][1] = m ^ low
                ops += 1
                if ops > left:
                    return -1
                w = low.bit_length() - 1
                used |= low
                frames.append([w, rows[w] & gt & ~used])
        return 0
    finally:
        if budget is not None:
            budget.spend(ops)


def longest_path_order(rows, budget=None) -> int:
    """Maximum number of vertices on a simple path (-1 on budget
    exhaustion).  Backtracking with a reachability upper bound: a partial
    path cannot beat the incumbent if even absorbing every vertex still
    reachable from its tip falls short."""
    n = len(rows)
    if n == 0:
        return 0
    best = 1
    full = (1 << n) - 1
    left = inf if budget is None else budget.left
    ops = 0
    try:
        for s in range(n):
            frames = [[s, rows[s]]]
            used = 1 << s
            while frames:
                v, m = frames[-1]
                if m == 0:
                    frames.pop()
                    used &= ~(1 << v)
                    continue
                low = m & -m
                frames[-1][1] = m ^ low
                ops += 1
                if ops > left:
                    return -1
                avail = full & ~used
                reach = low
                frontier = low
                while frontier:
                    nb = 0
                    for x in bits_of(frontier):
                        nb |= rows[x]
                    frontier = nb & avail & ~reach
                    reach |= frontier
                if len(frames) + reach.bit_count() <= best:
                    continue
                w = low.bit_length() - 1
                used |= low
                frames.append([w, rows[w] & ~used])
                if len(frames) > best:
                    best = len(frames)
                    if best == n:
                        return best
        return best
    finally:
        if budget is not None:
            budget.spend(ops)
