"""Pure-Python reference implementations of the combinatorial hot kernels.

The compiled module (oddwheel._kernels) produces the same results;
kernels.py selects whichever is available at import.  Rows are adjacency
bitmasks, so this module works for any order; the compiled one is limited
to 64-bit masks and the dispatcher routes accordingly.

Canonical form
--------------
The canonical code of a graph is the lexicographically minimal adjacency
bit-string over all vertex orderings, reading the upper triangle in
column-major order: bits (0,1), (0,2), (1,2), (0,3), ... (the same bit
order graph6 uses).  Column-major reading makes the string decomposable
into per-position contributions: placing a vertex w at position j fixes
exactly the bits (i,j) for i<j, and those bits are w's adjacencies to the
vertices already placed, first-placed most significant.  So the minimum
can be found level by level.

At each level the search keeps every partial placement achieving the
minimal prefix (a frontier), because prefix-tied placements may differ
later.  A frontier entry is (used, planes): the mask of placed vertices
and, in placement order, the adjacency row of each placed vertex masked
to the unplaced ones.  Bit w of plane i is the i-th bit, most
significant first, of the contribution w would make, so the
contributions of all unplaced vertices are read column-wise from the
planes at once.  The minimal contribution and the
set of vertices reaching it come from one bit-sliced scan: start with
every unplaced vertex as a candidate and, plane by plane, keep only the
candidates without that bit whenever some exist (emitting a 0), else
keep them all (emitting a 1).

Two placements with the same used set and the same planes are
interchangeable from that point on: every unplaced vertex has the same
pending contribution in both.  Entries are keyed by exactly that pair,
which dedups the frontier; without it the frontier blows up factorially
on vertex-transitive graphs.
"""

from __future__ import annotations

from oddwheel.graphs import bits_of


def canon_code(n: int, rows) -> bytes:
    """Canonical form as bytes: order byte, then the packed minimal
    upper-triangle bit-string (big-endian, zero-padded)."""
    if n > 255:
        raise ValueError("canonical form limited to order <= 255")
    if n <= 1:
        return bytes([n])
    total_bits = n * (n - 1) // 2
    full = (1 << n) - 1

    frontier = dict.fromkeys(
        (1 << v, (rows[v] & ~(1 << v),)) for v in range(n)
    )
    code = 0
    for pos in range(1, n):
        best = -1
        chosen = []
        for entry in frontier:
            used, planes = entry
            cand = full & ~used
            c = 0
            for p in planes:
                rest = cand & ~p
                if rest:
                    cand = rest
                    c <<= 1
                else:
                    c = (c << 1) | 1
            if best < 0 or c < best:
                best = c
                chosen = [(entry, cand)]
            elif c == best:
                chosen.append((entry, cand))
        code = (code << pos) | best
        nxt = {}
        for (used, planes), cand in chosen:
            for v in bits_of(cand):
                now_used = used | (1 << v)
                keep = ~now_used
                nxt[
                    now_used,
                    tuple([p & keep for p in planes]) + (rows[v] & keep,),
                ] = None
        frontier = nxt
        if len(frontier) > 1_000_000:
            raise RuntimeError(
                "canonical-form frontier explosion; canonicalize per "
                "component instead of the whole graph"
            )
    return bytes([n]) + code.to_bytes((total_bits + 7) // 8, "big")


def pack_code(n: int, rows) -> bytes:
    """Pack a labeled graph into the code format without re-minimizing:
    order byte + column-major upper-triangle bits, big-endian."""
    if n > 255:
        raise ValueError("code format limited to order <= 255")
    if n <= 1:
        return bytes([n])
    total_bits = n * (n - 1) // 2
    code = 0
    for j in range(1, n):
        for i in range(j):
            code = (code << 1) | ((rows[i] >> j) & 1)
    return bytes([n]) + code.to_bytes((total_bits + 7) // 8, "big")


def code_to_rows(code: bytes) -> tuple[int, tuple[int, ...]]:
    """Rebuild the canonically labeled adjacency rows from a code."""
    n = code[0]
    rows = [0] * n
    if n <= 1:
        return n, tuple(rows)
    total_bits = n * (n - 1) // 2
    val = int.from_bytes(code[1:], "big")
    shift = total_bits
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if (val >> shift) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return n, tuple(rows)


def has_cycle_of_length(n: int, rows, length: int, budget: int) -> int:
    """1 if some cycle on exactly `length` vertices exists, 0 if none,
    -1 if the node-expansion budget ran out first.

    Exact backtracking over simple paths.  Each cycle is sought with its
    minimum vertex as the anchor, so every other vertex on the path is
    restricted to higher labels.  Vertices outside the 2-core cannot lie
    on any cycle and are dropped first.
    """
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
    ops = 0
    for s in bits_of(alive):
        gt = alive & ~((1 << (s + 1)) - 1)
        rs = rows[s]
        if (rs & gt).bit_count() < 2:
            continue
        frames = [[s, rows[s] & gt]]
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
            if 0 <= budget < ops:
                return -1
            w = low.bit_length() - 1
            used |= low
            frames.append([w, rows[w] & gt & ~used])
    return 0


def longest_path_order(n: int, rows, budget: int) -> int:
    """Maximum number of vertices on a simple path (-1 on budget
    exhaustion).  Backtracking with a reachability upper bound: a partial
    path cannot beat the incumbent if even absorbing every vertex still
    reachable from its tip falls short."""
    if n == 0:
        return 0
    best = 1
    full = (1 << n) - 1
    ops = 0
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
            if 0 <= budget < ops:
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
