# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled combinatorial kernels (64-bit adjacency masks, order <= 64).

Same codes and answers as oddwheel._kernels_py; canonical form is found
through a per-vertex contribution frontier (see that module's notes).
The dispatcher in oddwheel.kernels routes larger graphs to pure Python.
"""

from libc.stdlib cimport free, malloc, realloc
from libc.string cimport memset

ctypedef unsigned long long u64


cdef inline int _popcount(u64 x) noexcept:
    cdef int c = 0
    while x:
        x &= x - 1
        c += 1
    return c


cdef inline int _lowbit_index(u64 x) noexcept:
    cdef int i = 0
    while not (x & 1):
        x >>= 1
        i += 1
    return i


def canon_code(int n, rows_in):
    """Canonical form bytes: order byte + packed minimal bit-string."""
    if n > 64:
        raise ValueError("compiled canon_code limited to order <= 64")
    if n <= 1:
        return bytes([n])

    cdef u64 rows[64]
    cdef int i
    for i in range(n):
        rows[i] = rows_in[i]

    cdef int total_bits = n * (n - 1) // 2
    cdef int nbytes = (total_bits + 7) // 8
    cdef unsigned char *code = <unsigned char *> malloc(nbytes)
    memset(code, 0, nbytes)
    # Leading pad bits so the packing matches int.to_bytes on the pure path.
    cdef int bitpos = 8 * nbytes - total_bits

    # Frontier: used[e], contrib[e*n + v] (valid for unplaced v only).
    cdef int cap = 64
    cdef u64 *used = <u64 *> malloc(cap * sizeof(u64))
    cdef u64 *contrib = <u64 *> malloc(cap * n * sizeof(u64))
    cdef u64 *nused = <u64 *> malloc(cap * sizeof(u64))
    cdef u64 *ncontrib = <u64 *> malloc(cap * n * sizeof(u64))
    cdef int count = 0, ncount = 0

    cdef int v, w, e, pos, k, dup, first
    cdef u64 best, c, uv, bit
    cdef u64 *tmp

    for v in range(n):
        # Dedup of singletons is a no-op (distinct used masks).
        used[count] = (<u64> 1) << v
        for w in range(n):
            if w != v:
                contrib[count * n + w] = (rows[w] >> v) & 1
        count += 1

    try:
        for pos in range(1, n):
            # Pass 1: minimal contribution over all (entry, candidate).
            best = 0
            first = 1
            for e in range(count):
                uv = used[e]
                for v in range(n):
                    if (uv >> v) & 1:
                        continue
                    c = contrib[e * n + v]
                    if first or c < best:
                        best = c
                        first = 0
            # Emit pos bits of best, most significant first.
            for k in range(pos - 1, -1, -1):
                if (best >> k) & 1:
                    code[bitpos >> 3] |= 1 << (7 - (bitpos & 7))
                bitpos += 1
            # Pass 2: extend the achievers, deduping interchangeable states.
            ncount = 0
            for e in range(count):
                uv = used[e]
                for v in range(n):
                    if ((uv >> v) & 1) or contrib[e * n + v] != best:
                        continue
                    if ncount == cap:
                        if cap >= (1 << 21):
                            raise RuntimeError(
                                "canonical-form frontier explosion; "
                                "canonicalize per component instead")
                        cap *= 2
                        used = <u64 *> realloc(used, cap * sizeof(u64))
                        contrib = <u64 *> realloc(
                            contrib, cap * n * sizeof(u64))
                        nused = <u64 *> realloc(nused, cap * sizeof(u64))
                        ncontrib = <u64 *> realloc(
                            ncontrib, cap * n * sizeof(u64))
                    bit = (<u64> 1) << v
                    nused[ncount] = uv | bit
                    for w in range(n):
                        if ((uv | bit) >> w) & 1:
                            ncontrib[ncount * n + w] = 0
                        else:
                            ncontrib[ncount * n + w] = (
                                (contrib[e * n + w] << 1)
                                | ((rows[v] >> w) & 1)
                            )
                    # Linear dedup: same used mask and identical pending
                    # contributions means the same future.
                    dup = 0
                    for k in range(ncount):
                        if nused[k] != nused[ncount]:
                            continue
                        dup = 1
                        for w in range(n):
                            if ncontrib[k * n + w] != ncontrib[ncount * n + w]:
                                dup = 0
                                break
                        if dup:
                            break
                    if not dup:
                        ncount += 1
            tmp = used
            used = nused
            nused = tmp
            tmp = contrib
            contrib = ncontrib
            ncontrib = tmp
            count = ncount
        out = bytes([n]) + code[:nbytes]
    finally:
        free(code)
        free(used)
        free(contrib)
        free(nused)
        free(ncontrib)
    return out


def has_cycle_of_length(int n, rows_in, int length, long long budget):
    """1 found / 0 absent / -1 budget exhausted."""
    if n > 64:
        raise ValueError("compiled kernel limited to order <= 64")
    if length < 3 or length > n:
        return 0
    cdef u64 rows[64]
    cdef int i
    for i in range(n):
        rows[i] = rows_in[i]

    cdef u64 alive
    if n < 64:
        alive = ((<u64> 1) << n) - 1
    else:
        alive = <u64> 0xFFFFFFFFFFFFFFFFULL
    cdef int changed = 1, v
    while changed:
        changed = 0
        for v in range(n):
            if ((alive >> v) & 1) and _popcount(rows[v] & alive) < 2:
                alive ^= (<u64> 1) << v
                changed = 1
    if _popcount(alive) < length:
        return 0

    cdef int v_stack[66]
    cdef u64 m_stack[66]
    cdef long long ops = 0
    cdef int depth, s, w, top
    cdef u64 gt, rs, used, m, low, rest

    rest = alive
    while rest:
        s = _lowbit_index(rest)
        rest &= rest - 1
        if s + 1 >= 64:
            gt = 0
        else:
            gt = alive & ~(((<u64> 1) << (s + 1)) - 1)
        rs = rows[s]
        if _popcount(rs & gt) < 2:
            continue
        v_stack[0] = s
        m_stack[0] = rows[s] & gt
        depth = 1
        used = (<u64> 1) << s
        while depth > 0:
            top = depth - 1
            v = v_stack[top]
            m = m_stack[top]
            if depth == length - 1:
                if m & rs:
                    return 1
                depth -= 1
                used &= ~((<u64> 1) << v)
                continue
            if m == 0:
                depth -= 1
                used &= ~((<u64> 1) << v)
                continue
            low = m & (~m + 1)
            m_stack[top] = m ^ low
            ops += 1
            if 0 <= budget < ops:
                return -1
            w = _lowbit_index(low)
            used |= low
            v_stack[depth] = w
            m_stack[depth] = rows[w] & gt & ~used
            depth += 1
    return 0


def longest_path_order(int n, rows_in, long long budget):
    """Maximum simple-path order, or -1 on budget exhaustion."""
    if n > 64:
        raise ValueError("compiled kernel limited to order <= 64")
    if n == 0:
        return 0
    cdef u64 rows[64]
    cdef int i
    for i in range(n):
        rows[i] = rows_in[i]

    cdef u64 full
    if n < 64:
        full = ((<u64> 1) << n) - 1
    else:
        full = <u64> 0xFFFFFFFFFFFFFFFFULL
    cdef int best = 1
    cdef long long ops = 0

    cdef int v_stack[66]
    cdef u64 m_stack[66]
    cdef int depth, s, v, w, top
    cdef u64 used, m, low, avail, reach, frontier, nb, f

    for s in range(n):
        v_stack[0] = s
        m_stack[0] = rows[s]
        depth = 1
        used = (<u64> 1) << s
        while depth > 0:
            top = depth - 1
            v = v_stack[top]
            m = m_stack[top]
            if m == 0:
                depth -= 1
                used &= ~((<u64> 1) << v)
                continue
            low = m & (~m + 1)
            m_stack[top] = m ^ low
            ops += 1
            if 0 <= budget < ops:
                return -1
            avail = full & ~used
            reach = low
            frontier = low
            while frontier:
                nb = 0
                f = frontier
                while f:
                    nb |= rows[_lowbit_index(f)]
                    f &= f - 1
                frontier = nb & avail & ~reach
                reach |= frontier
            if depth + _popcount(reach) <= best:
                continue
            w = _lowbit_index(low)
            used |= low
            v_stack[depth] = w
            m_stack[depth] = rows[w] & ~used
            depth += 1
            if depth > best:
                best = depth
                if best == n:
                    return best
    return best
