"""Spectral radii, Perron vectors, and exact characteristic polynomials;
`quotient` is `graphs.quotient`, the certified equitable quotient.

Floating work runs on numpy: graphs are power-iterated; quotient matrices
take the dense Perron pair of `np.linalg.eig` when its residual meets the
tolerance and are power-iterated otherwise.  Every returned root carries
the residual ||A x - radius x||_inf of its vector.  `radius_upper_bounds`
gives batches of graphs a certified Collatz-Wielandt upper bound without
iterating to convergence, so a caller after the largest radius need only
power-iterate the graphs whose bound can reach it.  Everything feeding a
sign decision is exact (characteristic polynomials by an integer
recurrence, their values by integer Horner, roots by bisection on integer
numerators), because the comparisons the harness certifies must not depend
on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import mul

import numpy as np

from oddwheel.families import auto_left_sizes, candidate, core_component
from oddwheel.graphs import (
    Graph,
    components,
    quotient,
    reachable,
)


class SpectralError(RuntimeError):
    """Eigencomputation failed to certify the requested tolerance."""


@dataclass(frozen=True)
class SpectralResult:
    """Perron root with a residual certificate.

    radius: dominant eigenvalue estimate; perron: non-negative vector
    normalized to max entry 1 (strictly positive on connected graphs);
    residual: ||A x - radius x||_inf at the returned vector; iterations:
    power-iteration steps spent (0 when a quotient's dense eigenpair met
    the tolerance).  For disconnected inputs the note names the achieving
    component and the vector is supported on it.
    """

    radius: float
    perron: tuple[float, ...]
    residual: float
    iterations: int
    note: str = ""


DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6
CLAIM1_WIDTH = Fraction(1, 10**12)  # claim 1's bracket on the root of f2


def _power_iteration(a: np.ndarray, tol: float, max_iter: int):
    """Power iteration from the all-ones vector with a unit shift (the
    shift breaks the +/- eigenvalue symmetry of near-bipartite graphs,
    which would otherwise stall convergence).  Returns (rayleigh, vector,
    residual, iterations) or raises SpectralError on budget exhaustion."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0]), np.ones(1), 0.0, 0
    shifted = a + np.eye(n)
    x = np.ones(n)
    lam = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = shifted @ x
        top = np.abs(y).max()
        if top == 0.0:
            # Only possible off non-negative inputs; treat as converged 0.
            return 0.0, x, 0.0, it
        x = y / top
        ax = a @ x
        lam = float(x @ ax) / float(x @ x)
        residual = float(np.abs(ax - lam * x).max())
        if residual <= tol:
            return lam, x, residual, it
    raise SpectralError(
        f"iteration budget {max_iter} exhausted (residual {residual:.3e} "
        f"> tol {tol:.3e})"
    )


def _adjacency_stack(graphs) -> np.ndarray:
    """Float adjacency matrices of the graphs, zero-padded to the largest
    order, as one (len(graphs), n, n) array unpacked from the row masks."""
    n = max(g.order for g in graphs)
    width = (n + 7) // 8
    packed = b"".join(
        r.to_bytes(width, "little")
        for g in graphs
        for r in g.rows + (0,) * (n - g.order)
    )
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(len(graphs), n, width)
    return np.unpackbits(bits, axis=2, count=n, bitorder="little").astype(float)


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralResult:
    """Largest adjacency eigenvalue; for disconnected graphs the maximum
    over components, with the achieving component named in the note."""
    if g.order < 1:
        raise ValueError("spectral radius needs at least one vertex")
    if tol <= 0:
        raise ValueError("tol must be positive")
    comps = components(g)
    best = None
    best_labels = None
    total_iters = 0
    for idx, comp in enumerate(comps):
        lam, vec, residual, iters = _power_iteration(
            _adjacency_stack([comp.graph])[0], tol, max_iter
        )
        total_iters += iters
        if best is None or lam > best[0]:
            best = (lam, vec, residual, idx)
            best_labels = comp.labels
    assert best is not None and best_labels is not None
    lam, vec, residual, idx = best
    perron = [0.0] * g.order
    top = float(np.abs(vec).max())
    for pos, label in enumerate(best_labels):
        perron[label] = float(vec[pos]) / top
    note = ""
    if len(comps) > 1:
        note = (
            f"radius attained on component {idx} "
            f"(order {len(best_labels)}) of {len(comps)}"
        )
    return SpectralResult(lam, tuple(perron), residual, total_iters, note)


# Shifted iteration steps before the bound is read; on every wheel-free
# class of order 7 and 8 (k = 2, 3, 4) eight steps leave only the
# maximizer's bound within 2e-8 of the top radius.
_BOUND_STEPS = 8
# At most 128 graphs and 2**16 matrix entries per stacked batch, so the
# transient arrays stay small.
_BOUND_CHUNK = 128
_BOUND_ENTRIES = 1 << 16
# Relative slack over the float sums: (n + 1) ulps bound their rounding,
# and 1e-9 exceeds that for every order below 4 * 10**6.
_BOUND_SLACK = 1e-9


def radius_upper_bounds(graphs) -> np.ndarray:
    """Certified upper bounds on the spectral radius of each graph.

    By Collatz-Wielandt, rho(A) <= max_i (Ax)_i / x_i for every
    non-negative A and every x > 0, connected or not (Horn and Johnson,
    *Matrix Analysis*, ch. 8).  x is a few steps of (A+I)x from the
    all-ones vector, which keeps every entry positive, run on stacked
    batches of graphs; the bound carries a relative slack for rounding,
    so it is at least the radius `spectral_radius` returns.  Padding a
    graph with isolated vertices changes neither side."""
    if any(g.order < 1 for g in graphs):
        raise ValueError("spectral radius needs at least one vertex")
    out = np.empty(len(graphs))
    n = max((g.order for g in graphs), default=1)
    step = max(1, min(_BOUND_CHUNK, _BOUND_ENTRIES // (n * n)))
    for start in range(0, len(graphs), step):
        a = _adjacency_stack(graphs[start:start + step])
        x = np.ones(a.shape[:2])
        for _ in range(_BOUND_STEPS):
            x += np.matmul(a, x[..., None])[..., 0]
            x /= x.max(axis=1, keepdims=True)
        ax = np.matmul(a, x[..., None])[..., 0]
        out[start:start + len(a)] = (ax / x).max(axis=1)
    return out * (1.0 + _BOUND_SLACK)


def _to_float_matrix(m) -> np.ndarray:
    a = np.array([[float(x) for x in row] for row in m], dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if (a < 0).any():
        raise ValueError("matrix entries must be non-negative")
    return a


def _pattern_irreducible(a: np.ndarray) -> bool:
    """Whether the nonzero pattern of a is strongly connected: with row i
    as the bitmask of the j where a[i, j] > 0, every start reaches every
    row."""
    rows = [sum(1 << int(j) for j in np.flatnonzero(r)) for r in a > 0]
    full = (1 << len(rows)) - 1
    return all(reachable(rows, s) == full for s in range(len(rows)))


def _dense_pair(a: np.ndarray, tol: float):
    """Perron pair from a dense eigendecomposition: the eigenvector of the
    eigenvalue with the largest real part (the Perron root of a
    non-negative matrix), taken in absolute value and normalized to max
    entry 1, with the Rayleigh quotient and residual `_power_iteration`
    reports.  Returns (rayleigh, vector, residual, 0), or None when the
    vector is not finite, is zero, or misses the tolerance."""
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError:
        return None
    v = np.abs(vectors[:, int(np.argmax(values.real))])
    if not np.isfinite(v).all():
        return None
    top = v.max()
    if top == 0.0:
        return None
    x = v / top
    ax = a @ x
    lam = float(x @ ax) / float(x @ x)
    residual = float(np.abs(ax - lam * x).max())
    if residual <= tol:
        return lam, x, residual, 0
    return None


def matrix_radius(
    m, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralResult:
    """Perron root of a non-negative square matrix with the same residual
    certificate as graphs.  The dense eigenpair of the eigenvalue with the
    largest real part is tried first and kept, with `iterations` 0, when
    its residual ||A x - radius x||_inf meets `tol`; otherwise power
    iteration runs as for graphs.  2x2 inputs are additionally
    cross-checked against the closed form."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = _to_float_matrix(m)
    note = ""
    if not _pattern_irreducible(a):
        note = (
            "reducible pattern; the Perron vector may vanish off the "
            "dominant class"
        )
    pair = _dense_pair(a, tol)
    if pair is None:
        try:
            pair = _power_iteration(a, tol, max_iter)
        except SpectralError as exc:
            if note:
                raise SpectralError(f"{exc} [{note}]") from exc
            raise
    lam, vec, residual, iters = pair
    if a.shape[0] == 2:
        closed = (a[0, 0] + a[1, 1]) / 2 + np.sqrt(
            ((a[0, 0] - a[1, 1]) / 2) ** 2 + a[0, 1] * a[1, 0]
        )
        if abs(lam - closed) > 100 * max(tol, 1e-15) * max(1.0, abs(closed)):
            raise SpectralError(
                f"2x2 closed form {closed!r} disagrees with iteration {lam!r}"
            )
    top = float(np.abs(vec).max())
    perron = tuple(float(v) / top for v in vec)
    return SpectralResult(lam, perron, residual, iters, note)


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(xI - M) with exact rational
    coefficients, stored constant-first."""

    coefficients: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(L, a): the coefficients over their common denominator L, as
        the integers a_d, ..., a_0 highest first, so poly = sum a_i x^i / L."""
        common = math.lcm(*(c.denominator for c in self.coefficients))
        return common, tuple(
            c.numerator * (common // c.denominator)
            for c in reversed(self.coefficients)
        )

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact value at a rational x = p/q: the homogenised Horner sum
        of `_horner` over the integer form, divided by L q^d once."""
        x = Fraction(x)
        common, ints = self.integer_form
        return Fraction(
            _horner(ints, x.numerator, x.denominator),
            common * x.denominator ** self.degree,
        )


def _horner(ints, p: int, q: int) -> int:
    """sum of a_i p^i q^(d-i) over the integers a_d, ..., a_0 (highest
    first), which is q^d times the polynomial at p/q; for q > 0 its sign
    is the polynomial's sign there."""
    acc = ints[0]
    q_pow = 1
    for a in ints[1:]:
        q_pow *= q
        acc = acc * p + a * q_pow
    return acc


MAX_CHARPOLY_DIM = 12


def char_poly(m) -> CharPoly:
    """Exact characteristic polynomial by the Faddeev-LeVerrier recurrence
    (dimension capped at desk scale).  The recurrence runs in integers on
    D*M, D the least common denominator of the entries; every division of
    a trace by k is checked to be exact, and the coefficient c_i of
    det(xI - D*M) becomes c_i / D^(n-i) of det(xI - M)."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n > MAX_CHARPOLY_DIM:
        raise ValueError(f"dimension {n} above cap {MAX_CHARPOLY_DIM}")
    if n == 0:
        return CharPoly((Fraction(1),))
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [
        [x.numerator * (scale // x.denominator) for x in row] for row in rows
    ]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # work <- (D*M) @ work
        cols = list(zip(*work))
        prod = [[sum(map(mul, row, col)) for col in cols] for row in ints]
        c, rem = divmod(-sum(prod[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(
                f"trace of step {k} not divisible by {k}; integer "
                "Faddeev-LeVerrier invariant broken"
            )
        coeffs[n - k] = c
        for i in range(n):
            prod[i][i] += c
        work = prod
    return CharPoly(
        tuple(Fraction(c, scale ** (n - i)) for i, c in enumerate(coeffs))
    )


def bracket_largest_root(
    poly: CharPoly, approx: float, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an exact-rational bracket [lo, hi] with poly(lo) < 0 <
    poly(hi) around the largest real root, to the requested width.

    `approx` must be an estimate of the largest root accurate enough that
    approx - 1e-4 lies above every other real root; the sign conditions
    are verified, not assumed.

    The bisection runs on integer numerators: lo = a/q and hi = b/q over
    one common denominator q > 0, so the midpoint is (a + b)/(2q), and a
    step sets m = a + b and doubles a, b and q, keeping m in place of the
    doubled end it replaces.  The sign of poly at m/q is the sign of the
    homogenised integer Horner sum (`_horner`), since L q^d > 0.  Every
    step halves the same interval rational bisection would, so the bracket
    returned is the same pair of rationals.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("bracket width must be positive")
    _, ints = poly.integer_form
    hi = Fraction(max(abs(c) for c in poly.coefficients) + 1)
    if Fraction(approx) + 1 > hi:
        hi = Fraction(approx) + 1
    if _horner(ints, hi.numerator, hi.denominator) <= 0:
        raise SpectralError("upper bracket failed; root bound too small")
    lo = Fraction(approx) - Fraction(1, 10_000)
    if _horner(ints, lo.numerator, lo.denominator) >= 0:
        raise SpectralError(
            "lower bracket failed; approximation not below the root"
        )
    q = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    # hi - lo > width, cross-multiplied: (b - a) w_den > w_num q
    w_num, w_den = width.numerator, width.denominator
    while (b - a) * w_den > w_num * q:
        m = a + b
        q *= 2
        if _horner(ints, m, q) < 0:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m
    return Fraction(a, q), Fraction(b, q)


@dataclass(frozen=True)
class Claim1Result:
    """Comparison of the two competing quotient matrices at even k and
    n = 2 mod 4: the 6-class matrix of the balanced candidate (radius1)
    against the 3-class matrix of the unbalanced one (radius2), plus the
    exact sign of the first matrix's characteristic polynomial at the
    second's Perron root.  graph1 and graph2 are the two candidates, and
    matrix1 and matrix2 their integer quotient matrices as `quotient`
    derives them (cells in lowest-vertex order)."""

    radius1: float
    radius2: float
    sign_at_root: int
    bracket: tuple[Fraction, Fraction] = field(repr=False)
    matrix1: tuple[tuple[int, ...], ...] = field(repr=False)
    matrix2: tuple[tuple[int, ...], ...] = field(repr=False)
    graph1: Graph = field(repr=False)
    graph2: Graph = field(repr=False)


def claim1_comparison(k: int, n: int) -> Claim1Result:
    """Build both candidates from scratch, derive their quotient matrices
    from the graphs, and compare Perron roots: numerically for the record,
    and by the exact rational sign of f1 at the bracketed root of f2.  The
    sides are the two that `auto_left_sizes(n, k)` names (even k >= 4,
    n = 2 mod 4), at n >= 4k."""
    lefts = auto_left_sizes(n, k)
    if len(lefts) == 1 or n < 4 * k:
        raise ValueError(
            f"claim 1 needs two competing side sizes and n >= 4k; k={k}, "
            f"n={n} give |L| in {lefts}"
        )
    balanced, unbalanced = (candidate(k, n, left) for left in lefts)
    m1 = quotient(balanced).quotient
    m2 = quotient(unbalanced).quotient

    r1 = matrix_radius(m1)
    r2 = matrix_radius(m2)
    f1 = char_poly(m1)
    f2 = char_poly(m2)
    lo, hi = bracket_largest_root(f2, r2.radius, CLAIM1_WIDTH)
    v_lo = f1.evaluate(lo)
    v_hi = f1.evaluate(hi)
    if v_lo < 0 and v_hi < 0:
        sign = -1
    elif v_lo > 0 and v_hi > 0:
        sign = 1
    else:
        sign = 0
    return Claim1Result(
        radius1=r1.radius,
        radius2=r2.radius,
        sign_at_root=sign,
        bracket=(lo, hi),
        matrix1=m1,
        matrix2=m2,
        graph1=balanced,
        graph2=unbalanced,
    )


def core_quotient_note(k: int) -> str:
    """Consistency note attached to reports that print the 6-class matrix.

    The within-class neighbor count of the matching-complement block is
    k-4 (each vertex misses itself and its partner); a transcribed value
    of k-3 fails the row-sum check against the vertex degrees, so the
    matrix is always derived from the graph.
    """
    part = quotient(core_component(k))
    block = part.cell_of[1]
    inner = part.quotient[block][block]
    return (
        f"matching-complement diagonal entry computed as {inner} (= k-4); "
        "a k-3 entry would contradict the degree row sums"
    )
