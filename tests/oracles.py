"""Independent reference computations used to cross-check the library.

Everything here deliberately avoids the code paths under test: rank via
fraction-free (Bareiss) elimination on integers, reduced row echelon forms,
row spaces and left kernels by sympy, preimages as left kernels against
the target's orthogonal complement, intersections via double orthogonal
complements in sympy, and path composites via an exhaustive walk
enumeration over (node, step-type-set) states.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import sympy as sp

from llschain.exactla import Matrix
from llschain.lattice import (
    Direction,
    Multidegree,
    PathClass,
    classify_steps,
)


def bareiss_rank(rows: list[list[Fraction]]) -> int:
    """Rank by fraction-free Gaussian elimination on integer-cleared rows."""
    cleared: list[list[int]] = []
    for row in rows:
        denom = 1
        for e in row:
            denom = denom * Fraction(e).denominator // _gcd(denom, Fraction(e).denominator)
        cleared.append([int(Fraction(e) * denom) for e in row])
    m = cleared
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    pr = 0
    for pc in range(n_cols):
        piv = None
        for k in range(pr, n_rows):
            if m[k][pc] != 0:
                piv = k
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        for k in range(pr + 1, n_rows):
            for c in range(pc + 1, n_cols):
                num = m[pr][pc] * m[k][c] - m[k][pc] * m[pr][c]
                assert num % prev == 0, "Bareiss division is exact"
                m[k][c] = num // prev
            m[k][pc] = 0
        prev = m[pr][pc]
        rank += 1
        pr += 1
        if pr == n_rows:
            break
    return rank


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a) or 1


def sympy_rref(rows: list[list[Fraction]], cols: int) -> tuple[list[tuple[Fraction, ...]],
                                                              tuple[int, ...]]:
    """Reduced row echelon form (every row, zero rows last) and pivot
    columns, by sympy's exact rational elimination."""
    if not rows:
        return [], ()
    reduced, pivots = sp.Matrix([[sp.Rational(e) for e in row] for row in rows]).rref()
    out = [tuple(Fraction(sp.Rational(reduced[k, j])) for j in range(cols))
           for k in range(len(rows))]
    return out, tuple(pivots)


def sympy_rowspace(rows, cols: int) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF) basis of the row space, by sympy."""
    reduced, pivots = sympy_rref(rows, cols)
    return reduced[:len(pivots)]


def _sympy_matrix(rows, nrows: int, ncols: int) -> sp.Matrix:
    return sp.Matrix(nrows, ncols, [sp.Rational(e) for row in rows for e in row])


def _left_kernel(mat: sp.Matrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of ``{v : v mat = 0}`` from sympy's nullspace of the
    transpose."""
    vectors = [[Fraction(sp.Rational(e)) for e in v] for v in mat.T.nullspace()]
    return sympy_rowspace(vectors, mat.rows)


def sympy_left_kernel(rows, nrows: int, ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of ``{v : v M = 0}`` for the ``nrows x ncols`` matrix
    ``M`` with the given rows."""
    return _left_kernel(_sympy_matrix(rows, nrows, ncols))


def sympy_preimage(rows, nrows: int, ncols: int, target_rows) -> list[tuple[Fraction, ...]]:
    """Canonical basis of ``{v : v M in rowspace(T)}``: the left kernel of
    ``M N``, where the columns of ``N`` span the solutions of ``T x = 0``
    (so ``w`` lies in ``rowspace(T)`` exactly when ``w N = 0``)."""
    mat = _sympy_matrix(rows, nrows, ncols)
    target = _sympy_matrix(target_rows, len(target_rows), ncols)
    normals = target.nullspace()
    if not normals:
        return [tuple(Fraction(int(i == j)) for j in range(nrows)) for i in range(nrows)]
    return _left_kernel(mat * sp.Matrix.hstack(*normals))


def sympy_intersection(a_rows, b_rows, ambient: int) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF) basis of rowspace(A) n rowspace(B), computed by
    solving for the two orthogonal complements and taking the complement of
    their sum: A n B = perp(perp(A) + perp(B)) over the rationals."""
    def perp(rows):
        if not rows:
            return [sp.eye(ambient).row(k) for k in range(ambient)]
        mat = sp.Matrix([[sp.Rational(e) for e in row] for row in rows])
        return [v.T for v in mat.nullspace()]

    stacked = perp(a_rows) + perp(b_rows)
    if not stacked:
        basis = sp.eye(ambient)
    else:
        both = sp.Matrix([list(v) for v in stacked])
        cols = [v.T for v in both.nullspace()]
        if not cols:
            return []
        basis = sp.Matrix([list(v) for v in cols])
    reduced, pivots = basis.rref()
    out = []
    for k in range(len(pivots)):
        out.append(tuple(Fraction(sp.Rational(reduced[k, j])) for j in range(ambient)))
    return out


def all_walk_composites(maps: dict, start: Multidegree, end: Multidegree,
                        ambient: int) -> set[Matrix]:
    """Composite matrices of *all* canonical walks from start to end.

    States are (node, set of step types used so far); a step may be taken
    only while the accumulated type set stays canonical.  No canonical type
    set admits a closed loop, so the state graph is finite and acyclic and
    a worklist pass collects every reachable composite.
    """
    identity = Matrix.identity(ambient)
    state_matrices: dict[tuple[Multidegree, frozenset], set[Matrix]] = {
        (start, frozenset()): {identity}
    }
    queue = deque([(start, frozenset())])
    while queue:
        node, used = queue.popleft()
        current = set(state_matrices[(node, used)])
        for direction in Direction:
            target = node.step(direction)
            if target is None:
                continue
            new_used = used | {direction}
            if classify_steps(new_used) is not PathClass.VALID_CANONICAL:
                continue
            edge_matrix = maps[(node, target)]
            news = {m @ edge_matrix for m in current}
            key = (target, new_used)
            existing = state_matrices.setdefault(key, set())
            if not news <= existing:
                existing |= news
                queue.append(key)
    out: set[Matrix] = set()
    for (node, _), matrices in state_matrices.items():
        if node == end:
            out |= matrices
    return out


def random_walk(rng, start: Multidegree, length: int) -> list[Multidegree]:
    """A random lattice walk (any directions, so usually degenerate)."""
    nodes = [start]
    for _ in range(length):
        options = [t for _, t in nodes[-1].neighbours()]
        if not options:
            break
        nodes.append(rng.choice(options))
    return nodes
