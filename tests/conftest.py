from fractions import Fraction
from math import lcm

import pytest

from llschain import ChainCurve, GenSpec, all_multidegrees, from_chain, gen_simple
from llschain.chain_model import canonical_matrix
from llschain.exactla import Matrix, Subspace
from llschain.lattice import Direction, Multidegree, edge_between, other_components
from llschain.lls_core import LlsInstance

# (d, r) combinations for the seeded corpus: d = 1..5, r = 0..min(2, d).
CORPUS_COMBOS = [(d, r) for d in range(1, 6) for r in range(0, min(2, d) + 1)]
CORPUS_SIZE = 100


def corpus_specs() -> list[GenSpec]:
    specs = []
    idx = 0
    while len(specs) < CORPUS_SIZE:
        d, r = CORPUS_COMBOS[idx % len(CORPUS_COMBOS)]
        specs.append(GenSpec(d=d, r=r, seed=10_000 + 97 * idx))
        idx += 1
    return specs


@pytest.fixture(scope="session")
def corpus():
    """100 seeded simple-by-construction series across all (d, r) combos."""
    return [gen_simple(spec) for spec in corpus_specs()]


@pytest.fixture(scope="session")
def worked_instance():
    """The hand-checked degree-1 series: one section (1, 1, 1) at (1, 0, 0),
    spaces spanned by its canonical pushes."""
    chain = ChainCurve(1)
    grid = all_multidegrees(1)
    start = grid[0]
    section = (1, 0)  # coordinates of the constant section (1, 1, 1)
    spaces = {
        md: Subspace.span([section], 2).apply(canonical_matrix(chain, start, md))
        for md in grid
    }
    return from_chain(chain, 0, spaces)


def rational_matrix(rows, cols: int | None = None) -> Matrix:
    """The matrix of rows of ``Fraction`` or ``int`` entries, ``cols`` wide
    (by default as wide as the first row), built by ``Matrix.from_ints``."""
    rows = [tuple(map(Fraction, row)) for row in rows]
    dens = [lcm(*(e.denominator for e in row)) for row in rows]
    return Matrix.from_ints([[e.numerator * (den // e.denominator) for e in row]
                             for row, den in zip(rows, dens)],
                            dens, len(rows[0]) if cols is None else cols)


def with_entry(m: Matrix, i: int, j: int, value) -> Matrix:
    """Copy of ``m`` with entry ``(i, j)`` replaced (for perturbation tests)."""
    rows = m.row_list()
    rows[i] = (*rows[i][:j], Fraction(value), *rows[i][j + 1:])
    return rational_matrix(rows, cols=m.cols)


def zeros(rows: int, cols: int) -> Matrix:
    """The ``rows`` x ``cols`` zero matrix."""
    return Matrix.from_ints([[0] * cols] * rows, [1] * rows, cols)


def rescaled(inst: LlsInstance, scales) -> LlsInstance:
    """``inst`` with each twist map times a nonzero scalar: toward-Xq by
    ``scales[q-1]`` and from-Xq by the product of the other two, so every
    canonical walk between two nodes still has one composite.  The spaces
    and vanishing data are the same objects; no verdict can change, since
    scalar multiples have the same images and kernels."""
    c = [Fraction(s) for s in scales]
    factor = {}
    for q in (1, 2, 3):
        a, b = other_components(q)
        factor[Direction[f"TOWARD_X{q}"]] = c[q - 1]
        factor[Direction[f"FROM_X{q}"]] = c[a - 1] * c[b - 1]
    maps = {}
    for (source, target), m in inst.maps.items():
        f = factor[edge_between(source, target).direction]
        maps[(source, target)] = Matrix.from_ints(
            [[f.numerator * e for e in row] for row in m.ints],
            [f.denominator * den for den in m.dens], m.cols)
    return LlsInstance(inst.d, inst.r, inst.ambient_dim, maps, inst.vanishing,
                       dict(inst.spaces))


def one_node_instance(a: Subspace, b: Subspace, c: Subspace) -> LlsInstance:
    """A degree-0 series with ``a, b, c`` as the vanishing spaces of its one
    node and the whole space as the chosen one; with no edges, it is exact
    and only the node's sums and meets are left to compute."""
    n = a.ambient_dim
    node = Multidegree(0, 0, 0)
    return LlsInstance(0, n - 1, {node: n}, {}, {node: {1: a, 2: b, 3: c}},
                       {node: Subspace.full(n)})


def abstract_nondistributive_instance() -> LlsInstance:
    """Hand-made abstract data (not from the chain backend, and not
    law-consistent): exact along every edge, but the three vanishing lines
    at (1, 0, 0) are distinct lines of a plane, so distributivity fails
    there.  Exercises the refusal paths of the constructions."""
    a, b, c = all_multidegrees(1)
    u, v, uv = (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)
    plane = Subspace.span([u, v], 4)
    full = Subspace.full(4)
    zero_map = zeros(4, 4)
    ident = Matrix.identity(4)
    maps = {(a, b): ident, (b, a): zero_map, (b, c): ident, (c, b): zero_map}
    vanishing = {
        a: {1: Subspace.span([u], 4), 2: Subspace.span([v], 4),
            3: Subspace.span([uv], 4)},
        b: {1: full, 2: Subspace.sum((), 4), 3: Subspace.sum((), 4)},
        c: {1: full, 2: full, 3: Subspace.sum((), 4)},
    }
    return LlsInstance(1, 1, {node: 4 for node in (a, b, c)}, maps, vanishing,
                       {a: plane, b: plane, c: plane})
