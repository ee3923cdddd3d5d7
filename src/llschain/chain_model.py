"""Concrete section spaces and twist maps on a chain of three rational curves.

Component coordinates: X1 carries ``t`` with the X1-X2 node at ``t = 0``;
X2 carries ``s`` with nodes at ``s = 0`` (X1 side) and ``s = 1`` (X3 side);
X3 carries ``u`` with the X2-X3 node at ``u = 0``.  A section of the
multidegree-``(i, j, l)`` bundle is a polynomial triple ``(f1, f2, f3)`` of
degrees at most ``(i, j, l)`` whose values match across the nodes,
``f1(0) = f2(0)`` and ``f2(1) = f3(0)``; the glued space has dimension
``d + 1``.  It is an ``exactla.Subspace`` of the raw coordinates, the
concatenated ascending coefficients ``a_0..a_i | b_0..b_j | c_0..c_l`` of
f1, f2 and f3, and its RREF basis is the canonical basis that every twist
matrix and vanishing subspace is written in.

Everything here is built from closed forms, and ``Subspace.span`` puts
each space in canonical form.  The RREF basis has a pivot at every raw
coefficient but ``b_0`` and ``c_0``, so a section's canonical coordinates
are ``(a_0..a_i, b_1..b_j, c_1..c_l)``, with ``b_0 = a_0`` and
``c_0 = a_0 + b_1 + ... + b_j``: the basis row of ``a_0`` also has a 1 at
``b_0`` and ``c_0``, that of each ``b_k`` at ``c_0``, and every other row
is a unit row.  A section vanishes on X1 when every ``a_k`` is zero, on X2
when ``a_0`` and every ``b_k`` are, and on X3 when every ``c_k`` is, ``c_0``
included; on a union, when all of its components' conditions hold.

The six twist maps restrict away one component and multiply by the linear
form vanishing at the node(s) it meets (one concrete choice of the gluing
trivialisation; all node constants are 1, so no correction factor appears
in any map):

    toward-X1: (f1, f2, f3) -> (0,      s.f2,       f3)
    from-X1:   (g1, g2, g3) -> (t.g1,   0,          0)
    toward-X2: (f1, f2, f3) -> (t.f1,   0,          u.f3)
    from-X2:   (g1, g2, g3) -> (0,      s(1-s).g2,  0)
    toward-X3: (f1, f2, f3) -> (f1,     (1-s).f2,   0)
    from-X3:   (g1, g2, g3) -> (0,      0,          u.g3)

``_FACTORS`` holds this table, one factor per direction and block.  It is
the one trivialisation: rescaling the maps by nonzero scalars changes
coordinates of images, never any rank, kernel, or subspace comparison
verdict, so a chain is its degree alone.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .exactla import (
    LinearAlgebraError,
    Matrix,
    Subspace,
    image_in,
    kernel,
    preimage,
)
from .lattice import (
    Direction,
    Edge,
    Multidegree,
    all_multidegrees,
    canonical_path,
    classify_steps,
    directed_edges,
    edge_between,
    other_components,
    PathClass,
)

if TYPE_CHECKING:
    from .lls_core import LlsInstance

__all__ = [
    "ChainCurve",
    "h0_basis",
    "twist_matrix",
    "vanishing_subspace",
    "canonical_matrix",
    "SheafSkeleton",
    "skeleton",
    "Violation",
    "LawReport",
    "verify_sheaf_laws",
]

class _ChainFields(NamedTuple):
    d: int


class ChainCurve(_ChainFields):
    """Chain X1 - X2 - X3 of rational curves carrying degree-``d`` bundles."""

    __slots__ = ()

    def __new__(cls, d: int) -> "ChainCurve":
        if d < 0:
            raise ValueError("total degree must be nonnegative")
        return super().__new__(cls, d)


@lru_cache(maxsize=None)
def h0_basis(chain: ChainCurve, md: Multidegree) -> Subspace:
    """Glued global sections at ``md``, as the subspace of raw coordinates
    (``i+1`` coefficients of f1, then ``j+1`` of f2, then ``l+1`` of f3,
    each in ascending degree) solving the two gluing equations; its RREF
    basis is the canonical basis of the section space.  Basis row ``p`` is
    the unit row at pivot ``p`` with ``b_0`` and ``c_0`` glued to it."""
    if md.degree != chain.d or min(md) < 0:
        raise ValueError(f"{md.label} is not a nonnegative multidegree of total degree {chain.d}")
    total = chain.d + 3
    b0, c0 = md.i + 1, md.i + md.j + 2  # the raw columns of b_0 and c_0
    rows = [[int(k == p) for k in range(total)] for p in range(total) if p not in (b0, c0)]
    for row in rows:
        row[b0] = row[0]
        row[c0] = sum(row[b0:c0])
    return Subspace.span(rows, total)


# The module docstring's table: each block's factor per direction, as
# ascending coefficients in that block's variable; () is the zero block.
_FACTORS = {
    Direction.TOWARD_X1: ((), (0, 1), (1,)),
    Direction.FROM_X1: ((0, 1), (), ()),
    Direction.TOWARD_X2: ((0, 1), (), (0, 1)),
    Direction.FROM_X2: ((), (0, 1, -1), ()),
    Direction.TOWARD_X3: ((1,), (1, -1), ()),
    Direction.FROM_X3: ((), (), (0, 1)),
}


def _twist_block(forms: Sequence[Sequence[int]], factor: Sequence[int],
                 size: int) -> list[list[int]]:
    """The ``size`` forms of one block's polynomial times ``factor``, from
    the forms of its coefficients."""
    out = [[0] * len(forms[0]) for _ in range(size)]
    for shift, coeff in enumerate(factor):
        if coeff:
            for k, form in enumerate(forms, shift):
                out[k] = [x + coeff * y for x, y in zip(out[k], form)]
    return out


@lru_cache(maxsize=None)
def twist_matrix(chain: ChainCurve, edge: Edge) -> Matrix:
    """Matrix of the twist map along ``edge`` in the canonical bases.

    Rows are indexed by the source basis, columns by the target basis; the
    map acts on coordinate rows by right multiplication.  Column ``k`` of
    the source basis is raw coefficient ``k`` as a linear form in the
    source coordinates, so each block's twisted coefficients are forms too
    (``_twist_block``).  The target's gluing is checked on the forms,
    ``a'_0 = b'_0`` and ``b'_0 + ... + b'_j' = c'_0``, so every image is a
    glued section (it always is for this backend), and the target
    coordinates are the forms at the target's pivot columns.
    """
    if edge.source.step(edge.direction) != edge.target:
        raise ValueError(f"{edge.label} is not a lattice edge")
    src = h0_basis(chain, edge.source)
    tgt = h0_basis(chain, edge.target)
    forms = list(zip(*src.basis.ints))
    b0, c0 = edge.source.i + 1, edge.source.i + edge.source.j + 2
    a, b, c = map(_twist_block, (forms[:b0], forms[b0:c0], forms[c0:]),
                  _FACTORS[edge.direction], [n + 1 for n in edge.target])
    if a[0] != b[0] or [sum(col) for col in zip(*b)] != c[0]:
        raise LinearAlgebraError(f"a twisted section along {edge.label} is not glued")
    image = a + b + c
    # Basis rows are 0/1 rows over 1, so the integer images are stored rows.
    return Matrix._stored(tgt.dim, tuple(zip(*(image[p] for p in tgt.pivots))), src.basis.dens)


@lru_cache(maxsize=None)
def vanishing_subspace(chain: ChainCurve, md: Multidegree,
                       components: tuple[int, ...]) -> Subspace:
    """Sections whose restriction to every listed component is identically
    zero, in the canonical coordinates at ``md``: the unit rows of the
    coordinates the module docstring's conditions leave free and, on X3,
    the differences of ``c_0``'s free terms, which must sum to zero."""
    comps = tuple(sorted(set(components)))
    if not comps or any(q not in (1, 2, 3) for q in comps):
        raise ValueError("components must be a nonempty subset of {1, 2, 3}")
    n = h0_basis(chain, md).dim
    i, j, _ = md
    # The coordinates each component sets to zero: the a_k, a_0 and the b_k,
    # the c_k; the free ones among a_0 and the b_k are tied on X3.
    units = {1: range(i + 1), 2: (0, *range(i + 1, i + j + 1)), 3: range(i + j + 1, n)}
    zero = {m for q in comps for m in units[q]}
    tied = [m for m in units[2] if m not in zero] if 3 in comps else []
    return Subspace.span([[int(k == m) - int(m in tied and k == tied[0]) for k in range(n)]
                          for m in range(n) if m not in zero and tied[:1] != [m]], n)


@lru_cache(maxsize=None)
def canonical_matrix(chain: ChainCurve, start: Multidegree, end: Multidegree) -> Matrix:
    """Composite matrix of the canonical walk between two multidegrees.

    Canonical walks are prefix-closed (the walk to the last-but-one node is
    the canonical walk there), so a longer walk is its cached prefix times
    the last edge."""
    nodes = canonical_path(start, end)
    if len(nodes) == 1:
        return Matrix.identity(h0_basis(chain, start).dim)
    last = twist_matrix(chain, edge_between(nodes[-2], end))
    return last if len(nodes) == 2 else canonical_matrix(chain, start, nodes[-2]) @ last


class SheafSkeleton(NamedTuple):
    """Ambient data of one degree: dimensions, twist matrices, and the
    single-component vanishing subspaces at every multidegree."""

    d: int
    ambient_dim: dict[Multidegree, int]
    maps: dict[tuple[Multidegree, Multidegree], Matrix]
    vanishing: dict[Multidegree, dict[int, Subspace]]


@lru_cache(maxsize=None)
def skeleton(chain: ChainCurve) -> SheafSkeleton:
    """Full ambient bundle of the chain at its degree."""
    grid = all_multidegrees(chain.d)
    ambient = {md: h0_basis(chain, md).dim for md in grid}
    maps = {(e.source, e.target): twist_matrix(chain, e) for e in directed_edges(chain.d)}
    vanishing = {md: {q: vanishing_subspace(chain, md, (q,)) for q in (1, 2, 3)}
                 for md in grid}
    return SheafSkeleton(chain.d, ambient, maps, vanishing)


class Violation(NamedTuple):
    """One failed check of kind ``kind`` at the node or edge ``at``, such as
    an ambient law; ``where`` is the rest of its location (a direction pair
    or a component), so the JSON ``location`` and the compact text
    ``label`` differ only in ``at``.  A ``witness`` is a stored integer row."""

    kind: str
    at: Multidegree | Edge
    witness: tuple[int, ...] | None
    message: str
    where: str = ""

    @property
    def location(self) -> str:
        return self.at.location + self.where

    @property
    def label(self) -> str:
        return self.at.label + self.where

    def to_json(self) -> dict:
        return {"kind": self.kind, "location": self.location, "message": self.message}


class LawReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"law": v.kind, "location": v.location, "message": v.message}
                for v in self.violations
            ],
        }


def verify_sheaf_laws(target: ChainCurve | SheafSkeleton | LlsInstance) -> LawReport:
    """Check the ambient twist laws on the ambient data (``d``, ``maps``
    and ``vanishing``) of a skeleton or an instance, or of a chain's
    skeleton.

    Per node and unordered direction pair: if the two-step pattern is
    canonical, both step orders give equal composites; if it is degenerate,
    every defined order composes to zero.  The degenerate pairs include
    each toward-Xq/from-Xq pair, whose orders are the two round trips
    across a node pair.  Per toward edge: the kernel equals vanishing
    on the complementary two components; and vanishing on each other single
    component is transported exactly (a section vanishes there if and only
    if its image does).  Per edge, toward and from: the image vanishes on
    each component of the step's ``Direction.lands_in``, the twisted
    component for toward-Xq and the two complementary ones for from-Xq.
    """
    skel = skeleton(target) if isinstance(target, ChainCurve) else target
    violations: list[Violation] = []

    def record(law: str, at: Multidegree | Edge, witness: tuple[int, ...] | None, message: str,
               where: str = "") -> None:
        violations.append(Violation(law, at, witness, message, where))

    grid = all_multidegrees(skel.d)
    for md in grid:
        for da, db in combinations(Direction, 2):
            # Both orders that stay in the lattice end at one node.
            orders = [skel.maps[(md, mid)] @ skel.maps[(mid, end)]
                      for first, second in ((da, db), (db, da))
                      if (mid := md.step(first)) is not None
                      and (end := mid.step(second)) is not None]
            if not orders:
                continue
            if classify_steps((da, db)) is PathClass.VALID_CANONICAL:
                if len(orders) == 2 and orders[0] != orders[1]:
                    record("square-commutation", md, None,
                           "the two step orders disagree", f" via {da.label}/{db.label}")
            else:
                for product in orders:
                    if not product.is_zero():
                        record("degenerate-composition", md,
                               next(filter(any, product.ints), None),
                               "degenerate two-step pattern is not zero",
                               f" via {da.label}/{db.label}")

    for md in grid:
        for toward in (Direction.TOWARD_X1, Direction.TOWARD_X2, Direction.TOWARD_X3):
            target_md = md.step(toward)
            if target_md is None:
                continue
            edge = Edge(md, target_md, toward)
            fwd = skel.maps[(md, target_md)]
            complementary = other_components(toward.component)
            expected_kernel = (skel.vanishing[md][complementary[0]]
                               & skel.vanishing[md][complementary[1]])
            actual_kernel = kernel(fwd)
            if actual_kernel != expected_kernel:
                record("kernel-vanishing", edge,
                       next(filter(any, actual_kernel.basis.ints), None),
                       "kernel differs from vanishing on the complementary components")
            for p in complementary:
                transported = preimage(fwd, skel.vanishing[target_md][p])
                if transported != skel.vanishing[md][p]:
                    record("vanishing-transport", edge, None,
                           "vanishing on an untwisted component is not transported exactly",
                           f" (X{p})")
            for step, message in ((edge, "toward image does not vanish on the twisted component"),
                                  (Edge(target_md, md, toward.inverse),
                                   "from image does not vanish away from its component")):
                for p in step.direction.lands_in:
                    if not image_in(skel.maps[(step.source, step.target)],
                                    skel.vanishing[step.target][p]):
                        record("image-containment", step, None, message)

    return LawReport(tuple(violations))
