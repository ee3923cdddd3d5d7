"""Limit linear series on the three-component chain: data model and checks.

An instance carries, for every multidegree of the fixed total degree, the
ambient section-space dimension, the twist matrix of every directed lattice
edge, the ambient single-component vanishing subspaces, and a chosen
``(r+1)``-dimensional subspace.  The ambient data is backend agnostic: it
may come from :mod:`llschain.chain_model` or be loaded from a file.

Everything the checks derive from that data lives in one analysis table,
``LlsInstance.table``.  A node has one entry per chosen space, a record of
its meets ``V_S = V ∩ Van_S`` for the nonempty sets ``S`` of components,
its triple sum ``V_1 + V_2 + V_3`` and its grid cell.  An edge has its
pushed image and exactness record, a vertical edge its pushed-complement
check, and the reports :func:`exactness` and :func:`codim_report` and the
canonical-walk matrices are entries too (but for an instance over the
chain backend, which reads walks from its chain's cache).  Each value is
computed the first time a report reads it and kept.  The pushed image
(:func:`pushed_image`) is the one push of a space along an edge.

A key holds the filler's arguments and the chosen spaces the entry reads,
every node's for a whole-series report and none for a walk matrix.
:meth:`LlsInstance.derive` builds an instance with other spaces on the
same ambient data that shares the table, so a search probe or a perturbed
copy recomputes only what reads a changed space.  A table lives exactly
as long as the instances sharing it.

The validators here cover everything short of basis constructions:
linking, per-edge exactness, the dimension bookkeeping of the grid report,
the distributivity test, and the suite of conditional dimension identities
relating neighbouring multidegrees.

The file section at the end is the one place that knows the format of
instance and :class:`SimpleCertificate` files; its comment gives the
layouts, the one writer and the one reader's refusals.
"""

from __future__ import annotations

import functools
import json
from typing import Mapping, NamedTuple, Sequence

from . import chain_model
from .chain_model import ChainCurve, LawReport, Violation, verify_sheaf_laws
from .exactla import (
    LinearAlgebraError,
    Matrix,
    Subspace,
    _SHORT_INTS,
    _integer_row,
    complement_in,
    image,
    parse_rational,
)
from .lattice import (
    Direction,
    Edge,
    Multidegree,
    all_multidegrees,
    canonical_path,
    directed_edges,
    other_components,
)

__all__ = [
    "LlsInstance",
    "from_chain",
    "Violation",
    "ValidationReport",
    "validate",
    "vanishing_in_v",
    "vanishing_sum",
    "EdgeExactness",
    "ExactnessReport",
    "pushed_image",
    "exactness_at",
    "exactness",
    "distributive_at",
    "GridCell",
    "GridReport",
    "codim_report",
    "IdentityCheck",
    "IdentitySuiteReport",
    "identity_suite",
    "canonical_matrix",
    "InstanceFormatError",
    "md_key",
    "instance_to_json",
    "instance_from_json",
    "SimpleCertificate",
    "certificate_to_json",
    "certificate_from_json",
    "dump",
    "save_instance",
    "load_instance",
    "save_certificate",
    "load_certificate",
]


# The lattice axis of a step, by the step's component; it names the
# identity-suite checks.
_AXIS = {1: "horizontal", 2: "diagonal", 3: "vertical"}

# The seven component sets as increasing tuples, which every table key shares.
_COMPONENT_SETS = {c: c for c in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))}


def _tabled(reads):
    """Make ``compute(inst, *args)`` an entry of the instance's analysis
    table: computed on the first call, then kept.  A node's record
    (``_node``) is one entry, whose parts fill in place when first read.

    ``reads(*args)`` names the multidegrees whose chosen spaces the entry
    reads, and the key holds those spaces after the arguments, so every
    instance sharing the table finds the entry while those spaces agree
    (and a missing space raises ``KeyError`` naming its node)."""
    def wrap(compute):
        name = compute.__name__

        @functools.wraps(compute)
        def read(inst: "LlsInstance", *args):
            key = (name, *args, *map(inst.space, reads(*args)))
            value = inst.table.get(key)
            if value is None:
                value = inst.table[key] = compute(inst, *args)
            return value
        return read
    return wrap


class LlsInstance:
    """One series: ambient data plus the chosen subspaces.

    Nothing modifies the input fields after construction.  ``table`` maps
    ``(filler, *arguments, *spaces read)`` to the value a :func:`_tabled`
    function computed on first read, such as a node's record (``_node``,
    whose key holds the node and its space).  To change a space, build a
    new instance with :meth:`derive`, which keeps the ambient data and
    shares the table, so an unchanged node keeps its record and only what
    reads a changed space is computed again.  ``derive`` is the only way
    two instances share a table; an instance built any other way starts
    with an empty one.  Editing ``spaces`` in place would leave the table
    describing the old series.  ``chain`` is the backend of a
    :func:`from_chain` instance, else ``None``.
    """

    def __init__(self, d: int, r: int, ambient_dim: Mapping[Multidegree, int],
                 maps: Mapping[tuple[Multidegree, Multidegree], Matrix],
                 vanishing: Mapping[Multidegree, Mapping[int, Subspace]],
                 spaces: Mapping[Multidegree, Subspace],
                 provenance: dict | None = None, chain: ChainCurve | None = None) -> None:
        self.d = d
        self.r = r
        self.ambient_dim = ambient_dim
        self.maps = maps
        self.vanishing = vanishing
        self.spaces = spaces
        self.provenance = provenance
        self.chain = chain
        self.table: dict = {}

    @property
    def multidegrees(self) -> tuple[Multidegree, ...]:
        return all_multidegrees(self.d)

    def space(self, md: Multidegree) -> Subspace:
        try:
            return self.spaces[md]
        except KeyError:
            raise KeyError(f"no subspace stored at {md}") from None

    def derive(self, spaces: Mapping[Multidegree, Subspace],
               provenance: dict | None = None) -> "LlsInstance":
        """Instance with other chosen spaces on this instance's ambient
        data, sharing its analysis table."""
        out = LlsInstance(self.d, self.r, self.ambient_dim, self.maps, self.vanishing,
                          dict(spaces), provenance, self.chain)
        out.table = self.table
        return out


def from_chain(chain: ChainCurve, r: int,
               spaces: Mapping[Multidegree, Subspace],
               provenance: dict | None = None) -> LlsInstance:
    """Instance over the chain backend; ambient data is shared and cached."""
    skel = chain_model.skeleton(chain)
    return LlsInstance(chain.d, r, skel.ambient_dim, skel.maps, skel.vanishing,
                       dict(spaces), provenance, chain)


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}


# The ambient-law report of the last ambient data checked.  Instances over
# one backend share its tables, and reloads of one file have equal ones, so
# both reuse the report; holding one entry pins one map table at most.
_last_laws: tuple[tuple, LawReport] | None = None


def _ambient_law_report(inst: "LlsInstance") -> LawReport:
    global _last_laws
    key = (inst.d, inst.ambient_dim, inst.maps, inst.vanishing)
    if _last_laws is not None and _last_laws[0] == key:
        return _last_laws[1]
    report = verify_sheaf_laws(inst)
    _last_laws = (key, report)
    return report


def validate(inst: LlsInstance, ambient_laws: bool = True) -> ValidationReport:
    """Dimension, linking, and (optionally) ambient-law consistency.

    Verdicts are reported, never raised; a linking violation's witness is
    the first stored basis row of the pushed space that leaves the target
    (a positive multiple of that canonical basis vector).
    """
    violations: list[Violation] = []
    expected = inst.r + 1
    for md in inst.multidegrees:
        space = inst.spaces.get(md)
        if space is None:
            violations.append(Violation("dimension", md, None,
                                        "no subspace stored at this multidegree"))
            continue
        if space.ambient_dim != inst.ambient_dim[md]:
            violations.append(Violation("dimension", md, None,
                                        "subspace lives in the wrong ambient space"))
        elif space.dim != expected:
            violations.append(Violation(
                "dimension", md, None, f"dim {space.dim} instead of r+1 = {expected}"))
    for edge in directed_edges(inst.d):
        # A missing or wrong-ambient end already has its dimension violation.
        src, tgt = inst.spaces.get(edge.source), inst.spaces.get(edge.target)
        if (src is None or tgt is None or src.ambient_dim != inst.ambient_dim[edge.source]
                or tgt.ambient_dim != inst.ambient_dim[edge.target]):
            continue
        pushed = pushed_image(inst, edge)
        if not pushed <= tgt:
            witness = next(row for row in pushed.basis.ints if row not in tgt)
            violations.append(Violation(
                "linking", edge, witness,
                "image of the chosen subspace leaves the target subspace"))
    if ambient_laws:
        law_report = _ambient_law_report(inst)
        for v in law_report.violations:
            violations.append(Violation("ambient-law", v.at, v.witness,
                                        f"{v.kind}: {v.message}", v.where))
    return ValidationReport(tuple(violations))


def vanishing_in_v(inst: LlsInstance, md: Multidegree,
                   components: Sequence[int]) -> Subspace:
    """Sections of the chosen subspace vanishing on the listed components."""
    comps = _COMPONENT_SETS.get(tuple(sorted(set(components))))
    if comps is None:
        raise ValueError("components must be a nonempty subset of {1, 2, 3}")
    return _node(inst, md).meet(comps)


class _Node:
    """A node's table entry for one chosen space: the space, its ambient
    vanishing triple and, each filled when first read, the meets ``V_S`` by
    shared ``_COMPONENT_SETS`` tuple, the triple sum (one ``Subspace.sum``)
    and the grid cell.  Every count at the node is a method on these parts:
    :meth:`pair_sum_dim`, :meth:`meet_sum_dim` and :meth:`defect`."""

    __slots__ = ("space", "vanishing", "meets", "triple", "cell")

    def __init__(self, space: Subspace, vanishing: Mapping[int, Subspace]) -> None:
        self.space, self.vanishing, self.meets, self.triple, self.cell = (
            space, vanishing, {}, None, None)

    def meet(self, comps: tuple[int, ...]) -> Subspace:
        """``V_S`` for ``S`` a tuple in increasing order.  Several components
        intersect the single-component meets, no larger than the space."""
        found = self.meets.get(comps)
        if found is None:
            found = self.meets[_COMPONENT_SETS[comps]] = (
                self.space & self.vanishing[comps[0]] if len(comps) == 1
                else self.meet(comps[:-1]) & self.meet(comps[-1:]))
        return found

    def triple_sum(self) -> Subspace:
        if self.triple is None:
            self.triple = Subspace.sum(map(self.meet, ((1,), (2,), (3,))), self.space.ambient_dim)
        return self.triple

    def pair_sum_dim(self, comps: tuple[int, int]) -> int:
        """``dim(V_b + V_c) = dim V_b + dim V_c - dim V_bc`` for ``comps = (b, c)``."""
        return self.meet(comps[:1]).dim + self.meet(comps[1:]).dim - self.meet(comps).dim

    def meet_sum_dim(self, a: int) -> int:
        """``dim(V_a ∩ V_b + V_a ∩ V_c)`` for ``b, c`` the other two components."""
        return (sum(self.meet(p).dim for p in ((1, 2), (1, 3), (2, 3)) if a in p)
                - self.meet((1, 2, 3)).dim)

    def defect(self) -> int:
        """``dim V_a ∩ (V_b + V_c) - dim(V_a ∩ V_b + V_a ∩ V_c)``, the same
        for every ``a`` (see :func:`distributive_at`)."""
        d1, d2, d3, d12, d13, d23, d123 = (self.meet(c).dim for c in _COMPONENT_SETS)
        return d1 + d2 + d3 - d12 - d13 - d23 + d123 - self.triple_sum().dim


@_tabled(lambda md: (md,))
def _node(inst: LlsInstance, md: Multidegree) -> _Node:
    return _Node(inst.space(md), inst.vanishing[md])


def vanishing_sum(inst: LlsInstance, md: Multidegree) -> Subspace:
    """``V_1 + V_2 + V_3``, the sum of the single-component vanishing
    subspaces of the chosen space."""
    return _node(inst, md).triple_sum()


class EdgeExactness(NamedTuple):
    edge: Edge
    image: Subspace
    constraint: Subspace
    exact: bool

    def to_json(self) -> dict:
        return {
            **self.edge.to_json(),
            "direction": self.edge.direction.label,
            "image_dim": self.image.dim,
            "constraint_dim": self.constraint.dim,
            "exact": self.exact,
        }


class ExactnessReport(NamedTuple):
    edges: tuple[EdgeExactness, ...]

    @property
    def exact(self) -> bool:
        return all(e.exact for e in self.edges)

    def failing_edges(self) -> list[Edge]:
        return [e.edge for e in self.edges if not e.exact]

    def to_json(self) -> dict:
        return {"exact": self.exact, "edges": [e.to_json() for e in self.edges]}


def edge_constraint(inst: LlsInstance, edge: Edge) -> Subspace:
    """The subspace an exact series must hit along this edge: the target's
    sections vanishing on the step's ``Direction.lands_in`` components (Xq
    for a toward-Xq step, both others for a from-Xq step)."""
    return vanishing_in_v(inst, edge.target, edge.direction.lands_in)


@_tabled(lambda edge: (edge.source,))
def pushed_image(inst: LlsInstance, edge: Edge) -> Subspace:
    """Image of the source's chosen space along the edge."""
    return inst.space(edge.source).apply(inst.maps[(edge.source, edge.target)])


@_tabled(lambda edge: (edge.source, edge.target))
def exactness_at(inst: LlsInstance, edge: Edge) -> EdgeExactness:
    """Image-versus-constraint comparison along one edge."""
    pushed = pushed_image(inst, edge)
    constraint = edge_constraint(inst, edge)
    return EdgeExactness(edge, pushed, constraint, pushed == constraint)


def exactness(inst: LlsInstance) -> ExactnessReport:
    """Per-edge image-versus-constraint comparison (vacuous at degree 0)."""
    return _exactness(inst, inst.d)


@_tabled(all_multidegrees)
def _exactness(inst: LlsInstance, d: int) -> ExactnessReport:
    return ExactnessReport(tuple(exactness_at(inst, e) for e in directed_edges(d)))


def distributive_at(inst: LlsInstance, md: Multidegree) -> bool:
    """Whether each ``V_a = V ∩ Van_a`` distributes over the other two:
    ``V_a ∩ (V_b + V_c) = V_a ∩ V_b + V_a ∩ V_c``.

    The right side always lies in the left, so they are equal exactly when
    their dimensions are.  By ``dim(X ∩ Y) = dim X + dim Y - dim(X + Y)``
    the gap is ``Σ dim V_q - Σ dim V_bc + dim V_123 - dim(V_1 + V_2 + V_3)``,
    which is symmetric in the three spaces, so one ``a`` decides for all."""
    return _cell(inst, md).distributive


class GridCell(NamedTuple):
    multidegree: Multidegree
    dim_v: int
    dim_vanish: tuple[int, int, int]
    dim_pairwise: tuple[int, int, int]  # dims of v1+v2, v1+v3, v2+v3
    dim_triple: int
    codim: int
    distributive: bool

    def to_json(self) -> dict:
        return {
            "multidegree": self.multidegree.to_json(),
            "dim_v": self.dim_v,
            "dim_vanish_x1": self.dim_vanish[0],
            "dim_vanish_x2": self.dim_vanish[1],
            "dim_vanish_x3": self.dim_vanish[2],
            "dim_v1_plus_v2": self.dim_pairwise[0],
            "dim_v1_plus_v3": self.dim_pairwise[1],
            "dim_v2_plus_v3": self.dim_pairwise[2],
            "dim_triple_sum": self.dim_triple,
            "codim": self.codim,
            "distributive": self.distributive,
        }


class GridReport(NamedTuple):
    d: int
    r: int
    cells: tuple[GridCell, ...]
    codim_sum: int
    exact: bool
    all_distributive: bool
    simple_by_criterion: bool
    inequality_holds: bool
    equivalence_consistent: bool

    def to_json(self) -> dict:
        return {**self._asdict(), "cells": [c.to_json() for c in self.cells]}


def _cell(inst: LlsInstance, md: Multidegree) -> GridCell:
    node = _node(inst, md)
    if node.cell is None:
        d1, d2, d3, d12, d13, d23, _ = (node.meet(c).dim for c in _COMPONENT_SETS)
        triple = node.triple_sum().dim
        node.cell = GridCell(md, node.space.dim, (d1, d2, d3),
                             (d1 + d2 - d12, d1 + d3 - d13, d2 + d3 - d23),
                             triple, inst.r + 1 - triple, node.defect() == 0)
    return node.cell


def codim_report(inst: LlsInstance) -> GridReport:
    """Full grid report, in grid order.

    The codimension at a node is ``(r+1) - dim`` of the sum of the three
    vanishing subspaces.  The report records whether the grid sum meets the
    lower bound ``r+1`` expected of exact series, and whether equality
    agrees with distributivity holding everywhere; ``simple_by_criterion``
    is the dimension-count characterisation (exact and sum equal to
    ``r+1``), decided without constructing a basis.
    """
    return _codim_report(inst, inst.d)


@_tabled(all_multidegrees)
def _codim_report(inst: LlsInstance, d: int) -> GridReport:
    cells = tuple(_cell(inst, md) for md in all_multidegrees(d))
    codim_sum = sum(c.codim for c in cells)
    exact = exactness(inst).exact
    all_distributive = all(c.distributive for c in cells)
    return GridReport(
        d, inst.r, cells, codim_sum, exact, all_distributive,
        simple_by_criterion=exact and codim_sum == inst.r + 1,
        inequality_holds=(not exact) or codim_sum >= inst.r + 1,
        equivalence_consistent=(not exact) or ((codim_sum == inst.r + 1) == all_distributive))


def canonical_matrix(inst: LlsInstance, start: Multidegree, end: Multidegree) -> Matrix:
    """Composite of the canonical walk: the chain's cached one, else :func:`_walk`."""
    if inst.chain is not None:
        return chain_model.canonical_matrix(inst.chain, start, end)
    return _walk(inst, start, end)


@_tabled(lambda start, end: ())
def _walk(inst: LlsInstance, start: Multidegree, end: Multidegree) -> Matrix:
    """The identity, one edge map, or the tabled composite of the prefix
    walk (canonical walks are prefix-closed) times the last edge map."""
    nodes = canonical_path(start, end)
    if len(nodes) == 1:
        return Matrix.identity(inst.ambient_dim[start])
    last = inst.maps[(nodes[-2], end)]
    return last if len(nodes) == 2 else _walk(inst, start, nodes[-2]) @ last


class IdentityCheck(NamedTuple):
    identity: str
    location: str
    status: str  # "pass" | "fail" | "hypothesis-not-met"
    detail: str

    def to_json(self) -> dict:
        return self._asdict()


class IdentitySuiteReport(NamedTuple):
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def by_status(self, status: str) -> list[IdentityCheck]:
        return [c for c in self.checks if c.status == status]

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _dim_gap(inst: LlsInstance, source: Multidegree, target: Multidegree,
             q: int) -> tuple[bool, str]:
    node = _node(inst, target)
    lhs = inst.r + 1 - _node(inst, source).pair_sum_dim(other_components(q))
    rhs = node.meet((q,)).dim - node.meet_sum_dim(q)
    return lhs == rhs, f"{lhs} == {rhs}"


@_tabled(lambda down, md, q: (down, md))
def _pushed_complement(inst: LlsInstance, down: Multidegree, md: Multidegree,
                       q: int) -> tuple[bool, str]:
    """Whether a complement of vanish-on-X2 at ``down`` pushes along the
    vertical edge to an independent complement of vanish-on-X2 inside
    vanish-on-X2 + vanish-on-X3 at ``md``."""
    below, node = _node(inst, down), _node(inst, md)
    vectors = complement_in(below.meet((2,)), below.space)
    pushed = image(vectors).apply(inst.maps[(down, md)])
    # ``V_2 + pushed`` is direct when its dimension is the sum of the two,
    # and it is ``V_2 + V_3`` when it holds ``V_3`` and has that dimension.
    both = node.meet((2,)) + pushed
    ok = (pushed.dim == vectors.rows and both.dim == node.meet((2,)).dim + pushed.dim
          and node.meet((3,)) <= both and both.dim == node.pair_sum_dim((2, 3)))
    return ok, f"{vectors.rows} complement vectors push to an independent complement"


def _vanishing_dim_step(inst: LlsInstance, down: Multidegree, md: Multidegree,
                        q: int) -> tuple[bool, str]:
    node = _node(inst, md)
    lhs = _node(inst, down).meet((2,)).dim - node.meet((2,)).dim
    rhs = inst.r + 1 - node.pair_sum_dim((2, 3))
    return lhs == rhs, f"{lhs} == {rhs}"


def _quotient_splitting(inst: LlsInstance, source: Multidegree, target: Multidegree,
                        q: int) -> tuple[bool, str]:
    others, node = other_components(q), _node(inst, target)
    lhs = inst.r + 1 - _node(inst, source).pair_sum_dim(others)
    part1 = node.triple_sum().dim - node.pair_sum_dim(others)
    defect = node.defect()
    return lhs == part1 + defect, f"{lhs} == {part1} + {defect}"


def _distributivity_dim_test(inst: LlsInstance, source: Multidegree, target: Multidegree,
                             q: int) -> tuple[bool, str]:
    others, node = other_components(q), _node(inst, target)
    distributive = node.defect() == 0
    gap_closed = (_node(inst, source).pair_sum_dim(others) - node.pair_sum_dim(others)
                  == inst.r + 1 - node.triple_sum().dim)
    return (distributive == gap_closed,
            f"distributive={distributive} gap_closed={gap_closed}")


_IDENTITIES = {
    "dim-gap-{axis}": _dim_gap,
    "pushed-complement-decomposition": _pushed_complement,
    "vanishing-dim-step": _vanishing_dim_step,
    "quotient-splitting-{axis}": _quotient_splitting,
    "distributivity-dim-test-{axis}": _distributivity_dim_test,
}

# Per node, in report order: (q, whether the toward-Xq edge runs into the
# node rather than out of it, the identities checked along that edge).
# The edge's axis is _AXIS[q]; "{axis}" in a name stands for it.
_EDGE_IDENTITIES = (
    (2, True, ("dim-gap-{axis}",)),
    (1, False, ("dim-gap-{axis}", "quotient-splitting-{axis}",
                "distributivity-dim-test-{axis}")),
    (3, True, ("dim-gap-{axis}", "pushed-complement-decomposition", "vanishing-dim-step",
               "quotient-splitting-{axis}", "distributivity-dim-test-{axis}")),
)


def identity_suite(inst: LlsInstance) -> IdentitySuiteReport:
    """Evaluate the conditional dimension identities at every applicable
    multidegree pair.

    At each node, ``_EDGE_IDENTITIES`` runs one group of identities along
    each of three toward edges: the diagonal (toward-X2) edge into the
    node, the horizontal (toward-X1) edge out of it and the vertical
    (toward-X3) edge into it.  Each identity assumes exactness of its edge
    (read from that edge's record in the analysis table); when the edge is
    not exact, the check is reported ``hypothesis-not-met`` rather than
    failed.  The catalogue, for the toward-Xq edge from source to target:

    * ``dim-gap-*``: the codimension of the sum of the other two vanishing
      spaces at the source equals a dimension gap at the target;
    * ``pushed-complement-decomposition`` (vertical): complements of the
      vanish-on-X2 space below push to a complement of vanish-on-X2 inside
      the sum vanish-on-X2 + vanish-on-X3;
    * ``vanishing-dim-step`` (vertical): the drop of the vanish-on-X2
      dimension equals the codimension of vanish-on-X2 + vanish-on-X3;
    * ``quotient-splitting-*``: that codimension splits as a triple-sum
      quotient plus a distributivity defect at the target;
    * ``distributivity-dim-test-*``: distributivity at the target holds
      exactly when the corresponding dimension gap closes (checked as a
      biconditional, both directions).
    """
    checks: list[IdentityCheck] = []
    for md in inst.multidegrees:
        for q, into, identities in _EDGE_IDENTITIES:
            toward = Direction[f"TOWARD_X{q}"]
            other = md.step(toward.inverse if into else toward)
            if other is None:
                continue
            source, target = (other, md) if into else (md, other)
            loc, axis = f"{source}->{target}", _AXIS[q]
            if not exactness_at(inst, Edge(source, target, toward)).exact:
                why = f"{axis} edge {'into' if into else 'out of'} the node is not exact"
                checks += [IdentityCheck(name.format(axis=axis), loc, "hypothesis-not-met", why)
                           for name in identities]
                continue
            for name in identities:
                ok, detail = _IDENTITIES[name](inst, source, target, q)
                checks.append(IdentityCheck(name.format(axis=axis), loc,
                                            "pass" if ok else "fail", detail))
    return IdentitySuiteReport(tuple(checks))


# ---------------------------------------------------------------------------
# Instance and certificate files: the one place that knows the file format.
#
# Instance layout: {"d": int, "r": int, "multidegrees": [[i,j,l], ...] in grid
# order, "ambient_dim": {"i,l": n}, "maps": [{"from": [i,j,l], "to": [i,j,l],
# "matrix": [["p/q", ...], ...]}, ...], "vanishing": {"i,l": {"X1": rows,
# "X2": rows, "X3": rows}}, "V": {"i,l": rows}}.  Certificate layout:
# {"support": [[i,j,l], ...], "sections": {"i,l": rows}}.  Keys are "i,l"
# because j is determined; matrices are row major and act on row vectors
# from the right.  ``dump`` writes every file and report.  ``_read_json``
# reads both kinds and refuses, at "$", a number that is not an integer
# (NaN, 1e400, 0.5: rationals are strings) and nesting too deep to decode.
# ---------------------------------------------------------------------------


class InstanceFormatError(ValueError):
    """Malformed instance or certificate file; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def md_key(md: Multidegree) -> str:
    """The ``"i,l"`` key of a multidegree in a file, and in field paths."""
    return f"{md.i},{md.l}"


def _parse_md_key(key: str, d: int, where: str) -> Multidegree:
    """The multidegree of a ``"i,l"`` key.  Only the text ``md_key``
    writes is accepted, so two keys of one object never name one node."""
    try:
        i_str, l_str = key.split(",")
        i, l = int(i_str), int(l_str)
    except ValueError:
        raise InstanceFormatError(where, f"bad multidegree key {key!r}") from None
    if key != f"{i},{l}":
        raise InstanceFormatError(where, f"multidegree key {key!r} is not written {i},{l}")
    j = d - i - l
    if i < 0 or l < 0 or j < 0:
        raise InstanceFormatError(where, f"multidegree key {key!r} out of range")
    return Multidegree(i, j, l)


def _count(value, where: str) -> int:
    """A nonnegative JSON integer (``true``/``false`` are not counts)."""
    if type(value) is not int or value < 0:
        raise InstanceFormatError(where, "must be a nonnegative integer")
    return value


def _parse_md_triple(value, d: int, where: str) -> Multidegree:
    if (not isinstance(value, list) or len(value) != 3
            or not all(type(x) is int for x in value)):
        raise InstanceFormatError(where, "expected an [i, j, l] integer triple")
    i, j, l = value
    if min(i, j, l) < 0 or i + j + l != d:
        raise InstanceFormatError(where, f"{value} is not a multidegree of degree {d}")
    return Multidegree(i, j, l)


def _parse_rows(value, where: str, width: int | None = None) -> Matrix:
    """The stored-form matrix of a list of rows of rational strings, each
    ``width`` entries long (by default, as long as the first row)."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InstanceFormatError(where, "expected a list of rows")
    if width is None:
        width = len(value[0]) if value else 0
    pairs, short = [], _SHORT_INTS.__getitem__
    for r_idx, row in enumerate(value):
        if len(row) != width:
            raise InstanceFormatError(f"{where}[{r_idx}]", f"rows must have length {width}")
        try:  # a row of memoised integer literals is read whole
            pairs.append((tuple(map(short, row)), 1))
            continue
        except (KeyError, TypeError):  # any other row, entry by entry
            parsed = []
        for c_idx, entry in enumerate(row):
            if not isinstance(entry, str):
                raise InstanceFormatError(f"{where}[{r_idx}][{c_idx}]",
                                          "matrix entries must be rational strings")
            try:
                parsed.append(parse_rational(entry))
            except LinearAlgebraError as exc:
                raise InstanceFormatError(f"{where}[{r_idx}][{c_idx}]", str(exc)) from None
        pairs.append(_integer_row(parsed))
    return Matrix._stored(width, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def _by_node(data: dict, name: str, d: int, read) -> dict:
    """The ``"i,l"``-keyed object ``data[name]`` by multidegree: each entry
    is ``read(value, where, md)``, with ``where`` its field path."""
    field = data.get(name)
    if not isinstance(field, dict):
        raise InstanceFormatError(name, "must be an object")
    out = {}
    for key, value in field.items():
        where = f"{name}.{key}"
        md = _parse_md_key(key, d, where)
        out[md] = read(value, where, md)
    return out


def instance_to_json(inst: LlsInstance) -> dict:
    grid = inst.multidegrees
    data: dict = {
        "d": inst.d,
        "r": inst.r,
        "multidegrees": [md.to_json() for md in grid],
        "ambient_dim": {md_key(md): inst.ambient_dim[md] for md in grid},
        "maps": [{"from": e.source.to_json(), "to": e.target.to_json(),
                  "matrix": inst.maps[(e.source, e.target)].to_strings()}
                 for e in directed_edges(inst.d)],
        "vanishing": {
            md_key(md): {f"X{q}": inst.vanishing[md][q].to_strings() for q in (1, 2, 3)}
            for md in grid
        },
        "V": {md_key(md): inst.spaces[md].to_strings()
              for md in grid if md in inst.spaces},
    }
    if inst.provenance:
        data["provenance"] = inst.provenance
    return data


def instance_from_json(data: dict) -> LlsInstance:
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "top level must be an object")
    d, r = _count(data.get("d"), "d"), _count(data.get("r"), "r")
    ambient_field = data.get("ambient_dim")
    # Counted before the grid is built, so a huge "d" cannot exhaust memory;
    # that many distinct keys leave no node without an entry.
    nodes = (d + 1) * (d + 2) // 2
    if isinstance(ambient_field, dict) and len(ambient_field) != nodes:
        raise InstanceFormatError(
            "ambient_dim", f"has {len(ambient_field)} entries, d = {d} needs {nodes}")
    ambient = _by_node(data, "ambient_dim", d, lambda value, where, md: _count(value, where))
    grid = all_multidegrees(d)
    mds = data.get("multidegrees")
    if mds is not None:
        if not isinstance(mds, list):
            raise InstanceFormatError("multidegrees", "must be a list")
        parsed = [_parse_md_triple(v, d, f"multidegrees[{k}]") for k, v in enumerate(mds)]
        if tuple(parsed) != grid:
            raise InstanceFormatError("multidegrees", "not the grid order enumeration")

    maps_field = data.get("maps")
    if not isinstance(maps_field, list):
        raise InstanceFormatError("maps", "must be a list")
    maps: dict[tuple[Multidegree, Multidegree], Matrix] = {}
    for idx, entry in enumerate(maps_field):
        where = f"maps[{idx}]"
        if not isinstance(entry, dict):
            raise InstanceFormatError(where, "must be an object")
        src = _parse_md_triple(entry.get("from"), d, f"{where}.from")
        tgt = _parse_md_triple(entry.get("to"), d, f"{where}.to")
        matrix = _parse_rows(entry.get("matrix"), f"{where}.matrix", ambient[tgt])
        if matrix.rows != ambient[src]:
            raise InstanceFormatError(f"{where}.matrix",
                                      f"expected shape {ambient[src]}x{ambient[tgt]}")
        if (src, tgt) in maps:
            raise InstanceFormatError(where, "duplicate edge")
        maps[(src, tgt)] = matrix
    for edge in directed_edges(d):
        if (edge.source, edge.target) not in maps:
            raise InstanceFormatError("maps", f"missing edge {edge.label}")

    def space(rows, where: str, md: Multidegree) -> Subspace:
        return image(_parse_rows(rows, where, ambient[md]))

    def triple(value, where: str, md: Multidegree) -> dict[int, Subspace]:
        if not isinstance(value, dict):
            raise InstanceFormatError(where, "must be an object")
        per = {}
        for q in (1, 2, 3):
            if f"X{q}" not in value:
                raise InstanceFormatError(f"{where}.X{q}",
                                          "missing (write [] for the zero subspace)")
            per[q] = space(value[f"X{q}"], f"{where}.X{q}", md)
        return per

    vanishing = _by_node(data, "vanishing", d, triple)
    for md in grid:
        if md not in vanishing:
            raise InstanceFormatError("vanishing", f"missing entry for {md.label}")
    spaces = _by_node(data, "V", d, space)
    return LlsInstance(d, r, ambient, maps, vanishing, spaces, data.get("provenance"))


class SimpleCertificate(NamedTuple):
    """Support multidegrees and the sections witnessing simplicity.

    Per support multidegree, one stored-form matrix of sections in canonical
    coordinates.  Extracted and generated ones are the RREF basis of their
    span, so certificates are canonical and diffable; hand-written rows are
    kept as given.
    """

    support: tuple[Multidegree, ...]
    sections: Mapping[Multidegree, Matrix]

    @property
    def total_sections(self) -> int:
        return sum(self.sections[md].rows for md in self.support)


def certificate_to_json(cert: SimpleCertificate) -> dict:
    return {"support": [md.to_json() for md in cert.support],
            "sections": {md_key(md): cert.sections[md].to_strings() for md in cert.support}}


def certificate_from_json(data: dict, d: int) -> SimpleCertificate:
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "certificate must be an object")
    support_field = data.get("support")
    if not isinstance(support_field, list):
        raise InstanceFormatError("support", "must be a list")
    support = tuple(_parse_md_triple(v, d, f"support[{k}]")
                    for k, v in enumerate(support_field))
    sections = _by_node(data, "sections", d, lambda rows, where, md: _parse_rows(rows, where))
    if set(sections) != set(support):
        raise InstanceFormatError("sections", "keys must match the support set")
    return SimpleCertificate(support, sections)


def dump(data: dict) -> str:
    """The text of a file or report: sorted keys, two-space indent, a final
    newline.  ``NaN`` and ``Infinity``, which are not JSON, are refused."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _refuse_number(text: str):
    raise InstanceFormatError("$", f"number {text} is not an integer")


def _read_json(path):
    """The JSON value of a file, with every number an integer."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_float=_refuse_number, parse_constant=_refuse_number)
        except RecursionError:
            raise InstanceFormatError("$", "nested too deeply") from None


def save_instance(path, inst: LlsInstance) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump(instance_to_json(inst)))


def load_instance(path) -> LlsInstance:
    return instance_from_json(_read_json(path))


def save_certificate(path, cert: SimpleCertificate) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump(certificate_to_json(cert)))


def load_certificate(path, d: int) -> SimpleCertificate:
    return certificate_from_json(_read_json(path), d)
