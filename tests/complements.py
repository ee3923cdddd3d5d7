"""Complement systems: a second construction of the simple-basis structure,
kept beside the tests as a cross-check of the library's certificates.

A *complement system* for component ``q`` assigns to every multidegree an
ordered basis of a complement of the vanish-on-Xq subspace inside the
chosen space.  One table, ``_FEEDS``, says which neighbours feed a node of
the component-``q`` system: its primary neighbours that exist or, when
none does, its fallback neighbour (this seeds the corner (d, 0, 0) of
``W^1`` from (d-1, 1, 0) and the corner (0, 0, d) of ``W^3`` from
(0, 1, d-1)).  The sweep builds every node after its feeders and seeds it
with their twisted bases, so the bases grow compatibly along the three
lattice directions; the growth check and the structure identities read
the same table.  The systems can also be read off a simple-basis
certificate by pushing its sections out of each node's source regions.
Like the certificates, the sweep needs the series to be exact and
distributive everywhere and refuses other input with a witness.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, NamedTuple, Sequence

from llschain.exactla import Subspace, Vector, complement_in, vec_matmul
from llschain.lattice import Direction, Multidegree, all_multidegrees
from llschain.lls_core import (
    LlsInstance,
    _AXIS,
    canonical_matrix,
    vanishing_in_v,
    vanishing_sum,
)
from llschain.simple_basis import (
    CertificateError,
    ConstructionError,
    SimpleCertificate,
    _require_distributive,
    _require_exact,
    push_along_walks,
    verify_certificate,
)


class ComplementSystem(NamedTuple):
    """Per-multidegree complement bases for one component's vanishing space."""

    component: int
    basis: dict[Multidegree, list[Vector]]
    spans: dict[Multidegree, Subspace]

    def span(self, md: Multidegree) -> Subspace:
        return self.spans[md]


# Which neighbours feed a node of the component-q complement system:
# q -> (primary steps, fallback step), each step leading from the node to
# a feeder.  A node is fed by its primary neighbours that exist or, when
# none does, by its fallback neighbour if that exists.
_FEEDS = {
    1: ((Direction.FROM_X2, Direction.FROM_X3), Direction.TOWARD_X1),
    2: ((Direction.FROM_X1, Direction.FROM_X3), Direction.TOWARD_X2),
    3: ((Direction.FROM_X2, Direction.FROM_X1), Direction.TOWARD_X3),
}


def _feeders(md: Multidegree, q: int) -> tuple[Multidegree, ...]:
    primary, fallback = _FEEDS[q]
    found = tuple(n for n in map(md.step, primary) if n is not None)
    if found:
        return found
    source = md.step(fallback)
    return () if source is None else (source,)


def _complete_node(inst: LlsInstance, md: Multidegree, q: int,
                   seeds: list[Vector], preferred: Mapping | None) -> list[Vector]:
    van = vanishing_in_v(inst, md, (q,))
    seed_span = Subspace.span(seeds, inst.ambient_dim[md])
    if seed_span.dim != len(seeds):
        raise ConstructionError(f"seed images at {md} are dependent")
    if (seed_span & van).dim != 0:
        raise ConstructionError(f"seed images at {md} meet the vanishing subspace")
    wanted = preferred.get(md, ()) if preferred else ()
    return seeds + complement_in(van + seed_span, inst.space(md), preferred=wanted).row_list()


def _checked_system(inst: LlsInstance, q: int,
                    basis: dict[Multidegree, list[Vector]]) -> ComplementSystem:
    """``basis`` as the component-``q`` system, once it is an independent
    complement of the vanish-on-Xq subspace at every node and grows
    verbatim along every table edge; both constructions end here."""
    spans = {}
    for md in inst.multidegrees:
        span = spans[md] = Subspace.span(basis[md], inst.ambient_dim[md])
        van = vanishing_in_v(inst, md, (q,))
        if span.dim != len(basis[md]) or (span & van).dim != 0 \
                or span.dim + van.dim != inst.space(md).dim:
            raise ConstructionError(f"component-{q} bases are no complement at {md}")
    system = ComplementSystem(q, basis, spans)
    failures = [entry for entry in growth_report(inst, system) if not entry[3]]
    if failures:
        raise ConstructionError(f"directional growth fails: {failures[0][:3]}")
    return system


def build_complement_system(inst: LlsInstance, q: int,
                            preferred: Mapping[Multidegree, Sequence] | None = None,
                            ) -> ComplementSystem:
    """Build the component-``q`` complement system by the inductive sweep.

    Every node is built after its feeders in ``_FEEDS`` (components 1, 2, 3
    are fed from the up-right and lower, the left and lower, and the
    up-right and left neighbours; where none of those exists, from the
    right, down-left and upper neighbour).  Its seeds are the feeders'
    bases pushed along the edges into it, with repeats dropped when two
    feeders meet, and its basis extends the seeds to a complement of the
    vanish-on-Xq subspace.

    ``preferred`` optionally injects favourite complement vectors per
    multidegree (scanned before the default candidates), which makes the
    choice steps reproduce externally supplied bases, e.g. pushed
    certificate sections.

    Requires the series to be exact and distributive at every multidegree;
    raises :class:`ExactnessRequired` or :class:`DistributivityRequired`
    with a witness otherwise.
    """
    if q not in (1, 2, 3):
        raise ValueError("component must be 1, 2, or 3")
    _require_exact(inst)
    _require_distributive(inst)
    basis: dict[Multidegree, list[Vector]] = {}

    def build(md: Multidegree) -> list[Vector]:
        if md not in basis:
            sources = _feeders(md, q)
            seeds = [vec_matmul(v, inst.maps[(source, md)])
                     for source in sources for v in build(source)]
            if len(sources) == 2:
                seeds = list(dict.fromkeys(seeds))
            basis[md] = _complete_node(inst, md, q, seeds, preferred)
        return basis[md]

    for md in inst.multidegrees:
        build(md)
    return _checked_system(inst, q, basis)


def growth_report(inst: LlsInstance, system: ComplementSystem,
                  ) -> list[tuple[str, Multidegree, Multidegree, bool]]:
    """Evaluate directional growth of one system at every node: along the
    edge from each neighbour its three table steps reach, the pushed basis
    must reappear verbatim in the node's basis.  Entries are labelled by
    the axis of the step."""
    primary, fallback = _FEEDS[system.component]
    out = []
    for md in inst.multidegrees:
        for step in (*primary, fallback):
            source = md.step(step)
            if source is None:
                continue
            matrix = inst.maps[(source, md)]
            pushed = {vec_matmul(v, matrix) for v in system.basis[source]}
            out.append((_AXIS[step.component], source, md,
                        pushed <= set(system.basis[md])))
    return out


class StructureCheck(NamedTuple):
    item: str
    multidegree: Multidegree
    ok: bool


class StructureReport(NamedTuple):
    checks: tuple[StructureCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"item": c.item, "multidegree": c.multidegree.to_json(),
                            "ok": c.ok} for c in self.checks]}


def structure_report(inst: LlsInstance,
                     systems: Sequence[ComplementSystem]) -> StructureReport:
    """Check that the sum of the three vanishing subspaces decomposes
    through pushed complements: at every node it equals the sum over ``q``
    of ``W^q`` pushed from the node's component-``q`` feeders.

    Each check is labelled by the node's grid position:
    ``corner-bottom-right`` (0, 0, d), ``corner-top-left`` (d, 0, 0),
    ``anti-diagonal-edge`` (i + l = d), ``right-column`` (i = 0),
    ``top-row`` (l = 0) or ``interior``.
    """
    s1, s2, s3 = systems
    if (s1.component, s2.component, s3.component) != (1, 2, 3):
        raise ValueError("systems must be given in component order 1, 2, 3")
    d = inst.d
    checks: list[StructureCheck] = []
    if d == 0:
        return StructureReport(())
    for md in inst.multidegrees:
        i, l = md.i, md.l
        if i == 0 and l == d:
            item = "corner-bottom-right"
        elif i == d:
            item = "corner-top-left"
        elif l == d - i:
            item = "anti-diagonal-edge"
        elif i == 0 or l == 0:
            item = "right-column" if i == 0 else "top-row"
        else:
            item = "interior"
        pushed = [vec_matmul(v, inst.maps[(source, md)]) for system in systems
                  for source in _feeders(md, system.component)
                  for v in system.basis[source]]
        rhs = Subspace.span(pushed, inst.ambient_dim[md])
        checks.append(StructureCheck(item, md, vanishing_sum(inst, md) == rhs))
    return StructureReport(tuple(checks))


def certificate_push_candidates(inst: LlsInstance, cert: SimpleCertificate,
                                ) -> dict[Multidegree, list[Vector]]:
    """All canonical pushes of the certificate sections, per multidegree,
    in support order; useful as ``preferred`` complement candidates."""
    walk = partial(canonical_matrix, inst)
    return {md: push_along_walks(walk, cert.sections, cert.support, md).row_list()
            for md in inst.multidegrees}


def certificate_complement_systems(inst: LlsInstance, cert: SimpleCertificate,
                                   ) -> tuple[ComplementSystem, ...]:
    """The three complement systems read off a certificate directly.

    The component-``q`` basis at a node consists of the pushed sections
    whose support multidegree lies in the node's component-``q`` source
    region.  The systems are checked against every invariant the sweep
    construction guarantees (complement property and directional growth).
    The region recurrences feeding the induction are checked in
    ``test_lattice.py``.
    """
    check = verify_certificate(inst, cert)
    if not check.ok:
        raise CertificateError("sections", f"invalid certificate: {check.message}")
    walk = partial(canonical_matrix, inst)
    systems = []
    for q in (1, 2, 3):
        basis: dict[Multidegree, list[Vector]] = {}
        for md in inst.multidegrees:
            region = set(component_regions(md)[q - 1])
            sources = [s for s in cert.support if s in region]
            basis[md] = push_along_walks(walk, cert.sections, sources, md).row_list()
        systems.append(_checked_system(inst, q, basis))
    return tuple(systems)


def component_regions(md: Multidegree) -> tuple[tuple[Multidegree, ...], ...]:
    """The three source regions of ``md``: region ``q`` collects the
    multidegrees whose canonical maps into ``md`` feed the complement of
    the vanish-on-Xq subspace.  Their union is the whole grid; listed in
    grid order.  With ``(i, l)`` the coordinates of ``md``:

    * region 1: ``i~ <= i`` and ``i~ - i <= l~ - l``;
    * region 2: ``i~ >= i`` and ``l~ >= l``;
    * region 3: ``l~ <= l`` and ``l~ - l <= i~ - i``.
    """
    grid = all_multidegrees(md.degree)
    i, l = md.i, md.l
    r1 = tuple(m for m in grid if m.i <= i and m.i - i <= m.l - l)
    r2 = tuple(m for m in grid if m.i >= i and m.l >= l)
    r3 = tuple(m for m in grid if m.l <= l and m.l - l <= m.i - i)
    return r1, r2, r3
