"""Complement systems, simple-basis certificates, and the simplicity decision.

A *complement system* for component ``q`` assigns to every multidegree an
ordered basis of a complement of the vanish-on-Xq subspace inside the
chosen space.  One table, ``_FEEDS``, says which neighbours feed a node of
the component-``q`` system: its primary neighbours that exist or, when
none does, its fallback neighbour (this seeds the corner (d, 0, 0) of
``W^1`` from (d-1, 1, 0) and the corner (0, 0, d) of ``W^3`` from
(0, 1, d-1)).  The sweep builds every node after its feeders and seeds it
with their twisted bases, so the bases grow compatibly along the three
lattice directions; the growth check, the structure identities and the
region recurrences read the same table.  A *simple-basis certificate* is
a set of support multidegrees with section lists whose canonical-walk
images form a basis of the chosen space at every multidegree.  Both
constructions need the series to be exact and distributive everywhere;
the functions here refuse other input with a precise witness instead of
producing something that silently fails to be a complement.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .exactla import Matrix, Subspace, Vector, as_vector, complement_in, vec_matmul
from .lattice import (
    Direction,
    Edge,
    Multidegree,
    all_multidegrees,
    component_regions,
)
from .lls_core import (
    InstanceFormatError,
    LlsInstance,
    _AXIS,
    _dump,
    _parse_md_key,
    _parse_md_triple,
    _parse_rows,
    canonical_matrix,
    distributive_at,
    exactness,
    vanishing_in_v,
    vanishing_sum,
)

__all__ = [
    "ExactnessRequired",
    "DistributivityRequired",
    "CertificateError",
    "ConstructionError",
    "ComplementSystem",
    "build_complement_system",
    "growth_report",
    "StructureCheck",
    "StructureReport",
    "structure_report",
    "SimpleCertificate",
    "extract_certificate",
    "CertificateCheck",
    "verify_certificate",
    "SimplicityVerdict",
    "is_simple",
    "push_along_walks",
    "certificate_complement_systems",
    "certificate_push_candidates",
    "certificate_to_json",
    "certificate_from_json",
    "save_certificate",
    "load_certificate",
]


class ExactnessRequired(ValueError):
    """The series is not exact; carries the first failing directed edge."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(f"series is not exact at {edge.source}->{edge.target}")


class DistributivityRequired(ValueError):
    """Distributivity fails somewhere; carries the witness multidegree."""

    def __init__(self, multidegree: Multidegree):
        self.multidegree = multidegree
        super().__init__(f"distributivity fails at {multidegree}")


class CertificateError(InstanceFormatError):
    """Structurally bad certificate (e.g. a section outside its space);
    carries the offending field path."""


class ConstructionError(RuntimeError):
    """A construction step contradicts the theory; indicates corrupt input."""


def _require_exact(inst: LlsInstance) -> None:
    report = exactness(inst)
    if not report.exact:
        raise ExactnessRequired(report.failing_edges()[0])


def _require_distributive(inst: LlsInstance) -> None:
    for md in inst.multidegrees:
        if not distributive_at(inst, md):
            raise DistributivityRequired(md)


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
    return seeds + complement_in(van + seed_span, inst.space(md), preferred=wanted)


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


class SimpleCertificate(NamedTuple):
    """Support multidegrees and section lists witnessing simplicity.

    Sections are stored in canonical coordinates; per support multidegree
    they are normalised to the RREF basis of their span so certificates
    are canonical and diffable.
    """

    support: tuple[Multidegree, ...]
    sections: Mapping[Multidegree, tuple[Vector, ...]]

    @property
    def total_sections(self) -> int:
        return sum(len(self.sections[md]) for md in self.support)


def extract_certificate(inst: LlsInstance) -> SimpleCertificate:
    """Certificate for an exact, everywhere-distributive series.

    Support is the set of multidegrees with positive codimension; the
    sections extend a basis of the vanishing-sum there to the full space.
    The result always passes :func:`verify_certificate`.
    """
    _require_exact(inst)
    _require_distributive(inst)
    support: list[Multidegree] = []
    sections: dict[Multidegree, tuple[Vector, ...]] = {}
    for md in inst.multidegrees:
        vsum = vanishing_sum(inst, md)
        if vsum.dim == inst.r + 1:
            continue
        support.append(md)
        vectors = complement_in(vsum, inst.space(md))
        normalised = Subspace.span(vectors, inst.ambient_dim[md]).basis.row_list()
        sections[md] = tuple(normalised)
    total = sum(len(v) for v in sections.values())
    if total != inst.r + 1:
        raise ConstructionError(
            f"certificate sections count {total}, expected {inst.r + 1}")
    cert = SimpleCertificate(tuple(support), sections)
    check = verify_certificate(inst, cert)
    if not check.ok:
        raise ConstructionError(f"extracted certificate fails verification: {check.message}")
    return cert


class CertificateCheck(NamedTuple):
    ok: bool
    failing_multidegree: Multidegree | None
    message: str

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "failing_multidegree": (self.failing_multidegree.to_json()
                                        if self.failing_multidegree else None),
                "message": self.message}


def verify_certificate(inst: LlsInstance, cert: SimpleCertificate) -> CertificateCheck:
    """Independent certificate check, usable on hand-written certificates.

    Pushes every section along canonical walks to every multidegree and
    requires the stacked images to be a basis of the chosen space there.
    Structural problems (a section outside its stated space) raise
    :class:`CertificateError`; mathematical failure returns a verdict with
    the first failing multidegree in grid order.
    """
    grid = set(inst.multidegrees)
    for k, md in enumerate(cert.support):
        if md not in grid:
            raise CertificateError(f"support[{k}]", f"{md} is not on the grid")
        where = f"sections.{md.i},{md.l}"
        secs = cert.sections.get(md, ())
        if not secs:
            raise CertificateError(where, f"support multidegree {md} carries no sections")
        space = inst.space(md)
        for s_idx, s in enumerate(secs):
            if len(s) != space.ambient_dim:
                raise CertificateError(f"{where}[{s_idx}]",
                                       f"rows must have length {space.ambient_dim}")
            if as_vector(s) not in space:
                raise CertificateError(f"{where}[{s_idx}]", "lies outside the chosen space")
    if len(set(cert.support)) != len(cert.support):
        raise CertificateError("support", "duplicate support multidegrees")
    total = cert.total_sections
    if total != inst.r + 1:
        return CertificateCheck(False, None,
                                f"{total} sections cannot form bases of dimension {inst.r + 1}")
    walk = partial(canonical_matrix, inst)
    for md in inst.multidegrees:
        pushes = push_along_walks(walk, cert.sections, cert.support, md)
        space = inst.space(md)
        if any(p not in space for p in pushes):
            return CertificateCheck(False, md, "a pushed section leaves the chosen space")
        if Subspace.span(pushes, inst.ambient_dim[md]).dim != inst.r + 1:
            return CertificateCheck(False, md, "pushed sections do not span")
    return CertificateCheck(True, None, "certificate verified")


class SimplicityVerdict(NamedTuple):
    simple: bool
    certificate: SimpleCertificate | None = None
    reason: str | None = None  # "not-exact" | "not-distributive"
    witness: object | None = None

    def to_json(self) -> dict:
        out: dict = {"simple": self.simple}
        if self.reason:
            out["reason"] = self.reason
        if isinstance(self.witness, Multidegree):
            out["witness"] = self.witness.to_json()
        elif isinstance(self.witness, Edge):
            out["witness"] = {"from": self.witness.source.to_json(),
                              "to": self.witness.target.to_json()}
        if self.certificate is not None:
            out["certificate"] = certificate_to_json(self.certificate)
        return out


def is_simple(inst: LlsInstance) -> SimplicityVerdict:
    """Decide simplicity by certificate construction plus verification.

    Exact and distributive everywhere yields a verified certificate; a
    failure of exactness or of distributivity rules simplicity out, with
    the witness edge or multidegree attached.
    """
    try:
        cert = extract_certificate(inst)
    except ExactnessRequired as exc:
        return SimplicityVerdict(False, reason="not-exact", witness=exc.edge)
    except DistributivityRequired as exc:
        return SimplicityVerdict(False, reason="not-distributive",
                                 witness=exc.multidegree)
    return SimplicityVerdict(True, certificate=cert)


def push_along_walks(walk: Callable[[Multidegree, Multidegree], Matrix],
                     sections: Mapping[Multidegree, Sequence[Vector]],
                     sources: Iterable[Multidegree], target: Multidegree) -> list[Vector]:
    """Images at ``target`` of every section at each source, pushed by the
    canonical-walk matrix ``walk(source, target)``; in source order."""
    out: list[Vector] = []
    for source in sources:
        matrix = walk(source, target)
        out.extend(vec_matmul(s, matrix) for s in sections[source])
    return out


def certificate_push_candidates(inst: LlsInstance, cert: SimpleCertificate,
                                ) -> dict[Multidegree, list[Vector]]:
    """All canonical pushes of the certificate sections, per multidegree,
    in support order; useful as ``preferred`` complement candidates."""
    walk = partial(canonical_matrix, inst)
    return {md: push_along_walks(walk, cert.sections, cert.support, md)
            for md in inst.multidegrees}


def certificate_complement_systems(inst: LlsInstance, cert: SimpleCertificate,
                                   ) -> tuple[ComplementSystem, ...]:
    """The three complement systems read off a certificate directly.

    The component-``q`` basis at a node consists of the pushed sections
    whose support multidegree lies in the node's component-``q`` source
    region.  The systems are checked against every invariant the sweep
    construction guarantees (complement property and directional growth),
    and the region recurrences feeding the induction are re-verified on
    the lattice.
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
            basis[md] = push_along_walks(walk, cert.sections, sources, md)
        systems.append(_checked_system(inst, q, basis))
    _check_region_recurrences(inst.d)
    return tuple(systems)


def _check_region_recurrences(d: int) -> None:
    """Recurrences of the source regions: wherever both primary feeders of
    a node exist, removing the node from its component-``q`` region leaves
    the union of the feeders' component-``q`` regions."""
    for md in all_multidegrees(d):
        for q in (1, 2, 3):
            fed = _feeders(md, q)
            if len(fed) < 2:
                continue
            parts = set().union(*(component_regions(f)[q - 1] for f in fed))
            if set(component_regions(md)[q - 1]) - {md} != parts:
                raise ConstructionError(f"region recurrence fails at {md}")


def certificate_to_json(cert: SimpleCertificate) -> dict:
    return {
        "support": [md.to_json() for md in cert.support],
        "sections": {
            f"{md.i},{md.l}": [[str(e) for e in vec] for vec in cert.sections[md]]
            for md in cert.support
        },
    }


def certificate_from_json(data: dict, d: int) -> SimpleCertificate:
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "certificate must be an object")
    support_field = data.get("support")
    if not isinstance(support_field, list):
        raise InstanceFormatError("support", "must be a list")
    support = tuple(_parse_md_triple(v, d, f"support[{k}]")
                    for k, v in enumerate(support_field))
    sections_field = data.get("sections")
    if not isinstance(sections_field, dict):
        raise InstanceFormatError("sections", "must be an object")
    sections: dict[Multidegree, tuple[Vector, ...]] = {}
    for key, rows in sections_field.items():
        md = _parse_md_key(key, d, f"sections.{key}")
        parsed = _parse_rows(rows, f"sections.{key}")
        sections[md] = tuple(as_vector(row) for row in parsed)
    if set(sections) != set(support):
        raise InstanceFormatError("sections", "keys must match the support set")
    return SimpleCertificate(support, sections)


def save_certificate(path, cert: SimpleCertificate) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dump(certificate_to_json(cert)))


def load_certificate(path, d: int) -> SimpleCertificate:
    with open(path, "r", encoding="utf-8") as handle:
        return certificate_from_json(json.load(handle), d)
