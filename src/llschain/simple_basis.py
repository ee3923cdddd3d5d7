"""Complement systems, simple-basis certificates, and the simplicity decision.

A *complement system* for component ``q`` assigns to every multidegree an
ordered basis of a complement of the vanish-on-Xq subspace inside the
chosen space, built by a sweep that seeds each node with the twisted
images of already-built neighbours; the resulting bases grow compatibly
along the three lattice directions.  A *simple-basis certificate* is a set
of support multidegrees with section lists whose canonical-walk images
form a basis of the chosen space at every multidegree.  Both constructions
need the series to be exact and distributive everywhere; the functions
here refuse other input with a precise witness instead of producing
something that silently fails to be a complement.

Boundary reading: at the top-left corner (d, 0, 0) the sweep seeds from
the horizontal neighbour (d-1, 1, 0); the corresponding corner of the
anti-diagonal construction behaves the same way by symmetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .exactla import Matrix, Subspace, Vector, as_vector, complement_in, vec_matmul
from .lattice import (
    Edge,
    Multidegree,
    all_multidegrees,
    component_regions,
)
from .lls_core import (
    InstanceFormatError,
    LlsInstance,
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


@dataclass
class ComplementSystem:
    """Per-multidegree complement bases for one component's vanishing space."""

    component: int
    basis: dict[Multidegree, list[Vector]]
    spans: dict[Multidegree, Subspace]

    def vectors(self, md: Multidegree) -> list[Vector]:
        return self.basis[md]

    def span(self, md: Multidegree) -> Subspace:
        return self.spans[md]


def _dedupe(vectors: list[Vector]) -> list[Vector]:
    seen = set()
    out = []
    for v in vectors:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _pushes(inst: LlsInstance, basis: dict, source: Multidegree,
            target: Multidegree) -> list[Vector]:
    matrix = inst.maps[(source, target)]
    return [vec_matmul(v, matrix) for v in basis[source]]


def _complete_node(inst: LlsInstance, md: Multidegree, q: int,
                   seeds: list[Vector], preferred: Mapping | None) -> list[Vector]:
    ambient = inst.ambient_dim[md]
    van = vanishing_in_v(inst, md, (q,))
    space = inst.space(md)
    seed_span = Subspace.span(seeds, ambient)
    if seed_span.dim != len(seeds):
        raise ConstructionError(f"seed images at {md} are dependent")
    if (seed_span & van).dim != 0:
        raise ConstructionError(f"seed images at {md} meet the vanishing subspace")
    wanted = preferred.get(md, ()) if preferred else ()
    extras = complement_in(van + seed_span, space, preferred=wanted)
    vectors = seeds + extras
    span = Subspace.span(vectors, ambient)
    if span.dim != len(vectors) or (span & van).dim != 0 \
            or span.dim + van.dim != space.dim:
        raise ConstructionError(f"complement construction failed at {md}")
    return vectors


def build_complement_system(inst: LlsInstance, q: int,
                            preferred: Mapping[Multidegree, Sequence] | None = None,
                            ) -> ComplementSystem:
    """Build the component-``q`` complement system by the inductive sweep.

    ``q = 1`` sweeps columns right to left in the grid (``i`` ascending),
    each column bottom to top; every node is seeded with the pushed bases
    of its already-built diagonal and vertical neighbours (down the right
    column, only the vertical one; at the far corner (d, 0, 0), the
    horizontal one).  ``q = 3`` is the exact mirror (swap components 1 and
    3, transpose rows and columns).  ``q = 2`` sweeps anti-diagonals from
    the boundary ``i + l = d`` inwards, seeding from the horizontal and
    vertical neighbours on the previous anti-diagonal.

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
    d = inst.d
    basis: dict[Multidegree, list[Vector]] = {}

    def node_order():
        if q == 1:
            for i in range(d + 1):
                for l in range(d - i, -1, -1):
                    yield Multidegree(i, d - i - l, l)
        elif q == 3:
            for l in range(d + 1):
                for i in range(d - l, -1, -1):
                    yield Multidegree(i, d - i - l, l)
        else:
            for m in range(d + 1):
                for md in all_multidegrees(d):
                    if md.i + md.l == d - m:
                        yield md

    def seeds_for(md: Multidegree) -> list[Vector]:
        if d == 0:
            return []
        if q == 1:
            if md.i == 0:
                return [] if md.l == d else _pushes(inst, basis, md.down(), md)
            if md.i == d:
                return _pushes(inst, basis, md.right(), md)
            if md.l == d - md.i:
                return _pushes(inst, basis, md.up_right(), md)
            if md.l >= 1:
                return _dedupe(_pushes(inst, basis, md.up_right(), md)
                               + _pushes(inst, basis, md.down(), md))
            return _pushes(inst, basis, md.down(), md)
        if q == 3:
            if md.l == 0:
                return [] if md.i == d else _pushes(inst, basis, md.left(), md)
            if md.l == d:
                return _pushes(inst, basis, md.up(), md)
            if md.i == d - md.l:
                return _pushes(inst, basis, md.up_right(), md)
            if md.i >= 1:
                return _dedupe(_pushes(inst, basis, md.up_right(), md)
                               + _pushes(inst, basis, md.left(), md))
            return _pushes(inst, basis, md.left(), md)
        # q == 2
        if md.i + md.l == d:
            return []
        return _dedupe(_pushes(inst, basis, md.left(), md)
                       + _pushes(inst, basis, md.down(), md))

    for md in node_order():
        basis[md] = _complete_node(inst, md, q, seeds_for(md), preferred)

    spans = {md: Subspace.span(vecs, inst.ambient_dim[md])
             for md, vecs in basis.items()}
    system = ComplementSystem(q, basis, spans)
    failures = [entry for entry in growth_report(inst, system) if not entry[3]]
    if failures:
        raise ConstructionError(f"directional growth fails: {failures[0][:3]}")
    return system


# The nine directional-growth relations: pushed basis vectors along the
# stated edge must reappear verbatim in the target basis.
_GROWTH = {
    1: (("vertical", lambda md: (md.down(), md)),
        ("diagonal", lambda md: (md.up_right(), md)),
        ("horizontal", lambda md: (md.right(), md))),
    2: (("vertical", lambda md: (md.down(), md)),
        ("horizontal", lambda md: (md, md.right())),
        ("diagonal", lambda md: (md, md.up_right()))),
    3: (("horizontal", lambda md: (md, md.right())),
        ("diagonal", lambda md: (md.up_right(), md)),
        ("vertical", lambda md: (md, md.down()))),
}


def growth_report(inst: LlsInstance, system: ComplementSystem,
                  ) -> list[tuple[str, Multidegree, Multidegree, bool]]:
    """Evaluate the three directional-growth relations of one system at
    every multidegree where the companion exists."""
    out = []
    for md in inst.multidegrees:
        for label, edge_fn in _GROWTH[system.component]:
            pair = edge_fn(md)
            if pair[0] is None or pair[1] is None:
                continue
            source, target = pair
            pushed = _pushes(inst, system.basis, source, target)
            ok = set(pushed) <= set(system.basis[target])
            out.append((label, source, target, ok))
    return out


@dataclass(frozen=True)
class StructureCheck:
    item: str
    multidegree: Multidegree
    ok: bool


@dataclass(frozen=True)
class StructureReport:
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
    through pushed complements, case by grid position.

    With ``W^q`` the complement spans and pushes along single edges:

    * bottom-right corner (0, 0, d): the sum is the push of ``W^3`` from
      the node above;
    * right column (i = 0, l < d): pushes of ``W^1`` and ``W^2`` from
      below plus ``W^2`` and ``W^3`` from the left;
    * anti-diagonal edge (1 <= i <= d-1, i + l = d): pushes of ``W^1`` and
      ``W^3`` from the upper-right;
    * interior: the union of the previous two right-hand sides;
    * top row (1 <= i <= d-1, l = 0): same as the right-column case;
    * top-left corner (d, 0, 0): the push of ``W^1`` from the right.
    """
    s1, s2, s3 = systems
    if (s1.component, s2.component, s3.component) != (1, 2, 3):
        raise ValueError("systems must be given in component order 1, 2, 3")
    d = inst.d
    checks: list[StructureCheck] = []
    if d == 0:
        return StructureReport(())

    def push_span(system: ComplementSystem, source: Multidegree,
                  target: Multidegree) -> Subspace:
        return system.span(source).apply(inst.maps[(source, target)])

    def from_diagonal(md: Multidegree) -> Subspace:
        return push_span(s1, md.up_right(), md) + push_span(s3, md.up_right(), md)

    def from_sides(md: Multidegree) -> Subspace:
        return (push_span(s1, md.down(), md) + push_span(s2, md.down(), md)
                + push_span(s2, md.left(), md) + push_span(s3, md.left(), md))

    for md in inst.multidegrees:
        i, l = md.i, md.l
        if i == 0 and l == d:
            item, rhs = "corner-bottom-right", push_span(s3, md.up(), md)
        elif i == d:
            item, rhs = "corner-top-left", push_span(s1, md.right(), md)
        elif l == d - i:
            item, rhs = "anti-diagonal-edge", from_diagonal(md)
        elif i == 0 or l == 0:
            item, rhs = ("right-column" if i == 0 else "top-row"), from_sides(md)
        else:
            item, rhs = "interior", from_diagonal(md) + from_sides(md)
        checks.append(StructureCheck(item, md, vanishing_sum(inst, md) == rhs))
    return StructureReport(tuple(checks))


@dataclass(frozen=True)
class SimpleCertificate:
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

    def counts(self) -> dict[Multidegree, int]:
        return {md: len(self.sections[md]) for md in self.support}


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


@dataclass(frozen=True)
class CertificateCheck:
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


@dataclass(frozen=True)
class SimplicityVerdict:
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
        spans = {}
        for md, vecs in basis.items():
            ambient = inst.ambient_dim[md]
            span = Subspace.span(vecs, ambient)
            van = vanishing_in_v(inst, md, (q,))
            if span.dim != len(vecs) or (span & van).dim != 0 \
                    or span.dim + van.dim != inst.space(md).dim:
                raise ConstructionError(
                    f"certificate does not induce a complement at {md} (component {q})")
            spans[md] = span
        system = ComplementSystem(q, basis, spans)
        failures = [entry for entry in growth_report(inst, system) if not entry[3]]
        if failures:
            raise ConstructionError(f"directional growth fails: {failures[0][:3]}")
        systems.append(system)
    _check_region_recurrences(inst.d)
    return tuple(systems)


def _check_region_recurrences(d: int) -> None:
    """Interior recurrences of the source regions: removing the node from
    its own region leaves the union of the two feeding neighbours' regions
    (per component: up-right with down; left with down; up-right with left)."""
    for md in all_multidegrees(d):
        if md.i < 1 or md.l < 1 or md.i + md.l > d - 1:
            continue
        r1, r2, r3 = (set(r) for r in component_regions(md))
        expectations = (
            (r1, component_regions(md.up_right())[0], component_regions(md.down())[0]),
            (r2, component_regions(md.left())[1], component_regions(md.down())[1]),
            (r3, component_regions(md.up_right())[2], component_regions(md.left())[2]),
        )
        for whole, part_a, part_b in expectations:
            if whole - {md} != set(part_a) | set(part_b):
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
        handle.write(json.dumps(certificate_to_json(cert), sort_keys=True, indent=2) + "\n")


def load_certificate(path, d: int) -> SimpleCertificate:
    with open(path, "r", encoding="utf-8") as handle:
        return certificate_from_json(json.load(handle), d)
