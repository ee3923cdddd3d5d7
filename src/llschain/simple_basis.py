"""Simple-basis certificates and the simplicity decision.

A *simple-basis certificate* is a set of support multidegrees with section
lists whose canonical-walk images form a basis of the chosen space at every
multidegree.  :func:`extract_certificate` builds one for a series that is
exact and distributive everywhere and refuses other input with a precise
witness; :func:`verify_certificate` checks any certificate, hand-written
ones included, by pushing its sections with :func:`push_along_walks`; and
:func:`is_simple` decides simplicity by the two together.  Sections are
one stored-form matrix per support node, in a certificate and in a push.
:class:`SimpleCertificate` and its file functions live in
:mod:`llschain.lls_core`, beside the instance files, and are importable here.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple

from .exactla import Matrix, complement_in, image, image_in
from .lattice import Edge, Multidegree
from .lls_core import (
    InstanceFormatError,
    LlsInstance,
    SimpleCertificate,
    canonical_matrix,
    certificate_from_json,
    certificate_to_json,
    distributive_at,
    exactness,
    load_certificate,
    md_key,
    save_certificate,
    vanishing_sum,
)

__all__ = [
    "ExactnessRequired",
    "DistributivityRequired",
    "CertificateError",
    "ConstructionError",
    "SimpleCertificate",
    "extract_certificate",
    "CertificateCheck",
    "verify_certificate",
    "SimplicityVerdict",
    "is_simple",
    "push_along_walks",
    "certificate_to_json",
    "certificate_from_json",
    "save_certificate",
    "load_certificate",
]


class ExactnessRequired(ValueError):
    """The series is not exact; carries the first failing directed edge."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(f"series is not exact at {edge.label}")


class DistributivityRequired(ValueError):
    """Distributivity fails somewhere; carries the witness multidegree."""

    def __init__(self, multidegree: Multidegree):
        self.multidegree = multidegree
        super().__init__(f"distributivity fails at {multidegree.label}")


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


def extract_certificate(inst: LlsInstance) -> SimpleCertificate:
    """Certificate for an exact, everywhere-distributive series.

    Support is the set of multidegrees with positive codimension; the
    sections extend a basis of the vanishing-sum there to the full space.
    The result always passes :func:`verify_certificate`.
    """
    _require_exact(inst)
    _require_distributive(inst)
    sections: dict[Multidegree, Matrix] = {}
    for md in inst.multidegrees:
        vsum = vanishing_sum(inst, md)
        if vsum.dim != inst.r + 1:
            sections[md] = image(complement_in(vsum, inst.space(md))).basis
    cert = SimpleCertificate(tuple(sections), sections)
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
            raise CertificateError(f"support[{k}]", f"{md.label} is not on the grid")
        where = f"sections.{md_key(md)}"
        secs = cert.sections.get(md)
        if secs is None or not secs.rows:
            raise CertificateError(where, f"support multidegree {md.label} carries no sections")
        space = inst.space(md)
        if secs.cols != space.ambient_dim:
            raise CertificateError(f"{where}[0]", f"rows must have length {space.ambient_dim}")
        for s_idx, row in enumerate(secs.ints):
            if row not in space:
                raise CertificateError(f"{where}[{s_idx}]", "lies outside the chosen space")
    if len(set(cert.support)) != len(cert.support):
        raise CertificateError("support", "duplicate support multidegrees")
    total = cert.total_sections
    if total != inst.r + 1:
        return CertificateCheck(False, None,
                                f"{total} sections cannot form bases of dimension {inst.r + 1}")
    walk = partial(canonical_matrix, inst)
    for md in inst.multidegrees:
        pushed = push_along_walks(walk, cert.sections, cert.support, md)
        if not image_in(pushed, inst.space(md)):
            return CertificateCheck(False, md, "a pushed section leaves the chosen space")
        if image(pushed).dim != inst.r + 1:
            return CertificateCheck(False, md, "pushed sections do not span")
    return CertificateCheck(True, None, "certificate verified")


class SimplicityVerdict(NamedTuple):
    simple: bool
    certificate: SimpleCertificate | None = None
    reason: str | None = None  # "not-exact" | "not-distributive"
    witness: Multidegree | Edge | None = None

    def to_json(self) -> dict:
        out: dict = {"simple": self.simple}
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
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
                     sections: Mapping[Multidegree, Matrix],
                     sources: Iterable[Multidegree], target: Multidegree) -> Matrix:
    """Images at ``target`` of the sections at each source, one stored-form
    matrix row per section: ``sections[source] @ walk(source, target)``,
    stacked in source order (a ``0 x 0`` matrix when there is no source)."""
    ints, dens, cols = (), (), 0
    for source in sources:
        pushed = sections[source] @ walk(source, target)
        ints, dens, cols = ints + pushed.ints, dens + pushed.dens, pushed.cols
    return Matrix._stored(cols, ints, dens)
