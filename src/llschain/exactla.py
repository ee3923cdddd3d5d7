"""Exact linear algebra over the rationals.

Conventions used by the whole package:

* vectors are rows, and a linear map acts by right multiplication, so the
  image of a subspace under a map is ``basis @ matrix``;
* a subspace is stored as the reduced row echelon basis of its row space,
  which is the unique canonical representative, so two subspaces are equal
  exactly when their basis matrices are equal;
* every coefficient is a :class:`fractions.Fraction` (arbitrary precision,
  lowest terms, positive denominator).  No floating point anywhere.

``Fraction`` is the interface; elimination (behind every rref, kernel,
span, intersection, image and preimage) runs inside on primitive integer
rows, fraction-free, and turns back into ``Fraction`` once at the end.

Matrices are stored dense.  A product ``A @ B`` lists the nonzero
``(column, value)`` pairs of each row of ``B`` once per call and walks only
those, so the sparse twist maps cost a few adds per row; the lists are
dropped with the call, never kept on a matrix.

Rationals serialize as ``"p/q"``, or ``"p"`` when the denominator is one,
with the sign carried by the numerator; this is exactly ``str(Fraction)``.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]

__all__ = [
    "Rational",
    "Vector",
    "LinearAlgebraError",
    "parse_rational",
    "format_rational",
    "as_vector",
    "Matrix",
    "rref",
    "rref_with_transform",
    "kernel",
    "image",
    "preimage",
    "Subspace",
    "complement_in",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LinearAlgebraError(ValueError):
    """Structural misuse: mismatched ambient dimensions, bad containments."""


# ``p`` or ``p/q`` only: ``Fraction`` also reads decimals and exponents,
# and "1e999999999" would build a billion-digit integer.
_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def _parse(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise LinearAlgebraError(f"invalid rational literal {text[:40]!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise LinearAlgebraError(f"invalid rational literal {text[:40]!r}") from exc


# An instance file repeats a few short literals ("0", "1", "-1", ...) tens
# of thousands of times, so those parse once; a failed parse raises and is
# not cached, and long literals are never kept.
_SHORT_LITERAL = 12
_parse_short = functools.lru_cache(maxsize=1024)(_parse)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical string form ``p`` or ``p/q``."""
    text = str(text).strip()
    return _parse_short(text) if len(text) <= _SHORT_LITERAL else _parse(text)


def format_rational(value: Fraction) -> str:
    """Canonical string form, lowest terms, sign on the numerator."""
    return str(value if type(value) is Fraction else Fraction(value))


def as_vector(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def _unit_vector(size: int, position: int) -> Vector:
    return tuple(_ONE if k == position else _ZERO for k in range(size))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with row-major rational entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise LinearAlgebraError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise LinearAlgebraError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = [as_vector(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise LinearAlgebraError("ragged rows")
            if cols is not None and cols != width:
                raise LinearAlgebraError("rows do not match requested width")
        else:
            if cols is None:
                raise LinearAlgebraError("empty matrix needs an explicit width")
            width = cols
        return Matrix(len(data), width, tuple(itertools.chain.from_iterable(data)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (_ZERO,) * (rows * cols))

    def row(self, k: int) -> Vector:
        return self.entries[k * self.cols:(k + 1) * self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(k) for k in range(self.rows)]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __hash__(self) -> int:
        # Subspaces key the analysis table, so each matrix hashes its
        # entries once and keeps the value.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash((self.rows, self.cols, self.entries))
            return value

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinearAlgebraError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # The nonzero (column, value) pairs of each row of ``other``, built
        # once per product: the twist maps are about 8% nonzero, so a row
        # of the product is a handful of adds.  Nothing is kept on the
        # operands.
        width, entries = other.cols, other.entries
        sparse = [[(j, e) for j, e in enumerate(entries[k * width:(k + 1) * width]) if e]
                  for k in range(other.rows)]
        out: list[Fraction] = []
        for i in range(self.rows):
            acc = [_ZERO] * width
            for coeff, pairs in zip(self.row(i), sparse):
                if coeff:
                    for j, e in pairs:
                        acc[j] += coeff * e
            out.extend(acc)
        return Matrix(self.rows, width, tuple(out))

    def with_entry(self, i: int, j: int, value) -> "Matrix":
        """Copy with one entry replaced (handy for perturbation tests)."""
        entries = list(self.entries)
        entries[i * self.cols + j] = Fraction(value)
        return Matrix(self.rows, self.cols, tuple(entries))

    def to_strings(self) -> list[list[str]]:
        return [[format_rational(e) for e in self.row(k)] for k in range(self.rows)]


def vec_matmul(v: Sequence, m: Matrix) -> Vector:
    """Row vector times matrix."""
    vv = as_vector(v)
    if len(vv) != m.rows:
        raise LinearAlgebraError(f"vector of length {len(vv)} times {m.rows}x{m.cols} matrix")
    acc = [_ZERO] * m.cols
    for k, coeff in enumerate(vv):
        if not coeff:
            continue
        for j, e in enumerate(m.row(k)):
            if e:
                acc[j] += coeff * e
    return tuple(acc)


def _rref_rows(rows: list[Sequence[Fraction]], width: int) -> list[int]:
    """In-place reduced row echelon form of ``rows``; pivots only in the
    first ``width`` columns (any further columns ride along, e.g. a
    transform).

    The elimination runs on primitive integer rows: each row is cleared of
    denominators once, a row is eliminated against the pivot row by
    cross-multiplication ``(lead/g)*row - (f/g)*pivot_row`` and divided by
    its content, so no rational is formed until the end.  Every integer row
    stays a nonzero multiple of the row the rational Gauss-Jordan would
    hold, so pivots are the same; each pivot row is then divided by its
    pivot entry, which gives the canonical RREF, and rows past the rank are
    returned as their primitive integer multiples.
    """
    ints = [_primitive_row(row) for row in rows]
    pivots: list[int] = []
    pr = 0
    nrows = len(ints)
    for pc in range(width):
        pivot_row = None
        for k in range(pr, nrows):
            if ints[k][pc]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        ints[pr], ints[pivot_row] = ints[pivot_row], ints[pr]
        prow = ints[pr]
        lead = prow[pc]
        for k in range(nrows):
            row = ints[k]
            factor = row[pc]
            if not factor or k == pr:
                continue
            g = gcd(lead, factor)
            a, b = lead // g, factor // g
            row = [a * e - b * p for e, p in zip(row, prow)]
            content = gcd(*row)
            if content > 1:
                row = [e // content for e in row]
            ints[k] = row
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    for k, pc in enumerate(pivots):
        lead = ints[k][pc]
        rows[k] = [_ratio(e, lead) if e else _ZERO for e in ints[k]]
    for k in range(pr, nrows):
        rows[k] = [_ratio(e, 1) if e else _ZERO for e in ints[k]]
    return pivots


# Reduced entries repeat a few small values across eliminations, so the
# immutable Fractions are shared instead of rebuilt (and re-reduced).
@functools.lru_cache(maxsize=256)
def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den)


def _primitive_row(row: Sequence[Fraction]) -> list[int]:
    """The primitive integer vector on the line through a rational row."""
    ratios = [e.as_integer_ratio() for e in row]
    den = lcm(*[q for _, q in ratios])
    if den == 1:
        out = [p for p, _ in ratios]
    else:
        out = [p * (den // q) for p, q in ratios]
    content = gcd(*out)
    if content > 1:
        out = [e // content for e in out]
    return out


def _from_rows(rows: list[Sequence[Fraction]], cols: int) -> Matrix:
    """Matrix of rows that already hold ``Fraction`` entries."""
    return Matrix(len(rows), cols, tuple(itertools.chain.from_iterable(rows)))


def rref(matrix: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form, pivot columns, and rank."""
    rows = matrix.row_list()
    pivots = _rref_rows(rows, matrix.cols)
    return (_from_rows(rows, matrix.cols), tuple(pivots), len(pivots))


def rref_with_transform(matrix: Matrix) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """Return ``(R, T, pivots)`` with ``T @ matrix == R`` and ``T`` invertible."""
    n = matrix.rows
    rows = [matrix.row(k) + _unit_vector(n, k) for k in range(n)]
    pivots = _rref_rows(rows, matrix.cols)
    reduced = _from_rows([r[:matrix.cols] for r in rows], matrix.cols)
    transform = _from_rows([r[matrix.cols:] for r in rows], n)
    return reduced, transform, tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n in canonical (RREF basis) form, with the
    pivot column of each basis row."""

    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...] = field(compare=False, repr=False)

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = [as_vector(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise LinearAlgebraError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}")
        reduced, pivots, rank = rref(_from_rows(rows, ambient_dim))
        return Subspace(ambient_dim,
                        Matrix(rank, ambient_dim, reduced.entries[:rank * ambient_dim]),
                        pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(0, ambient_dim), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def reduce(self, vector: Sequence) -> Vector:
        """Residual of ``vector`` after subtracting its projection onto the
        pivot coordinates; zero exactly when the vector lies in the space."""
        v = list(as_vector(vector))
        if len(v) != self.ambient_dim:
            raise LinearAlgebraError("ambient dimension mismatch")
        for k, p in enumerate(self.pivots):
            coeff = v[p]
            if not coeff:
                continue
            for j, e in enumerate(self.basis.row(k)):
                if e:
                    v[j] -= coeff * e
        return tuple(v)

    def __contains__(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.basis.row_list() + other.basis.row_list(),
                             self.ambient_dim)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection through a residual kernel of the smaller space.

        With ``A`` the smaller basis and ``B`` the larger space, ``x·A``
        lies in ``B`` exactly when its residual modulo ``B`` vanishes, and
        the residual is linear, so the relations ``x`` are the left kernel
        of the ``dim A x n`` matrix of residuals of the rows of ``A``."""
        self._check_ambient(other)
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        if small.dim == 0 or large.dim == self.ambient_dim:
            return small
        residuals = [large.reduce(row) for row in small.basis.row_list()]
        relations = kernel(_from_rows(residuals, self.ambient_dim))
        if relations.dim == small.dim:
            return small
        vectors = [vec_matmul(rel, small.basis) for rel in relations.basis.row_list()]
        return Subspace.span(vectors, self.ambient_dim)

    def __le__(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(row in other for row in self.basis.row_list())

    def apply(self, matrix: Matrix) -> "Subspace":
        """Image of this subspace under the map ``v -> v @ matrix``."""
        if matrix.rows != self.ambient_dim:
            raise LinearAlgebraError("map domain does not match ambient dimension")
        return Subspace.span((self.basis @ matrix).row_list(), matrix.cols)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise LinearAlgebraError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}")

    def to_strings(self) -> list[list[str]]:
        return self.basis.to_strings()


def kernel(matrix: Matrix) -> Subspace:
    """Left kernel ``{v : v @ matrix = 0}`` as a subspace of Q^rows."""
    reduced, transform, pivots = rref_with_transform(matrix)
    rank = len(pivots)
    rows = [transform.row(k) for k in range(rank, matrix.rows)]
    return Subspace.span(rows, matrix.rows)


def image(matrix: Matrix) -> Subspace:
    """Row space of the matrix, i.e. the image of the full domain."""
    return Subspace.span(matrix.row_list(), matrix.cols)


def preimage(matrix: Matrix, target: Subspace) -> Subspace:
    """``{v : v @ matrix in target}`` as a subspace of Q^rows."""
    if matrix.cols != target.ambient_dim:
        raise LinearAlgebraError("map codomain does not match target ambient")
    # ``v @ matrix`` lies in the target exactly when its residual modulo
    # the target vanishes, and the residual is linear in ``v``.
    residuals = [target.reduce(row) for row in matrix.row_list()]
    return kernel(_from_rows(residuals, target.ambient_dim))


def complement_in(inner: Subspace, outer: Subspace,
                  preferred: Sequence[Sequence] = ()) -> list[Vector]:
    """Vectors extending a basis of ``inner`` to one of ``outer``.

    Candidates are scanned in a fixed order (any ``preferred`` vectors, then
    the RREF basis rows of ``outer``, then standard basis vectors) and taken
    greedily whenever they increase the span, so the result is reproducible.
    Candidates outside ``outer`` are skipped.
    """
    inner._check_ambient(outer)
    if not inner <= outer:
        raise LinearAlgebraError("inner subspace is not contained in outer")
    n = outer.ambient_dim
    extension: list[Vector] = []
    span = inner
    candidates = itertools.chain(
        (as_vector(v) for v in preferred),
        outer.basis.row_list(),
        (_unit_vector(n, j) for j in range(n)),
    )
    for cand in candidates:
        if span.dim == outer.dim:
            break
        if cand not in outer:
            continue
        if cand not in span:
            extension.append(cand)
            span = span + Subspace.span([cand], n)
    if span != outer:
        raise LinearAlgebraError("failed to complete the basis (candidate exhaustion)")
    return extension
