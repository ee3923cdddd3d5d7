"""Exact linear algebra over the rationals.

Conventions used by the whole package:

* vectors are rows, and a linear map acts by right multiplication, so the
  image of a subspace under a map is ``basis @ matrix``;
* a subspace is stored as the reduced row echelon basis of its row space,
  which is the unique canonical representative, so two subspaces are equal
  exactly when their basis matrices are equal;
* every coefficient is a :class:`fractions.Fraction` (arbitrary precision,
  lowest terms, positive denominator).  No floating point anywhere.

``Fraction`` is the interface and integers the inside.  Each subspace
operation (``Subspace.span``, ``+``, ``&``, ``apply``, ``<=``, ``in``,
``kernel``, ``image``, ``image_in``, ``preimage``) reads its operands once
per call: a subspace through ``int_rows``, the primitive integer multiple
of each canonical basis row (pivot entry positive) that the elimination
making it left behind, and a matrix as rows ``ints_k / den_k``.  Residuals,
products and relation rows are ``int``; a relation (kernel) computation
eliminates ``[ints_k | den_k·e_k]`` once, so the transform carries each
row's own denominator.  One fraction-free elimination, ``_eliminate``,
serves them and ``rref``, and ``Fraction`` entries are made once, for the
canonical result.

``Matrix.__matmul__`` and ``vec_matmul`` stay on ``Fraction``: their
operands are mostly sparse twist maps and one-off composites, and
converting both operands on every call measured slower than the few
``Fraction`` adds a product needs.  A product lists the nonzero
``(column, value)`` pairs of each row of ``B`` once per call and walks only
those; the lists are dropped with the call, never kept on a matrix.

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
    "image_in",
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


def _clear(entries: Sequence, nrows: int, width: int) -> tuple[list[list[int]], list[int]]:
    """Integer rows and denominators of ``nrows`` rows of ``width`` entries
    laid end to end: row ``k`` is ``rows[k] / dens[k]``, where ``dens[k]``
    is the least common denominator of its entries."""
    try:
        nums = [e.numerator for e in entries]
        denoms = [e.denominator for e in entries]
    except AttributeError:
        return _clear(as_vector(entries), nrows, width)
    rows, dens = [], []
    for k in range(nrows):
        start, stop = k * width, (k + 1) * width
        den = lcm(*denoms[start:stop])
        rows.append(nums[start:stop] if den == 1 else
                    [p * (den // q) for p, q in zip(nums[start:stop], denoms[start:stop])])
        dens.append(den)
    return rows, dens


def _int_rows(matrix: Matrix) -> tuple[list[list[int]], list[int]]:
    return _clear(matrix.entries, matrix.rows, matrix.cols)


def _eliminate(rows: list[Sequence[int]], width: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place;
    returns the pivot columns, all among the first ``width`` (any further
    columns ride along, e.g. a transform).

    Each row is divided by its content on entry and after every update
    ``(lead/g)*row - (f/g)*pivot_row``, so it stays primitive and a nonzero
    multiple of the row the rational Gauss-Jordan would hold: the pivots
    are the same, and ``rows[k] / rows[k][pivots[k]]`` is row ``k`` of the
    canonical RREF.  Pivot rows end with a positive pivot entry; rows past
    the rank are zero in the first ``width`` columns.
    """
    nrows = len(rows)
    for k in range(nrows):
        content = gcd(*rows[k])
        if content > 1:
            rows[k] = [e // content for e in rows[k]]
    pivots: list[int] = []
    pr = 0
    for pc in range(width):
        if pr == nrows:
            break
        for k in range(pr, nrows):
            if rows[k][pc]:
                break
        else:
            continue
        rows[pr], rows[k] = rows[k], rows[pr]
        prow = rows[pr]
        lead = prow[pc]
        for k in range(nrows):
            row = rows[k]
            factor = row[pc]
            if not factor or k == pr:
                continue
            g = gcd(lead, factor)
            a, b = lead // g, factor // g
            row = [a * e - b * p for e, p in zip(row, prow)]
            content = gcd(*row)
            if content > 1:
                row = [e // content for e in row]
            rows[k] = row
        pivots.append(pc)
        pr += 1
    for k, pc in enumerate(pivots):
        if rows[k][pc] < 0:
            rows[k] = [-e for e in rows[k]]
    return pivots


# Reduced entries repeat a few small values across eliminations, so the
# immutable Fractions are shared instead of rebuilt (and re-reduced).
@functools.lru_cache(maxsize=256)
def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den)


def _over_pivots(rows: list[Sequence[int]], pivots: list[int]) -> list[Fraction]:
    """The entries of eliminated ``rows``, each pivot row divided by its
    pivot entry and the rows past the rank as they are."""
    leads = [row[pc] for row, pc in zip(rows, pivots)] + [1] * (len(rows) - len(pivots))
    return [_ratio(e, lead) if e else _ZERO for row, lead in zip(rows, leads) for e in row]


def _augment(rows: list[Sequence[int]], scales: Sequence[int]) -> list[list[int]]:
    """``[rows[k] | scales[k]·e_k]`` for every ``k``."""
    n = len(rows)
    return [[*row, *[0] * k, s, *[0] * (n - 1 - k)]
            for k, (row, s) in enumerate(zip(rows, scales))]


def _relations(rows: list[Sequence[int]], scales: Sequence[int], width: int) -> list[list[int]]:
    """Integer rows spanning ``{y : sum_k (y_k / scales[k]) * rows[k] = 0}``
    for integer ``rows`` of ``width`` columns: the transform parts of the
    rows of ``[rows | scales[k]·e_k]`` that elimination clears."""
    augmented = _augment(rows, scales)
    rank = len(_eliminate(augmented, width))
    return [row[width:] for row in augmented[rank:]]


def _combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """``sum_k coeffs[k] * rows[k]``."""
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * e for a, e in zip(acc, row)]
    return acc


def _subspace(rows: list[Sequence[int]], ambient_dim: int) -> "Subspace":
    """The span of integer rows in canonical form: every ``Subspace`` is
    made here, and only here are its ``Fraction`` entries made."""
    pivots = _eliminate(rows, ambient_dim)
    rows = rows[:len(pivots)]
    return Subspace(ambient_dim, Matrix(len(rows), ambient_dim, tuple(_over_pivots(rows, pivots))),
                    tuple(pivots), tuple(map(tuple, rows)))


def rref(matrix: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form, pivot columns, and rank."""
    rows, _ = _int_rows(matrix)
    pivots = _eliminate(rows, matrix.cols)
    return (Matrix(matrix.rows, matrix.cols, tuple(_over_pivots(rows, pivots))),
            tuple(pivots), len(pivots))


def rref_with_transform(matrix: Matrix) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """Return ``(R, T, pivots)`` with ``T @ matrix == R`` and ``T`` invertible.

    Row ``k`` of the matrix is ``ints_k / den_k``, so eliminating
    ``[ints_k | den_k·e_k]`` keeps every row of the form ``[y @ matrix | y]``."""
    n, cols = matrix.rows, matrix.cols
    rows, dens = _int_rows(matrix)
    augmented = _augment(rows, dens)
    pivots = _eliminate(augmented, cols)
    both = Matrix(n, cols + n, tuple(_over_pivots(augmented, pivots)))
    reduced = Matrix(n, cols, tuple(e for k in range(n) for e in both.row(k)[:cols]))
    transform = Matrix(n, n, tuple(e for k in range(n) for e in both.row(k)[cols:]))
    return reduced, transform, tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n in canonical (RREF basis) form, with the
    pivot column of each basis row and the primitive integer multiple of
    each basis row, pivot entry positive (``int_rows``), which the
    operations read instead of the ``Fraction`` basis."""

    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...] = field(compare=False, repr=False)
    int_rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise LinearAlgebraError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}")
        entries = list(itertools.chain.from_iterable(vectors))
        return _subspace(_clear(entries, len(vectors), ambient_dim)[0], ambient_dim)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return _subspace([], ambient_dim)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return _subspace([[int(j == k) for j in range(ambient_dim)] for k in range(ambient_dim)],
                         ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def _residuals(self, vectors: Iterable[Sequence[int]]) -> list[list[int]]:
        """Residuals of integer vectors modulo this space, on its non-pivot
        columns (the pivot columns of a residual are zero), all scaled by
        the one factor ``L``, the lcm of the pivot entries, so the map
        stays linear: ``L*v - sum_k v[p_k] * (L / lead_k) * int_rows[k]``."""
        pivots, int_rows = self.pivots, self.int_rows
        free = [j for j in range(self.ambient_dim) if j not in pivots]
        scale = lcm(*[row[p] for row, p in zip(int_rows, pivots)])
        steps = [(p, [(scale // row[p]) * row[j] for j in free])
                 for row, p in zip(int_rows, pivots)]
        out = []
        for v in vectors:
            res = [scale * v[j] for j in free]
            for p, step in steps:
                c = v[p]
                if c:
                    res = [x - c * y for x, y in zip(res, step)]
            out.append(res)
        return out

    def _holds(self, vectors: Iterable[Sequence[int]]) -> bool:
        """Whether every integer vector lies in this space."""
        return not any(map(any, self._residuals(vectors)))

    def __contains__(self, vector: Sequence) -> bool:
        if len(vector) != self.ambient_dim:
            raise LinearAlgebraError("ambient dimension mismatch")
        return self._holds(_clear(vector, 1, self.ambient_dim)[0])

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return _subspace([*self.int_rows, *other.int_rows], self.ambient_dim)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection through a residual kernel of the smaller space.

        With ``A`` the smaller space and ``B`` the larger, ``sum x_k a_k``
        over the integer rows ``a_k`` of ``A`` lies in ``B`` exactly when
        the same combination of their residuals modulo ``B`` vanishes, so
        the relations ``x`` are the left kernel of the residual rows, and
        the intersection is spanned by the combinations they give."""
        self._check_ambient(other)
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        n = self.ambient_dim
        if small.dim == 0 or large.dim == n:
            return small
        relations = _relations(large._residuals(small.int_rows), [1] * small.dim, n - large.dim)
        if len(relations) == small.dim:
            return small
        return _subspace([_combination(x, small.int_rows, n) for x in relations], n)

    def __le__(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.dim <= other.dim and other._holds(self.int_rows)

    def apply(self, matrix: Matrix) -> "Subspace":
        """Image of this subspace under the map ``v -> v @ matrix``."""
        if matrix.rows != self.ambient_dim:
            raise LinearAlgebraError("map domain does not match ambient dimension")
        rows, dens = _int_rows(matrix)
        common = lcm(*dens)
        if common != 1:
            rows = [[(common // den) * e for e in row] for row, den in zip(rows, dens)]
        return _subspace([_combination(a, rows, matrix.cols) for a in self.int_rows],
                         matrix.cols)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise LinearAlgebraError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}")

    def to_strings(self) -> list[list[str]]:
        return self.basis.to_strings()


def kernel(matrix: Matrix) -> Subspace:
    """Left kernel ``{v : v @ matrix = 0}`` as a subspace of Q^rows."""
    rows, dens = _int_rows(matrix)
    return _subspace(_relations(rows, dens, matrix.cols), matrix.rows)


def image(matrix: Matrix) -> Subspace:
    """Row space of the matrix, i.e. the image of the full domain."""
    return _subspace(_int_rows(matrix)[0], matrix.cols)


def image_in(matrix: Matrix, target: Subspace) -> bool:
    """Whether ``image(matrix) <= target``, read off the rows directly."""
    if matrix.cols != target.ambient_dim:
        raise LinearAlgebraError("map codomain does not match target ambient")
    return target._holds(_int_rows(matrix)[0])


def preimage(matrix: Matrix, target: Subspace) -> Subspace:
    """``{v : v @ matrix in target}`` as a subspace of Q^rows."""
    if matrix.cols != target.ambient_dim:
        raise LinearAlgebraError("map codomain does not match target ambient")
    # ``v @ matrix`` lies in the target exactly when its residual modulo
    # the target vanishes, and the residual is linear in ``v``.
    rows, dens = _int_rows(matrix)
    return _subspace(_relations(target._residuals(rows), dens, matrix.cols - target.dim),
                     matrix.rows)


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
