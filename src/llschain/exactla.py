"""Exact linear algebra over the rationals.

Conventions used by the whole package:

* vectors are rows, and a linear map acts by right multiplication, so the
  image of a subspace under a map is ``basis @ matrix``;
* a subspace is stored as the reduced row echelon basis of its row space,
  which is the unique canonical representative, so two subspaces are equal
  exactly when their basis matrices are equal, and a subspace hashes as
  its basis (whose column count is the ambient dimension);
* every coefficient a caller sees is a :class:`fractions.Fraction`
  (arbitrary precision, lowest terms, positive denominator).  No floating
  point anywhere.

``Fraction`` is the interface and integers the inside.  A :class:`Matrix`
stores integer rows: row ``k`` is ``ints[k] / dens[k]``, where ``dens[k]``
is the least common denominator of that row's entries, the least positive
integer that clears them.  Each rational row has exactly one such form, so
two matrices are equal exactly when their ``ints`` and ``dens`` tuples are,
and equality and hashing compare tuples of ``int``.  A subspace's basis
comes straight from the fraction-free elimination, ``_eliminate``: each of
its rows is a primitive integer row over its positive pivot entry, which is
already that form: ``D * row / lead`` is integral exactly when ``lead``
divides ``D`` times the row's content, which is 1.

Every operation (``@``, ``vec_matmul``, ``is_zero``, ``to_strings``,
``Subspace.span``, ``Subspace.sum`` and its two-space case ``+``, ``&``,
``apply``, ``<=``, ``in``, ``kernel``, ``image``, ``image_in``,
``preimage``, ``complement_in``) reads these rows as they are stored;
residuals, products and relation rows are ``int``.  A relation (kernel)
computation eliminates ``[ints_k | den_k·e_k]`` once, so the transform
carries each row's own denominator.  ``Fraction`` values
appear only at the edge: ``parse_rational`` reads text into them; the
readers ``Subspace.span`` and ``in`` (and ``vec_matmul`` and the
``preferred`` rows of ``complement_in``) take ``Fraction`` or ``int``
entries; and the builders ``entries``, ``row_list``,
``to_strings`` and ``vec_matmul`` make them for a caller.  Past the file
reader the library holds no ``Fraction`` row: certificate sections and
witnesses are stored rows too, and sections are pushed by ``@``.
``from_ints`` takes integer rows over any positive denominators, and
``complement_in`` returns a stored-form matrix.  ``Matrix`` and
``Subspace`` are slotted classes with no ``__dict__``: a matrix holds
its shape, its ``ints`` and ``dens`` and, once asked, its hash, and
nothing else derived; a subspace holds its ambient dimension, basis,
pivot columns, ``dim`` and, once asked, the residual steps ``_residuals``
reduces vectors with: its basis rows that are nonzero on a free column.

An entry serializes as ``"p/q"``, or ``"p"`` when the denominator is one,
with the sign carried by the numerator; this is exactly ``str(Fraction)``.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
IntRow = tuple[int, ...]

__all__ = [
    "Vector",
    "LinearAlgebraError",
    "parse_rational",
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
# not cached, and long literals are never kept.  ``_SHORT_INTS`` holds the
# ``int`` of up to 1024 canonical integer literals among them, for readers.
_SHORT_LITERAL = 12
_parse_short = functools.lru_cache(maxsize=1024)(_parse)
_SHORT_INTS: dict[str, int] = {}


def parse_rational(text: str) -> Fraction:
    """Parse the canonical string form ``p`` or ``p/q``."""
    text = str(text).strip()
    if len(text) > _SHORT_LITERAL:
        return _parse(text)
    value = _parse_short(text)
    if text == str(value.numerator) and len(_SHORT_INTS) < 1024:
        _SHORT_INTS[text] = value.numerator
    return value


def _integer_row(entries: Iterable) -> tuple[IntRow, int]:
    """``(ints, den)`` with ``entries == ints / den``, where ``den`` is the
    least common denominator of the entries (``int`` entries are over 1)."""
    if type(entries) is not tuple and type(entries) is not list:
        entries = tuple(entries)  # read twice below
    nums = [e.numerator for e in entries]
    denoms = [e.denominator for e in entries]
    den = lcm(*denoms)
    if den == 1:
        return tuple(nums), 1
    return tuple(p * (den // q) for p, q in zip(nums, denoms)), den


def _lowest(row: Sequence[int], den: int) -> tuple[IntRow, int]:
    """The stored form of the rational row ``row / den`` (``den > 0``)."""
    g = gcd(den, *row)
    if g == 1:
        return tuple(row), den
    return tuple(e // g for e in row), den // g


def _fractions(row: IntRow, den: int) -> Vector:
    if den == 1:
        return tuple(map(Fraction, row))
    return tuple(Fraction(e, den) if e else _ZERO for e in row)


def _common(matrix: "Matrix") -> tuple[Sequence[IntRow], int]:
    """The rows of ``matrix`` over one denominator: ``(rows, den)`` with
    row ``k`` equal to ``rows[k] / den``."""
    den = lcm(*matrix.dens)
    if den == 1:
        return matrix.ints, 1
    return [[(den // d) * e for e in row] for row, d in zip(matrix.ints, matrix.dens)], den


class Matrix:
    """Immutable dense rational matrix, stored as integer rows: row ``k`` is
    ``ints[k] / dens[k]``, with ``dens[k]`` the least common denominator of
    the row.  Build one with ``from_ints`` (integer rows over
    denominators) or ``identity``."""

    __slots__ = ("rows", "cols", "ints", "dens", "_hash", "__weakref__")

    @classmethod
    def _stored(cls, cols: int, ints: tuple[IntRow, ...], dens: tuple[int, ...]) -> "Matrix":
        """A matrix from rows already in the stored form."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix.ints, matrix.dens = len(ints), cols, ints, dens
        return matrix

    @staticmethod
    def from_ints(rows: Sequence[Sequence[int]], dens: Sequence[int], cols: int) -> "Matrix":
        """The matrix whose row ``k`` is ``rows[k] / dens[k]``, for integer
        rows of ``cols`` entries over positive integers ``dens``."""
        if (len(rows) != len(dens) or any(len(row) != cols for row in rows)
                or any(den <= 0 for den in dens)):
            raise LinearAlgebraError("rows, denominators and width do not match")
        pairs = list(map(_lowest, rows, dens))
        return Matrix._stored(cols, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._stored(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                              (1,) * n)

    @property
    def entries(self) -> Vector:
        return tuple(itertools.chain.from_iterable(self.row_list()))

    def row_list(self) -> list[Vector]:
        return list(map(_fractions, self.ints, self.dens))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.ints == other.ints and self.dens == other.dens)

    def __hash__(self) -> int:
        # Subspaces key the analysis table, so each matrix hashes its rows
        # once and keeps the value.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.rows, self.cols, self.ints, self.dens))
            return self._hash

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols}, ints={self.ints}, dens={self.dens})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinearAlgebraError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # The twist maps are about 8% nonzero, so most rows of ``self`` are
        # zero (one shared zero row) or a single term (see ``_combination``).
        width = other.cols
        rows, scale = _common(other)
        zero = (0,) * width
        ints, dens = [], []
        for arow, aden in zip(self.ints, self.dens):
            if not any(arow):
                ints.append(zero)
                dens.append(1)
                continue
            acc, den = _combination(arow, rows, width), aden * scale
            if den != 1:
                acc, den = _lowest(acc, den)
            ints.append(tuple(acc))
            dens.append(den)
        return Matrix._stored(width, tuple(ints), tuple(dens))

    def to_strings(self) -> list[list[str]]:
        return [list(map(str, row if den == 1 else _fractions(row, den)))
                for row, den in zip(self.ints, self.dens)]


def vec_matmul(v: Sequence, m: Matrix) -> Vector:
    """Row vector times matrix."""
    ints, vden = _integer_row(v)
    if len(ints) != m.rows:
        raise LinearAlgebraError(f"vector of length {len(ints)} times {m.rows}x{m.cols} matrix")
    rows, scale = _common(m)
    acc = _combination(ints, rows, m.cols)
    return _fractions(acc, vden * scale)


def _eliminate(rows: list[Sequence[int]], width: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place on
    the list (the rows themselves are never written, so they may be shared
    tuples); returns the pivot columns, all among the first ``width`` (any
    further columns ride along, e.g. a transform).

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
            row = ([e - b * p for e, p in zip(row, prow)] if a == 1
                   else [a * e - b * p for e, p in zip(row, prow)])
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


def _augment(rows: Sequence[Sequence[int]], scales: Sequence[int]) -> list[list[int]]:
    """``[rows[k] | scales[k]·e_k]`` for every ``k``."""
    n = len(rows)
    return [[*row, *[0] * k, s, *[0] * (n - 1 - k)]
            for k, (row, s) in enumerate(zip(rows, scales))]


def _relations(rows: Sequence[Sequence[int]], scales: Sequence[int],
               width: int) -> list[list[int]]:
    """Integer rows spanning ``{y : sum_k (y_k / scales[k]) * rows[k] = 0}``
    for integer ``rows`` of ``width`` columns: the transform parts of the
    rows of ``[rows | scales[k]·e_k]`` that elimination clears."""
    augmented = _augment(rows, scales)
    rank = len(_eliminate(augmented, width))
    return [row[width:] for row in augmented[rank:]]


def _combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]],
                 width: int) -> Sequence[int]:
    """``sum_k coeffs[k] * rows[k]``; a single term with coefficient 1 is
    that row itself (rows are never written, see ``_eliminate``)."""
    acc = None
    for c, row in zip(coeffs, rows):
        if c:
            if acc is None:
                acc = row if c == 1 else [c * e for e in row]
            else:
                acc = [a + c * e for a, e in zip(acc, row)]
    return [0] * width if acc is None else acc


def _subspace(rows: list[Sequence[int]], ambient_dim: int) -> "Subspace":
    """The span of integer rows in canonical form: every ``Subspace`` is
    made here, its basis rows the eliminated primitive rows, each over its
    pivot entry."""
    pivots = _eliminate(rows, ambient_dim)
    basis = tuple(map(tuple, rows[:len(pivots)]))
    return Subspace(ambient_dim,
                    Matrix._stored(ambient_dim, basis,
                                   tuple(row[p] for row, p in zip(basis, pivots))),
                    tuple(pivots))


def rref(matrix: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form, pivot columns, and rank."""
    rows = list(matrix.ints)
    pivots = _eliminate(rows, matrix.cols)
    dens = [row[p] for row, p in zip(rows, pivots)] + [1] * (len(rows) - len(pivots))
    return Matrix._stored(matrix.cols, tuple(map(tuple, rows)), tuple(dens)), tuple(pivots), len(pivots)


def rref_with_transform(matrix: Matrix) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """Return ``(R, T, pivots)`` with ``T @ matrix == R`` and ``T`` invertible.

    Row ``k`` of the matrix is ``ints_k / den_k``, so eliminating
    ``[ints_k | den_k·e_k]`` keeps every row of the form ``[y @ matrix | y]``."""
    cols = matrix.cols
    augmented = _augment(matrix.ints, matrix.dens)
    pivots = _eliminate(augmented, cols)
    leads = [row[p] for row, p in zip(augmented, pivots)] + [1] * (len(augmented) - len(pivots))
    reduced = [_lowest(row[:cols], lead) for row, lead in zip(augmented, leads)]
    transform = [_lowest(row[cols:], lead) for row, lead in zip(augmented, leads)]
    return (Matrix._stored(cols, tuple(r for r, _ in reduced), tuple(d for _, d in reduced)),
            Matrix._stored(matrix.rows, tuple(r for r, _ in transform),
                           tuple(d for _, d in transform)),
            tuple(pivots))


class Subspace:
    """A linear subspace of Q^n in canonical (RREF basis) form, with the
    pivot column of each basis row.  The basis stores each row as its
    primitive integer multiple over the (positive) pivot entry."""

    __slots__ = ("ambient_dim", "basis", "pivots", "dim", "_steps")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]) -> None:
        self.ambient_dim, self.basis, self.pivots = ambient_dim, basis, pivots
        self.dim, self._steps = basis.rows, None  # ``_residuals``' steps, built on first use

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return getattr(self.basis, "_hash", None) or hash(self.basis)  # one frame when cached

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, basis={self.basis!r})"

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise LinearAlgebraError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}")
            rows.append(_integer_row(v)[0])
        return _subspace(rows, ambient_dim)

    @staticmethod
    def sum(spaces: Iterable["Subspace"], ambient_dim: int) -> "Subspace":
        """The span of the spaces' stacked basis rows, from one elimination."""
        rows = []
        for space in spaces:
            if space.ambient_dim != ambient_dim:
                raise LinearAlgebraError(f"ambient mismatch: {space.ambient_dim} vs {ambient_dim}")
            rows += space.basis.ints
        return _subspace(rows, ambient_dim)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return _subspace([], ambient_dim)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return _subspace([[int(j == k) for j in range(ambient_dim)] for k in range(ambient_dim)],
                         ambient_dim)

    def _residuals(self, vectors: Iterable[Sequence[int]]) -> list[list[int]]:
        """Residuals of integer vectors modulo this space, on its non-pivot
        columns (the pivot columns of a residual are zero), all scaled by
        the one factor ``L``, the lcm of the pivot entries, so the map
        stays linear: ``L*v - sum_k v[p_k] * (L / lead_k) * ints[k]``.
        The free columns, ``L`` and the scaled rows nonzero on a free
        column are kept on first use."""
        if self._steps is None:
            pivots, basis = self.pivots, self.basis
            free = tuple(j for j in range(self.ambient_dim) if j not in pivots)
            scale = lcm(*basis.dens)
            steps = ((p, tuple((scale // lead) * row[j] for j in free))
                     for row, lead, p in zip(basis.ints, basis.dens, pivots))
            self._steps = free, scale, tuple(step for step in steps if any(step[1]))
        free, scale, steps = self._steps
        out = []
        for v in vectors:
            res = [v[j] for j in free] if scale == 1 else [scale * v[j] for j in free]
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
        return self._holds([_integer_row(vector)[0]])

    def __add__(self, other: "Subspace") -> "Subspace":
        return Subspace.sum((self, other), self.ambient_dim)

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
        rows = small.basis.ints
        relations = _relations(large._residuals(rows), [1] * small.dim, n - large.dim)
        if len(relations) == small.dim:
            return small
        return _subspace([_combination(x, rows, n) for x in relations], n)

    def __le__(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.dim <= other.dim and other._holds(self.basis.ints)

    def apply(self, matrix: Matrix) -> "Subspace":
        """Image of this subspace under the map ``v -> v @ matrix``."""
        if matrix.rows != self.ambient_dim:
            raise LinearAlgebraError("map domain does not match ambient dimension")
        rows, _ = _common(matrix)
        return _subspace([_combination(a, rows, matrix.cols) for a in self.basis.ints],
                         matrix.cols)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise LinearAlgebraError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}")

    def to_strings(self) -> list[list[str]]:
        return self.basis.to_strings()


def kernel(matrix: Matrix) -> Subspace:
    """Left kernel ``{v : v @ matrix = 0}`` as a subspace of Q^rows."""
    return _subspace(_relations(matrix.ints, matrix.dens, matrix.cols), matrix.rows)


def image(matrix: Matrix) -> Subspace:
    """Row space of the matrix, i.e. the image of the full domain."""
    return _subspace(list(matrix.ints), matrix.cols)


def image_in(matrix: Matrix, target: Subspace) -> bool:
    """Whether ``image(matrix) <= target``, read off the rows directly."""
    if matrix.cols != target.ambient_dim:
        raise LinearAlgebraError("map codomain does not match target ambient")
    return target._holds(matrix.ints)


def preimage(matrix: Matrix, target: Subspace) -> Subspace:
    """``{v : v @ matrix in target}`` as a subspace of Q^rows."""
    if matrix.cols != target.ambient_dim:
        raise LinearAlgebraError("map codomain does not match target ambient")
    # ``v @ matrix`` lies in the target exactly when its residual modulo
    # the target vanishes, and the residual is linear in ``v``.
    return _subspace(_relations(target._residuals(matrix.ints), matrix.dens,
                                matrix.cols - target.dim),
                     matrix.rows)


def complement_in(inner: Subspace, outer: Subspace,
                  preferred: Sequence[Sequence] = ()) -> Matrix:
    """Rows extending a basis of ``inner`` to one of ``outer``, in the stored
    form, one matrix row per chosen vector.

    Candidates are scanned in a fixed order (any ``preferred`` vectors, then
    the RREF basis rows of ``outer``, which always complete the basis) and
    taken greedily whenever they increase the span, so the result is
    reproducible.  Candidates outside ``outer`` are skipped.
    """
    inner._check_ambient(outer)
    if not inner <= outer:
        raise LinearAlgebraError("inner subspace is not contained in outer")
    n = outer.ambient_dim
    for v in preferred:
        if len(v) != n:
            raise LinearAlgebraError("ambient dimension mismatch")
    ints: list[IntRow] = []
    dens: list[int] = []
    span = inner
    candidates = itertools.chain(
        map(_integer_row, preferred),
        zip(outer.basis.ints, outer.basis.dens),
    )
    for row, den in candidates:
        if span.dim == outer.dim:
            break
        if outer._holds([row]) and not span._holds([row]):
            ints.append(row)
            dens.append(den)
            span = _subspace([*span.basis.ints, row], n)
    if span != outer:
        raise LinearAlgebraError("failed to complete the basis (candidate exhaustion)")
    return Matrix._stored(n, tuple(ints), tuple(dens))
