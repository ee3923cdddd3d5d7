"""The lattice of nonnegative multidegrees of a fixed total degree.

A multidegree is an ordered triple ``(i, j, l)`` of nonnegative integers,
the degrees on the three components X1, X2, X3 of the chain; ``j`` is
determined by ``j = d - i - l``.  The grid layout used everywhere puts
multidegrees with equal ``l`` in one row and equal ``i`` in one column,
with ``i`` decreasing left to right and ``l`` increasing top to bottom::

    (d,0,0)  (d-1,1,0)  ...  (0,d,0)
             (d-1,0,1)  ...  (0,d-1,1)
                        ...
                             (0,0,d)

Each node has up to six neighbours, reached by adding or subtracting one
of the three twist displacements

    toward-X1: (-1, +1,  0)      toward-X2: (+1, -2, +1)
    toward-X3: ( 0, +1, -1)

("toward-Xq" twists degree towards the other components of Xq's node(s);
"from-Xq" is the opposite step).  A walk through the grid composes twist
maps; compositions degenerate to zero exactly when the walk uses one of
three forbidden step patterns, so a *canonical* walk avoids them all:

    (I)   steps toward all three components,
    (II)  a toward-Xq and a from-Xq step for the same q,
    (III) from-Xq1 and from-Xq2 steps for distinct q1, q2.

All canonical walks between two fixed endpoints produce the same composite
map, so :func:`canonical_path` may fix any deterministic recipe.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Iterable, NamedTuple

__all__ = [
    "Direction",
    "Multidegree",
    "Edge",
    "edge_between",
    "directed_edges",
    "PathError",
    "PathClass",
    "all_multidegrees",
    "classify_steps",
    "other_components",
    "canonical_path",
]


def other_components(q: int) -> tuple[int, int]:
    """The two components other than ``q``, in increasing order."""
    return tuple(p for p in (1, 2, 3) if p != q)


class Direction(enum.Enum):
    """One grid step, valued ``(label, component, delta)``.  Each member keeps
    its facts as plain attributes, set once: those three, ``is_toward``,
    ``inverse`` and ``lands_in``, the components an image along the step
    vanishes on: ``(q,)`` for toward-Xq, :func:`other_components` for from-Xq."""

    TOWARD_X1 = ("toward-X1", 1, (-1, 1, 0))
    TOWARD_X2 = ("toward-X2", 2, (1, -2, 1))
    TOWARD_X3 = ("toward-X3", 3, (0, 1, -1))
    FROM_X1 = ("from-X1", 1, (1, -1, 0))
    FROM_X2 = ("from-X2", 2, (-1, 2, -1))
    FROM_X3 = ("from-X3", 3, (0, -1, 1))

    # Members are singletons: an ``Edge`` key hashes without ``Enum.__hash__``.
    __hash__ = object.__hash__

    def __init__(self, label: str, component: int, delta: tuple[int, int, int]) -> None:
        self.label, self.component, self.delta = label, component, delta
        self.is_toward = label.startswith("toward")
        self.lands_in = (component,) if self.is_toward else other_components(component)


for _step in Direction:
    _step.inverse = next(s for s in Direction if s.component == _step.component and s is not _step)


@lru_cache(maxsize=None)
def _adjacent(md: "Multidegree") -> dict[Direction, "Multidegree"]:
    """A node's neighbours by direction, in :class:`Direction` order; the
    one dict per node is shared, so callers only read it."""
    steps = ((d, Multidegree(*map(sum, zip(md, d.delta)))) for d in Direction)
    return {d: node for d, node in steps if min(node) >= 0}


class Multidegree(NamedTuple):
    i: int
    j: int
    l: int

    @property
    def degree(self) -> int:
        return self.i + self.j + self.l

    def step(self, direction: Direction) -> "Multidegree | None":
        """Neighbour in the given direction, or ``None`` outside the lattice."""
        return _adjacent(self).get(direction)

    def neighbours(self) -> list[tuple[Direction, "Multidegree"]]:
        return list(_adjacent(self).items())

    def to_json(self) -> list[int]:
        return [self.i, self.j, self.l]

    @property
    def label(self) -> str:
        """Compact text form ``(i,j,l)``."""
        return f"({self.i},{self.j},{self.l})"

    @property
    def location(self) -> str:
        """Report form ``Multidegree(i=.., j=.., l=..)``."""
        return repr(self)


@lru_cache(maxsize=None)
def all_multidegrees(d: int) -> tuple[Multidegree, ...]:
    """All nonnegative multidegrees of total degree ``d`` in grid order
    (rows by ``l`` ascending, ``i`` descending within a row); there are
    ``(d+1)(d+2)/2`` of them."""
    if d < 0:
        raise ValueError("total degree must be nonnegative")
    out = []
    for l in range(d + 1):
        for i in range(d - l, -1, -1):
            out.append(Multidegree(i, d - i - l, l))
    return tuple(out)


class Edge(NamedTuple):
    source: Multidegree
    target: Multidegree
    direction: Direction

    @property
    def label(self) -> str:
        """Compact text form ``(i,j,l)->(i,j,l)``."""
        return f"{self.source.label}->{self.target.label}"

    @property
    def location(self) -> str:
        """Report form, the two endpoints' report forms joined by ``->``."""
        return f"{self.source.location}->{self.target.location}"

    def to_json(self) -> dict:
        return {"from": self.source.to_json(), "to": self.target.to_json()}


def edge_between(source: Multidegree, target: Multidegree) -> Edge:
    for direction, node in _adjacent(source).items():
        if node == target:
            return Edge(source, target, direction)
    raise PathError(f"{source} and {target} are not adjacent")


@lru_cache(maxsize=None)
def directed_edges(d: int) -> tuple[Edge, ...]:
    """Every directed lattice edge of total degree ``d``: sources in grid
    order, then steps in :class:`Direction` order."""
    return tuple(Edge(md, target, direction)
                 for md in all_multidegrees(d) for direction, target in md.neighbours())


class PathError(ValueError):
    """A node sequence that is not a lattice walk."""


class PathClass(enum.Enum):
    VALID_CANONICAL = "valid-canonical"
    VIOLATES_I = "violates (I)"
    VIOLATES_II = "violates (II)"
    VIOLATES_III = "violates (III)"


def classify_steps(steps: Iterable[Direction]) -> PathClass:
    """Classify a step multiset against the degeneration patterns, reported
    in the order (I), (II), (III)."""
    toward = set()
    away = set()
    for s in steps:
        (toward if s.is_toward else away).add(s.component)
    if toward >= {1, 2, 3}:
        return PathClass.VIOLATES_I
    if toward & away:
        return PathClass.VIOLATES_II
    if len(away) >= 2:
        return PathClass.VIOLATES_III
    return PathClass.VALID_CANONICAL


def canonical_path(start: Multidegree, end: Multidegree) -> tuple[Multidegree, ...]:
    """The nodes of a deterministic canonical walk from ``start`` to ``end``.

    With displacement ``(a, b) = (end.i - start.i, end.l - start.l)``:

    * ``a <= 0``: toward-X1 steps, then from-X3 (``b >= 0``) or toward-X3;
    * ``a > 0, b <= 0``: toward-X3 steps first, then from-X1;
    * ``0 < a <= b``: toward-X2 diagonal, then from-X3;
    * ``0 < b < a``: toward-X2 diagonal, then from-X1.

    Every intermediate node stays in the lattice and the step set avoids
    the three degeneration patterns (checked).  A zero displacement gives
    the single node ``(start,)``, whose composite is the identity.
    """
    if start.degree != end.degree:
        raise PathError(f"total degree mismatch: {start} vs {end}")
    a = end.i - start.i
    b = end.l - start.l
    steps: list[Direction] = []
    if a <= 0:
        steps += [Direction.TOWARD_X1] * (-a)
        if b >= 0:
            steps += [Direction.FROM_X3] * b
        else:
            steps += [Direction.TOWARD_X3] * (-b)
    elif b <= 0:
        steps += [Direction.TOWARD_X3] * (-b)
        steps += [Direction.FROM_X1] * a
    elif a <= b:
        steps += [Direction.TOWARD_X2] * a
        steps += [Direction.FROM_X3] * (b - a)
    else:
        steps += [Direction.TOWARD_X2] * b
        steps += [Direction.FROM_X1] * (a - b)
    nodes = [start]
    for s in steps:
        node = nodes[-1].step(s)
        if node is None:
            raise PathError(f"canonical recipe left the lattice at {nodes[-1]} via {s.label}")
        nodes.append(node)
    if classify_steps(steps) is not PathClass.VALID_CANONICAL:
        raise PathError(f"canonical recipe from {start} to {end} is not canonical")
    return tuple(nodes)

