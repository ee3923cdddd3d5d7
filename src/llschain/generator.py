"""Seeded instance synthesis: simple-by-construction series, a backtracking
search for exact series, and negative controls.

Every linked assignment comes from one walker, ``_fill``.  It assigns the
nodes in grid order, each inside the linking freedom that its assigned
neighbours leave, from a per-node list of choices, and goes back to the
previous node's next choice when a node has none left.  The exact search
and break-exactness's biased redraw differ only in their choice rule.
Random spaces inside a linking freedom come from one stream, ``_candidates``.
A freedom is pinned (one space, no preimage built, nothing drawn), forced
(its upper bound is the one candidate, no draw spanned) or free.  The
exact search keeps one analysis table from its first probe to its found
instance, and the freedoms read their pushed images from it.

All randomness flows through one ``random.Random`` seeded from the spec, so
a given spec always produces the same instance (and byte-identical files).
Random rationals are integers in ``[-ENTRY_BOUND, ENTRY_BOUND]``; exact
elimination keeps entry growth tame at this scale.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial, reduce
from itertools import islice, takewhile
from operator import and_
from typing import Callable, Iterator, NamedTuple

from . import chain_model, lls_core, simple_basis
from .chain_model import ChainCurve
from .exactla import Matrix, Subspace, _common, _eliminate, complement_in, image, kernel, preimage
from .lattice import Edge, Multidegree, all_multidegrees, edge_between
from .lls_core import LlsInstance, exactness, exactness_at, from_chain, pushed_image, validate

__all__ = [
    "GenSpec",
    "GenerationError",
    "GenResult",
    "gen_simple",
    "SearchResult",
    "gen_exact_search",
    "DegradeResult",
    "degrade",
    "DEGRADE_MODES",
]

STRATEGIES = ("from-sections", "exact-search", "degrade")
DEGRADE_MODES = ("break-linking", "break-exactness", "shrink-V")
ENTRY_BOUND = 9
# Candidate spaces the exact search keeps per node, and seeded draws
# gen_simple tries before giving up.
MAX_CANDIDATES = 8
RETRY_LIMIT = 200


class GenerationError(RuntimeError):
    """Retry or search budget exhausted."""


class _GenSpecFields(NamedTuple):
    d: int
    r: int
    strategy: str = "from-sections"
    seed: int = 0
    budget: int = 2000


class GenSpec(_GenSpecFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GenSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.r + 1 > self.d + 1:
            raise ValueError(f"r+1 = {self.r + 1} exceeds the ambient bound d+1 = {self.d + 1}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        return self

    def provenance(self, **extra) -> dict:
        out = {"d": self.d, "r": self.r, "strategy": self.strategy,
               "seed": self.seed, "budget": self.budget,
               "entry_bound": ENTRY_BOUND}
        out.update(extra)
        return out


def _random_vector(rng: random.Random, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(length))


def _linking_freedom(inst: LlsInstance, md: Multidegree,
                     ) -> tuple[Subspace, Subspace] | None:
    """Bounds ``(lower, upper)`` on a space at ``md`` linked to the
    neighbours with a space in ``inst``: it must contain the sum of their
    tabled pushed images (one ``Subspace.sum``) and map into each of them.
    ``None`` when no ``r+1``-dimensional space fits between.  A *pinned*
    freedom (``lower`` of dimension ``r+1``) is ``(lower, lower)`` once
    ``lower`` maps into each neighbour, and builds no preimage; those
    pushes are tabled for a probe with ``lower`` at ``md``, as an
    exactness check of that probe reads them.  Else the freedom is
    *forced* when ``upper`` has dimension ``r+1`` and *free* when larger."""
    maps, rp1, assigned = inst.maps, inst.r + 1, inst.spaces
    neighbours = [n for _, n in md.neighbours() if n in assigned]
    lower = Subspace.sum([pushed_image(inst, edge_between(n, md)) for n in neighbours],
                         inst.ambient_dim[md])
    if lower.dim >= rp1:
        probe = inst.derive({**assigned, md: lower})
        pinned = lower.dim == rp1 and all(
            pushed_image(probe, edge_between(md, n)) <= assigned[n] for n in neighbours)
        return (lower, lower) if pinned else None
    upper = Subspace.full(inst.ambient_dim[md])
    for n in neighbours:
        upper = upper & preimage(maps[(md, n)], assigned[n])
    if upper.dim < rp1 or not lower <= upper:
        return None
    return lower, upper


def _blocks(rng: random.Random, width: int, height: int) -> Iterator[list[list[int]]]:
    """Endless seeded blocks of ``height`` ``_random_vector`` rows of length ``width``."""
    while True:
        yield [_random_vector(rng, width) for _ in range(height)]


def _candidates(rng: random.Random, lower: Subspace, upper: Subspace, rp1: int,
                draws: int, skip: Subspace | None = None) -> Iterator[Subspace]:
    """The distinct ``r+1``-dimensional spaces other than ``skip`` among
    ``draws`` seeded draws inside a linking freedom, in the order first
    drawn.  A draw is the span of ``lower`` and the combinations, by one
    ``_blocks`` block of coefficients, of the rows completing ``lower`` to
    ``upper`` (``complement_in``'s over one denominator, ``exactla._common``).
    A pinned freedom draws nothing and offers ``lower``.  In a forced one a
    draw has full dimension exactly when its square block has full rank, and
    is then ``upper``, so blocks are rank-checked only until the first
    full-rank one, or not at all when ``upper`` is ``skip``; every block is
    drawn either way."""
    needed = rp1 - lower.dim
    if needed == 0:
        if lower != skip:
            yield lower
        return
    if upper.dim == rp1:
        blocks = islice(_blocks(rng, needed, needed), draws)
        if upper != skip and any(len(_eliminate(b, needed)) == needed for b in blocks):
            yield upper
        deque(blocks, maxlen=0)
        return
    rows, _ = _common(complement_in(lower, upper))
    ambient, seen = lower.ambient_dim, {skip}
    for block in islice(_blocks(rng, len(rows), needed), draws):
        extra = [[sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(ambient)]
                 for coeffs in block]
        candidate = Subspace.span([*lower.basis.ints, *extra], ambient)
        if candidate.dim == rp1 and candidate not in seen:
            seen.add(candidate)
            yield candidate


def _fill(inst: LlsInstance, choices: Callable[..., list[Subspace]], budget: int,
          ) -> tuple[dict[Multidegree, Subspace] | None, int]:
    """Assign every node of ``inst`` in grid order, each inside the linking
    freedom of the nodes assigned before it, read on a derive of ``inst``
    with the assigned spaces, so the freedoms share ``inst``'s table.

    ``choices(md, lower, upper, assigned)`` lists a node's candidates in
    full when the walk reaches the node, so its ``_candidates`` draws
    happen in walk order.  A node with no freedom or no untried choice left
    sends the walk back to the previous node's next choice.  Returns the
    assignment, or ``None`` once the first node runs out, and the number of
    choices tried; trying more than ``budget`` raises ``GenerationError``.
    """
    grid = inst.multidegrees
    assigned: dict[Multidegree, Subspace] = {}
    untried: list[Iterator[Subspace]] = []
    expansions = 0
    while True:
        md = grid[len(untried)]
        freedom = _linking_freedom(inst.derive(assigned), md)
        untried.append(iter(choices(md, *freedom, assigned) if freedom else ()))
        while (choice := next(untried[-1], None)) is None:
            assigned.pop(grid[len(untried) - 1], None)
            untried.pop()
            if not untried:
                return None, expansions
        expansions += 1
        if expansions > budget:
            raise GenerationError(f"more than {budget} tries")
        assigned[grid[len(untried) - 1]] = choice
        if len(untried) == len(grid):
            return assigned, expansions


class GenResult(NamedTuple):
    instance: LlsInstance
    certificate: simple_basis.SimpleCertificate
    attempts: int


def gen_simple(spec: GenSpec) -> GenResult:
    """Draw random support multidegrees and sections, then span the whole
    series by canonical pushes.

    The chosen spaces are the spans of all pushed sections; a draw is kept
    only when every space reaches dimension ``r+1``, otherwise the next
    seeded draw is tried.  There is no a-priori criterion for which support
    patterns force dependent pushes, so bad draws are simply retried.  When
    every draw fails at ``r = d``, the result is the complete series; at
    ``r = d-1``, ``RETRY_LIMIT`` more draws put one section at each node
    ``(d-k, 0, k)`` of the boundary line, the support of every simple
    series seen there.

    A kept draw's bases are its certificate, which needs no verifying: the
    cuts give ``r+1`` sections, one or more per distinct support node; the
    walk from a node to itself is the identity; and every space is already
    the ``r+1``-dimensional span of the pushes it would be checked against.
    """
    if spec.strategy != "from-sections":
        raise ValueError("gen_simple needs the from-sections strategy")
    rng = random.Random(spec.seed)
    chain = ChainCurve(spec.d)
    grid = all_multidegrees(spec.d)
    rp1 = spec.r + 1
    walk = partial(chain_model.canonical_matrix, chain)
    line = [k for k, md in enumerate(grid) if md.j == 0 and md.l < spec.d]
    limit = 2 * RETRY_LIMIT if rp1 == spec.d else RETRY_LIMIT
    for attempt in range(1, limit + 1):
        if attempt > RETRY_LIMIT:
            support, counts = line, [1] * rp1
        else:
            m = rng.randint(1, rp1)
            support = sorted(rng.sample(range(len(grid)), m))
            cuts = sorted(rng.sample(range(1, rp1), m - 1))
            counts = [b - a for a, b in zip([0] + cuts, cuts + [rp1])]
        sections: dict[Multidegree, Matrix] = {}
        for idx, count in zip(support, counts):
            drawn = Subspace.span([_random_vector(rng, spec.d + 1) for _ in range(count)],
                                  spec.d + 1)
            if drawn.dim != count:
                break
            sections[grid[idx]] = drawn.basis
        if len(sections) < len(support):
            continue
        pushes = (image(simple_basis.push_along_walks(walk, sections, sections, md))
                  for md in grid)
        spaces = dict(zip(grid, takewhile(lambda span: span.dim == rp1, pushes)))
        if len(spaces) < len(grid):
            continue
        series = {"series": "line-support"} if attempt > RETRY_LIMIT else {}
        instance = from_chain(chain, spec.r, spaces,
                              provenance=spec.provenance(attempt=attempt, **series))
        cert = simple_basis.SimpleCertificate(tuple(sections), sections)
        return GenResult(instance, cert, attempt)
    if rp1 == spec.d + 1:
        # At r = d every space is the whole section space, so the complete
        # series is the only one; it is simple, and its certificate is
        # extracted instead of drawn.
        full = Subspace.full(spec.d + 1)
        instance = from_chain(chain, spec.r, {md: full for md in grid},
                              provenance=spec.provenance(attempt=RETRY_LIMIT,
                                                         series="complete"))
        return GenResult(instance, simple_basis.extract_certificate(instance),
                         RETRY_LIMIT)
    raise GenerationError(f"no simple draw found in {limit} attempts (seed {spec.seed})")


class SearchResult(NamedTuple):
    instance: LlsInstance | None
    expansions: int
    distributive: bool | None
    codim_sum: int | None
    note: str

    @property
    def found(self) -> bool:
        return self.instance is not None


def gen_exact_search(spec: GenSpec) -> SearchResult:
    """Backtracking search for an exact series over the chain backend.

    ``_fill`` walks the nodes in grid order.  At each node the admissible
    spaces sit between the sum of images forced by assigned neighbours and
    the intersection of preimage constraints; ``_candidates`` draws up to
    ``MAX_CANDIDATES`` distinct spaces inside that freedom, and a candidate
    is kept only if every edge into the assigned region is exact, so a
    completed assignment is exact by construction.  The found instance
    derives from the probes and keeps their table, where its grid report
    finds every edge's exactness.  Every kept candidate tried counts as one
    expansion.  The note records whether the found instance is distributive
    everywhere, flagging any exact-but-nondistributive find.
    """
    if spec.strategy != "exact-search":
        raise ValueError("gen_exact_search needs the exact-search strategy")
    rng = random.Random(spec.seed)
    chain = ChainCurve(spec.d)
    rp1 = spec.r + 1
    # The freedoms, the probes and the found instance all derive from
    # ``root``, so they share one analysis table, which the found instance
    # keeps; a search that finds nothing drops it when it returns.
    root = from_chain(chain, spec.r, {})

    def candidates(md: Multidegree, lower: Subspace, upper: Subspace,
                   assigned: dict) -> list[Subspace]:
        neighbours = [n for _, n in md.neighbours() if n in assigned]
        found: list[Subspace] = []
        for candidate in islice(_candidates(rng, lower, upper, rp1, MAX_CANDIDATES * 6),
                                MAX_CANDIDATES):
            probe = root.derive({**assigned, md: candidate})
            if all(exactness_at(probe, edge_between(md, n)).exact
                   and exactness_at(probe, edge_between(n, md)).exact
                   for n in neighbours):
                found.append(candidate)
        return found

    try:
        assignment, expansions = _fill(root, candidates, spec.budget)
    except GenerationError:
        # The walk stops at the try past its budget.
        return SearchResult(None, spec.budget + 1, None, None,
                            f"NotFound(budget={spec.budget})")
    if assignment is None:
        return SearchResult(None, expansions, None, None, "NotFound(exhausted)")
    instance = root.derive(assignment, provenance=spec.provenance(expansions=expansions))
    report = lls_core.codim_report(instance)
    if not report.exact:
        raise GenerationError("search postcondition failed: found instance is not exact")
    note = ("exact-distributive" if report.all_distributive
            else "exact-nondistributive")
    return SearchResult(instance, expansions, report.all_distributive,
                        report.codim_sum, note)


class DegradeResult(NamedTuple):
    instance: LlsInstance
    mode: str
    at: Multidegree | Edge
    detail: str


def degrade(inst: LlsInstance, mode: str, seed: int = 0) -> DegradeResult:
    """Minimally perturb a valid instance so that exactly the named check
    fails, and record the injected defect.

    * ``shrink-V``: drop one basis vector at the first multidegree, so
      validation reports a dimension violation there;
    * ``break-linking``: replace one space by a random same-dimension
      space violating a linking inclusion, so validation reports that
      edge (dimensions stay correct);
    * ``break-exactness``: replace one space within the linking freedom of
      its neighbours so validation still passes but some adjacent edge
      stops being exact; when the instance is rigid (every node pinned by
      its neighbours), fall back to redrawing the whole assignment under
      the linking constraints until exactness breaks.  It raises
      ``ValueError`` on an instance that fails ``validate``.
    """
    if mode not in DEGRADE_MODES:
        raise ValueError(f"unknown degrade mode {mode!r}")
    rng = random.Random(seed)
    grid = inst.multidegrees
    rp1 = inst.r + 1

    def with_space(md: Multidegree, space: Subspace) -> LlsInstance:
        return inst.derive({**inst.spaces, md: space},
                           provenance={"degraded_from": inst.provenance,
                                       "mode": mode, "at": md.to_json()})

    if mode == "shrink-V":
        md = grid[0]
        shrunk = Subspace.span(inst.space(md).basis.ints[1:], inst.ambient_dim[md])
        out = with_space(md, shrunk)
        return DegradeResult(out, mode, md,
                             f"dropped one basis vector at {md.label}")

    if mode == "break-linking":
        for md in grid:
            if not md.neighbours():
                continue
            ambient = inst.ambient_dim[md]
            tries = 0
            while tries < 200:
                candidate = Subspace.span(
                    [_random_vector(rng, ambient) for _ in range(rp1)], ambient)
                if candidate.dim != rp1:
                    continue  # redrawn; only full-rank draws count as tries
                tries += 1
                out = with_space(md, candidate)
                report = validate(out, ambient_laws=False)
                linking = [v for v in report.violations if v.kind == "linking"]
                if linking and not any(v.kind == "dimension" for v in report.violations):
                    return DegradeResult(out, mode, linking[0].at,
                                         f"replaced the space at {md.label}")
        raise GenerationError("break-linking found no perturbation")

    violations = validate(inst, ambient_laws=False).violations
    if violations:
        raise ValueError(f"break-exactness needs a valid instance: {violations[0].kind} "
                         f"violation at {violations[0].label}")
    # break-exactness, phase 1: perturb one node inside its linking freedom.
    for md in grid:
        freedom = _linking_freedom(inst, md)
        if freedom is None:
            continue
        for candidate in _candidates(rng, *freedom, rp1, 200, inst.space(md)):
            out = with_space(md, candidate)
            failing = exactness(out).failing_edges()
            touched = [e for e in failing if e.source == md or e.target == md]
            # Validation reads every edge and most draws stay exact, so it
            # comes last.
            if (touched and len(touched) == len(failing)
                    and validate(out, ambient_laws=False).ok):
                return DegradeResult(
                    out, mode, touched[0],
                    f"replaced the space at {md.label} within its linking freedom")

    # Phase 2: some exact instances are rigid (every node pinned by its
    # neighbours), so redraw the whole assignment under the linking
    # constraints alone, with a deliberately non-generic bias around one
    # edge: bury the source in the kernel of the edge map and soak the
    # target in the vanishing subspace defining the edge constraint.
    # Generic linked draws come out exact; this bias is what breaks it.
    def biased(bias: dict[Multidegree, Subspace], md: Multidegree, lower: Subspace,
               upper: Subspace, assigned: dict) -> list[Subspace]:
        """The redraw's one choice at ``md``: ``lower`` extended by the bias
        directions inside ``upper`` before generic ones."""
        preferred = (bias[md] & upper).basis.ints if md in bias else ()
        extension = complement_in(lower, upper, preferred=preferred).ints[:rp1 - lower.dim]
        candidate = Subspace.span([*lower.basis.ints, *extension], lower.ambient_dim)
        return [candidate] if candidate.dim == rp1 else []

    for a in grid:
        for direction, b in a.neighbours():
            bias = {a: kernel(inst.maps[(a, b)]),
                    b: reduce(and_, (inst.vanishing[b][p] for p in direction.lands_in))}
            drawn, _ = _fill(inst, partial(biased, bias), len(grid))
            if drawn is None:
                continue
            out = inst.derive(drawn, provenance={"degraded_from": inst.provenance,
                                                 "mode": mode, "at": None})
            report = exactness(out)
            failing = report.failing_edges()
            if failing and validate(out, ambient_laws=False).ok:
                first = failing[0]
                return DegradeResult(out, mode, first,
                                     "redrew the assignment with a degenerate bias "
                                     f"around {a.label}->{b.label}")
    raise GenerationError("break-exactness found no perturbation")
