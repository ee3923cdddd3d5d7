"""Linking freedoms pay only for what can vary: a pinned node builds no
preimage and draws nothing, and a forced freedom spans no draw.  Both
shortcuts are compared here with the full computations they replace, which
are kept in this file as references.  A freedom's lower bound reads the
neighbours' pushed images from the analysis table, where a probe's
exactness check finds them without pushing again.
"""

import random
import re
from itertools import islice
from math import lcm

import pytest

from llschain import generator
from llschain.exactla import Subspace, complement_in, preimage
from llschain.generator import (
    ENTRY_BOUND,
    GenSpec,
    _candidates,
    _linking_freedom,
    degrade,
    gen_exact_search,
    gen_simple,
)
from llschain.lattice import edge_between
from llschain.lls_core import LlsInstance, exactness_at, validate


def spanning_draws(rng, lower, upper, rp1):
    """The draw stream that spans every draw, whatever the freedom."""
    free = complement_in(lower, upper)
    den = lcm(*free.dens)
    rows = [[(den // d) * e for e in row] for row, d in zip(free.ints, free.dens)]
    ambient = lower.ambient_dim
    while True:
        extra = []
        for _ in range(rp1 - lower.dim):
            coeffs = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in rows]
            extra.append([sum(c * row[k] for c, row in zip(coeffs, rows))
                          for k in range(ambient)])
        yield Subspace.span([*lower.basis.ints, *extra], ambient)


def preimage_bounds(inst, md, assigned):
    """Both bounds in full: the neighbours' images summed and their
    preimages intersected, at pinned nodes too."""
    maps, rp1 = inst.maps, inst.r + 1
    lower = Subspace.sum((), inst.ambient_dim[md])
    upper = Subspace.full(inst.ambient_dim[md])
    for _, n in md.neighbours():
        if n in assigned:
            lower = lower + assigned[n].apply(maps[(n, md)])
            upper = upper & preimage(maps[(md, n)], assigned[n])
    if lower.dim > rp1 or upper.dim < rp1 or not lower <= upper:
        return None
    return lower, upper


def _space(rng, rows, ambient):
    return Subspace.span([[rng.randint(-4, 4) for _ in range(ambient)]
                          for _ in range(rows)], ambient)


def _freedom(lower_dim, upper_dim, ambient=6, seed=0):
    """Nested random spaces ``lower < upper`` of the given dimensions, with
    rational RREF rows, so the completing rows have unequal denominators."""
    rng = random.Random(seed)
    while True:
        upper = _space(rng, upper_dim, ambient)
        if upper.dim != upper_dim or all(d == 1 for d in upper.basis.dens):
            continue
        combos = [[rng.randint(-3, 3) for _ in range(upper_dim)] for _ in range(lower_dim)]
        lower = Subspace.span([[sum(c * row[j] for c, row in zip(coeffs, upper.basis.ints))
                                for j in range(ambient)] for coeffs in combos], ambient)
        if lower.dim == lower_dim:
            return lower, upper


@pytest.fixture
def log(monkeypatch):
    """The generator's block streams and rank checks, in call order: ``F``
    opens a square (forced) stream and ``f`` any other, and a check reads
    ``+`` on a full-rank block and ``-`` on a singular one."""
    events = []
    real_blocks, real_eliminate = generator._blocks, generator._eliminate

    def blocks(rng, width, height):
        events.append("F" if width == height else "f")
        return real_blocks(rng, width, height)

    def eliminate(rows, width):
        pivots = real_eliminate(rows, width)
        events.append("+" if len(pivots) == width else "-")
        return pivots
    monkeypatch.setattr(generator, "_blocks", blocks)
    monkeypatch.setattr(generator, "_eliminate", eliminate)
    return events


def _distinct_full(spaces, rp1):
    return list(dict.fromkeys(s for s in spaces if s.dim == rp1))


class TestDrawStream:
    # (lower dim, upper dim, r+1, draws): free, forced k = 1, forced k = 2.
    CASES = {"free": (1, 4, 2, 300), "forced-1": (1, 2, 2, 300),
             "forced-2": (1, 3, 3, 2000)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_draws_and_state_as_spanning_every_draw(self, case):
        lower_dim, upper_dim, rp1, count = self.CASES[case]
        lower, upper = _freedom(lower_dim, upper_dim)
        fast, slow = random.Random(11), random.Random(11)
        drawn = list(_candidates(fast, lower, upper, rp1, count))
        spanned = list(islice(spanning_draws(slow, lower, upper, rp1), count))
        assert drawn == _distinct_full(spanned, rp1)
        assert fast.getstate() == slow.getstate()
        assert any(s.dim == rp1 for s in spanned)
        if case != "free":
            # Singular blocks occur too, so both forced paths are compared.
            assert any(s.dim < rp1 for s in spanned)
            assert all(s is upper for s in drawn if s.dim == rp1)

    def test_pinned_draws_nothing(self):
        lower, _ = _freedom(2, 4)
        rng = random.Random(3)
        state = rng.getstate()
        assert list(_candidates(rng, lower, lower, 2, 48)) == [lower]
        assert list(_candidates(rng, lower, lower, 2, 48, skip=lower)) == []
        assert rng.getstate() == state

    @pytest.mark.parametrize("case", ["forced-1", "forced-2"])
    def test_forced_skip_checks_no_block_and_draws_all(self, case, log):
        lower_dim, upper_dim, rp1, count = self.CASES[case]
        lower, upper = _freedom(lower_dim, upper_dim)
        skipping, drawing = random.Random(5), random.Random(5)
        assert list(_candidates(skipping, lower, upper, rp1, count, skip=upper)) == []
        assert log == ["F"]
        k = rp1 - lower_dim
        list(islice(generator._blocks(drawing, k, k), count))
        assert skipping.getstate() == drawing.getstate()

    def test_free_never_yields_skip_or_a_repeat(self):
        lower_dim, upper_dim, rp1, count = self.CASES["free"]
        lower, upper = _freedom(lower_dim, upper_dim)
        spanned = list(islice(spanning_draws(random.Random(7), lower, upper, rp1), count))
        assert len(_distinct_full(spanned, rp1)) < sum(s.dim == rp1 for s in spanned)
        for skip in _distinct_full(spanned, rp1)[:3]:
            rng = random.Random(7)
            drawn = list(_candidates(rng, lower, upper, rp1, count, skip=skip))
            assert drawn == [s for s in _distinct_full(spanned, rp1) if s != skip]
            assert len(set(drawn)) == len(drawn)


class TestForcedFreedoms:
    """A forced freedom's one full-dimension draw is ``upper``, so its
    coefficient blocks are rank-checked only until the first full-rank one,
    or not at all when ``upper`` is skipped, and every block is still
    drawn.  In the generator only these checks call ``_eliminate``."""

    @pytest.mark.parametrize("case", ["forced-1", "forced-2"])
    def test_blocks_are_the_draw_stream(self, case):
        lower_dim, upper_dim, rp1, count = TestDrawStream.CASES[case]
        lower, upper = _freedom(lower_dim, upper_dim)
        by_blocks, by_candidates = random.Random(5), random.Random(5)
        k = rp1 - lower_dim
        list(islice(generator._blocks(by_blocks, k, k), count))
        list(_candidates(by_candidates, lower, upper, rp1, count))
        assert by_blocks.getstate() == by_candidates.getstate()

    def test_search_checks_until_the_first_full_rank_block(self, log):
        for d, r, seed in [(3, 1, 3), (4, 1, 4), (4, 2, 5), (5, 2, 3)]:
            gen_exact_search(GenSpec(d=d, r=r, strategy="exact-search", seed=seed))
        events = "".join(log)
        assert re.fullmatch(r"(f|F-*\+?)*", events), events
        assert "F+" in events and "-+" in events

    def test_break_exactness_checks_no_forced_block(self, log):
        for inst in _degrade_inputs():
            if validate(inst, ambient_laws=False).ok:
                degrade(inst, "break-exactness", seed=1)
        events = "".join(log)
        assert "F" in events and not {"+", "-"} & set(events), events


def _exact_finds():
    for d, r, seed in [(3, 1, 3), (4, 2, 4), (5, 1, 5), (5, 2, 0)]:
        yield gen_exact_search(GenSpec(d=d, r=r, strategy="exact-search", seed=seed)).instance


def _degrade_inputs():
    for d, r, seed in [(3, 1, 0), (4, 1, 1), (4, 2, 2), (5, 2, 3)]:
        base = gen_simple(GenSpec(d=d, r=r, seed=seed)).instance
        yield base
        yield degrade(base, "break-linking", seed=seed).instance


def test_break_exactness_refuses_invalid_input():
    """A break-linking output fails validation, and break-exactness names
    its first violation instead of redrawing the break away."""
    refused = 0
    for inst in _degrade_inputs():
        report = validate(inst, ambient_laws=False)
        if report.ok:
            continue
        first = report.violations[0]
        with pytest.raises(ValueError, match=re.escape(f"{first.kind} violation at {first.label}")):
            degrade(inst, "break-exactness", seed=1)
        refused += 1
    assert refused == 4


class TestPinnedShortcut:
    @pytest.fixture(scope="class")
    def outcomes(self):
        """Per node of every instance, with the nodes before it in grid
        order assigned (as the walker sees them) and with every node
        assigned (as break-exactness sees them): the shortcut's freedom,
        the full bounds, and the dimension of the summed images."""
        rows = []
        for inst in [*_exact_finds(), *_degrade_inputs()]:
            grid = inst.multidegrees
            for k, md in enumerate(grid):
                for assigned in ({m: inst.space(m) for m in grid[:k]}, inst.spaces):
                    lower = Subspace.sum((), inst.ambient_dim[md])
                    for _, n in md.neighbours():
                        if n in assigned:
                            lower = lower + assigned[n].apply(inst.maps[(n, md)])
                    rows.append((inst.r + 1, lower.dim,
                                 _linking_freedom(inst.derive(assigned), md),
                                 preimage_bounds(inst, md, assigned)))
        return rows

    def test_same_freedom_as_the_full_bounds(self, outcomes):
        for rp1, _, fast, full in outcomes:
            assert (fast is None) == (full is None)
            if full is not None:
                lower, upper = full
                assert fast[0] == lower
                assert fast[1] == (lower if lower.dim == rp1 else upper)

    def test_every_kind_of_node_occurs(self, outcomes):
        kinds = set()
        for rp1, lower_dim, fast, full in outcomes:
            if full is None:
                kinds.add("none-pinned" if lower_dim == rp1 else "none")
            else:
                lower, upper = full
                kinds.add("pinned" if lower.dim == rp1 else
                          "forced" if upper.dim == rp1 else "free")
        assert kinds == {"pinned", "forced", "free", "none", "none-pinned"}

    def test_pinned_lower_outside_a_neighbour_is_refused(self, outcomes):
        """Summed images of the full dimension that do not map into some
        neighbour leave no freedom, though no preimage is built."""
        refused = [fast for rp1, lower_dim, fast, full in outcomes
                   if lower_dim == rp1 and full is None]
        assert refused and all(fast is None for fast in refused)


class TestFreedomReadsTheTable:
    def test_freedom_and_exactness_check_share_one_push(self, monkeypatch):
        """The freedom's lower bound tables each assigned neighbour's pushed
        image, and a probe derived with a space at the node reads it back:
        its check of that edge pushes nothing.  The reverse edge pushes
        nothing at a pinned node either, whose freedom tabled that push for
        its one space, and once at any other node."""
        instances = [*_exact_finds(), *_degrade_inputs()]
        pushes = []
        real_apply = Subspace.apply
        monkeypatch.setattr(Subspace, "apply",
                            lambda space, matrix: pushes.append(1) or real_apply(space, matrix))
        for found in instances:
            # The same data with an empty table.
            inst = LlsInstance(found.d, found.r, found.ambient_dim, found.maps,
                               found.vanishing, {}, chain=found.chain)
            grid = found.multidegrees
            for k, md in enumerate(grid):
                view = inst.derive({m: found.space(m) for m in grid[:k]})
                pinned = _linking_freedom(view, md)[0].dim == found.r + 1
                probe = view.derive({**view.spaces, md: found.space(md)})
                for _, n in md.neighbours():
                    if n not in view.spaces:
                        continue
                    edge = edge_between(n, md)
                    assert ("pushed_image", edge, found.space(n)) in inst.table
                    pushes.clear()
                    exactness_at(probe, edge)
                    assert not pushes
                    exactness_at(probe, edge_between(md, n))
                    assert len(pushes) == (0 if pinned else 1)
