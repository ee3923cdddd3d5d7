"""Generator outputs pinned by digest: exact-search finds and a budget
stop, and every degrade mode, including both break-exactness phases.  The
exact search and break-exactness's biased redraw share one linked-assignment
walker, so these rows pin its draw order and its expansion count.  One
more digest covers a small sweep of searches and their break-exactness
degrades with every report.
"""

import hashlib
import json
import sys

import pytest

from llschain.chain_model import ChainCurve
from llschain.exactla import Subspace
from llschain.generator import (
    GenerationError,
    GenSpec,
    _fill,
    degrade,
    gen_exact_search,
    gen_simple,
)
from llschain.lls_core import codim_report, exactness, from_chain, instance_to_json, validate
from llschain.simple_basis import is_simple


def _digest(data: dict) -> str:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def search_row(result) -> dict:
    row = {"note": result.note, "expansions": result.expansions}
    if result.found:
        row["instance"] = _digest(instance_to_json(result.instance))
        row["codim_sum"] = result.codim_sum
    return row


def search(d, r, seed, budget):
    return gen_exact_search(GenSpec(d=d, r=r, strategy="exact-search",
                                    seed=seed, budget=budget))


def degrade_row(d, r, base_seed, mode, seed) -> dict:
    base = gen_simple(GenSpec(d=d, r=r, seed=base_seed)).instance
    result = degrade(base, mode, seed=seed)
    return {"instance": _digest(instance_to_json(result.instance)),
            "at": result.at.label, "detail": result.detail}


# (d, r, seed, budget); the last one stops at its budget.
SEARCH_POINTS = [(1, 0, 3, 2000), (3, 2, 0, 2000), (5, 1, 0, 2000), (16, 0, 0, 2000),
                 (3, 1, 5, 3)]
# (d, r, gen_simple seed, mode, degrade seed); the d=3 and d=4
# break-exactness points reach the biased redraw, the d=2 one does not.
DEGRADE_POINTS = [(3, 1, 1, "shrink-V", 0), (3, 1, 1, "break-linking", 0),
                  (3, 1, 1, "break-exactness", 0), (2, 1, 0, "break-exactness", 1),
                  (4, 1, 0, "break-exactness", 2)]


def search_label(d, r, seed, budget):
    return f"exact-search d={d} r={r} seed={seed} budget={budget}"


GOLDEN_GENERATOR = {
    'exact-search d=1 r=0 seed=3 budget=2000': {
        'note': 'exact-distributive',
        'expansions': 3,
        'instance': 'f6a1b185e267cd6c1c5e80f645eacbf5b2444836c97a84a34a98e348d949ee55',
        'codim_sum': 1,
    },
    'exact-search d=3 r=2 seed=0 budget=2000': {
        'note': 'exact-distributive',
        'expansions': 10,
        'instance': '8b6806f088dcce01f387160d960d2c092e80a73c58bc4dc03e94278232961779',
        'codim_sum': 3,
    },
    'exact-search d=5 r=1 seed=0 budget=2000': {
        'note': 'exact-distributive',
        'expansions': 21,
        'instance': 'e5ec883fa10abc6ae6adc22c140164e5b70be3e552a819e7d4dce2f67ce35cef',
        'codim_sum': 2,
    },
    'exact-search d=16 r=0 seed=0 budget=2000': {
        'note': 'exact-distributive',
        'expansions': 153,
        'instance': '7c8ccba1ac50953ecc02592555248a1b75679e2e660101a69644a0816d3cf8c3',
        'codim_sum': 1,
    },
    'exact-search d=3 r=1 seed=5 budget=3': {
        'note': 'NotFound(budget=3)',
        'expansions': 4,
    },
    'shrink-V d=3 r=1 base=1 seed=0': {
        'instance': 'fa5ad2566bab093e6c7bad161c21258dd3e55899f55df727eb5f3da0916113f4',
        'at': '(3,0,0)',
        'detail': 'dropped one basis vector at (3,0,0)',
    },
    'break-linking d=3 r=1 base=1 seed=0': {
        'instance': '42e0bd8b51dd28040938c33fce0481011ae3d82b3fa3e4005681bd1d15819bc6',
        'at': '(3,0,0)->(2,1,0)',
        'detail': 'replaced the space at (3,0,0)',
    },
    'break-exactness d=3 r=1 base=1 seed=0': {
        'instance': 'd594ee7440c5ef8ce2365b50fbf90700e8a0f9618844ef28d7d981eba2a09c8a',
        'at': '(3,0,0)->(2,1,0)',
        'detail': 'redrew the assignment with a degenerate bias around (3,0,0)->(2,1,0)',
    },
    'break-exactness d=2 r=1 base=0 seed=1': {
        'instance': 'abad976139ac273fed86de05ea7aac92d0b83c0aac02ef9d08a346376a63dbe6',
        'at': '(1,1,0)->(1,0,1)',
        'detail': 'replaced the space at (1,0,1) within its linking freedom',
    },
    'break-exactness d=4 r=1 base=0 seed=2': {
        'instance': '3af2fbd1f003e2d77906440ae39a10412924957764f30177a9bbd178809c3eb3',
        'at': '(4,0,0)->(3,1,0)',
        'detail': 'redrew the assignment with a degenerate bias around (4,0,0)->(3,1,0)',
    },
}


@pytest.mark.parametrize("point", SEARCH_POINTS)
def test_search_bytes(point):
    label = search_label(*point)
    assert search_row(search(*point)) == GOLDEN_GENERATOR[label]


@pytest.mark.parametrize("point", DEGRADE_POINTS)
def test_degrade_bytes(point):
    d, r, base, mode, seed = point
    label = f"{mode} d={d} r={r} base={base} seed={seed}"
    assert degrade_row(*point) == GOLDEN_GENERATOR[label]


def test_golden_generator_labels():
    labels = [search_label(*p) for p in SEARCH_POINTS]
    labels += [f"{mode} d={d} r={r} base={base} seed={seed}"
               for d, r, base, mode, seed in DEGRADE_POINTS]
    assert labels == list(GOLDEN_GENERATOR)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_grid_needs_no_frame_per_node():
    """d = 16 has 153 nodes; with 100 frames to spare the search still
    finds the pinned series, so the walk does not recurse per node."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        result = search(16, 0, 0, 2000)
    finally:
        sys.setrecursionlimit(limit)
    assert search_row(result) == GOLDEN_GENERATOR[search_label(16, 0, 0, 2000)]


class TestFill:
    """The walker on a hand-written choice rule at d = 1, r = 0: the first
    node offers two lines, and the second node has no choice under the
    first of them."""

    @staticmethod
    def rule(calls):
        first_lines = [Subspace.span([(1, 0)], 2), Subspace.span([(0, 1)], 2)]

        def choices(md, lower, upper, assigned):
            calls.append(md)
            if not assigned:
                return first_lines
            if assigned.get(calls[0]) == first_lines[0]:
                return []
            return [lower if lower.dim == 1 else Subspace.span(upper.basis.ints[:1], 2)]
        return choices

    def test_goes_back_to_the_next_choice(self):
        root = from_chain(ChainCurve(1), 0, {})
        calls = []
        assignment, expansions = _fill(root, self.rule(calls), budget=10)
        grid = root.multidegrees
        assert calls == [grid[0], grid[1], grid[1], grid[2]]
        assert expansions == 4
        assert list(assignment) == list(grid)
        assert assignment[grid[0]] == Subspace.span([(0, 1)], 2)
        assert validate(root.derive(assignment), ambient_laws=False).ok

    def test_budget_stops_the_walk(self):
        root = from_chain(ChainCurve(1), 0, {})
        with pytest.raises(GenerationError):
            _fill(root, self.rule([]), budget=3)

    def test_no_choice_anywhere_gives_none(self):
        root = from_chain(ChainCurve(1), 0, {})
        assert _fill(root, lambda *args: [], budget=10) == (None, 0)


# Every exact search and every break-exactness degrade of its find at
# d 1-5, r <= 2, seeds 0-3, with every report a user can ask of them.  A
# complete series (r = d) offers break-exactness nothing to perturb.
SWEEP_DIGEST = "2a83c424cf4e8ec3274b61bc79fd9a5427ed23c8422d4c24c11eec7003619e2c"


def _sweep_results():
    for d in range(1, 6):
        for r in range(min(d, 2) + 1):
            for seed in range(4):
                found = search(d, r, seed, 2000).instance
                yield found
                if r < d:
                    yield degrade(found, "break-exactness", seed=seed).instance


def test_sweep_bytes():
    """One sha256 over the instance file and the validate, exactness,
    is_simple and (when exact) codim_report JSON of all 104 results."""
    digest, count = hashlib.sha256(), 0
    for inst in _sweep_results():
        exact = exactness(inst)
        reports = [instance_to_json(inst), validate(inst).to_json(), exact.to_json(),
                   is_simple(inst).to_json()]
        if exact.exact:
            reports.append(codim_report(inst).to_json())
        for data in reports:
            digest.update(_digest(data).encode("ascii"))
        count += 1
    assert count == 104
    assert digest.hexdigest() == SWEEP_DIGEST
