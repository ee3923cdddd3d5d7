"""Worker for the ``search-small`` workload: one warm in-process sweep.

Usage: python3 perfbench/sweep.py OUT.json TRACE(0|1) SEED[,SEED...] D:R[,D:R...]

For every (d, r) point and seed it generates four instances through the
public API -- the ``exact-search`` result, the ``from-sections`` instance
and its ``shrink-V`` and ``break-linking`` degradations -- plus, once per
point, the ``break-exactness`` degradation of the FIXED_SEED instance.  It
checks each one with ``validate`` and ``exactness``, analyses the exact
ones with ``codim_report`` and decides ``is_simple`` for all.  Stage times
are summed over the sweep, and its CPU seconds are taken around it.  The
verdict facts and sha256 digests of every instance file and report are
computed after the timed sweep and written to OUT.json, with the trace
aggregates when TRACE is 1.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from llschain import generator, lls_core, simple_basis
from llschain.generator import GenSpec
from tracer import Tracer

EXACT_KINDS = ("exact-search", "from-sections")
FIXED_SEED = 0  # the one instance per point that break-exactness degrades


def _digest(data: dict) -> str:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep(seeds: list[int], points: list[tuple[int, int]]) -> tuple[dict, list]:
    """The timed sweep: stage seconds, and per instance the objects its
    verdicts and digests are read from afterwards.

    ``break-exactness`` degrades the ``FIXED_SEED`` instance of each point
    rather than one per seed: its cost is heavy-tailed across seeds (one
    draw in 32 costs 15-20 times the median), which no run of a minute can
    average out.
    """
    clock = time.perf_counter
    stages = dict.fromkeys(("gen", "validate", "analyze", "certify"), 0.0)
    records = []
    start = clock()
    for d, r in points:
        t0 = clock()
        instances = []
        for seed in seeds:
            found = generator.gen_exact_search(
                GenSpec(d=d, r=r, strategy="exact-search", seed=seed))
            simple = generator.gen_simple(GenSpec(d=d, r=r, seed=seed))
            instances += [(seed, "exact-search", found.instance),
                          (seed, "from-sections", simple.instance)]
            instances += [(seed, mode, generator.degrade(simple.instance, mode, seed=seed).instance)
                          for mode in ("shrink-V", "break-linking")]
        base = generator.gen_simple(GenSpec(d=d, r=r, seed=FIXED_SEED)).instance
        broken = generator.degrade(base, "break-exactness", seed=FIXED_SEED).instance
        instances.append((FIXED_SEED, "break-exactness", broken))
        t1 = clock()
        checks = [(lls_core.validate(inst), lls_core.exactness(inst)) if inst else None
                  for _, _, inst in instances]
        t2 = clock()
        grids = [lls_core.codim_report(inst) if inst and kind in EXACT_KINDS else None
                 for _, kind, inst in instances]
        t3 = clock()
        verdicts = [simple_basis.is_simple(inst) if inst else None for _, _, inst in instances]
        t4 = clock()
        stages["gen"] += t1 - t0
        stages["validate"] += t2 - t1
        stages["analyze"] += t3 - t2
        stages["certify"] += t4 - t3
        for (seed, kind, inst), check, grid, verdict in zip(instances, checks, grids, verdicts):
            records.append((seed, d, r, kind, inst, check, grid, verdict))
    stages["wall"] = clock() - start
    return stages, records


def describe(seed, d, r, kind, inst, check, grid, verdict) -> dict:
    """Verdict facts and output digests of one generated instance."""
    out = {"seed": seed, "d": d, "r": r, "kind": kind, "found": inst is not None}
    if inst is None:
        return out
    validation, exact = check
    out["facts"] = {
        "valid": validation.ok,
        "violations": sorted({v.kind for v in validation.violations}),
        "exact": exact.exact,
        "simple": verdict.simple,
        "reason": verdict.reason,
    }
    out["digests"] = {
        "instance": _digest(lls_core.instance_to_json(inst)),
        "validate": _digest(validation.to_json()),
        "exactness": _digest(exact.to_json()),
        "is_simple": _digest(verdict.to_json()),
    }
    if grid is not None:
        out["facts"].update(
            codim_sum=grid.codim_sum, distributive=grid.all_distributive,
            grid_exact=grid.exact, simple_by_criterion=grid.simple_by_criterion,
            inequality_holds=grid.inequality_holds,
            equivalence_consistent=grid.equivalence_consistent)
        out["digests"]["codim_report"] = _digest(grid.to_json())
    return out


def main(argv: list[str]) -> int:
    out_path, traced = argv[0], argv[1] == "1"
    seeds = [int(s) for s in argv[2].split(",")]
    points = [tuple(int(x) for x in p.split(":")) for p in argv[3].split(",")]
    tracer = Tracer().install() if traced else None
    before = resource.getrusage(resource.RUSAGE_SELF)
    try:
        stages, records = sweep(seeds, points)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = resource.getrusage(resource.RUSAGE_SELF)
    stages["cpu"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = {"stages": stages, "instances": [describe(*rec) for rec in records],
              "trace": tracer.aggregates() if tracer is not None else None}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
