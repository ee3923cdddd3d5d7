"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

1. The tracer replaces every binding of a traced name in every llschain
   module and puts all of them back on ``uninstall``.
2. BENCHMARK.json names exactly the metrics run.py and the tracer report.
3. A traced run of each workload passes every check -- including traced
   output digests equal to untraced ones -- and reports every per-layer
   metric, nonzero wherever the workload calls that layer.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

# Metrics a workload does not load, so they may read 0 there.
NOT_LOADED = {
    "pipeline-large": (
        "generator.gen_exact_search.", "generator.degrade.",
        "chain_model.vanishing_subspace.hits",   # each skeleton asks once per key
        "chain_model.canonical_matrix.hits",      # hits only when gen_simple retries
    ),
    "search-small": (
        "lls_core.load_instance.", "lls_core.save_instance.",
        "lls_core.identity_suite.", "simple_basis.save_certificate.",
        "chain_model.vanishing_subspace.hits",
    ),
}


def bindings() -> dict:
    out = {}
    for module in tracer.MODULES:
        out.update({(module.__name__, k): v for k, v in vars(module).items()})
    for _, owner, attr, _ in tracer.TARGETS:
        if isinstance(owner, type):
            out[(owner.__name__, attr)] = owner.__dict__[attr]
    return out


def check_install_uninstall() -> list[str]:
    before = bindings()
    t = tracer.Tracer().install()
    during = bindings()
    t.uninstall()
    after = bindings()
    problems = []
    for prefix, owner, attr, _ in tracer.TARGETS:
        key = (owner.__name__, attr)
        if during[key] is before[key]:
            problems.append(f"{prefix} was not wrapped")
    # Every module-level copy of a traced function must be wrapped too.
    originals = {id(before[(o.__name__, a)]) for _, o, a, _ in tracer.TARGETS}
    for key, value in before.items():
        if id(value) in originals and during[key] is value:
            problems.append(f"binding {key} was not wrapped")
    changed = [key for key in before if after.get(key) is not before[key]]
    problems += [f"binding {key} not restored" for key in changed]
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != tracer.metric_units():
        problems.append("BENCHMARK.json per_layer differs from tracer.metric_units()")
    return problems


def check_traced_run(workload: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if not proc.stdout.strip():
        return [f"{workload}: no output (exit {proc.returncode}): {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append(f"{workload}: traced run failed its checks: {proc.stderr[-400:]}")
    units = tracer.metric_units()
    if set(result["metrics"]) != set(units):
        problems.append(f"{workload}: per-layer metric names differ from the tracer's")
    for name in units:
        value = result["metrics"].get(name, {}).get("value")
        exempt = any(name.startswith(p) for p in NOT_LOADED[workload])
        if value is None or (not value and not exempt):
            problems.append(f"{workload}: {name} is {value}")
    return problems


def main() -> int:
    problems = check_install_uninstall() + check_benchmark_json()
    for workload in ("pipeline-large", "search-small"):
        problems += check_traced_run(workload)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
