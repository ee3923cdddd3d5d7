"""llschain benchmark: two workloads, end-to-end metrics and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-large --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload search-small --seed 1 --seconds 60 --trace 1
    python3 perfbench/run.py --workload pipeline-large --record   # rewrite reference digests

Workloads (see perfbench/README.md):

* ``pipeline-large``: the CLI pipeline gen -> validate -> analyze -> certify
  on one d=8, r=3 instance, each stage a fresh ``python -m llschain.cli``
  process, so every cache is cold.
* ``search-small``: one warm in-process sweep through the public API
  (perfbench/sweep.py) over (d, r) in {3,4,5} x {1,2}.

Every output file and report is checked against reference sha256 digests
in perfbench/reference.json, and every verdict against the answer known
by construction.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` each pass runs once untraced and
once traced (perfbench/tracer.py) and the line carries the per-layer
metrics.  The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
PY = sys.executable

PIPELINE_D, PIPELINE_R = 8, 3
PIPELINE_POOL = 16            # --seed selects gen seed (seed mod 16)
SEARCH_POINTS = ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2))
SEARCH_SEEDS = 3              # generator seeds per sweep
SEARCH_POOL = 32              # generator seeds come from 0..31
SETUP_SAMPLES = 3             # import timings before each pass and after the last
CHILD_TIMEOUT = 150

STAGES = ("gen", "validate", "analyze", "certify")
END_TO_END = {"setup_s": "s", "wall_s": "s", "gen_s": "s", "validate_s": "s",
              "analyze_s": "s", "certify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Failures:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)


def child_env() -> dict:
    """Children import llschain from the checkout's source tree, run serial
    (no LSL_THREADS) and hash strings the same way on every run."""
    env = {k: v for k, v in os.environ.items() if k not in ("LSL_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], cwd: Path) -> dict:
    """Run one worker process to completion: exit status, wall and CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        status, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        status, stderr = None, f"timed out after {CHILD_TIMEOUT} s"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"status": status, "wall": wall, "cpu": cpu, "stderr": stderr}


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


# ---------------------------------------------------------------- pipeline-large

def pipeline_inputs(seed: int) -> dict:
    return {"d": PIPELINE_D, "r": PIPELINE_R, "gen_seed": seed % PIPELINE_POOL}


def pipeline_commands(inputs: dict) -> list[tuple[str, list[str], tuple[str, ...]]]:
    d, r, s = inputs["d"], inputs["r"], inputs["gen_seed"]
    return [
        ("gen", ["gen", "--d", str(d), "--r", str(r), "--seed", str(s),
                 "-o", "instance.json", "--certificate-out", "gen.cert.json"],
         ("instance.json", "gen.cert.json")),
        ("validate", ["validate", "instance.json", "--report", "validate.json"],
         ("validate.json",)),
        ("analyze", ["analyze", "instance.json", "--report", "analyze.json"],
         ("analyze.json",)),
        ("certify", ["certify", "instance.json", "--report", "certify.json",
                     "--certificate-out", "certify.cert.json"],
         ("certify.json", "certify.cert.json")),
    ]


def pipeline_verdict(stage: str, work: Path, r: int) -> list[str]:
    """The instance is simple by construction: every check must say so."""
    if stage == "validate":
        return [] if read_json(work / "validate.json").get("ok") is True else ["not valid"]
    if stage == "analyze":
        data = read_json(work / "analyze.json")
        grid = data.get("grid", {})
        facts = {"validation.ok": data.get("validation", {}).get("ok"),
                 "grid.exact": grid.get("exact"),
                 "grid.all_distributive": grid.get("all_distributive"),
                 "grid.simple_by_criterion": grid.get("simple_by_criterion"),
                 "identities.ok": data.get("identities", {}).get("ok"),
                 "codim_sum == r+1": grid.get("codim_sum") == r + 1}
        return [f"{k} is not true" for k, v in facts.items() if v is not True]
    if stage == "certify":
        simple = read_json(work / "certify.json").get("verdict", {}).get("simple")
        return [] if simple is True else ["not simple"]
    return []


def pipeline_pass(work: Path, inputs: dict, traced: bool) -> dict:
    for old in work.iterdir():
        old.unlink()
    stages, runs = {}, {}
    start = time.perf_counter()
    for stage, argv, _ in pipeline_commands(inputs):
        if traced:
            cmd = [PY, str(BENCH / "trace_cli.py"), f"trace-{stage}.json"] + argv
        else:
            cmd = [PY, "-m", "llschain.cli"] + argv
        runs[stage] = run_child(cmd, work)
        stages[stage] = runs[stage]["wall"]
    wall = time.perf_counter() - start
    ops, digests, traces = {}, {}, []
    for stage, _, outputs in pipeline_commands(inputs):
        run = runs[stage]
        problems = []
        if run["status"] != 0:
            problems.append(f"exit status {run['status']}")
        if "Traceback" in run["stderr"]:
            problems.append("traceback")
        digests[stage] = {name: sha256_file(work / name) for name in outputs}
        problems += pipeline_verdict(stage, work, inputs["r"])
        ops[stage] = problems
        if traced:
            record = read_json(work / f"trace-{stage}.json")
            if record:
                traces.append(record)
            else:
                problems.append("no trace record")
    return {"stages": stages, "wall": wall, "cpu": sum(r["cpu"] for r in runs.values()),
            "ops": ops, "digests": digests, "traces": traces}


def check_pipeline(result: dict, reference: dict | None, fails: Failures) -> None:
    for stage in STAGES:
        problems = list(result["ops"][stage])
        expected = None if reference is None else reference.get(stage)
        if expected is None:
            problems.append("no reference digest")
        elif result["digests"][stage] != expected:
            problems.append("output digest differs from the reference")
        fails.op(f"pipeline {stage}", problems)


# ---------------------------------------------------------------- search-small

def search_inputs(seed: int) -> dict:
    seeds = [(seed * SEARCH_SEEDS + k) % SEARCH_POOL for k in range(SEARCH_SEEDS)]
    return {"seeds": seeds, "points": [list(p) for p in SEARCH_POINTS]}


def search_pass(work: Path, inputs: dict, traced: bool) -> dict:
    out = work / "sweep.json"
    if out.exists():
        out.unlink()
    run = run_child([PY, str(BENCH / "sweep.py"), str(out), "1" if traced else "0",
                     ",".join(map(str, inputs["seeds"])),
                     ",".join(f"{d}:{r}" for d, r in inputs["points"])], work)
    data = read_json(out)
    problems = []
    if run["status"] != 0:
        problems.append(f"sweep exit status {run['status']}: {run['stderr'][-400:]}")
    if not data:
        problems.append("sweep wrote no result")
    stages = data.get("stages", {})
    return {"stages": {s: stages.get(s, 0.0) for s in STAGES}, "wall": stages.get("wall", 0.0),
            "cpu": stages.get("cpu", 0.0), "problems": problems,
            "instances": data.get("instances", []),
            "traces": [data["trace"]] if data.get("trace") else []}


def search_verdict(record: dict) -> list[str]:
    """Answers that hold by construction, per generated instance."""
    if not record.get("found"):
        return ["no instance generated"]
    f, kind = record["facts"], record["kind"]
    problems = []
    if kind in ("exact-search", "from-sections"):
        if not (f["valid"] and f["exact"] and f["grid_exact"]):
            problems.append("not valid and exact")
        if not (f["inequality_holds"] and f["equivalence_consistent"]):
            problems.append("codim criterion inconsistent")
        if f["simple"] != f["simple_by_criterion"] or f["simple"] != f["distributive"]:
            problems.append("is_simple disagrees with the codim criterion")
        if kind == "from-sections" and not f["simple"]:
            problems.append("simple-by-construction instance is not simple")
    elif kind == "shrink-V":
        if "dimension" not in f["violations"]:
            problems.append("no dimension violation")
    elif kind == "break-linking":
        if "linking" not in f["violations"] or "dimension" in f["violations"]:
            problems.append("not a pure linking violation")
    elif kind == "break-exactness":
        if not f["valid"] or f["exact"]:
            problems.append("not valid-but-inexact")
        if f["simple"] or f["reason"] != "not-exact":
            problems.append("is_simple does not give not-exact")
    return problems


def check_search(result: dict, reference: dict, fails: Failures, inputs: dict) -> int:
    """Checks one sweep; returns the number of exact-nondistributive finds."""
    expected_ops = len(inputs["points"]) * (4 * len(inputs["seeds"]) + 1)
    if result["problems"] or len(result["instances"]) != expected_ops:
        problems = result["problems"] or ["wrong number of instances"]
        for _ in range(expected_ops):
            fails.op("search sweep", problems)
        return 0
    nondistributive = 0
    for rec in result["instances"]:
        problems = search_verdict(rec)
        ref = reference.get(str(rec["seed"]), {}).get(f"{rec['d']}:{rec['r']}", {})
        if rec.get("digests") != ref.get(rec["kind"]):
            problems.append("output digest differs from the reference")
        if rec["kind"] == "exact-search" and rec.get("facts", {}).get("distributive") is False:
            nondistributive += 1
        fails.op(f"search seed {rec['seed']} d={rec['d']} r={rec['r']} {rec['kind']}",
                 problems)
    return nondistributive


# ---------------------------------------------------------------- runs

def source_state() -> dict:
    """Git sha when the checkout has a git directory, and a digest of the
    source tree, which identifies the code either way."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "llschain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def setup(workload: str) -> Path:
    """Compile once and prepare an empty work directory."""
    compiled = run_child([PY, "-m", "compileall", "-q", str(SRC / "llschain"), str(BENCH)], ROOT)
    if compiled["status"] != 0:
        raise SystemExit(f"compileall failed: {compiled['stderr']}")
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def time_imports(samples: list[float]) -> None:
    """Append SETUP_SAMPLES timings of a fresh interpreter running
    ``import llschain``."""
    for _ in range(SETUP_SAMPLES):
        run = run_child([PY, "-c", "import llschain"], ROOT)
        if run["status"] != 0:
            raise SystemExit(f"import llschain failed: {run['stderr']}")
        samples.append(run["wall"])


def timed_passes(seconds: float, one_pass, between=lambda: None) -> list:
    """Repeat ``one_pass`` while another pass as long as the longest so far
    still fits in ``seconds``; always at least one.  ``between`` runs before
    each pass and after the last, inside the time budget."""
    results, longest = [], 0.0
    start = time.perf_counter()
    while True:
        between()
        t = time.perf_counter()
        results.append(one_pass())
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - start + longest > seconds:
            between()
            return results


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def run_workload(args) -> int:
    work = setup(args.workload)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    fails = Failures()
    extra = {}
    pipeline = args.workload == "pipeline-large"
    inputs = pipeline_inputs(args.seed) if pipeline else search_inputs(args.seed)
    one_pass = pipeline_pass if pipeline else search_pass
    ref = reference.get(args.workload, {}).get("seeds", {})

    def check(result: dict) -> None:
        if pipeline:
            check_pipeline(result, ref.get(str(inputs["gen_seed"])), fails)
        else:
            extra["exact_nondistributive"] = check_search(result, ref, fails, inputs)

    if args.trace:
        pairs = timed_passes(args.seconds, lambda: (one_pass(work, inputs, False),
                                                    one_pass(work, inputs, True)))
        values = []
        for plain, traced in pairs:
            check(plain)
            check(traced)
            same = (plain["digests"] == traced["digests"] if pipeline else
                    [r.get("digests") for r in plain["instances"]]
                    == [r.get("digests") for r in traced["instances"]])
            fails.op("traced digests equal untraced digests", [] if same else ["differ"])
            values.append(per_layer(plain, traced, pipeline))
        import tracer
        metrics = {name: {"value": statistics.median(v[name] for v in values), "unit": unit}
                   for name, unit in tracer.metric_units().items()}
    else:
        setup_samples = []
        passes = timed_passes(args.seconds, lambda: one_pass(work, inputs, False),
                              lambda: time_imports(setup_samples))
        for result in passes:
            check(result)
        values = {"setup_s": statistics.median(setup_samples),
                  "wall_s": median_of(passes, lambda p: p["wall"]),
                  "cpu_s": median_of(passes, lambda p: p["cpu"]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
        for stage in STAGES:
            values[f"{stage}_s"] = median_of(passes, lambda p: p["stages"][stage])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        extra["passes"] = len(passes)
        extra["setup_samples"] = len(setup_samples)

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {fails.failed / max(fails.attempted, 1):.6g} "
          f"({fails.failed} of {fails.attempted} operations)")
    provenance = {"workload": args.workload, "seed": args.seed, "inputs": inputs,
                  "run_seconds": args.seconds, "trace": args.trace,
                  "python": platform.python_version(), "nproc": os.cpu_count(),
                  **source_state(), **extra}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    correct = fails.failed == 0
    print(json.dumps({"correct": correct, "attempted": fails.attempted,
                      "failed": fails.failed, "metrics": metrics}))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


def per_layer(plain: dict, traced: dict, pipeline: bool) -> dict[str, float]:
    import tracer
    values = tracer.layer_metrics(tracer.merge(traced["traces"]))
    if pipeline:
        stage_times = {}
        for record in traced["traces"]:
            stage_times.update(record["stage"])
    else:
        stage_times = traced["stages"]
    for stage in STAGES:
        values[f"cli.{stage}.total_s"] = stage_times.get(stage, 0.0)
    values["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1 if plain["wall"] else 0.0
    return values


def record_reference(workload: str) -> int:
    """Rewrite the reference digests of one workload from the current code,
    after checking every verdict.  Run only when outputs are meant to change."""
    work = setup(workload)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    fails = Failures()
    seeds = {}
    if workload == "pipeline-large":
        for gen_seed in range(PIPELINE_POOL):
            inputs = pipeline_inputs(gen_seed)
            result = pipeline_pass(work, inputs, False)
            for stage in STAGES:
                fails.op(f"pipeline {stage} seed {gen_seed}", result["ops"][stage])
            seeds[str(inputs["gen_seed"])] = result["digests"]
            print(f"recorded gen seed {gen_seed}", flush=True)
        entry = {"d": PIPELINE_D, "r": PIPELINE_R, "seeds": seeds}
    else:
        for seed in range(SEARCH_POOL):
            inputs = {**search_inputs(0), "seeds": [seed]}
            result = search_pass(work, inputs, False)
            for problem in result["problems"]:
                fails.op(f"search seed {seed}", [problem])
            for rec in result["instances"]:
                fails.op(f"search seed {seed} {rec['kind']}", search_verdict(rec))
                point = seeds.setdefault(str(seed), {}).setdefault(f"{rec['d']}:{rec['r']}", {})
                point[rec["kind"]] = rec.get("digests")
            print(f"recorded search seed {seed}", flush=True)
        entry = {"points": [list(p) for p in SEARCH_POINTS], "seeds": seeds}
    if fails.failed:
        print("verdict checks failed; reference not written", file=sys.stderr)
        return 1
    reference[workload] = entry
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pipeline-large", "search-small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference digests instead of measuring")
    args = parser.parse_args()
    if not (SRC / "llschain" / "__init__.py").is_file():
        print(f"no llschain source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record_reference(args.workload)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
