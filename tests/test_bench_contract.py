"""The traced benchmark (perfbench/tracer.py) wraps llschain names by owner
and attribute.  These checks fail when a change to the package removes a
traced name, changes its kind, stops calling a traced file function or
routes the reports around a traced ``lls_core`` name, which would
otherwise only show up as a broken or zeroed benchmark run."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for prefix, owner, attr, _ in tracer.TARGETS:
        if isinstance(owner, type):
            assert attr in owner.__dict__, prefix
        else:
            assert callable(getattr(owner, attr, None)), prefix


def test_cache_targets_keep_cache_info(tracer):
    caches = [(prefix, getattr(owner, attr)) for prefix, owner, attr, stats in tracer.TARGETS
              if stats is tracer.CACHE]
    assert caches
    for prefix, fn in caches:
        assert callable(getattr(fn, "cache_info", None)), prefix


def test_file_functions_are_traced_where_the_cli_calls_them(tracer, tmp_path):
    # A traced name the CLI stopped calling through would read 0 calls in
    # every benchmark run, and the resolve check above would still pass.
    from llschain.cli import main

    inst, cert = tmp_path / "inst.json", tmp_path / "inst.cert.json"
    run = tracer.Tracer().install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["gen", "--d", "1", "--r", "0", "--seed", "7", "-o", str(inst)]),
                     main(["validate", str(inst)]),
                     main(["certify", str(inst), "--certificate-out", str(cert)])]
    finally:
        run.uninstall()
    assert codes == [0, 0, 0]
    expected = {"lls_core.load_instance": 2, "lls_core.save_instance": 1,
                "simple_basis.save_certificate": 2}
    stats = run.aggregates()["stats"]
    assert {name: stats[name][0] for name in expected} == expected


@pytest.mark.parametrize("d, r", [(3, 1), (4, 2)])
def test_reports_reach_every_traced_lls_core_name(tracer, tmp_path, d, r):
    # The reports read the analysis table through its helpers; one that
    # stopped passing through vanishing_in_v or distributive_at would read
    # 0 calls in every benchmark run.  identity_suite runs after that is
    # checked.
    from llschain import lls_core, simple_basis
    from llschain.generator import GenSpec, gen_simple

    path = tmp_path / "inst.json"
    built = gen_simple(GenSpec(d=d, r=r, seed=1)).instance
    run = tracer.Tracer().install()
    try:
        lls_core.save_instance(path, built)
        inst = lls_core.load_instance(path)
        for report in (lls_core.validate, lls_core.exactness, lls_core.codim_report,
                       simple_basis.is_simple):
            report(inst)
        reached = {name for name, stat in run.stats.items() if stat[0]}
        lls_core.identity_suite(inst)
    finally:
        run.uninstall()
    assert {"lls_core.vanishing_in_v", "lls_core.distributive_at"} <= reached
    stats = run.aggregates()["stats"]
    names = [prefix for prefix, owner, _, _ in tracer.TARGETS if owner is lls_core]
    assert [name for name in names if not stats[name][0]] == []
