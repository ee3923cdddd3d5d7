"""The traced benchmark (perfbench/tracer.py) wraps llschain names by owner
and attribute.  These checks fail when a change to the package removes a
traced name, changes its kind or stops calling a traced file function,
which would otherwise only show up as a broken or zeroed benchmark run."""

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
