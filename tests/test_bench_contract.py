"""The traced benchmark (perfbench/tracer.py) wraps llschain names by owner
and attribute.  These checks fail when a change to the package removes a
traced name or changes its kind, which would otherwise only show up as a
broken benchmark run."""

import importlib.util
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
