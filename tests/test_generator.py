import json

import pytest

from llschain import lls_core
from llschain.generator import (
    DEGRADE_MODES,
    GenerationError,
    GenSpec,
    degrade,
    gen_exact_search,
    gen_simple,
)
from llschain.lattice import Multidegree, directed_edges
from llschain.lls_core import (
    codim_report,
    exactness,
    instance_to_json,
    validate,
)
from llschain.simple_basis import (
    certificate_from_json,
    certificate_to_json,
    is_simple,
    verify_certificate,
)


def md(i, j, l):
    return Multidegree(i, j, l)


class TestGenSpec:
    def test_rank_bound(self):
        with pytest.raises(ValueError):
            GenSpec(d=1, r=2)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            GenSpec(d=1, r=0, strategy="guess")

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            GenSpec(d=1, r=0, budget=0)


# ``(d, r, seed)``: one small draw, the benchmark's sweep points (d 3-5,
# r 1-2) at seeds 0-5, and three d = 8 draws.
POSTCONDITION_SPECS = ((2, 1, 71),
                       *((d, r, seed) for d in (3, 4, 5) for r in (1, 2) for seed in range(6)),
                       (8, 3, 1), (8, 3, 5), (8, 3, 9))


class TestGenSimple:
    def test_composite_postconditions(self):
        """``gen_simple`` hands over its draw as the certificate unchecked,
        so each certificate is verified here, and read back from its file
        form unchanged."""
        for d, r, seed in POSTCONDITION_SPECS:
            result = gen_simple(GenSpec(d=d, r=r, seed=seed))
            inst = result.instance
            assert validate(inst).ok
            report = codim_report(inst)
            assert report.exact and report.all_distributive
            assert report.codim_sum == inst.r + 1
            assert verify_certificate(inst, result.certificate).ok, (d, r, seed)
            data = certificate_to_json(result.certificate)
            assert certificate_from_json(data, d) == result.certificate, (d, r, seed)
            assert is_simple(inst).simple

    def test_support_sections_sum_to_rank(self):
        result = gen_simple(GenSpec(d=3, r=2, seed=73))
        assert result.certificate.total_sections == 3

    def test_same_seed_same_bytes(self, tmp_path):
        one = gen_simple(GenSpec(d=2, r=1, seed=77))
        two = gen_simple(GenSpec(d=2, r=1, seed=77))
        assert json.dumps(instance_to_json(one.instance), sort_keys=True) == \
            json.dumps(instance_to_json(two.instance), sort_keys=True)

    @pytest.mark.parametrize("d, seed", [(2, 2), (3, 0), (3, 4), (4, 0), (4, 5)])
    def test_rank_d_falls_back_to_the_complete_series(self, d, seed):
        # Every draw fails at these seeds; at r = d the complete series is
        # the only one, so it is the result.
        result = gen_simple(GenSpec(d=d, r=d, seed=seed))
        inst = result.instance
        assert inst.provenance["series"] == "complete"
        assert all(inst.space(m).dim == d + 1 for m in inst.multidegrees)
        assert validate(inst).ok
        assert verify_certificate(inst, result.certificate).ok
        assert is_simple(inst).simple

    @pytest.mark.parametrize("d, seed", [(4, 4), (5, 0), (6, 0), (6, 1), (7, 0), (12, 1)])
    def test_rank_d_minus_one_falls_back_to_the_boundary_line(self, d, seed):
        # Every draw fails at these seeds; the fallback's support is the
        # boundary line, one section per node.
        result = gen_simple(GenSpec(d=d, r=d - 1, seed=seed))
        inst = result.instance
        assert inst.provenance["series"] == "line-support"
        assert result.attempts == inst.provenance["attempt"] > 200
        assert result.certificate.support == tuple(
            m for m in inst.multidegrees if m.j == 0 and m.l < d)
        assert validate(inst).ok
        assert verify_certificate(inst, result.certificate).ok
        assert is_simple(inst).simple

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rank_d_minus_one_always_generates(self, d):
        for seed in range(3):
            result = gen_simple(GenSpec(d=d, r=d - 1, seed=seed))
            assert verify_certificate(result.instance, result.certificate).ok, (d, seed)

    def test_different_seed_usually_differs(self):
        one = gen_simple(GenSpec(d=2, r=1, seed=78))
        two = gen_simple(GenSpec(d=2, r=1, seed=79))
        assert instance_to_json(one.instance) != instance_to_json(two.instance)


class TestExactSearch:
    def test_finds_exact_instance_at_degree_one(self):
        result = gen_exact_search(GenSpec(d=1, r=0, strategy="exact-search", seed=3))
        assert result.found
        assert exactness(result.instance).exact
        assert result.codim_sum >= 1

    def test_postcondition_replay(self):
        result = gen_exact_search(GenSpec(d=2, r=1, strategy="exact-search", seed=5))
        assert result.found
        assert validate(result.instance).ok
        assert exactness(result.instance).exact

    def test_budget_exhaustion_reports_not_found(self):
        result = gen_exact_search(GenSpec(d=3, r=1, strategy="exact-search",
                                          seed=5, budget=1))
        if not result.found:
            assert "NotFound" in result.note

    @pytest.mark.parametrize("d", range(4))
    def test_exact_finds_at_low_degree_are_simple(self, d):
        """No node at d <= 3 can fail distributivity, so every exact series
        found there is simple: codim sum r+1, distributive everywhere, and
        a certificate constructed."""
        for r in range(d + 1):
            for seed in range(4):
                result = gen_exact_search(GenSpec(d=d, r=r, strategy="exact-search", seed=seed))
                assert result.found, (r, seed, result.note)
                report = codim_report(result.instance)
                assert report.codim_sum == r + 1 and report.all_distributive, (r, seed)
                assert is_simple(result.instance).simple, (r, seed)

    def test_strategy_guard(self):
        with pytest.raises(ValueError):
            gen_exact_search(GenSpec(d=1, r=0, seed=1))
        with pytest.raises(ValueError):
            gen_simple(GenSpec(d=1, r=0, strategy="exact-search", seed=1))


class TestSearchTable:
    """One analysis table serves an exact search from its first probe to its
    found instance, which keeps it."""

    @pytest.fixture(scope="class")
    def searches(self):
        """Per search: its result, the directed edges whose exactness entry
        the table held when the postcondition asked for the grid report, and
        the report it got."""
        real, calls, out = lls_core.codim_report, [], []

        def postcondition(inst):
            tabled = {e for e in directed_edges(inst.d)
                      if ("exactness_at", e, inst.space(e.source), inst.space(e.target))
                      in inst.table}
            calls.append((tabled, real(inst)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lls_core, "codim_report", postcondition)
            for d, r in ((4, 2), (5, 1)):
                for seed in range(3):
                    result = gen_exact_search(GenSpec(d=d, r=r, strategy="exact-search",
                                                      seed=seed))
                    [(tabled, report)] = calls
                    out.append((result, tabled, report))
                    calls.clear()
        return out

    def test_probes_tabled_every_edge_before_the_report(self, searches):
        for result, tabled, _ in searches:
            assert result.found
            assert tabled == set(directed_edges(result.instance.d))

    def test_found_instance_keeps_the_postcondition_report(self, searches):
        for result, _, report in searches:
            assert codim_report(result.instance) is report
            assert report.exact and result.codim_sum == report.codim_sum


@pytest.fixture(scope="module")
def base():
    return gen_simple(GenSpec(d=3, r=1, seed=81)).instance


class TestDegrade:

    def test_shrink_v_fails_dimension_only(self, base):
        result = degrade(base, "shrink-V", seed=1)
        report = validate(result.instance, ambient_laws=False)
        assert not report.ok
        assert {v.kind for v in report.violations} >= {"dimension"}
        assert result.at.location in {v.location for v in report.violations
                                   if v.kind == "dimension"}

    def test_break_linking_names_the_edge(self, base):
        result = degrade(base, "break-linking", seed=2)
        report = validate(result.instance, ambient_laws=False)
        linking = [v for v in report.violations if v.kind == "linking"]
        assert linking
        assert result.at.location in {v.location for v in linking}
        assert not [v for v in report.violations if v.kind == "dimension"]

    def test_break_exactness_keeps_validity(self, base):
        result = degrade(base, "break-exactness", seed=3)
        assert validate(result.instance, ambient_laws=False).ok
        report = exactness(result.instance)
        assert not report.exact
        failing = {f"{e.source}->{e.target}" for e in report.failing_edges()}
        assert result.at.location in failing

    def test_unknown_mode(self, base):
        with pytest.raises(ValueError):
            degrade(base, "break-everything")

    def test_modes_cover_spec(self):
        assert set(DEGRADE_MODES) == {"break-linking", "break-exactness", "shrink-V"}
