import gc
import json
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from llschain import lls_core

from llschain.chain_model import ChainCurve, canonical_matrix as chain_canonical, skeleton
from llschain.exactla import Matrix, Subspace, kernel, vec_matmul
from llschain.lattice import Direction, Multidegree, all_multidegrees, canonical_path
from llschain.lls_core import (
    InstanceFormatError,
    LlsInstance,
    canonical_matrix,
    codim_report,
    distributive_at,
    exactness,
    from_chain,
    identity_suite,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    validate,
    vanishing_in_v,
)
from llschain.generator import DEGRADE_MODES, GenSpec, degrade, gen_exact_search, gen_simple
from llschain.simple_basis import is_simple

from conftest import one_node_instance, rational_matrix, rescaled
from oracles import sympy_intersection, sympy_rowspace
from test_golden import GOLDEN_INDICES, strict_instances


def md(i, j, l):
    return Multidegree(i, j, l)


class TestWorkedInstance:
    def test_validates(self, worked_instance):
        assert validate(worked_instance).ok

    def test_codims(self, worked_instance):
        report = codim_report(worked_instance)
        assert [c.codim for c in report.cells] == [1, 0, 0]
        assert report.codim_sum == 1 == report.r + 1
        assert report.exact and report.all_distributive
        assert report.simple_by_criterion

    def test_exact_on_every_edge(self, worked_instance):
        report = exactness(worked_instance)
        assert report.exact
        assert len(report.edges) == 4  # two adjacent pairs, both ways

    def test_vanishing_matches_kernels_on_every_edge(self, worked_instance):
        inst = worked_instance
        for node in inst.multidegrees:
            for q in (1, 2, 3):
                there = node.step(Direction[f"TOWARD_X{q}"])
                if there is None:
                    continue
                others = tuple(p for p in (1, 2, 3) if p != q)
                restricted_kernel = inst.space(node) & kernel(inst.maps[(node, there)])
                assert vanishing_in_v(inst, node, others) == restricted_kernel

    def test_identity_suite_worked_values(self, worked_instance):
        report = identity_suite(worked_instance)
        assert report.ok
        horizontal = [c for c in report.checks if c.identity == "dim-gap-horizontal"]
        assert len(horizontal) == 1
        assert horizontal[0].status == "pass"
        assert horizontal[0].detail == "1 == 1"

    def test_column_telescoping_sums_to_rank(self, worked_instance):
        inst = worked_instance
        total = 0
        for l in range(inst.d + 1):
            node = md(0, inst.d - l, l)
            pair = vanishing_in_v(inst, node, (2,)) + vanishing_in_v(inst, node, (3,))
            total += inst.r + 1 - pair.dim
        assert total == inst.r + 1


class TestValidationNegatives:
    def test_missing_space_reports_dimension(self, worked_instance):
        inst = worked_instance
        spaces = dict(inst.spaces)
        del spaces[md(0, 0, 1)]
        broken = LlsInstance(inst.d, inst.r, inst.ambient_dim, inst.maps,
                             inst.vanishing, spaces)
        report = validate(broken)
        assert not report.ok
        assert any(v.kind == "dimension" for v in report.violations)

    def test_unlinked_space_reports_edge(self, worked_instance):
        inst = worked_instance
        spaces = dict(inst.spaces)
        spaces[md(0, 1, 0)] = Subspace.span([(1, 0)], 2)  # not the pushed line
        broken = LlsInstance(inst.d, inst.r, inst.ambient_dim, inst.maps,
                             inst.vanishing, spaces)
        report = validate(broken)
        linking = [v for v in report.violations if v.kind == "linking"]
        assert linking
        locations = {v.location for v in linking}
        assert any("(i=1, j=0, l=0)" in loc and "(i=0, j=1, l=0)" in loc
                   for loc in locations)
        assert all(v.witness is not None for v in linking)

    def test_wrong_ambient_target_is_reported_not_raised(self, worked_instance):
        """An edge into a space of the wrong ambient is skipped, as one out
        of such a space is: the node's dimension violation names it."""
        inst, node = worked_instance, md(0, 1, 0)
        wrong = Subspace.full(inst.ambient_dim[node] + 1)
        report = validate(inst.derive({**inst.spaces, node: wrong}), ambient_laws=False)
        assert [(v.kind, v.at) for v in report.violations] == [("dimension", node)]

    def test_degree_zero_instance(self):
        chain = ChainCurve(0)
        node = md(0, 0, 0)
        inst = from_chain(chain, 0, {node: Subspace.full(1)})
        assert validate(inst).ok
        report = exactness(inst)
        assert report.exact and report.edges == ()
        grid = codim_report(inst)
        assert grid.codim_sum == 1 and grid.simple_by_criterion


class TestDistributivity:
    def test_trivial_when_two_vanishing_spaces_are_zero(self, worked_instance):
        assert distributive_at(worked_instance, md(1, 0, 0))

    def test_boundary_always_distributive(self, corpus):
        for result in corpus[:20]:
            inst = result.instance
            for i in range(inst.d + 1):
                assert distributive_at(inst, md(i, 0, inst.d - i))

    def test_boundary_vanishing_containments(self, corpus):
        for result in corpus[:20]:
            inst = result.instance
            for i in range(inst.d + 1):
                node = md(i, 0, inst.d - i)
                v2 = vanishing_in_v(inst, node, (2,))
                assert vanishing_in_v(inst, node, (1,)) <= v2
                assert vanishing_in_v(inst, node, (3,)) <= v2
            top_right = md(0, inst.d, 0)
            assert vanishing_in_v(inst, top_right, (2,)).dim == 0


def _meet_inside_third(d: int, node: Multidegree) -> bool:
    """Whether some ``Van_a ∩ Van_b`` of the ambient vanishing spaces at the
    node lies inside the third, ``Van_c``.  Then every chosen space is
    distributive there: for ``x = y + z`` in ``V_a`` with ``y ∈ V_b`` and
    ``z ∈ V_c``, ``x`` lies in ``Van_a ∩ (Van_b + Van_c)``, which ambient
    distributivity makes ``Van_a ∩ Van_c``, so ``x ∈ V_a ∩ V_c``."""
    van = skeleton(ChainCurve(d)).vanishing[node]
    return any((van[a] & van[b]) <= van[6 - a - b] for a, b in ((1, 2), (1, 3), (2, 3)))


class TestDistributivityCondition:
    # Nodes where every pairwise ambient meet is strictly larger than the
    # triple meet: the only places a chosen space can fail distributivity.
    OPEN_NODES = {1: [], 2: [], 3: [], 4: [md(1, 2, 1)],
                  5: [md(2, 2, 1), md(1, 3, 1), md(1, 2, 2)]}

    def test_open_nodes(self):
        for d, nodes in self.OPEN_NODES.items():
            assert [n for n in all_multidegrees(d) if not _meet_inside_third(d, n)] == nodes

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_distributive_where_a_meet_lies_in_the_third(self, data):
        d = data.draw(st.integers(1, 5))
        node = data.draw(st.sampled_from(
            [n for n in all_multidegrees(d) if _meet_inside_third(d, n)]))
        van = skeleton(ChainCurve(d)).vanishing[node]
        # Each spanning vector is the sum of two vectors drawn from the
        # vanishing spaces, their pairwise meets or the whole space, so V
        # meets the vanishing spaces often and in several ways.
        pools = [van[1], van[2], van[3], van[1] & van[2], van[1] & van[3],
                 van[2] & van[3], Subspace.full(d + 1)]

        def draw_from(pool: Subspace):
            coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=pool.dim,
                                        max_size=pool.dim))
            return vec_matmul(coeffs, pool.basis) if pool.dim else (0,) * (d + 1)

        vectors = [tuple(x + y for x, y in zip(draw_from(a), draw_from(b)))
                   for a, b in data.draw(st.lists(st.tuples(st.sampled_from(pools),
                                                            st.sampled_from(pools)),
                                                  min_size=1, max_size=d + 1))]
        base = from_chain(ChainCurve(d), 0, {})
        inst = base.derive({node: Subspace.span(vectors, d + 1)})
        assert distributive_at(inst, node)


@st.composite
def three_subspaces(draw):
    """An ambient dimension ``n <= 5`` and three lists of integer rows in Q^n."""
    n = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return (n, *(draw(st.lists(vector, max_size=n)) for _ in range(3)))


class TestDistributivityByDimension:
    """On one node whose vanishing spaces are ``A, B, C`` and whose chosen
    space is the whole of Q^n, the node's counts match sympy: all three
    permuted distributive laws, the defect, ``meet_sum_dim(a)`` and the sums."""

    @settings(max_examples=150, deadline=None)
    @given(three_subspaces())
    @example((3, [[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]))  # three lines of a plane
    @example((3, [[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]))  # independent lines
    def test_counts_match_the_oracle(self, spaces):
        n, *rows = spaces
        inst = one_node_instance(*(Subspace.span(r, n) for r in rows))
        node = md(0, 0, 0)
        v = dict(zip((1, 2, 3), (sympy_rowspace(r, n) for r in rows)))

        def plus(*parts):
            return sympy_rowspace([row for part in parts for row in part], n)

        def meet(x, y):
            return sympy_intersection(x, y, n)

        verdicts, gaps = set(), set()
        for a in (1, 2, 3):
            b, c = (q for q in (1, 2, 3) if q != a)
            spread = meet(v[a], plus(v[b], v[c]))
            meets = plus(meet(v[a], v[b]), meet(v[a], v[c]))
            verdicts.add(spread == meets)
            gaps.add(len(spread) - len(meets))
            assert lls_core._node(inst, node).meet_sum_dim(a) == len(meets)
        assert len(verdicts) == len(gaps) == 1
        assert distributive_at(inst, node) == verdicts.pop()
        assert lls_core._node(inst, node).defect() == gaps.pop()
        cell, = codim_report(inst).cells
        assert cell.dim_pairwise == tuple(len(plus(v[b], v[c]))
                                          for b, c in ((1, 2), (1, 3), (2, 3)))
        assert cell.dim_triple == len(plus(v[1], v[2], v[3]))


def _excess_and_defects(inst):
    """``codim_sum - (r+1)`` and the sum of the node defects."""
    report = codim_report(inst)
    assert report.exact
    return (report.codim_sum - (inst.r + 1),
            sum(lls_core._node(inst, node).defect() for node in inst.multidegrees))


class TestCodimExcessIdentity:
    """``codim_sum - (r+1) == Σ_md defect(md)`` on exact series over the
    chain backend.  This is evidence, not a derivation: the identity is
    checked on the instances below, not proved.  Every generated series
    here is distributive, so both sides are 0; the chain's non-distributive
    exact series come only from a pinned search, which the generators do
    not have yet.  The two hand-made strict fixtures are exact and not
    distributive, but their ambient data is not a chain's, and the identity
    fails on them, so it needs more than exactness."""

    @pytest.mark.parametrize("generate, strategy", [(gen_simple, "from-sections"),
                                                    (gen_exact_search, "exact-search")])
    def test_holds_on_generated_exact_series(self, generate, strategy):
        checked = 0
        for d in range(6):
            for r in range(min(d, 2) + 1):
                for seed in range(4):
                    inst = generate(GenSpec(d=d, r=r, strategy=strategy, seed=seed)).instance
                    if inst is not None and exactness(inst).exact:
                        excess, defects = _excess_and_defects(inst)
                        assert excess == defects, (d, r, seed)
                        self.check_steps(inst)
                        checked += 1
        assert checked == 60

    @staticmethod
    def check_steps(inst):
        """The identity in three steps, with ``P = r+1 - dim(V_2 + V_3)``:
        (a) on each toward-X1 edge ``s -> t``, ``codim(t) - defect(t) =
        P(t) - P(s)``, so each row telescopes; (b) at each ``j = 0`` node,
        ``codim - defect = P``, so the row's start term cancels; (c) the
        ``i = 0`` column adds up to ``Σ_l P(0, d-l, l) = r+1``."""
        nodes = {md: lls_core._node(inst, md) for md in inst.multidegrees}
        p = {md: inst.r + 1 - node.pair_sum_dim((2, 3)) for md, node in nodes.items()}
        rest = {cell.multidegree: cell.codim - nodes[cell.multidegree].defect()
                for cell in codim_report(inst).cells}
        for md in inst.multidegrees:
            target = md.step(Direction.TOWARD_X1)
            if target is not None:
                assert rest[target] == p[target] - p[md], ("a", md, target)
            if md.j == 0:
                assert rest[md] == p[md], ("b", md)
        assert sum(p[Multidegree(0, inst.d - l, l)] for l in range(inst.d + 1)) == inst.r + 1

    def test_fails_on_the_hand_made_strict_fixtures(self):
        # Both have one node of defect 1, but a codim sum below r+1.
        found = {label: _excess_and_defects(inst)
                 for label, inst in strict_instances().items()}
        assert found == {"abstract-nondistributive": (-2, 1), "one-node-lines": (-2, 1)}


class TestIdentityHypotheses:
    def test_skipped_when_edge_not_exact(self):
        result = gen_simple(GenSpec(d=2, r=1, seed=5))
        broken = degrade(result.instance, "break-exactness", seed=9).instance
        report = identity_suite(broken)
        assert report.ok  # failures are impossible, only skips
        assert report.by_status("hypothesis-not-met")

    def test_all_applicable_on_exact_corpus_instance(self):
        result = gen_simple(GenSpec(d=3, r=1, seed=8))
        report = identity_suite(result.instance)
        assert report.ok
        assert not report.by_status("hypothesis-not-met")


class TestSerialization:
    def test_round_trip_and_byte_stability(self, worked_instance, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(path, worked_instance)
        loaded = load_instance(path)
        assert loaded.d == worked_instance.d and loaded.r == worked_instance.r
        assert loaded.spaces == dict(worked_instance.spaces)
        assert loaded.maps == dict(worked_instance.maps)
        second = tmp_path / "again.json"
        save_instance(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    def test_rationals_serialize_canonically(self, worked_instance):
        data = instance_to_json(worked_instance)
        text = json.dumps(data)
        assert "0.5" not in text  # no decimals anywhere
        inst = instance_from_json(data)
        assert validate(inst).ok

    def test_format_errors_carry_field_paths(self, worked_instance):
        data = instance_to_json(worked_instance)
        data["maps"][0]["matrix"][0][0] = "1/0"
        with pytest.raises(InstanceFormatError) as err:
            instance_from_json(data)
        assert "maps[0].matrix" in str(err.value)

        data2 = instance_to_json(worked_instance)
        del data2["ambient_dim"]["0,1"]
        with pytest.raises(InstanceFormatError) as err2:
            instance_from_json(data2)
        assert "ambient_dim" in str(err2.value)

    def test_empty_v_loads_and_fails_validation(self, worked_instance):
        data = instance_to_json(worked_instance)
        data["V"] = {}
        inst = instance_from_json(data)
        report = validate(inst)
        assert not report.ok
        assert all(v.kind == "dimension" for v in report.violations)


class TestRowReader:
    """A row of memoised integer literals is read whole; any other row
    falls back to the per-entry reader, with the same values and paths."""

    ROWS = [["0", "1", "-1"], ["+1", "01", " 2"], ["1/1", "-0", "4/2"],
            ["1/2", "3", "-5/3"], ["7", "-12", "100000000000000000000"]]

    def test_rows_read_the_same_before_and_after_the_memo_fills(self):
        expected = rational_matrix([[Fraction(t) for t in row] for row in self.ROWS])
        for _ in range(2):
            assert lls_core._parse_rows(self.ROWS, "m") == expected

    @pytest.mark.parametrize("entry", [1, True, None, [], {}])
    def test_bad_entries_keep_their_field_paths(self, entry):
        lls_core._parse_rows([["1", "0", "2"]], "m")
        with pytest.raises(InstanceFormatError, match=re.escape("m[1][1]: matrix entries")):
            lls_core._parse_rows([["1", "0", "2"], ["1", entry, "2"]], "m")


class TestCanonicalMatrices:
    def test_matches_chain_level_computation(self, worked_instance):
        chain = ChainCurve(1)
        grid = all_multidegrees(1)
        for a in grid:
            for b in grid:
                assert canonical_matrix(worked_instance, a, b) == \
                    chain_canonical(chain, a, b)

    def test_identity_on_equal_endpoints(self, worked_instance):
        node = md(1, 0, 0)
        assert canonical_matrix(worked_instance, node, node) == Matrix.identity(2)

    @pytest.mark.parametrize("index", GOLDEN_INDICES)
    def test_composites_equal_step_by_step_products(self, corpus, index):
        """Both walk composites (the instance's, built from the tabled
        prefix, and the chain's) equal the product along every edge of the
        canonical walk.  Longest walks are asked first, on an empty table,
        so the prefixes are filled by the recursion."""
        inst = corpus[index].instance
        fresh = LlsInstance(inst.d, inst.r, inst.ambient_dim, inst.maps,
                            inst.vanishing, inst.spaces)
        chain = ChainCurve(inst.d)
        grid = all_multidegrees(inst.d)
        pairs = sorted(((a, b) for a in grid for b in grid),
                       key=lambda p: -len(canonical_path(*p)))
        for a, b in pairs:
            expected = Matrix.identity(inst.ambient_dim[a])
            nodes = canonical_path(a, b)
            for edge in zip(nodes, nodes[1:]):
                expected = expected @ inst.maps[edge]
            assert canonical_matrix(fresh, a, b) == expected
            assert chain_canonical(chain, a, b) == expected


    def test_chain_instances_share_one_walk_cache(self):
        """Instances over equal chains, and instances derived from them,
        read one composite object from the chain's cache and table none."""
        a = from_chain(ChainCurve(3), 1, {})
        b = from_chain(ChainCurve(3), 1, {})
        start, end = md(3, 0, 0), md(0, 0, 3)
        walk = canonical_matrix(a, start, end)
        assert canonical_matrix(b, start, end) is walk
        assert canonical_matrix(a.derive({}), start, end) is walk
        assert chain_canonical(ChainCurve(3), start, end) is walk
        assert not any(key[0] == "_walk" for key in a.table)

    def test_loaded_and_hand_built_instances_table_their_own(self, worked_instance,
                                                             tmp_path):
        path = tmp_path / "instance.json"
        save_instance(path, worked_instance)
        inst = worked_instance
        built = LlsInstance(inst.d, inst.r, inst.ambient_dim, inst.maps,
                            inst.vanishing, inst.spaces)
        start, end = md(1, 0, 0), md(0, 0, 1)
        for other in (load_instance(path), built):
            walk = canonical_matrix(other, start, end)
            assert other.chain is None and ("_walk", start, end) in other.table
            assert canonical_matrix(other, start, end) is walk
            assert walk == canonical_matrix(inst, start, end)
            assert walk is not canonical_matrix(inst, start, end)


class TestScaledBackendInvariance:
    def test_verdicts_survive_rescaled_trivialisation(self):
        result = gen_simple(GenSpec(d=2, r=1, seed=21))
        plain = codim_report(result.instance)
        scaled = rescaled(result.instance, (2, 3, 5))
        # The same spaces need not be linked for the scaled maps in general,
        # but scalar multiples have identical images, so they are.
        assert validate(scaled).ok
        report = codim_report(scaled)
        assert [c.codim for c in report.cells] == [c.codim for c in plain.cells]
        assert report.exact == plain.exact
        assert report.all_distributive == plain.all_distributive
        assert report.simple_by_criterion == plain.simple_by_criterion


class TestAnalysisTable:
    REPORTS = {
        "validate": validate,
        "exactness": exactness,
        "codim_report": codim_report,
        "identity_suite": identity_suite,
        "is_simple": is_simple,
    }

    @pytest.mark.parametrize("variant", ["simple", "shrink-V"])
    def test_report_order_does_not_change_bytes(self, corpus, tmp_path, variant):
        inst = corpus[10].instance  # d=4, r=2
        if variant != "simple":
            inst = degrade(inst, variant, seed=0).instance
        path = tmp_path / "instance.json"
        save_instance(path, inst)
        outputs = []
        for order in (list(self.REPORTS), list(self.REPORTS)[::-1]):
            fresh = load_instance(path)
            outputs.append({name: json.dumps(self.REPORTS[name](fresh).to_json(), sort_keys=True)
                            for name in order})
        assert outputs[0] == outputs[1]

    def test_second_identity_suite_intersects_nothing(self, monkeypatch):
        inst = gen_simple(GenSpec(d=4, r=2, seed=1)).instance
        first = json.dumps(identity_suite(inst).to_json(), sort_keys=True)
        calls = []
        real_and = Subspace.__and__

        def counted_and(space, other):
            calls.append(1)
            return real_and(space, other)

        monkeypatch.setattr(Subspace, "__and__", counted_and)
        assert json.dumps(identity_suite(inst).to_json(), sort_keys=True) == first
        assert not calls

    def test_identity_suite_after_grid_report_intersects_nothing(self, monkeypatch):
        """The grid report tables every meet the identities read, and the
        pushed-complement check decides with one sum and dimension counts."""
        inst = gen_simple(GenSpec(d=8, r=3, seed=1)).instance
        codim_report(inst)
        calls = []
        real_and = Subspace.__and__

        def counted_and(space, other):
            calls.append(1)
            return real_and(space, other)

        monkeypatch.setattr(Subspace, "__and__", counted_and)
        report = identity_suite(inst)
        assert report.ok and report.by_status("pass")
        assert not calls

    @staticmethod
    def count_space_work(monkeypatch) -> list:
        """Count every ``&``, ``+`` and ``apply`` from here on."""
        calls = []
        for name in ("__and__", "__add__", "apply"):
            real = getattr(Subspace, name)

            def counted(space, other, real=real, name=name):
                calls.append(name)
                return real(space, other)
            monkeypatch.setattr(Subspace, name, counted)
        return calls

    @pytest.mark.parametrize("report", [codim_report, exactness])
    def test_second_report_is_one_table_read(self, monkeypatch, report):
        inst = gen_simple(GenSpec(d=4, r=2, seed=1)).instance
        first = report(inst)
        calls = self.count_space_work(monkeypatch)
        assert report(inst) is first
        assert not calls

    def test_search_result_reads_its_postcondition_report(self, monkeypatch):
        found = gen_exact_search(GenSpec(d=4, r=2, strategy="exact-search", seed=3))
        calls = self.count_space_work(monkeypatch)
        report = codim_report(found.instance)
        assert report is codim_report(found.instance)
        assert report.exact and report.codim_sum == found.codim_sum
        assert not calls

    @pytest.mark.parametrize("report", [codim_report, exactness])
    def test_reports_name_a_missing_node(self, corpus, report):
        inst = corpus[7].instance
        node = inst.multidegrees[3]
        gap = inst.derive({md: s for md, s in inst.spaces.items() if md != node})
        with pytest.raises(KeyError, match=re.escape(str(node))):
            report(gap)

    @staticmethod
    def node_records(inst) -> dict:
        """The node records of the instance's table, by multidegree."""
        return {key[1]: value for key, value in inst.table.items()
                if isinstance(value, lls_core._Node)}

    def test_entries_are_kept_and_filled_lazily(self, corpus):
        inst = corpus[10].instance
        fresh = LlsInstance(inst.d, inst.r, inst.ambient_dim, inst.maps,
                            inst.vanishing, inst.spaces)
        assert validate(fresh, ambient_laws=False).ok
        exactness(fresh)
        records = self.node_records(fresh)
        assert records
        assert all(rec.triple is None and rec.cell is None for rec in records.values())
        codim_report(fresh)
        filled = self.node_records(fresh)
        assert set(filled) == set(fresh.multidegrees)
        assert all(filled[node] is rec for node, rec in records.items())
        assert all(rec.triple is not None and rec.cell is not None for rec in filled.values())
        first = exactness(fresh).edges
        assert all(a is b for a, b in zip(first, exactness(fresh).edges))
        assert canonical_matrix(fresh, md(4, 0, 0), md(0, 0, 4)) is \
            canonical_matrix(fresh, md(4, 0, 0), md(0, 0, 4))

    def test_component_sets_are_shared_key_tuples(self):
        """Every meet is keyed by one of seven shared tuples, however the
        components were asked for."""
        inst = gen_simple(GenSpec(d=3, r=1, seed=2)).instance
        first, last = inst.multidegrees[0], inst.multidegrees[-1]
        vanishing_in_v(inst, first, [3, 2])
        vanishing_in_v(inst, last, {2, 3})
        lls_core._node(inst, inst.multidegrees[1]).pair_sum_dim((1, 3))
        codim_report(inst)
        identity_suite(inst)
        records = self.node_records(inst)
        keys = [comps for rec in records.values() for comps in rec.meets]
        shared = {}
        assert all(shared.setdefault(key, key) is key for key in keys)
        assert set(shared) == {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}
        at_first, at_last = (next(key for key in records[node].meets if key == (2, 3))
                             for node in (first, last))
        assert at_first is at_last
        for bad in ((), (4,), (1, 4)):
            with pytest.raises(ValueError):
                vanishing_in_v(inst, first, bad)


class TestSharedTable:
    """Instances built by ``derive`` share the parent's table; every report
    must read as if the instance had been built fresh."""

    REPORTS = TestAnalysisTable.REPORTS

    @staticmethod
    def rebuilt(inst):
        return LlsInstance(inst.d, inst.r, inst.ambient_dim, inst.maps,
                           inst.vanishing, dict(inst.spaces))

    def report_json(self, inst):
        return {name: json.dumps(report(inst).to_json(), sort_keys=True)
                for name, report in self.REPORTS.items()}

    @staticmethod
    def probe(parent):
        """A search-style probe: one node takes another node's space."""
        grid = parent.multidegrees
        return parent.derive({**parent.spaces, grid[1]: parent.space(grid[-1])})

    @pytest.mark.parametrize("fill", ["before", "after"])
    @pytest.mark.parametrize("variant", [*DEGRADE_MODES, "probe"])
    def test_derived_reports_match_fresh_instances(self, corpus, variant, fill):
        parent = self.rebuilt(corpus[7].instance)  # d=3, r=2
        if fill == "before":
            self.report_json(parent)
        if variant == "probe":
            derived = self.probe(parent)
        else:
            derived = degrade(parent, variant, seed=0).instance
        assert derived.table is parent.table
        if fill == "after":
            self.report_json(parent)
        assert self.report_json(derived) == self.report_json(self.rebuilt(derived))

    def test_partial_probe_matches_fresh_instance(self, corpus):
        parent = self.rebuilt(corpus[7].instance)
        exactness(parent)
        grid = parent.multidegrees
        half = {md: parent.space(md) for md in grid[:len(grid) // 2]}
        probe = parent.derive({**half, grid[0]: parent.space(grid[-1])})
        fresh = self.rebuilt(probe)
        edges = [e for e in lls_core.directed_edges(parent.d)
                 if e.source in half and e.target in half]
        assert edges
        for edge in edges:
            assert (lls_core.exactness_at(probe, edge).to_json()
                    == lls_core.exactness_at(fresh, edge).to_json())

    def test_derived_instance_shares_unchanged_node_records(self, corpus):
        parent = self.rebuilt(corpus[10].instance)  # d=4, r=2
        codim_report(parent)
        node = md(2, 1, 1)
        replacement = parent.space(md(4, 0, 0))
        derived = parent.derive({**parent.spaces, node: replacement})
        codim_report(derived)
        for other in parent.multidegrees:
            record = lls_core._node(derived, other)
            assert (record is lls_core._node(parent, other)) == (other != node)
            assert record.space is derived.space(other)

    def test_derive_recomputes_only_entries_reading_the_changed_node(
            self, corpus, monkeypatch):
        parent = self.rebuilt(corpus[10].instance)  # d=4, r=2
        reports = (validate, exactness, codim_report)
        for report in reports:
            report(parent)
        node = md(2, 1, 1)
        replacement = parent.space(md(4, 0, 0))
        assert replacement != parent.space(node)
        derived = parent.derive({**parent.spaces, node: replacement})
        before = set(parent.table)

        calls = {"apply": 0, "and": 0}
        real_apply, real_and = Subspace.apply, Subspace.__and__

        def counted_apply(space, matrix):
            calls["apply"] += 1
            return real_apply(space, matrix)

        def counted_and(space, other):
            calls["and"] += 1
            return real_and(space, other)

        monkeypatch.setattr(Subspace, "apply", counted_apply)
        monkeypatch.setattr(Subspace, "__and__", counted_and)
        for report in reports:
            report(derived)
        new_keys = set(parent.table) - before
        assert new_keys and all(replacement in key for key in new_keys)
        # One push per edge leaving the node; at the node, three single
        # meets, three pair meets and one triple meet.
        out_edges = [e for e in lls_core.directed_edges(parent.d) if e.source == node]
        assert calls == {"apply": len(out_edges), "and": 7}
        assert sum(key[0] == "pushed_image" for key in new_keys) == len(out_edges)


class TestAmbientLawReuse:
    def test_reloads_pin_one_map_table(self, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(path, gen_simple(GenSpec(d=3, r=1, seed=3)).instance)
        held = []
        for _ in range(5):
            loaded = load_instance(path)
            assert validate(loaded).ok
            held.append(weakref.ref(next(iter(loaded.maps.values()))))
            del loaded
        gc.collect()
        assert sum(ref() is not None for ref in held) <= 1

    def test_reloads_do_not_rerun_the_laws(self, tmp_path, monkeypatch):
        path = tmp_path / "instance.json"
        save_instance(path, gen_simple(GenSpec(d=3, r=1, seed=3)).instance)
        calls = []
        real = lls_core.verify_sheaf_laws
        monkeypatch.setattr(lls_core, "verify_sheaf_laws",
                            lambda skel: calls.append(1) or real(skel))
        for _ in range(5):
            assert validate(load_instance(path)).ok
        assert len(calls) <= 1
