from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from llschain.chain_model import ChainCurve, canonical_matrix as chain_canonical
from llschain.exactla import Subspace, vec_matmul
from llschain.lattice import Direction, Multidegree, all_multidegrees
from llschain.lls_core import LlsInstance, canonical_matrix, from_chain, validate
from llschain.generator import GenSpec, degrade, gen_simple
from llschain.simple_basis import (
    CertificateError,
    ConstructionError,
    DistributivityRequired,
    ExactnessRequired,
    SimpleCertificate,
    certificate_from_json,
    certificate_to_json,
    extract_certificate,
    is_simple,
    load_certificate,
    push_along_walks,
    save_certificate,
    verify_certificate,
)

import complements
from complements import (
    build_complement_system,
    certificate_complement_systems,
    certificate_push_candidates,
    growth_report,
    structure_report,
)
from conftest import abstract_nondistributive_instance, rational_matrix, rescaled


def md(i, j, l):
    return Multidegree(i, j, l)


ONE = Fraction(1)


class TestWorkedComplementSystems:
    def test_component_one_bases(self, worked_instance):
        system = build_complement_system(worked_instance, 1)
        assert system.basis[md(1, 0, 0)] == [(ONE, Fraction(0))]
        assert system.basis[md(0, 1, 0)] == []
        assert system.basis[md(0, 0, 1)] == []

    def test_component_two_full_basis_at_top_right(self, worked_instance):
        system = build_complement_system(worked_instance, 2)
        node = md(0, 1, 0)
        assert system.span(node) == worked_instance.space(node)

    def test_complement_property_everywhere(self, worked_instance):
        from llschain.lls_core import vanishing_in_v
        for q in (1, 2, 3):
            system = build_complement_system(worked_instance, q)
            for node in worked_instance.multidegrees:
                span = system.span(node)
                van = vanishing_in_v(worked_instance, node, (q,))
                assert (span & van).dim == 0
                assert (span + van) == worked_instance.space(node)

    def test_structure_identities(self, worked_instance):
        systems = tuple(build_complement_system(worked_instance, q) for q in (1, 2, 3))
        report = structure_report(worked_instance, systems)
        assert report.ok
        items = {c.item for c in report.checks}
        assert items == {"corner-top-left", "right-column", "corner-bottom-right"}

    def test_degree_zero_single_complement(self):
        from llschain.chain_model import ChainCurve
        from llschain.lls_core import from_chain
        inst = from_chain(ChainCurve(0), 0, {md(0, 0, 0): Subspace.full(1)})
        for q in (1, 2, 3):
            system = build_complement_system(inst, q)
            assert system.basis[md(0, 0, 0)] == [(ONE,)]


class TestCertificates:
    def test_worked_extraction(self, worked_instance):
        cert = extract_certificate(worked_instance)
        assert cert.support == (md(1, 0, 0),)
        assert cert.sections[md(1, 0, 0)].row_list() == [(ONE, Fraction(0))]
        assert verify_certificate(worked_instance, cert).ok

    def test_worked_certificate_by_explicit_rank_checks(self, worked_instance):
        inst = worked_instance
        cert = extract_certificate(inst)
        section = cert.sections[md(1, 0, 0)].row_list()[0]
        for node in inst.multidegrees:
            push = vec_matmul(section, canonical_matrix(inst, md(1, 0, 0), node))
            stacked = rational_matrix([push])
            from llschain.exactla import rref
            assert rref(stacked)[2] == 1
            assert push in inst.space(node)

    def test_zeroed_section_fails_with_first_multidegree(self, worked_instance):
        cert = SimpleCertificate((md(1, 0, 0),),
                                 {md(1, 0, 0): rational_matrix([(Fraction(0), Fraction(0))])})
        check = verify_certificate(worked_instance, cert)
        assert not check.ok
        assert check.failing_multidegree == md(1, 0, 0)

    def test_section_outside_space_raises(self, worked_instance):
        cert = SimpleCertificate((md(0, 1, 0),),
                                 {md(0, 1, 0): rational_matrix([(ONE, Fraction(0))])})
        with pytest.raises(CertificateError):
            verify_certificate(worked_instance, cert)

    def test_wrong_section_count_is_a_verdict(self, worked_instance):
        node = md(1, 0, 0)
        space = worked_instance.space(node)
        cert = SimpleCertificate((node,),
                                 {node: rational_matrix([*space.basis.row_list(), (ONE, ONE)])})
        with pytest.raises(CertificateError):
            # (1, 1) is outside the one-dimensional chosen space
            verify_certificate(worked_instance, cert)

    @staticmethod
    def shared_node_certificate():
        """The first seeded simple series at d = 4, r = 2 whose certificate
        has two sections at one support node, and that node."""
        for seed in range(40):
            result = gen_simple(GenSpec(d=4, r=2, seed=seed))
            node = next((n for n in result.certificate.support
                         if result.certificate.sections[n].rows >= 2), None)
            if node is not None:
                return result.instance, result.certificate, node
        raise AssertionError("no certificate with two sections at one node")

    def test_dependent_sections_fail_at_the_first_node(self):
        inst, cert, node = self.shared_node_certificate()
        first, _, *rest = cert.sections[node].row_list()
        sections = {**cert.sections,
                    node: rational_matrix([first, tuple(2 * e for e in first), *rest])}
        check = verify_certificate(inst, SimpleCertificate(cert.support, sections))
        assert not check.ok
        assert check.failing_multidegree == inst.multidegrees[0]
        assert check.message == "pushed sections do not span"

    def test_pushes_leaving_a_changed_space_fail_there(self):
        inst, cert, _ = self.shared_node_certificate()
        target = next(n for n in inst.multidegrees[1:] if n not in cert.support)
        other = Subspace.span([[int(j == k) for j in range(inst.d + 1)]
                               for k in range(inst.r + 1)], inst.d + 1)
        assert other != inst.space(target)
        changed = inst.derive({**inst.spaces, target: other})
        check = verify_certificate(changed, cert)
        assert not check.ok
        assert check.failing_multidegree == target
        assert check.message == "a pushed section leaves the chosen space"

    def test_section_outside_its_space_is_refused_before_any_verdict(self):
        inst, cert, node = self.shared_node_certificate()
        outside = next(v for v in Subspace.full(inst.d + 1).basis.row_list()
                       if v not in inst.space(node))
        first, *rest = cert.sections[node].row_list()
        moved = tuple(a + b for a, b in zip(first, outside))
        # One section too many as well, which alone would be a failed check.
        sections = {**cert.sections, node: rational_matrix([moved, *rest, first])}
        with pytest.raises(CertificateError) as err:
            verify_certificate(inst, SimpleCertificate(cert.support, sections))
        assert err.value.path == f"sections.{node.i},{node.l}[0]"
        assert "lies outside the chosen space" in str(err.value)

    def test_round_trip_files(self, worked_instance, tmp_path):
        cert = extract_certificate(worked_instance)
        path = tmp_path / "certificate.json"
        save_certificate(path, cert)
        loaded = load_certificate(path, worked_instance.d)
        assert loaded == SimpleCertificate(cert.support, dict(cert.sections))
        assert verify_certificate(worked_instance, loaded).ok

    def test_json_schema_validation(self, worked_instance):
        data = certificate_to_json(extract_certificate(worked_instance))
        data["sections"]["0,1"] = [["1", "0"]]
        from llschain.lls_core import InstanceFormatError
        with pytest.raises(InstanceFormatError):
            certificate_from_json(data, worked_instance.d)


SCALES = [(1, 1, 1), (2, 3, 5), (Fraction(-1, 2), 7, Fraction(3, 4))]
push_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def push_problems(draw):
    """An instance over a chain, its maps possibly ``rescaled``, up to three
    source nodes with up to three rational sections each, and a target
    node."""
    inst = from_chain(ChainCurve(draw(st.integers(0, 4))), 0, {})
    scales = draw(st.sampled_from(SCALES))
    if scales != (1, 1, 1):
        inst = rescaled(inst, scales)
    grid = all_multidegrees(inst.d)
    sources = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3, unique=True))
    row = st.lists(push_rationals, min_size=inst.d + 1, max_size=inst.d + 1)
    sections = {s: draw(st.lists(row, min_size=1, max_size=3)) for s in sources}
    return inst, sources, draw(st.sampled_from(grid)), sections


class TestPushAlongWalks:
    @settings(max_examples=80, deadline=None)
    @given(push_problems())
    def test_integer_pushes_equal_vector_pushes(self, problem):
        """Row for row, the stored-form product equals pushing each
        ``Fraction`` section alone with ``vec_matmul``, in source order."""
        inst, sources, target, sections = problem
        walk = partial(canonical_matrix, inst)
        matrices = {s: rational_matrix(rows) for s, rows in sections.items()}
        pushed = push_along_walks(walk, matrices, sources, target)
        expected = [vec_matmul(v, walk(s, target)) for s in sources for v in sections[s]]
        assert pushed.row_list() == expected
        assert pushed == rational_matrix(expected, cols=inst.d + 1)

    def test_no_source_pushes_nothing(self):
        walk = partial(chain_canonical, ChainCurve(2))
        assert push_along_walks(walk, {}, (), md(1, 1, 0)).row_list() == []


class TestIsSimple:
    def test_worked_instance_is_simple(self, worked_instance):
        verdict = is_simple(worked_instance)
        assert verdict.simple
        assert verdict.certificate.support == (md(1, 0, 0),)

    def test_not_exact_verdict(self):
        result = gen_simple(GenSpec(d=2, r=1, seed=31))
        broken = degrade(result.instance, "break-exactness", seed=3).instance
        verdict = is_simple(broken)
        assert not verdict.simple
        assert verdict.reason == "not-exact"
        assert verdict.witness is not None

    def test_not_distributive_verdict_on_abstract_instance(self):
        inst = abstract_nondistributive_instance()
        verdict = is_simple(inst)
        assert not verdict.simple
        assert verdict.reason == "not-distributive"
        assert verdict.witness == md(1, 0, 0)
        with pytest.raises(DistributivityRequired):
            extract_certificate(inst)
        with pytest.raises(DistributivityRequired):
            build_complement_system(inst, 1)

    def test_exactness_required_carries_edge(self):
        result = gen_simple(GenSpec(d=2, r=0, seed=33))
        broken = degrade(result.instance, "break-exactness", seed=7).instance
        with pytest.raises(ExactnessRequired) as err:
            extract_certificate(broken)
        assert err.value.edge is not None


class TestAbstractNondistributiveFixture:
    def test_fixture_is_exact_but_not_distributive(self):
        from llschain.lls_core import distributive_at, exactness
        inst = abstract_nondistributive_instance()
        assert exactness(inst).exact
        assert not distributive_at(inst, md(1, 0, 0))
        assert distributive_at(inst, md(0, 1, 0))


class TestCorpusConstructions:
    def test_growth_and_structure_on_sample(self):
        for seed, d, r in ((41, 2, 1), (43, 3, 2), (47, 4, 1)):
            result = gen_simple(GenSpec(d=d, r=r, seed=seed))
            systems = tuple(build_complement_system(result.instance, q)
                            for q in (1, 2, 3))
            for system in systems:
                assert all(entry[3] for entry in growth_report(result.instance, system))
            assert structure_report(result.instance, systems).ok

    def test_certificate_systems_match_preferred_build(self):
        result = gen_simple(GenSpec(d=3, r=2, seed=53))
        inst = result.instance
        cert = extract_certificate(inst)
        from_cert = certificate_complement_systems(inst, cert)
        preferred = certificate_push_candidates(inst, cert)
        for q in (1, 2, 3):
            built = build_complement_system(inst, q, preferred=preferred)
            for node in inst.multidegrees:
                assert built.span(node) == from_cert[q - 1].span(node)

    def test_support_is_positive_codimension_set(self):
        from llschain.lls_core import codim_report
        result = gen_simple(GenSpec(d=4, r=2, seed=59))
        cert = extract_certificate(result.instance)
        report = codim_report(result.instance)
        expected = tuple(cellule.multidegree for cellule in report.cells
                         if cellule.codim > 0)
        assert cert.support == expected
        # at each support node the sections complete the vanishing sum
        from llschain.lls_core import vanishing_sum
        for node in cert.support:
            vsum = vanishing_sum(result.instance, node)
            span = Subspace.span(list(vsum.basis.row_list())
                                 + cert.sections[node].row_list(),
                                 result.instance.ambient_dim[node])
            assert span == result.instance.space(node)
            assert vsum.dim + cert.sections[node].rows == result.instance.r + 1


class TestSharedChecker:
    """Both constructions end in one check of the complement property and
    of verbatim growth; a corrupted basis must be refused."""

    @staticmethod
    def built():
        inst = gen_simple(GenSpec(d=3, r=2, seed=53)).instance
        return inst, build_complement_system(inst, 1)

    def test_dropped_vector_is_no_complement(self):
        inst, system = self.built()
        node = next(n for n in inst.multidegrees if system.basis[n])
        basis = {**system.basis, node: system.basis[node][1:]}
        with pytest.raises(ConstructionError, match="no complement"):
            complements._checked_system(inst, 1, basis)

    def test_rescaled_seed_keeps_the_span_but_breaks_growth(self):
        inst, system = self.built()
        node, source = next((n, s) for n in inst.multidegrees
                            for s in complements._feeders(n, 1) if system.basis[s])
        seed = vec_matmul(system.basis[source][0], inst.maps[(source, node)])
        vectors = list(system.basis[node])
        vectors[vectors.index(seed)] = tuple(2 * e for e in seed)
        assert Subspace.span(vectors, inst.ambient_dim[node]) == system.span(node)
        with pytest.raises(ConstructionError, match="directional growth"):
            complements._checked_system(inst, 1, {**system.basis, node: vectors})


class TestMirrorSymmetry:
    def test_component_swap_exchanges_first_and_third_systems(self):
        result = gen_simple(GenSpec(d=3, r=1, seed=61))
        inst = result.instance
        mirrored = _mirror_instance(inst)
        assert validate(mirrored, ambient_laws=False).ok
        sys1 = build_complement_system(mirrored, 1)
        sys3 = build_complement_system(inst, 3)
        for node in inst.multidegrees:
            image = md(node.l, node.j, node.i)
            assert sys1.basis[image] == sys3.basis[node]
        sys3m = build_complement_system(mirrored, 3)
        sys1o = build_complement_system(inst, 1)
        for node in inst.multidegrees:
            image = md(node.l, node.j, node.i)
            assert sys3m.basis[image] == sys1o.basis[node]


def _mirror_instance(inst: LlsInstance) -> LlsInstance:
    """Relabel the components in reverse order: (i, j, l) -> (l, j, i),
    swapping the roles of the two outer components.  The coordinates at
    each node are kept, so the mirrored data is a legal abstract instance."""
    def mirror(node):
        return md(node.l, node.j, node.i)

    ambient = {mirror(node): dim for node, dim in inst.ambient_dim.items()}
    maps = {(mirror(s), mirror(t)): m for (s, t), m in inst.maps.items()}
    swap = {1: 3, 2: 2, 3: 1}
    vanishing = {mirror(node): {swap[q]: sub for q, sub in per.items()}
                 for node, per in inst.vanishing.items()}
    spaces = {mirror(node): space for node, space in inst.spaces.items()}
    return LlsInstance(inst.d, inst.r, ambient, maps, vanishing, spaces)
