import hashlib
import json
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from llschain import chain_model
from llschain.chain_model import (
    ChainCurve,
    SheafSkeleton,
    canonical_matrix,
    h0_basis,
    skeleton,
    twist_matrix,
    vanishing_subspace,
    verify_sheaf_laws,
)
from llschain.exactla import LinearAlgebraError, Matrix, Subspace, image, kernel
from llschain.lattice import (
    Direction,
    Edge,
    Multidegree,
    all_multidegrees,
    canonical_path,
    directed_edges,
)
from llschain.lls_core import from_chain

from conftest import rescaled, with_entry
from oracles import all_walk_composites, random_walk


def md(i, j, l):
    return Multidegree(i, j, l)


class TestChainCurve:
    @pytest.mark.parametrize("args", [(-1,)])
    def test_invalid_curves_are_refused(self, args):
        with pytest.raises(ValueError):
            ChainCurve(*args)


class TestSections:
    def test_worked_basis_at_degree_one(self):
        space = h0_basis(ChainCurve(1), md(1, 0, 0))
        # sections (1, 1, 1) and (t, 0, 0) in raw coordinates (a0, a1, b0, c0)
        assert space.basis.to_strings() == [["1", "0", "1", "1"], ["0", "1", "0", "0"]]
        assert space.dim == 2

    @pytest.mark.parametrize("d", range(0, 6))
    def test_dimension_is_d_plus_one(self, d):
        chain = ChainCurve(d)
        for node in all_multidegrees(d):
            assert h0_basis(chain, node).dim == d + 1

    def test_degree_zero_constants(self):
        space = h0_basis(ChainCurve(0), md(0, 0, 0))
        assert space.basis.to_strings() == [["1", "1", "1"]]

    def test_glue_constraints_hold_on_basis(self):
        chain = ChainCurve(3)
        for node in all_multidegrees(3):
            space = h0_basis(chain, node)
            b1, b2 = node.i + 1, node.i + node.j + 2
            for row in space.basis.row_list():
                f1, f2, f3 = row[:b1], row[b1:b2], row[b2:]
                assert f1[0] == f2[0]          # values at the first node
                assert sum(f2) == f3[0]        # values at the second node


class TestTwistMatrices:
    def test_worked_matrix(self):
        chain = ChainCurve(1)
        edge = Edge(md(1, 0, 0), md(0, 1, 0), Direction.TOWARD_X1)
        assert twist_matrix(chain, edge).to_strings() == [["0", "1"], ["0", "0"]]

    # sha256 of the JSON list, per degree 0..6, of every twist matrix in
    # directed-edge order: the chain's own maps, and the maps ``rescaled``
    # by two choices of toward scales.
    DIGESTS = {
        (1, 1, 1): "780bf415592415d177d0d4c8249d01aaa16d8da7fc4f09e8b5d2fe0ba1fee3aa",
        (2, 3, 5): "39acb15dd45fbe4dc4eb83658332da36a76e7094203c9c6a1079e5cb2674ec40",
        (Fraction(-1, 2), 7, Fraction(3, 4)):
            "ba3c19fd30ce90e711d9912f7f72004ef6b397bf873c53ad4b2b5b4bde087ee9",
    }

    @pytest.mark.parametrize("scales", list(DIGESTS))
    def test_matrices_pinned(self, scales):
        data = {}
        for d in range(7):
            inst = from_chain(ChainCurve(d), 0, {})
            if scales != (1, 1, 1):
                inst = rescaled(inst, scales)
            data[str(d)] = [inst.maps[(e.source, e.target)].to_strings()
                            for e in directed_edges(d)]
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGESTS[scales]

    def test_unglued_image_is_refused(self, monkeypatch):
        """A factor table whose toward-X1 map keeps f2(0) breaks the gluing
        f1(0) = f2(0) at the target, and the image check refuses it."""
        monkeypatch.setitem(chain_model._FACTORS, Direction.TOWARD_X1, ((), (1,), (1,)))
        # The uncached function, so no cached matrix answers the call.
        with pytest.raises(LinearAlgebraError):
            twist_matrix.__wrapped__(ChainCurve(2),
                                     Edge(md(2, 0, 0), md(1, 1, 0), Direction.TOWARD_X1))

    def test_one_unglued_image_names_the_edge(self, monkeypatch):
        """The images of an edge are checked together, and one bad image
        among them, the last, still fails the check with the edge's label."""
        edge = Edge(md(1, 2, 0), md(1, 1, 1), Direction.FROM_X3)
        rows = len(h0_basis(ChainCurve(3), edge.source).basis.ints)
        real = chain_model._apply_twist
        calls = []

        def corrupted(e, raw):
            out = real(e, raw)
            calls.append(e)
            if len(calls) == rows:
                out[0] += 1
            return out

        monkeypatch.setattr(chain_model, "_apply_twist", corrupted)
        # The uncached function, so no cached matrix answers the call.
        with pytest.raises(LinearAlgebraError, match=r"along \(1,2,0\)->\(1,1,1\) is not glued"):
            twist_matrix.__wrapped__(ChainCurve(3), edge)
        assert calls == [edge] * rows

    @pytest.mark.parametrize("d", range(1, 5))
    def test_round_trips_vanish(self, d):
        chain = ChainCurve(d)
        for node in all_multidegrees(d):
            for direction in Direction:
                there = node.step(direction)
                if there is None:
                    continue
                fwd = twist_matrix(chain, Edge(node, there, direction))
                back = twist_matrix(chain, Edge(there, node, direction.inverse))
                assert (fwd @ back).is_zero()

    def test_toward_x1_image_vanishes_on_x1(self):
        from llschain.exactla import vec_matmul
        chain = ChainCurve(3)
        for node in all_multidegrees(3):
            there = node.step(Direction.TOWARD_X1)
            if there is None:
                continue
            m = twist_matrix(chain, Edge(node, there, Direction.TOWARD_X1))
            target = h0_basis(chain, there)
            for coords in m.row_list():
                first_block = vec_matmul(coords, target.basis)[:there.i + 1]
                assert all(e == 0 for e in first_block)

    @pytest.mark.parametrize("d", range(1, 5))
    def test_toward_rank_complements_vanishing(self, d):
        chain = ChainCurve(d)
        for node in all_multidegrees(d):
            for q in (1, 2, 3):
                there = node.step(Direction[f"TOWARD_X{q}"])
                if there is None:
                    continue
                m = twist_matrix(chain, Edge(node, there, Direction[f"TOWARD_X{q}"]))
                others = tuple(p for p in (1, 2, 3) if p != q)
                assert image(m).dim == d + 1 - vanishing_subspace(chain, node, others).dim
                assert kernel(m) == vanishing_subspace(chain, node, others)


class TestVanishing:
    def test_top_right_corner_x2_vanishing_is_zero(self):
        for d in range(1, 5):
            assert vanishing_subspace(ChainCurve(d), md(0, d, 0), (2,)).dim == 0

    def test_anti_diagonal_inclusion(self):
        for d in range(1, 5):
            chain = ChainCurve(d)
            for i in range(d + 1):
                node = md(i, 0, d - i)
                v1 = vanishing_subspace(chain, node, (1,))
                v2 = vanishing_subspace(chain, node, (2,))
                v3 = vanishing_subspace(chain, node, (3,))
                assert v1 <= v2 and v3 <= v2

    def test_vanishing_everywhere_is_zero(self):
        chain = ChainCurve(3)
        for node in all_multidegrees(3):
            assert vanishing_subspace(chain, node, (1, 2, 3)).dim == 0

    def test_union_is_intersection_of_singles(self):
        chain = ChainCurve(2)
        for node in all_multidegrees(2):
            v12 = vanishing_subspace(chain, node, (1, 2))
            assert v12 == (vanishing_subspace(chain, node, (1,))
                           & vanishing_subspace(chain, node, (2,)))


class TestComposites:
    def test_length_zero_is_identity(self):
        chain = ChainCurve(2)
        assert canonical_matrix(chain, md(1, 1, 0), md(1, 1, 0)) == Matrix.identity(3)

    def test_degenerate_walk_is_zero(self):
        maps = skeleton(ChainCurve(2)).maps
        walk = (md(1, 0, 1), md(0, 1, 1), md(1, 0, 1))  # toward-X1, from-X1
        assert reduce(operator.matmul, map(maps.get, zip(walk, walk[1:]))).is_zero()

    def test_two_walks_agree(self):
        chain = ChainCurve(2)
        maps = skeleton(chain).maps
        one = (md(2, 0, 0), md(1, 1, 0), md(0, 2, 0), md(0, 1, 1))
        two = (md(2, 0, 0), md(1, 1, 0), md(1, 0, 1), md(0, 1, 1))
        composite = reduce(operator.matmul, map(maps.get, zip(one, one[1:])))
        assert composite == reduce(operator.matmul, map(maps.get, zip(two, two[1:])))
        assert not composite.is_zero()

    @pytest.mark.parametrize("d", range(1, 6))
    def test_path_independence_random_pairs(self, d):
        chain = ChainCurve(d)
        maps = skeleton(chain).maps
        rng = random.Random(100 + d)
        grid = all_multidegrees(d)
        pairs = 50 if d <= 4 else 10
        for _ in range(pairs):
            a, b = rng.choice(grid), rng.choice(grid)
            composites = all_walk_composites(maps, a, b, d + 1)
            assert len(composites) == 1
            assert composites.pop() == canonical_matrix(chain, a, b)


class TestLawSuite:
    @pytest.mark.parametrize("d", (1, 4))
    def test_chain_passes(self, d):
        report = verify_sheaf_laws(ChainCurve(d))
        assert report.ok, report.violations[:3]

    def test_edge_count_at_degree_four(self):
        skel = skeleton(ChainCurve(4))
        # adjacent pairs: 10 horizontal + 10 vertical + 6 diagonal, both ways
        assert len(skel.maps) == 52
        assert len(directed_edges(4)) == 52

    def test_mutated_matrix_is_caught(self):
        skel = skeleton(ChainCurve(2))
        edge = (md(2, 0, 0), md(1, 1, 0))
        maps = dict(skel.maps)
        maps[edge] = with_entry(maps[edge], 0, 0, Fraction(5))
        mutated = SheafSkeleton(skel.d, dict(skel.ambient_dim), maps,
                                {k: dict(v) for k, v in skel.vanishing.items()})
        report = verify_sheaf_laws(mutated)
        assert not report.ok
        laws = {v.kind for v in report.violations}
        assert laws & {"zero-composition", "square-commutation", "kernel-vanishing",
                       "vanishing-transport", "image-containment",
                       "degenerate-composition"}

    # sha256 of the JSON list, over the 622 mutations below in order, of each
    # law report's JSON and its violations' labels and witnesses.
    MUTATION_REPORTS = "dff56fe8c3b0df185bf4375f3c44ea3dbf94897e054549d277e63b20a63e09ee"

    def test_single_entry_mutations(self):
        """Add 1 to each entry of each map in turn, d <= 3.  A mutation that
        breaks a round trip across a node pair is always reported.  The
        mutations the suite lets through rescale a map, or change one near
        the boundary that no commuting square pins; their count per degree
        is fixed, so the suite catches exactly as much as before.  Every
        report is pinned too: its JSON, and each violation's label and
        witness, in mutation order."""
        missed, reports = {}, []
        for d in (1, 2, 3):
            skel = skeleton(ChainCurve(d))
            missed[d] = 0
            for (a, b), m in skel.maps.items():
                back = skel.maps[(b, a)]
                for r in range(m.rows):
                    for c in range(m.cols):
                        mutated = with_entry(m, r, c, m.row_list()[r][c] + 1)
                        report = verify_sheaf_laws(SheafSkeleton(
                            d, skel.ambient_dim, {**skel.maps, (a, b): mutated},
                            skel.vanishing))
                        if not ((mutated @ back).is_zero() and (back @ mutated).is_zero()):
                            assert not report.ok
                        missed[d] += report.ok
                        reports.append([report.to_json(),
                                        [[v.label, v.witness] for v in report.violations]])
        assert missed == {1: 2, 2: 10, 3: 24}
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.MUTATION_REPORTS

    def test_scaled_trivialisation_still_lawful(self):
        assert verify_sheaf_laws(rescaled(from_chain(ChainCurve(3), 0, {}), (2, 3, 5))).ok

    def test_random_degenerate_walks_compose_to_zero(self):
        maps = skeleton(ChainCurve(3)).maps
        from llschain.lattice import classify_steps, edge_between, PathClass
        rng = random.Random(23)
        grid = all_multidegrees(3)
        seen_degenerate = 0
        for _ in range(200):
            nodes = random_walk(rng, rng.choice(grid), rng.randint(2, 6))
            walk = [edge_between(a, b).direction for a, b in zip(nodes, nodes[1:])]
            if classify_steps(walk) is not PathClass.VALID_CANONICAL:
                seen_degenerate += 1
                assert reduce(operator.matmul, map(maps.get, zip(nodes, nodes[1:]))).is_zero()
        assert seen_degenerate > 50


class TestSkeletonExport:
    def test_round_trip(self, tmp_path):
        """The ambient data alone, an instance with no chosen spaces, comes
        back equal from an instance file, and the law suite reads the
        loaded instance directly."""
        from llschain.lls_core import from_chain, load_instance, save_instance
        skel = skeleton(ChainCurve(2))
        path = tmp_path / "skeleton.json"
        save_instance(path, from_chain(ChainCurve(2), 0, {}))
        loaded = load_instance(path)
        assert loaded.ambient_dim == dict(skel.ambient_dim)
        assert loaded.maps == dict(skel.maps)
        assert loaded.vanishing == {k: dict(v) for k, v in skel.vanishing.items()}
        assert verify_sheaf_laws(loaded).ok
