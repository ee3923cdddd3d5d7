import re

import pytest
from hypothesis import given, settings, strategies as st

from llschain import lattice
from llschain.lattice import (
    Direction,
    Edge,
    Multidegree,
    PathClass,
    PathError,
    all_multidegrees,
    directed_edges,
    edge_between,
    canonical_path,
    classify_steps,
)

from complements import _feeders, component_regions


def md(i, j, l):
    return Multidegree(i, j, l)


def steps(*nodes):
    """The step directions of a walk through ``nodes``."""
    return [edge_between(a, b).direction for a, b in zip(nodes, nodes[1:])]


class TestEnumeration:
    def test_degree_zero(self):
        assert all_multidegrees(0) == (md(0, 0, 0),)

    def test_degree_one_order(self):
        assert all_multidegrees(1) == (md(1, 0, 0), md(0, 1, 0), md(0, 0, 1))

    @pytest.mark.parametrize("d", range(0, 8))
    def test_count_formula(self, d):
        assert len(all_multidegrees(d)) == (d + 1) * (d + 2) // 2

    def test_degree_four_count(self):
        assert len(all_multidegrees(4)) == 15

    def test_grid_order_rows_then_columns(self):
        grid = all_multidegrees(3)
        assert grid[0] == md(3, 0, 0)
        assert grid[3] == md(0, 3, 0)
        assert grid[4] == md(2, 0, 1)
        assert grid[-1] == md(0, 0, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            all_multidegrees(-1)


class TestSteps:
    def test_worked_neighbours(self):
        node = md(1, 0, 1)  # degree 2
        assert node.step(Direction.TOWARD_X1) == md(0, 1, 1)
        assert node.step(Direction.TOWARD_X2) is None  # j would hit -2
        assert node.step(Direction.TOWARD_X3) == md(1, 1, 0)

    def test_top_right_corner_has_no_toward_x1(self):
        for d in range(1, 5):
            assert md(0, d, 0).step(Direction.TOWARD_X1) is None

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_step_then_inverse_returns(self, d, data):
        grid = all_multidegrees(d)
        node = data.draw(st.sampled_from(list(grid)))
        direction = data.draw(st.sampled_from(list(Direction)))
        there = node.step(direction)
        if there is not None:
            assert there.step(direction.inverse) == node

    def test_named_neighbours(self):
        node = md(2, 1, 1)  # degree 4
        assert node.step(Direction.TOWARD_X1) == md(1, 2, 1)
        assert node.step(Direction.FROM_X1) == md(3, 0, 1)
        assert node.step(Direction.TOWARD_X3) == md(2, 2, 0)
        assert node.step(Direction.FROM_X3) == md(2, 0, 2)
        assert node.step(Direction.FROM_X2) == md(1, 3, 0)
        assert node.step(Direction.TOWARD_X2) is None  # j would go negative


def docstring_displacements():
    """The displacement table of the module docstring, by label: each
    toward-Xq step as written there, and from-Xq as its opposite."""
    table = {}
    for label, delta in re.findall(r"(toward-X\d): \(([-+0-9, ]+)\)", lattice.__doc__):
        delta = tuple(int(x) for x in delta.split(","))
        table[label] = delta
        table[label.replace("toward", "from")] = tuple(-x for x in delta)
    return table


class TestAdjacency:
    """Steps, neighbours and edges agree with the docstring's table, which
    this class recomputes them from without the library's step code."""

    TABLE = docstring_displacements()

    def test_table_names_every_direction(self):
        assert len(self.TABLE) == 6
        assert {d.label: d.delta for d in Direction} == self.TABLE

    def test_direction_facts(self):
        D = Direction
        facts = {  # label, component, delta, is_toward, lands_in, inverse
            D.TOWARD_X1: ("toward-X1", 1, (-1, 1, 0), True, (1,), D.FROM_X1),
            D.TOWARD_X2: ("toward-X2", 2, (1, -2, 1), True, (2,), D.FROM_X2),
            D.TOWARD_X3: ("toward-X3", 3, (0, 1, -1), True, (3,), D.FROM_X3),
            D.FROM_X1: ("from-X1", 1, (1, -1, 0), False, (2, 3), D.TOWARD_X1),
            D.FROM_X2: ("from-X2", 2, (-1, 2, -1), False, (1, 3), D.TOWARD_X2),
            D.FROM_X3: ("from-X3", 3, (0, -1, 1), False, (1, 2), D.TOWARD_X3),
        }
        assert list(facts) == list(Direction)
        for direction, expected in facts.items():
            assert (direction.label, direction.component, direction.delta, direction.is_toward,
                    direction.lands_in, direction.inverse) == expected
            assert direction.value == expected[:3]
            assert hash(direction) == object.__hash__(direction)

    @pytest.mark.parametrize("d", range(0, 13))
    def test_steps_and_edges_follow_the_table(self, d):
        grid = all_multidegrees(d)
        edges = []
        for node in grid:
            expected = []
            for direction in Direction:
                target = tuple(a + b for a, b in zip(node, self.TABLE[direction.label]))
                if min(target) < 0:
                    assert node.step(direction) is None
                    continue
                assert node.step(direction) == target
                assert type(node.step(direction)) is Multidegree
                expected.append((direction, Multidegree(*target)))
            assert node.neighbours() == expected
            targets = {target: direction for direction, target in expected}
            for other in grid:
                if other in targets:
                    assert edge_between(node, other) == Edge(node, other, targets[other])
                else:
                    with pytest.raises(PathError):
                        edge_between(node, other)
            edges += [Edge(node, target, direction) for direction, target in expected]
        assert directed_edges(d) == tuple(edges)

    def test_non_adjacent_nodes_raise_every_time(self):
        """The adjacency cache holds neighbours, never a failed lookup."""
        for _ in range(2):
            with pytest.raises(PathError, match="not adjacent"):
                edge_between(md(2, 0, 0), md(0, 2, 0))


class TestClassification:
    def test_toward_then_from_same_component(self):
        walk = steps(md(1, 0, 1), md(0, 1, 1), md(1, 0, 1))
        assert classify_steps(walk) is PathClass.VIOLATES_II

    def test_horizontal_then_vertical_is_canonical(self):
        walk = steps(md(2, 0, 0), md(1, 1, 0), md(0, 2, 0), md(0, 1, 1), md(0, 0, 2))
        assert classify_steps(walk) is PathClass.VALID_CANONICAL

    def test_all_three_toward_steps(self):
        walk = steps(md(1, 1, 1), md(0, 2, 1), md(1, 0, 2), md(1, 1, 1))
        assert walk == [Direction.TOWARD_X1, Direction.TOWARD_X2, Direction.TOWARD_X3]
        assert classify_steps(walk) is PathClass.VIOLATES_I

    def test_two_from_steps_violate_iii(self):
        walk = steps(md(0, 2, 0), md(1, 1, 0), md(1, 0, 1))
        assert walk == [Direction.FROM_X1, Direction.FROM_X3]
        assert classify_steps(walk) is PathClass.VIOLATES_III

    def test_non_adjacent_nodes_raise(self):
        with pytest.raises(PathError):
            classify_steps(steps(md(2, 0, 0), md(0, 2, 0)))

    def test_single_node_path_is_canonical(self):
        assert classify_steps(steps(md(1, 0, 0))) is PathClass.VALID_CANONICAL

    def test_paths_compare_by_nodes(self):
        """A canonical walk is the plain tuple of its nodes."""
        nodes = (md(2, 0, 0), md(1, 1, 0))
        assert canonical_path(*nodes) == nodes and type(canonical_path(*nodes)) is tuple


class TestCanonicalPath:
    def test_worked_horizontal_then_vertical(self):
        path = canonical_path(md(2, 0, 0), md(0, 0, 2))
        assert path == (md(2, 0, 0), md(1, 1, 0), md(0, 2, 0),
                              md(0, 1, 1), md(0, 0, 2))

    def test_identity_path(self):
        assert canonical_path(md(1, 0, 1), md(1, 0, 1)) == (md(1, 0, 1),)

    def test_single_diagonal_step(self):
        path = canonical_path(md(0, 2, 0), md(1, 0, 1))
        assert path == (md(0, 2, 0), md(1, 0, 1))
        assert classify_steps(steps(*path)) is PathClass.VALID_CANONICAL

    @pytest.mark.parametrize("d", range(0, 5))
    def test_every_pair_gets_a_canonical_path(self, d):
        grid = all_multidegrees(d)
        for a in grid:
            for b in grid:
                path = canonical_path(a, b)
                assert path[0] == a and path[-1] == b
                assert classify_steps(steps(*path)) is PathClass.VALID_CANONICAL
                assert all(min(node) >= 0 for node in path)

    def test_degree_mismatch(self):
        with pytest.raises(PathError):
            canonical_path(md(1, 0, 0), md(1, 1, 0))

    def test_canonical_walks_are_prefix_closed(self):
        """Dropping the last step of a canonical walk leaves the canonical
        walk to its last-but-one node (so, by induction, every prefix is
        canonical); the walk composites are built on this."""
        for d in range(0, 13):
            grid = all_multidegrees(d)
            for a in grid:
                for b in grid:
                    nodes = canonical_path(a, b)
                    if len(nodes) > 1:
                        assert canonical_path(a, nodes[-2]) == nodes[:-1]

    def test_labels(self):
        assert md(3, 0, 0).label == "(3,0,0)"
        path = canonical_path(md(3, 0, 0), md(2, 1, 0))
        assert edge_between(*path).label == "(3,0,0)->(2,1,0)"


class TestRegions:
    def test_anti_diagonal_component2_is_singleton(self):
        for d in range(1, 6):
            for i in range(d + 1):
                node = md(i, 0, d - i)
                assert component_regions(node)[1] == (node,)

    def test_bottom_corner_component1_is_singleton(self):
        for d in range(0, 6):
            node = md(0, 0, d)
            assert component_regions(node)[0] == (node,)

    def test_union_covers_grid_worked_example(self):
        r1, r2, r3 = component_regions(md(1, 0, 1))
        assert set(r1) | set(r2) | set(r3) == set(all_multidegrees(2))

    @pytest.mark.parametrize("d", range(0, 6))
    def test_union_covers_grid(self, d):
        for node in all_multidegrees(d):
            r1, r2, r3 = component_regions(node)
            assert set(r1) | set(r2) | set(r3) == set(all_multidegrees(d))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_interior_region_recurrences(self, d):
        # Wherever both primary feeders of a node exist (the interior, and
        # the boundary nodes where one component still has two, such as
        # q = 2 on the top row and the right column), removing the node
        # from its component-q region leaves the union of the feeders'
        # component-q regions.
        checked = set()
        for node in all_multidegrees(d):
            regions = component_regions(node)
            for q in (1, 2, 3):
                feeders = _feeders(node, q)
                if len(feeders) < 2:
                    continue
                parts = set().union(*(component_regions(f)[q - 1] for f in feeders))
                assert set(regions[q - 1]) - {node} == parts, (node, q)
                checked.add((node, q))
        grid = all_multidegrees(d)
        interior = {(node, q) for node in grid for q in (1, 2, 3)
                    if node.i >= 1 and node.l >= 1 and node.i + node.l <= d - 1}
        borders = {(node, 2) for node in grid if 0 in (node.i, node.l) and node.j >= 1}
        assert checked == interior | borders
