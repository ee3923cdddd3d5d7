import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from llschain.exactla import (
    LinearAlgebraError,
    Matrix,
    Subspace,
    complement_in,
    image,
    image_in,
    kernel,
    parse_rational,
    preimage,
    rref,
    rref_with_transform,
    vec_matmul,
)

from conftest import rational_matrix, with_entry, zeros
from oracles import (
    bareiss_rank,
    sympy_intersection,
    sympy_left_kernel,
    sympy_preimage,
    sympy_rowspace,
    sympy_rref,
)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=8)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return rational_matrix(entries, cols=cols)


@st.composite
def scaled_matrices(draw, max_rows=6, max_cols=6):
    """Matrices whose rows are scaled by negative non-integers (so leading
    entries are negative fractions), with some rows combined from earlier
    ones (so the rank falls short)."""
    base = draw(matrices(max_rows=max_rows, max_cols=max_cols))
    rows = []
    for row in base.row_list():
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(rationals), draw(rationals)
            row = tuple(a * x + b * y for x, y in zip(rows[-1], rows[-2]))
        scale = -Fraction(draw(st.integers(1, 9)), draw(st.integers(2, 7)))
        rows.append(tuple(scale * e for e in row))
    return rational_matrix(rows, cols=base.cols)


# Mostly 0 and +-1, as in the twist maps, with some general rationals.
sparse_entries = st.one_of(st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1)]),
                           rationals)


@st.composite
def product_operands(draw, max_dim=5):
    """``(A, B)`` with ``A.cols == B.rows``; any of the three sizes may be 0,
    and any row may be zero."""
    rows, inner, cols = (draw(st.integers(0, max_dim)) for _ in range(3))

    def matrix(r, c):
        entries = draw(st.lists(sparse_entries, min_size=r * c, max_size=r * c))
        for k in draw(st.sets(st.integers(0, r - 1))) if r else ():
            entries[k * c:(k + 1) * c] = [Fraction(0)] * c
        return rational_matrix([entries[k * c:(k + 1) * c] for k in range(r)], cols=c)
    return matrix(rows, inner), matrix(inner, cols)


@st.composite
def same_shape_pairs(draw):
    """Two matrices of one shape: the first, possibly with one entry
    changed, rebuilt along another path (integer rows over a multiple of
    their denominators, rational rows, a product with the identity on
    either side) to give the second."""
    a, _ = draw(product_operands())
    b = a
    if a.rows and a.cols and draw(st.booleans()):
        b = with_entry(a, draw(st.integers(0, a.rows - 1)), draw(st.integers(0, a.cols - 1)),
                       draw(sparse_entries))
    rebuilt = [Matrix.from_ints([[3 * e for e in row] for row in b.ints],
                                [3 * den for den in b.dens], b.cols),
               rational_matrix(b.row_list(), cols=b.cols),
               b @ Matrix.identity(b.cols), Matrix.identity(b.rows) @ b]
    return a, draw(st.sampled_from(rebuilt))


def reference_product(a, b):
    """Row-by-row product straight from the definition, on the raw entries."""
    return [[sum((a.entries[i * a.cols + k] * b.entries[k * b.cols + j]
                  for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)]
            for i in range(a.rows)]


def random_matrix(rng, rows, cols, bound=9):
    return rational_matrix(
        [[Fraction(rng.randint(-bound, bound)) for _ in range(cols)]
         for _ in range(rows)], cols=cols)


class TestRref:
    def test_identity_is_fixed(self):
        ident = Matrix.identity(2)
        reduced, pivots, rank = rref(ident)
        assert reduced == ident
        assert pivots == (0, 1)
        assert rank == 2

    def test_proportional_rows_collapse(self):
        m = rational_matrix([[2, 4], [1, 2]])
        reduced, pivots, rank = rref(m)
        assert reduced.to_strings() == [["1", "2"], ["0", "0"]]
        assert rank == 1

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_idempotent(self, m):
        reduced, _, _ = rref(m)
        again, _, _ = rref(reduced)
        assert again == reduced

    def test_rank_matches_fraction_free_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            m = random_matrix(rng, 5, 7)
            _, _, rank = rref(m)
            assert rank == bareiss_rank(m.row_list())


    @settings(max_examples=80, deadline=None)
    @given(scaled_matrices())
    def test_matches_sympy_rref(self, m):
        reduced, pivots, rank = rref(m)
        expected, expected_pivots = sympy_rref(m.row_list(), m.cols)
        assert reduced.row_list() == expected
        assert pivots == expected_pivots and rank == len(expected_pivots)

    @settings(max_examples=80, deadline=None)
    @given(scaled_matrices())
    def test_transform_reduces_and_is_invertible(self, m):
        reduced, transform, pivots = rref_with_transform(m)
        assert (reduced, pivots) == rref(m)[:2]
        assert transform @ m == reduced
        assert bareiss_rank(transform.row_list()) == m.rows

    def test_negative_fractional_pivots(self):
        m = rational_matrix([[Fraction(-3, 2), Fraction(1, 3), 0], [-3, Fraction(2, 3), 0],
                             [0, Fraction(-5, 7), Fraction(1, 2)]])
        reduced, pivots, rank = rref(m)
        assert reduced.to_strings() == [["1", "0", "-7/45"], ["0", "1", "-7/10"],
                                        ["0", "0", "0"]]
        assert pivots == (0, 1) and rank == 2
        _, transform, _ = rref_with_transform(m)
        assert transform @ m == reduced


class TestProduct:
    @settings(max_examples=100, deadline=None)
    @given(product_operands())
    def test_matmul_matches_definition(self, operands):
        a, b = operands
        product = a @ b
        expected = reference_product(a, b)
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert [list(row) for row in product.row_list()] == expected
        assert all(type(e) is Fraction for e in product.entries)

    @settings(max_examples=100, deadline=None)
    @given(product_operands())
    def test_vec_matmul_matches_definition(self, operands):
        a, b = operands
        expected = reference_product(a, b)
        for i in range(a.rows):
            assert list(vec_matmul(a.entries[i * a.cols:(i + 1) * a.cols], b)) == expected[i]

    def test_empty_shapes(self):
        assert zeros(3, 0) @ zeros(0, 2) == zeros(3, 2)
        assert zeros(2, 3) @ zeros(3, 0) == zeros(2, 0)
        assert zeros(0, 3) @ Matrix.identity(3) == zeros(0, 3)
        assert vec_matmul((), zeros(0, 2)) == (Fraction(0), Fraction(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(LinearAlgebraError):
            Matrix.identity(2) @ Matrix.identity(3)

    @settings(max_examples=200, deadline=None)
    @given(same_shape_pairs())
    def test_equality_and_hash_follow_the_entries(self, pair):
        a, b = pair
        assert (a == b) == (a.entries == b.entries)
        if a == b:
            assert hash(a) == hash(b)

    def test_hashes_and_equality_read_the_stored_fields(self):
        m = rational_matrix([[1, Fraction(1, 2)], [0, 3]])
        assert hash(m) == hash((2, 2, ((2, 1), (0, 3)), (2, 1)))
        assert m != (m.rows, m.cols, m.ints, m.dens)
        s = image(m)
        assert hash(s) == hash(s.basis)
        # The pivots follow from the basis, so they sit outside both.
        assert Subspace(2, s.basis, ()) == s and s != (2, s.basis)

    @settings(max_examples=100, deadline=None)
    @given(product_operands())
    def test_readers_agree_with_the_entries(self, operands):
        for m in operands:
            assert m.to_strings() == [[str(e) for e in row] for row in m.row_list()]
            assert m.is_zero() == (not any(m.entries))
            assert all(type(e) is Fraction for e in m.entries)

    def test_rows_may_be_iterators(self):
        """A row that ``vec_matmul`` pushes may be any iterable of entries."""
        half = Fraction(1, 2)
        m = rational_matrix([(half, half), (1, Fraction(1, 3))])
        assert vec_matmul((half for _ in range(2)), m) == (Fraction(3, 4), Fraction(5, 12))

    def test_operands_keep_no_derived_state(self):
        """Products and subspace operations leave each matrix holding its
        one stored form (integer rows and their denominators) and at most
        its cached hash: nothing per row is kept, no ``Fraction`` copy.  A
        subspace holds its basis, pivots, dimension and at most its residual
        steps."""
        rng = random.Random(3)
        a, b = random_matrix(rng, 4, 5, bound=2), random_matrix(rng, 5, 5, bound=1)
        s = image(random_matrix(rng, 3, 5, bound=2))
        t = image(random_matrix(rng, 4, 5, bound=2))
        hash(a), hash(b), hash(s), hash(t)
        a @ b
        vec_matmul(a.row_list()[0], b)
        s.apply(b)
        s & t
        assert set(Matrix.__slots__) == {"rows", "cols", "ints", "dens", "_hash", "__weakref__"}
        for m in (a, b, s.basis, t.basis):
            assert not hasattr(m, "__dict__")
        assert set(Subspace.__slots__) == {"ambient_dim", "basis", "pivots", "dim", "_steps"}
        for space in (s, t):
            assert not hasattr(space, "__dict__") and space.dim == space.basis.rows


class TestKernel:
    def test_zero_map_has_full_kernel(self):
        assert kernel(zeros(3, 2)) == Subspace.full(3)

    def test_identity_has_zero_kernel(self):
        assert kernel(Matrix.identity(3)) == Subspace.zero(3)

    def test_rank_nullity_on_200_random_matrices(self):
        rng = random.Random(11)
        for _ in range(200):
            rows, cols = rng.randint(0, 10), rng.randint(1, 10)
            m = random_matrix(rng, rows, cols, bound=6)
            _, _, rank = rref(m)
            ker = kernel(m)
            assert ker.dim + rank == m.rows
            for v in ker.basis.row_list():
                assert all(e == 0 for e in vec_matmul(v, m))


class TestSubspaceLattice:
    def test_units(self):
        s = Subspace.span([(1, 2, 0), (0, 0, 1)], 3)
        assert s + Subspace.zero(3) == s
        assert (s & Subspace.full(3)) == s

    def test_coordinate_planes(self):
        a = Subspace.span([(1, 0, 0)], 3)
        b = Subspace.span([(0, 1, 0)], 3)
        assert (a + b).dim == 2
        assert (a & b).dim == 0

    def test_dimension_identity_random_pairs(self):
        rng = random.Random(13)
        for _ in range(120):
            a = image(random_matrix(rng, rng.randint(0, 4), 6, bound=5))
            b = image(random_matrix(rng, rng.randint(0, 4), 6, bound=5))
            assert a.dim + b.dim == (a + b).dim + (a & b).dim

    def test_intersection_agrees_with_independent_oracle(self):
        rng = random.Random(17)
        cases = []
        for _ in range(100):
            n = rng.randint(1, 5)
            a = image(random_matrix(rng, rng.randint(0, 3), n, bound=4))
            b = image(random_matrix(rng, rng.randint(0, 3), n, bound=4))
            cases.append((a, b))
        # Zero and full sides, nested and equal spaces, up to n = 8.
        for _ in range(40):
            n = rng.randint(1, 8)
            a = image(random_matrix(rng, rng.randint(0, n), n, bound=4))
            b = image(random_matrix(rng, rng.randint(0, n), n, bound=4))
            cases += [(a, b), (a, Subspace.zero(n)), (Subspace.full(n), a),
                      (a, a), (a, a + b)]
        for a, b in cases:
            expected = sympy_intersection(a.basis.row_list(), b.basis.row_list(),
                                          a.ambient_dim)
            assert (a & b).basis.row_list() == expected
            assert (b & a).basis.row_list() == expected

    def test_distributivity_is_not_a_law(self):
        # Two-dimensional planes in Q^4, pairwise transverse, whose triple
        # is not distributive; the lattice operations must not "repair" it.
        v1 = Subspace.span([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
        v2 = Subspace.span([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
        v3 = Subspace.span([(1, 0, 1, 0), (0, 1, 0, 1)], 4)
        assert (v1 & v2).dim == 0 and (v1 & v3).dim == 0 and (v2 & v3).dim == 0
        lhs = v1 & (v2 + v3)
        rhs = (v1 & v2) + (v1 & v3)
        assert lhs == v1 and rhs.dim == 0
        assert lhs != rhs

    def test_ambient_mismatch_raises(self):
        with pytest.raises(LinearAlgebraError):
            Subspace.full(2) + Subspace.full(3)
        with pytest.raises(LinearAlgebraError):
            Subspace.full(2) & Subspace.full(3)

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_rows=4, max_cols=4), matrices(max_rows=4, max_cols=4))
    def test_sum_is_commutative_and_contains_parts(self, m1, m2):
        n = max(m1.cols, m2.cols)
        a = image(rational_matrix([list(r) + [0] * (n - m1.cols)
                                   for r in m1.row_list()], cols=n))
        b = image(rational_matrix([list(r) + [0] * (n - m2.cols)
                                   for r in m2.row_list()], cols=n))
        assert a + b == b + a
        assert a <= a + b and b <= a + b


class TestComplement:
    def test_deterministic_choice(self):
        inner = Subspace.span([(1, 0, 0)], 3)
        outer = Subspace.full(3)
        first = complement_in(inner, outer)
        assert first == complement_in(inner, outer)
        assert Subspace.span([(1, 0, 0), *first.row_list()], 3) == outer

    def test_preferred_candidates_win(self):
        inner = Subspace.zero(2)
        outer = Subspace.full(2)
        picked = complement_in(inner, outer, preferred=[(2, 2), (1, 0)])
        assert picked.ints == ((2, 2), (1, 0)) and picked.dens == (1, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_contract(self, data):
        """Rows in the stored form, completing ``inner`` to ``outer`` one
        row per missing dimension, with the usable preferred rows first."""
        n, a_rows, b_rows = data.draw(mixed_pairs())
        _, preferred = data.draw(mixed_rows(cols=n))
        inner = Subspace.span(a_rows, n)
        outer = inner + Subspace.span(b_rows, n)
        result = complement_in(inner, outer, preferred=preferred)
        assert result.cols == n and result.rows == outer.dim - inner.dim
        assert result == rational_matrix(result.row_list(), cols=n)
        for ints, den in zip(result.ints, result.dens):
            assert type(ints) is tuple and all(type(e) is int for e in ints)
            assert den > 0 and gcd(den, *ints) == 1
        assert inner + image(result) == outer
        span, taken = inner, []
        for v in preferred:
            if span == outer:
                break
            if v in outer and v not in span:
                taken.append(v)
                span = span + Subspace.span([v], n)
        assert result.row_list()[:len(taken)] == taken

    def test_rejects_non_nested_input(self):
        inner = Subspace.span([(1, 1)], 2)
        outer = Subspace.span([(1, 0)], 2)
        with pytest.raises(LinearAlgebraError):
            complement_in(inner, outer)

    def test_preimage(self):
        m = rational_matrix([[1, 0], [0, 0], [0, 1]])
        target = Subspace.span([(1, 0)], 2)
        pre = preimage(m, target)
        assert pre == Subspace.span([(1, 0, 0), (0, 1, 0)], 3)
        assert preimage(m, Subspace.full(2)) == Subspace.full(3)
        assert preimage(m, Subspace.zero(2)) == kernel(m)

    def test_preimage_is_kernel_of_map_modulo_target(self):
        """The residual kernel equals the kernel of ``M`` followed by the
        projection that clears the target's pivot coordinates."""
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 6)
            m = random_matrix(rng, rng.randint(0, 6), n, bound=3)
            target = image(random_matrix(rng, rng.randint(0, n), n, bound=3))
            reducer = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for p, row in zip(target.pivots, target.basis.row_list()):
                reducer[p] = [x - y for x, y in zip(reducer[p], row)]
            pre = preimage(m, target)
            assert pre == kernel(m @ rational_matrix(reducer, cols=n))
            assert all(vec_matmul(v, m) in target for v in pre.basis.row_list())


class TestSerialization:
    @settings(max_examples=80, deadline=None)
    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(str(q)) == q

    def test_canonical_forms(self):
        assert str(Fraction(4, 2)) == "2"
        assert str(Fraction(-1, 2)) == "-1/2"
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        with pytest.raises(LinearAlgebraError):
            parse_rational("1/0")
        with pytest.raises(LinearAlgebraError):
            parse_rational("0.5x")

    def test_failed_parses_stay_failures(self):
        for text in ("1/0", " 1/0 ", "x", "1e9", "9" * 30 + "/0"):
            for _ in range(2):
                with pytest.raises(LinearAlgebraError):
                    parse_rational(text)
        assert parse_rational(" -1 ") is parse_rational("-1")
        assert parse_rational("12345678901234567890/3") == Fraction(12345678901234567890, 3)


@st.composite
def mixed_rows(draw, max_rows=5, cols=None, max_cols=5):
    """Rows with different denominators and signs: each is an integer row,
    or a rational combination of the two rows before it, over a signed
    denominator of its own, so the rank can fall short."""
    cols = draw(st.integers(1, max_cols)) if cols is None else cols
    out = []
    for _ in range(draw(st.integers(0, max_rows))):
        if len(out) >= 2 and draw(st.booleans()):
            a, b = draw(rationals), draw(rationals)
            ints = [a * x + b * y for x, y in zip(out[-1], out[-2])]
        else:
            ints = draw(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols))
        den = draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))
        out.append(tuple(Fraction(e) / den for e in ints))
    return cols, out


@st.composite
def mixed_matrices(draw, max_rows=5, cols=None, max_cols=5):
    cols, rows = draw(mixed_rows(max_rows, cols, max_cols))
    return rational_matrix(rows, cols=cols)


@st.composite
def mixed_pairs(draw):
    """Two spans of mixed rows in one ambient space."""
    n, a = draw(mixed_rows(max_rows=5))
    _, b = draw(mixed_rows(max_rows=5, cols=n))
    return n, a, b


def assert_canonical(space):
    """The stored basis rows: primitive, each over its positive pivot
    entry, which is the least common denominator of its basis row."""
    basis = space.basis
    assert len(basis.ints) == len(basis.dens) == space.dim
    for ints, den, p, row in zip(basis.ints, basis.dens, space.pivots, basis.row_list()):
        assert type(ints) is tuple and all(type(e) is int for e in ints)
        assert gcd(*ints) == 1 and ints[p] == den > 0
        assert den == lcm(*(e.denominator for e in row))
        assert ints == tuple(e * den for e in row)
    return space


class TestIntegerCore:
    """Every subspace operation against an independent oracle, on rows with
    different denominators and signs: a transform that dropped the
    per-row denominators would return the wrong relations."""

    @settings(max_examples=80, deadline=None)
    @given(mixed_matrices())
    def test_kernel(self, m):
        ker = assert_canonical(kernel(m))
        assert ker.basis.row_list() == sympy_left_kernel(m.row_list(), m.rows, m.cols)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_preimage(self, data):
        m = data.draw(mixed_matrices())
        _, target_rows = data.draw(mixed_rows(cols=m.cols))
        target = Subspace.span(target_rows, m.cols)
        pre = assert_canonical(preimage(m, target))
        assert pre.basis.row_list() == sympy_preimage(m.row_list(), m.rows, m.cols,
                                                      target_rows)

    @settings(max_examples=80, deadline=None)
    @given(mixed_pairs())
    def test_meet_and_join(self, pair):
        n, a_rows, b_rows = pair
        a, b = Subspace.span(a_rows, n), Subspace.span(b_rows, n)
        meet = sympy_intersection(a_rows, b_rows, n)
        assert assert_canonical(a & b).basis.row_list() == meet
        assert assert_canonical(b & a).basis.row_list() == meet
        join = sympy_rowspace(a_rows + b_rows, n)
        assert assert_canonical(a + b).basis.row_list() == join

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_apply_and_image(self, data):
        m = data.draw(mixed_matrices())
        _, rows = data.draw(mixed_rows(cols=m.rows))
        space = Subspace.span(rows, m.rows)
        m_rows = m.row_list()
        pushed = [tuple(sum((x * m_rows[k][j] for k, x in enumerate(row)), Fraction(0))
                        for j in range(m.cols)) for row in rows]
        assert assert_canonical(space.apply(m)).basis.row_list() == \
            sympy_rowspace(pushed, m.cols)
        assert assert_canonical(image(m)).basis.row_list() == \
            sympy_rowspace(m.row_list(), m.cols)

    @settings(max_examples=80, deadline=None)
    @given(mixed_pairs())
    def test_containment(self, pair):
        n, a_rows, b_rows = pair
        a, b = Subspace.span(a_rows, n), Subspace.span(b_rows, n)
        rank_b = bareiss_rank(b_rows)
        inside = bareiss_rank(a_rows + b_rows) == rank_b
        assert (a <= b) == inside
        assert image_in(rational_matrix(a_rows, cols=n), b) == inside
        for v in a_rows:
            assert (v in b) == (bareiss_rank(b_rows + [v]) == rank_b)
        assert all(row in a for row in a_rows)

    def test_from_ints_brings_rows_to_lowest_terms(self):
        m = Matrix.from_ints([[2, 4], [0, 0]], [6, 5], 2)
        assert m.ints == ((1, 2), (0, 0)) and m.dens == (3, 1)
        rational = rational_matrix([[Fraction(1, 3), Fraction(2, 3)], [0, 0]])
        assert m == rational and hash(m) == hash(rational)
        for rows, dens, cols in (([[1, 2]], [1], 3), ([[1]], [1, 1], 1), ([[1]], [0], 1),
                                 ([[1]], [-2], 1)):
            with pytest.raises(LinearAlgebraError):
                Matrix.from_ints(rows, dens, cols)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_from_ints_matches_the_rational_rows(self, data):
        """Scaled integer rows over scaled denominators, as the twist maps
        build them: the scale may be negative and a row may be zero.  Each
        row is stored over the least common denominator of its entries."""
        cols = data.draw(st.integers(0, 5))
        rows = data.draw(st.lists(st.lists(st.integers(-12, 12), min_size=cols,
                                           max_size=cols), max_size=5))
        dens = data.draw(st.lists(st.integers(1, 12), min_size=len(rows),
                                  max_size=len(rows)))
        scale = data.draw(rationals.filter(bool))
        m = Matrix.from_ints([[scale.numerator * e for e in row] for row in rows],
                             [scale.denominator * den for den in dens], cols)
        rational = [tuple(scale * Fraction(e, den) for e in row) for row, den in zip(rows, dens)]
        assert m.rows == len(rows) and m.cols == cols and m.row_list() == rational
        for ints, den, row in zip(m.ints, m.dens, rational):
            assert den == lcm(*(e.denominator for e in row))
            assert list(ints) == [e * den for e in row]

    def test_zero_and_full_carry_rows(self):
        for n in range(4):
            assert_canonical(Subspace.zero(n))
            assert_canonical(Subspace.full(n))


class TestResidualSteps:
    """A subspace keeps the steps ``_residuals`` reduces vectors with, built
    on its first use: a space warmed by many calls answers every question
    as a cold copy of it does, and its steps are built once."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_warm_space_answers_as_a_cold_copy(self, data):
        n, rows = data.draw(mixed_rows(max_rows=5))
        warm = Subspace.span(rows, n)

        def cold():
            return Subspace(warm.ambient_dim, warm.basis, warm.pivots)

        vectors = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
        assert warm._steps is None
        warm._holds([data.draw(vectors)])
        steps = warm._steps
        free, scale, scaled = steps
        assert type(free) is tuple and type(scaled) is tuple
        assert all(type(row) is tuple for _, row in scaled) and scale > 0
        for _ in range(data.draw(st.integers(2, 6))):
            batch = data.draw(st.lists(vectors, max_size=4))
            other = Subspace.span(data.draw(mixed_rows(cols=n))[1], n)
            m = data.draw(mixed_matrices(cols=n))
            assert warm._residuals(batch) == cold()._residuals(batch)
            assert warm._holds(batch) == cold()._holds(batch)
            assert (warm & other) == (cold() & other) and (other & warm) == (other & cold())
            assert (other <= warm) == (other <= cold())
            assert image_in(m, warm) == image_in(m, cold())
            assert preimage(m, warm) == preimage(m, cold())
        assert warm._steps is steps


def unit(n, axis):
    return tuple(Fraction(int(j == axis)) for j in range(n))


@st.composite
def summands(draw, n):
    """``(rows, space)`` for one space of Q^n: the zero space, the full
    space, a coordinate subspace, or the span of mixed rows, whose stored
    pivot entries are often not 1."""
    kind = draw(st.sampled_from(["zero", "full", "coordinate", "mixed"]))
    if kind == "zero":
        return [], Subspace.zero(n)
    if kind == "full":
        return [unit(n, a) for a in range(n)], Subspace.full(n)
    if kind == "coordinate":
        rows = [unit(n, a) for a in sorted(draw(st.sets(st.integers(0, n - 1))))]
    else:
        rows = draw(mixed_rows(cols=n))[1]
    return rows, Subspace.span(rows, n)


class TestStackedSum:
    """``Subspace.sum`` spans several spaces from one elimination of their
    stacked basis rows: it equals chained ``+`` and the sympy RREF of the
    stacked rows."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_chained_sum_and_stacked_rref(self, data):
        n = data.draw(st.integers(1, 5))
        drawn = data.draw(st.lists(summands(n), max_size=4))
        spaces = [space for _, space in drawn]
        stacked = assert_canonical(Subspace.sum(spaces, n))
        chained = Subspace.zero(n)
        for space in spaces:
            chained = chained + space
        assert stacked == chained
        rows = [row for rows, _ in drawn for row in rows]
        assert stacked.basis.row_list() == sympy_rowspace(rows, n)
        assert stacked.dim == bareiss_rank(rows)

    def test_non_unit_pivot_entries(self):
        half, third, fifth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
        a_rows = [(half, third, 0, 0)]
        b_rows = [(0, 2 * fifth, 1, 0), (third, 0, 0, half)]
        a, b = Subspace.span(a_rows, 4), Subspace.span(b_rows, 4)
        assert a.basis.dens == (3,) and max(b.basis.dens) > 1
        stacked = assert_canonical(Subspace.sum([a, b], 4))
        assert stacked == a + b
        assert stacked.basis.row_list() == sympy_rowspace(a_rows + b_rows, 4)
        assert max(stacked.basis.dens) > 1

    def test_no_spaces_is_the_zero_space(self):
        assert Subspace.sum([], 3) == Subspace.zero(3)
        assert Subspace.sum(iter([Subspace.full(2)]), 2) == Subspace.full(2)

    def test_ambient_mismatch_raises(self):
        with pytest.raises(LinearAlgebraError):
            Subspace.sum([Subspace.zero(2), Subspace.full(3)], 2)
        with pytest.raises(LinearAlgebraError):
            Subspace.full(2) + Subspace.full(3)


@st.composite
def pivot_only_spaces(draw):
    """``(n, rows)`` for a space of Q^n holding coordinate vectors, so those
    of its basis rows are zero on every free column, beside some mixed rows,
    sparse rows (zero on some free columns but not all) or none (a
    coordinate subspace)."""
    n = draw(st.integers(1, 6))
    axes = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    extra = draw(mixed_rows(max_rows=2, cols=n))[1]
    sparse = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 3)]),
                      min_size=n, max_size=n)
    extra += [tuple(map(Fraction, row)) for row in draw(st.lists(sparse, max_size=2))]
    return n, [unit(n, a) for a in axes] + extra


class TestTrimmedResidualSteps:
    """Residual steps keep only the basis rows that are nonzero on a free
    column; on spaces with coordinate vectors in them, where rows are
    dropped, every question read off the residuals agrees with the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agree_with_the_oracle(self, data):
        n, rows = data.draw(pivot_only_spaces())
        space = Subspace.span(rows, n)
        rank = bareiss_rank(rows)
        coeffs = st.lists(st.integers(-3, 3), min_size=space.dim, max_size=space.dim)
        noise = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
        vectors = []
        for _ in range(data.draw(st.integers(1, 4))):
            inside = [sum(c * row[j] for c, row in zip(data.draw(coeffs), space.basis.ints))
                      for j in range(n)]
            vectors.append([x + e for x, e in zip(inside, data.draw(noise))])
            assert space._holds([vectors[-1]]) == (bareiss_rank(rows + [vectors[-1]]) == rank)
        assert space._holds(vectors) == (bareiss_rank(rows + vectors) == rank)

        free, scale, steps = space._steps
        kept = [p for p, row in zip(space.pivots, space.basis.ints)
                if any(row[j] for j in free)]
        assert [p for p, _ in steps] == kept and all(any(step) for _, step in steps)
        assert len(kept) < space.dim

        other_rows = data.draw(mixed_rows(cols=n))[1]
        other = Subspace.span(other_rows, n)
        assert (other <= space) == (bareiss_rank(rows + other_rows) == rank)
        assert (space <= other) == (bareiss_rank(rows + other_rows) == bareiss_rank(other_rows))
        meet = sympy_intersection(rows, other_rows, n)
        assert (space & other).basis.row_list() == meet
        assert (other & space).basis.row_list() == meet
        m = data.draw(mixed_matrices(cols=n))
        assert preimage(m, space).basis.row_list() == sympy_preimage(
            m.row_list(), m.rows, m.cols, rows)

    def test_coordinate_subspace_keeps_no_step(self):
        space = Subspace.span([unit(4, 1), unit(4, 3)], 4)
        assert not space._holds([[0, 1, 1, 0]]) and space._holds([[0, 5, 0, -2]])
        assert space._steps == ((0, 2), 1, ())
