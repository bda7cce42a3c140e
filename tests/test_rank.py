import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import logmono.rank
from logmono.chart import ChartedPair, MorphismOfPairs, RationalPoint
from logmono.poly import Polynomial
from logmono.rank import (
    geometric_rank,
    graph_ideal,
    image_closure_dimension,
    jacobian,
    log_rank_at_point,
    rank_at_point,
    rational_matrix_rank,
    restrict_morphism,
    restricted_geometric_rank,
    symbolic_matrix_rank,
)

from helpers import (
    P,
    empty_divisor_corpus,
    monomial_surface_corpus,
    normal_form_corpus,
    origin,
    pair_condition_corpus,
    rank_law_corpus,
    reference_graph_ideal,
    reference_rational_matrix_rank,
    reference_symbolic_rank,
)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 5 x 5 with many zeros and negative entries;
    some rows are integer combinations of earlier ones, so that ranks
    below full occur."""
    ncols = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-10**12, 10**12))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


class TestMatrixRank:
    def test_rational_rank_oracles(self):
        F = Fraction
        assert rational_matrix_rank([]) == 0
        assert rational_matrix_rank([[F(0), F(0)]]) == 0
        assert rational_matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rational_matrix_rank([[F(1), F(2)], [F(3), F(4)]]) == 2

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_integer_rank_matches_fraction_reference(self, rows):
        assert rational_matrix_rank(rows) == reference_rational_matrix_rank(rows)

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices(), st.data())
    def test_rank_with_fraction_entries_matches_reference(self, rows, data):
        # Divide some entries by small denominators, so that each row's
        # denominators must be cleared before integer elimination; a row
        # rescaled by a fraction keeps the rank the reference computes.
        denominators = st.sampled_from([1, 1, 2, 3, 4, 6, 7])
        rows = [
            [Fraction(x, data.draw(denominators)) for x in r] for r in rows
        ]
        if rows and data.draw(st.booleans()):
            scale = Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
            rows.append([scale * x for x in data.draw(st.sampled_from(rows))])
        assert rational_matrix_rank(rows) == reference_rational_matrix_rank(rows)

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices(), st.booleans(), st.booleans())
    def test_int_and_polynomial_matrices_share_one_kernel(self, rows, zero_row, zero_col):
        # A zero first row or column puts the first pivot off the corner;
        # the same matrix as constant polynomials takes the polynomial path.
        if rows and zero_row:
            rows[0] = [0] * len(rows[0])
        if zero_col:
            rows = [[0] + r[1:] if r else r for r in rows]
        want = reference_rational_matrix_rank(rows)
        assert rational_matrix_rank(rows) == want
        amb = ("x", "y")
        assert symbolic_matrix_rank([[Polynomial.constant(x, amb) for x in r] for r in rows]) == want

    def test_int_matrix_never_divides_polynomials(self, monkeypatch):
        def refuse(p, q):
            raise AssertionError("exact_divide on an integer matrix")

        monkeypatch.setattr(logmono.rank, "exact_divide", refuse)
        rng = random.Random(5)
        for n in range(1, 6):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            rows.append([Fraction(x, 3) for x in rows[0]])
            assert rational_matrix_rank(rows) == reference_rational_matrix_rank(rows)

    def test_symbolic_rank_oracles(self):
        amb = ("x", "y")
        x, y = P("x", amb), P("y", amb)
        assert symbolic_matrix_rank([[x, y], [x * x, x * y]]) == 1
        assert symbolic_matrix_rank([[x, y], [y, x]]) == 2
        assert symbolic_matrix_rank([[Polynomial.zero(amb)]]) == 0

    def test_first_step_divides_by_nothing(self, monkeypatch):
        # A 2 x n matrix takes one Bareiss step, whose previous pivot would
        # be the constant 1, so no exact division runs at all.
        calls = []
        real = logmono.rank.exact_divide
        monkeypatch.setattr(
            logmono.rank, "exact_divide", lambda p, q: calls.append(q) or real(p, q)
        )
        amb = ("x", "y")
        x, y = P("x", amb), P("y", amb)
        assert symbolic_matrix_rank([[x, y, x * y], [y, x, x + y]]) == 2
        assert symbolic_matrix_rank([[x, y], [x * x, x * y]]) == 1
        assert calls == []
        # A third row takes a second step, divided by the first pivot.
        assert symbolic_matrix_rank([[x, y, x * y], [y, x, x + y], [x * x, y * y, x]]) == 3
        assert calls and all(q == x for q in calls)

    def test_symbolic_rank_matches_reference_rank(self):
        rows = [jacobian(phi) for phi in rank_law_corpus()]
        # Every first pivot here has degree 1 or more, so the second step
        # divides by a polynomial that is not a constant.
        amb = ("x", "y", "z")
        rows.append(
            [
                [P(e, amb) for e in r]
                for r in [
                    ["x*y", "y^2 + z", "x + z"],
                    ["x^2", "x*y + x*z", "z^2 + x*z"],
                    ["y*z", "y^2*z + z^2", "x*y + y*z"],
                ]
            ]
        )
        assert min(e.total_degree for e in rows[-1][0]) > 0
        ranks = [symbolic_matrix_rank(r) for r in rows]
        assert ranks == [reference_symbolic_rank(r) for r in rows]
        assert len(set(ranks)) >= 3

    def test_symbolic_rank_matches_random_evaluation(self):
        amb = ("x", "y")
        rng = random.Random(13)
        for _ in range(20):
            rows = [
                [
                    Polynomial(
                        {
                            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(
                                rng.randint(-2, 2)
                            )
                        },
                        amb,
                    )
                    for _ in range(3)
                ]
                for _ in range(2)
            ]
            sym = symbolic_matrix_rank(rows)
            pt = (Fraction(rng.randint(2, 40)), Fraction(rng.randint(2, 40), 7))
            num = rational_matrix_rank([[e.evaluate(pt) for e in r] for r in rows])
            assert num <= sym


def simple_phi():
    src = ChartedPair(("u", "v"), ("u",))
    tgt = ChartedPair(("x", "y"), ())
    amb = src.variables
    return MorphismOfPairs(src, tgt, {"x": P("u^2", amb), "y": P("u*v", amb)})


class TestMorphismRanks:
    def test_rank_at_point(self):
        phi = simple_phi()
        assert rank_at_point(phi, origin(phi.source)) == 0
        assert rank_at_point(phi, RationalPoint((1, 1))) == 2

    def test_geometric_rank(self):
        assert geometric_rank(simple_phi()) == 2
        src = ChartedPair(("u", "v"), ())
        amb = src.variables
        tgt = ChartedPair(("x", "y"), ())
        phi = MorphismOfPairs(src, tgt, {"x": P("u", amb), "y": P("u^2", amb)})
        assert geometric_rank(phi) == 1

    def test_log_rank_exceeds_plain_rank_on_divisor(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u^3", amb), "y": P("v", amb)})
        pt = origin(src)
        assert rank_at_point(phi, pt) == 1
        assert log_rank_at_point(phi, pt) == 2


class TestRestriction:
    def test_restrict_morphism_drops_variables(self):
        phi = simple_phi()
        r = restrict_morphism(phi, ("u",))
        assert r.source.variables == ("v",)
        assert r.components["x"].is_zero()
        assert r.components["y"].is_zero()

    def test_restricted_geometric_rank(self):
        phi = simple_phi()
        assert restricted_geometric_rank(phi, ()) == 2
        assert restricted_geometric_rank(phi, ("u",)) == 0


class TestGraphIdeal:
    def test_matches_polynomial_arithmetic(self):
        phis = [phi for phi, _ in normal_form_corpus()]
        phis += empty_divisor_corpus() + monomial_surface_corpus()
        phis += pair_condition_corpus() + rank_law_corpus()
        # Colliding target names, renamed with _img more than once, and
        # Fraction coefficients.
        src = ChartedPair(("x", "x_img", "u"), ("u",))
        tgt = ChartedPair(("u", "x"), ())
        amb = src.variables
        phis.append(
            MorphismOfPairs(
                src, tgt, {"u": P("1/2*x^2 - 3*u + 7/3", amb), "x": P("-2/5*x_img*u", amb)}
            )
        )
        for phi in phis:
            got, tgt_got = graph_ideal(phi)
            want, tgt_want = reference_graph_ideal(phi)
            assert tgt_got == tgt_want
            assert got.ambient == want.ambient
            assert got.generators == want.generators
        assert tgt_got == ("u_img", "x_img_img")


class TestImageDimension:
    def test_dominant_map(self):
        src = ChartedPair(("u", "v"), ())
        tgt = ChartedPair(("x", "y"), ())
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u", amb), "y": P("v", amb)})
        assert image_closure_dimension(phi) == 2

    def test_curve_image(self):
        src = ChartedPair(("t",), ())
        tgt = ChartedPair(("x", "y"), ())
        phi = MorphismOfPairs(
            src, tgt, {"x": P("t^2", ("t",)), "y": P("t^3", ("t",))}
        )
        assert image_closure_dimension(phi) == 1

    def test_constant_map(self):
        src = ChartedPair(("u", "v"), ())
        tgt = ChartedPair(("x",), ())
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("3", amb)})
        assert image_closure_dimension(phi) == 0
        assert geometric_rank(phi) == 0

    def test_name_collision_between_source_and_target(self):
        src = ChartedPair(("x",), ())
        tgt = ChartedPair(("x",), ())
        phi = MorphismOfPairs(src, tgt, {"x": P("x^2", ("x",))})
        assert image_closure_dimension(phi) == 1
