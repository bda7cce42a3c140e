import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from logmono.chart import ChartedPair, MorphismOfPairs, RationalPoint
from logmono.poly import Polynomial
from logmono.rank import (
    geometric_rank,
    image_closure_dimension,
    log_rank_at_point,
    rank_at_point,
    rational_matrix_rank,
    restrict_morphism,
    restricted_geometric_rank,
    symbolic_matrix_rank,
)

from helpers import P, origin, reference_rational_matrix_rank


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

    def test_symbolic_rank_oracles(self):
        amb = ("x", "y")
        x, y = P("x", amb), P("y", amb)
        assert symbolic_matrix_rank([[x, y], [x * x, x * y]]) == 1
        assert symbolic_matrix_rank([[x, y], [y, x]]) == 2
        assert symbolic_matrix_rank([[Polynomial.zero(amb)]]) == 0

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
