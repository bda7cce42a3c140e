import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

import logmono.ideal
import logmono.rank
from logmono.chart import ChartedPair, MorphismOfPairs, RationalPoint
from logmono.poly import Polynomial
from logmono.rank import (
    PROBE_MAX_BITS,
    geometric_rank,
    graph_ideal,
    image_closure_dimension,
    jacobian,
    jacobian_at,
    log_rank_at_point,
    probe_point,
    rank_at_point,
    rational_matrix_rank,
    restrict_morphism,
    restricted_geometric_rank,
    symbolic_matrix_rank,
)

import cli_corpus
from helpers import (
    P,
    assert_canonical,
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


class TestGenericRankProbe:
    """``geometric_rank`` returns min(n, N) when the Jacobian reaches that
    rank at ``probe_point(n)``, and otherwise the polynomial kernel's
    rank; ``jacobian_at`` is the Jacobian's value at a point."""

    def test_probe_point_is_the_first_primes(self):
        assert probe_point(0) == ()
        assert probe_point(1) == (2,)
        assert probe_point(7) == (2, 3, 5, 7, 11, 13, 17)

    def test_geometric_rank_equals_the_polynomial_kernel(self, monkeypatch):
        # The 509 corpus morphisms hold criterion 3's corpus: it is
        # rank_law_corpus, the same seed and draws.
        phis = cli_corpus.corpus_morphisms()
        want = [symbolic_matrix_rank(jacobian(phi)) for phi in phis]
        tops = [min(len(phi.source.variables), len(phi.target.variables)) for phi in phis]
        kernel = _count_calls(monkeypatch, logmono.rank, "symbolic_matrix_rank")
        assert [geometric_rank(phi) for phi in phis] == want
        # 410 ranks are certified at the probe point.  99 fall back: 96 of
        # rank below min(n, N), and 3 whose maximal minors all vanish there.
        assert sum(w < t for w, t in zip(want, tops)) == 96
        assert len(kernel) == 99

    @pytest.mark.parametrize(
        "n, maps, rank",
        [
            (1, ["(w0 - 2)^2"], 1),
            (2, ["(w0 - 2)*(w1 - 3)"], 1),
            (2, ["(w0 - 2)^2", "w1"], 2),
            (2, ["1/2*(w0 - 2)^2", "2/3*w1^3 - w0"], 2),
            (3, ["(w0 - 2)*(w1 - 3)", "w2"], 2),
            (1, ["(w0 - 2)^2", "(w0 - 2)^3"], 1),
            (3, ["(w0 - 2)*(w1 - 3)*(w2 - 5)", "w0*w1", "w2^2 - 1/3*w1"], 3),
            (2, ["w0 + w1", "(w0 + w1)^2"], 1),
        ],
    )
    def test_minors_vanishing_at_the_probe_fall_back(self, monkeypatch, n, maps, rank):
        # The probe point is (2, 3, 5): every maximal minor of these
        # Jacobians vanishes there, and the last map has rank 1 < 2.
        src = ChartedPair(tuple(f"w{k}" for k in range(n)), ())
        tgt = ChartedPair(tuple(f"x{k}" for k in range(len(maps))), ())
        comps = {x: P(m, src.variables) for x, m in zip(tgt.variables, maps)}
        phi = MorphismOfPairs(src, tgt, comps)
        top = min(n, len(maps))
        assert rational_matrix_rank(jacobian_at(phi, probe_point(n))) < top
        kernel = _count_calls(monkeypatch, logmono.rank, "symbolic_matrix_rank")
        assert geometric_rank(phi) == reference_symbolic_rank(jacobian(phi)) == rank
        assert len(kernel) == 1

    @pytest.mark.parametrize("degree, probed", [(5000, True), (5001, False), (10**9, False)])
    def test_a_power_over_the_bit_budget_is_not_probed(self, monkeypatch, degree, probed):
        # The probe point is (2, 3); 3 has 2 bits, so u^d*v is probed while
        # 2 * (d + 1) bits fit the budget.  The polynomial kernel keeps the
        # exponent as a number, where the probe would expand 3^d.
        assert PROBE_MAX_BITS == 10_000
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x",), ("x",))
        phi = MorphismOfPairs(src, tgt, {"x": P(f"u^{degree - 1}*v", src.variables)})
        at = _count_calls(monkeypatch, logmono.rank, "jacobian_at")
        kernel = _count_calls(monkeypatch, logmono.rank, "symbolic_matrix_rank")
        assert geometric_rank(phi) == 1
        assert (len(at), len(kernel)) == ((1, 0) if probed else (0, 1))

    def test_jacobian_at_is_the_evaluated_jacobian(self):
        # At the first 9 points of {0, 1, -2}^n, the probe point and a
        # point of Fractions; ints stay ints where coefficients and point
        # are ints.
        points = ints = 0
        for phi in cli_corpus.corpus_morphisms():
            n = len(phi.source.variables)
            integral = all(
                type(c) is int for p in phi.components.values() for c in p.terms.values()
            )
            fractions = tuple(Fraction((-1) ** k * (k + 1), 2 * k + 3) for k in range(n))
            for pt in [*islice(product((0, 1, -2), repeat=n), 9), probe_point(n), fractions]:
                got = jacobian_at(phi, pt)
                assert got == [[e.evaluate(pt) for e in row] for row in jacobian(phi)], (phi, pt)
                points += 1
                if integral and all(type(x) is int for x in pt):
                    assert all(type(x) is int for row in got for x in row)
                    ints += 1
        assert (points, ints) == (5383, 4874)

    def test_point_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"^point of length 3 for ambient of length 2$"):
            rank_at_point(simple_phi(), RationalPoint((1, 2, 3)))
        with pytest.raises(ValueError, match=r"^point of length 1 for ambient of length 2$"):
            jacobian_at(simple_phi(), (1,))


class TestRestriction:
    def test_restrict_morphism_drops_variables(self):
        phi = simple_phi()
        r = restrict_morphism(phi, ("u",))
        assert r.source.variables == ("v",)
        assert r.components["x"].is_zero()
        assert r.components["y"].is_zero()

    def test_restriction_is_substitution_of_zero(self):
        # Projecting exponent tuples agrees with substituting 0 for each
        # variable of D and itself for every other variable.
        phis = [phi for phi, _ in normal_form_corpus()] + pair_condition_corpus()
        restricted = 0
        for phi in phis:
            div = phi.source.divisor_vars
            for D in [div[:1], div[1:], div]:
                if len(D) == len(phi.source.variables):
                    continue
                rest = tuple(v for v in phi.source.variables if v not in D)
                images = {
                    v: Polynomial.zero(rest) if v in D else Polynomial.variable(v, rest)
                    for v in phi.source.variables
                }
                r = restrict_morphism(phi, D)
                assert r.source.variables == rest
                assert r.source.divisor_vars == tuple(v for v in div if v not in D)
                for x, p in phi.components.items():
                    assert r.components[x] == p.substitute(images)
                    assert_canonical(r.components[x])
                restricted += bool(D)
        assert restricted == 644

    def test_restriction_to_a_free_variable_rejected(self):
        with pytest.raises(ValueError, match="'v' is not a source divisor variable"):
            restrict_morphism(simple_phi(), ("v",))

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

    def test_buchberger_work_over_the_corpus_is_pinned(self, monkeypatch):
        # Pinned before the Buchberger bookkeeping was reworked: the same
        # pairs formed and dropped, in the same order, reduce the same
        # S-polynomials and install the same elements.  Over the 509 corpus
        # morphisms, 1805 records are installed (input generators and new
        # basis elements) and 1552 reductions run (S-polynomials and the
        # interreduction of the kept block); the digest covers every
        # installed record and every reduction's input, in order, as
        # packed ints (so a change of packing re-pins it).
        digest = hashlib.sha256()
        record, reduce = logmono.ideal._primitive_record, logmono.ideal._reduce

        def recording(lt, terms):
            out = record(lt, terms)
            digest.update(repr(("record", out)).encode())
            return out

        def reducing(work, divisors, guard):
            digest.update(repr(("reduce", sorted(work.items()), len(divisors))).encode())
            return reduce(work, divisors, guard)

        monkeypatch.setattr(logmono.ideal, "_primitive_record", recording)
        monkeypatch.setattr(logmono.ideal, "_reduce", reducing)
        installed = _count_calls(monkeypatch, logmono.ideal, "_primitive_record")
        reductions = _count_calls(monkeypatch, logmono.ideal, "_reduce")
        dims = Counter(image_closure_dimension(phi) for phi in cli_corpus.corpus_morphisms())
        assert dims == {2: 345, 1: 148, 3: 9, 0: 7}
        assert (len(installed), len(reductions)) == (1805, 1552)
        assert digest.hexdigest() == (
            "1535ba646305db6dc719048054000c736ee5ed6a4da57ef55ad0a76d80aa5a29"
        )


def _count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls
