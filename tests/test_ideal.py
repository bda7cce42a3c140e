import random
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import logmono.ideal
from logmono.chart import ChartedPair, MorphismOfPairs, validate_pair_condition
from logmono.classify import singular_locus_ideal
from logmono.fitting import log_fitting_ideal
from logmono.ideal import (
    EmptyVarietyError,
    IdealPresentation,
    _rabinowitsch,
    block_order,
    contains_one,
    dimension,
    elimination,
    grevlex_order,
    ideal_membership,
    is_principal_monomial_at,
    local_monomial,
    normal_form,
    radical_membership,
    reduced_groebner_basis,
    residual_value,
)
from logmono.poly import AmbientMismatchError, Polynomial
from logmono.rank import graph_ideal

from helpers import (
    P,
    empty_divisor_corpus,
    linear_membership_oracle,
    max_scan_normal_form,
    monomial_surface_corpus,
    normal_form_corpus,
    pair_condition_corpus,
    plain_radical_membership,
    random_sparse_poly,
    rank_law_corpus,
    reference_elimination,
    reference_is_principal_monomial_at,
    reference_local_monomial,
    reference_residual_value,
)


def I(exprs, amb):
    return IdealPresentation([P(e, amb) for e in exprs], amb)


class TestGroebner:
    def test_known_basis(self):
        # Classic: <x^2 + y, x*y> has reduced basis {y^2, x*y, x^2 + y}.
        amb = ("x", "y")
        gb = I(["x^2 + y", "x*y"], amb).basis()
        assert set(map(str, gb)) == {"y^2", "x*y", "x^2 + y"}

    def test_principal_ideal_basis(self):
        amb = ("x", "y")
        gb = I(["2*x^2*y"], amb).basis()
        assert len(gb) == 1 and gb[0] == P("x^2*y", amb)

    def test_unit_ideal(self):
        amb = ("x",)
        J = I(["x", "x + 1"], amb)
        assert contains_one(J)
        assert J.basis() == [Polynomial.constant(1, amb)]

    def test_basis_is_self_reduced(self):
        amb = ("x", "y", "z")
        rng = random.Random(3)
        for _ in range(15):
            gens = [random_sparse_poly(amb, rng, max_terms=3) for _ in range(3)]
            gb = reduced_groebner_basis(gens, grevlex_order())
            order = grevlex_order()
            for i, g in enumerate(gb):
                rest = gb[:i] + gb[i + 1:]
                if rest:
                    assert normal_form(g, rest, order) == g

    def test_generators_reduce_to_zero(self):
        amb = ("x", "y", "z")
        rng = random.Random(9)
        for _ in range(15):
            gens = [random_sparse_poly(amb, rng, max_terms=3) for _ in range(3)]
            gb = reduced_groebner_basis(gens, grevlex_order())
            for g in gens:
                assert normal_form(g, gb, grevlex_order()).is_zero()

    def test_basis_cache_is_stable(self):
        amb = ("x", "y")
        J = I(["x^2 - y", "x*y - 1"], amb)
        assert J.basis() is J.basis()


class TestMembership:
    def test_simple_membership(self):
        amb = ("x", "y")
        J = I(["x^2 - y"], amb)
        assert ideal_membership(P("x^4 - y^2", amb), J)
        assert not ideal_membership(P("x", amb), J)

    def test_membership_against_linear_oracle(self):
        amb = ("x", "y")
        rng = random.Random(17)
        for _ in range(30):
            gens = [random_sparse_poly(amb, rng, max_terms=2) for _ in range(2)]
            f = random_sparse_poly(amb, rng, max_terms=2)
            J = IdealPresentation(gens, amb)
            got = ideal_membership(f, J)
            bound = f.total_degree + max(g.total_degree for g in gens)
            want = linear_membership_oracle(f, gens, bound)
            while want != got and bound < 15:
                bound += 3
                want = linear_membership_oracle(f, gens, bound)
            assert got == want

    def test_radical_membership(self):
        amb = ("x", "y")
        J = I(["x^2"], amb)
        assert radical_membership(P("x", amb), J)
        assert not ideal_membership(P("x", amb), J)
        assert not radical_membership(P("y", amb), J)


def has_square_content(J):
    return any(e > 1 for g in J.generators for e in g.monomial_content())


class TestRadicalRewrite:
    """radical_membership decides a single-term f with no basis when I has
    a single-term generator on f's support (True), or else when I has at
    most one generator or only single-term generators (False): the radical
    of a monomial ideal is generated by its generators' square-free parts.
    Otherwise it lowers each generator's monomial content to its radical
    first.  None of this may change the answer of the plain Rabinowitsch
    test."""

    def test_corpora_agree_with_plain_rabinowitsch(self):
        phis = [phi for phi, _ in normal_form_corpus()]
        phis += empty_divisor_corpus() + monomial_surface_corpus() + pair_condition_corpus()
        verdicts, rewritten, principal_fitting = set(), 0, 0
        for phi in phis:
            amb = phi.source.variables
            u = phi.source.divisor_product()
            cases = [(u, singular_locus_ideal(phi))]
            cases += [(u, IdealPresentation([p], amb)) for p in phi.components.values()]
            if validate_pair_condition(phi)[0]:
                top = min(len(amb), len(phi.target.variables))
                fitting = [log_fitting_ideal(phi, k) for k in range(1, top + 1)]
                principal = [F for F in fitting if len(F.generators) == 1]
                cases += [(u, F) for F in principal]
                principal_fitting += len(principal)
            for f, J in cases:
                got = radical_membership(f, J)
                assert got == plain_radical_membership(f, J), (phi, f, J)
                verdicts.add(got)
                rewritten += has_square_content(J)
        assert verdicts == {True, False}
        assert rewritten >= 100
        assert principal_fitting >= 150

    @pytest.mark.parametrize(
        "f, gens, expected",
        [
            # f = 1, the divisor product of an empty divisor.
            ("1", [], False),
            ("1", ["u*v + w"], False),
            ("1", ["-3"], True),
            ("1", ["u", "v + 1"], False),
            # A nonzero constant generator, and the zero ideal.
            ("u*v", ["2"], True),
            ("u*v", [], False),
            # Repeated factors: only the monomial one lies on supp(f).
            ("u*v", ["u^3*(u + v)^2"], False),
            ("u*v", ["5*u^3*v^2"], True),
            ("3*u^2*v", ["u*v*(u + 1)"], False),
            # A generator on supp(f) that is not a single term.
            ("u*v", ["(u + v)^2"], False),
            # A single term off supp(f).
            ("u*v", ["u*w"], False),
            ("u*v*w", ["u^2*w"], True),
            # A single-term generator among several, and none.
            ("u*v", ["(u + v)^2", "u^4"], True),
            ("u*v", ["u + w", "v + w^2"], False),
            ("u*v", ["u + w", "v*w"], True),
            ("u*v", ["u + w", "v - w", "w^3"], True),
            # f not a single term, or zero.
            ("u + v", ["(u + v)^3"], True),
            ("u + v", ["u*v"], False),
            ("0", ["u + v"], True),
            # Only single-term generators: True iff one lies on supp(f).
            ("u*v", ["u*w", "v*w"], False),
            ("u*v", ["-2*u^3*w", "5*v*w^2", "w^4"], False),
            ("u", ["v", "w"], False),
            ("u^2*v", ["v*w", "3*u^4", "w^2"], True),
        ],
    )
    def test_rule_cases_agree_with_plain_rabinowitsch(self, f, gens, expected):
        amb = ("u", "v", "w")
        J = I(gens, amb)
        assert radical_membership(P(f, amb), J) is expected
        assert plain_radical_membership(P(f, amb), J) is expected

    @pytest.mark.parametrize("gens", [[], ["u"], ["u*v + 1"], ["u", "v"], ["u + 1", "v"]])
    def test_mismatched_ambient_raises(self, gens):
        # Checked before the closed-form rule, which would otherwise answer
        # for a single-term f and a principal ideal.
        J = I(gens, ("u", "v"))
        with pytest.raises(AmbientMismatchError):
            radical_membership(P("u*v", ("u", "v", "w")), J)

    def test_random_ideals_agree_with_plain_rabinowitsch(self):
        rng = random.Random(19)
        amb = ("x", "y", "z")
        verdicts, rewritten = [], 0
        for _ in range(80):
            gens = [
                random_sparse_poly(amb, rng, max_terms=1, max_deg=6)
                * random_sparse_poly(amb, rng, max_terms=2, max_deg=2)
                for _ in range(rng.randint(1, 3))
            ]
            J = IdealPresentation(gens, amb)
            if rng.random() < 0.5:
                f = P(rng.choice(["x*y*z", "x*y", "y*z", "x"]), amb)
            else:
                f = random_sparse_poly(amb, rng, max_terms=2, max_deg=2)
            got = radical_membership(f, J)
            assert got == plain_radical_membership(f, J), (f, J)
            verdicts.append(got)
            rewritten += has_square_content(J)
        assert 10 <= sum(verdicts) <= 70  # both verdicts occur
        assert rewritten >= 40

    def test_random_monomial_ideals_agree_with_plain_rabinowitsch(self):
        # A single-term f against one to four single-term generators:
        # whenever no generator lies on supp(f) and there are two or more,
        # the answer is False with no basis.
        rng = random.Random(25)
        amb = ("u", "v", "w")

        def term():
            exps = (rng.randint(0, 3) for _ in amb)
            coeff = rng.choice([-3, -2, -1, 1, 2, 5])
            return Polynomial({tuple(exps): coeff}, amb)

        verdicts, by_supports = [], 0
        for _ in range(1500):
            f = term()
            J = IdealPresentation([term() for _ in range(rng.randint(1, 4))], amb)
            got = radical_membership(f, J)
            assert got == plain_radical_membership(f, J), (f, J)
            verdicts.append(got)
            (b,) = f.terms
            on_support = any(
                not any(x and not y for x, y in zip(a, b)) for g in J.generators for a in g.terms
            )
            by_supports += len(J.generators) >= 2 and not on_support
        assert 300 <= sum(verdicts) <= 1200  # both verdicts occur
        assert by_supports >= 300


class TestRadicalMembershipTime:
    """Sing in D for one-component maps of high degree, by radical
    membership of u over the Jacobian minors, stays fast."""

    @pytest.mark.parametrize(
        "component, bound, expected",
        [
            # The minors 3000*u^2999*v and u^3000; the minor u^3000 decides
            # it with no basis.
            ("u^3000*v", 1.0, True),
            # Two minors, neither a single term, each with a monomial content
            # of degree about 3000: only dropping the content's exponents
            # above 1 keeps the Rabinowitsch basis small.
            ("u^3000*v + u^3000*v^2", 1.0, True),
            ("u^3000*v^2 + 5*u^2000*v^3", 2.0, False),
            # A basis of about 1000 elements; no reduction step meets a
            # leading coefficient other than 1.
            ("7*u^1000*v - 3*v^3 + 2*v^2", 2.0, True),
            # Nearly every reduction step meets a leading coefficient other
            # than 1, so the integer coefficients must not grow with the
            # exponent.
            ("7*u^100*v - 3*v^3 + 2*v^2 + 5*u*v^2", 2.0, False),
        ],
    )
    def test_large_exponent_is_fast(self, component, bound, expected):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x",), ("x",))
        phi = MorphismOfPairs(src, tgt, {"x": P(component, src.variables)})
        start = time.perf_counter()
        got = radical_membership(src.divisor_product(), singular_locus_ideal(phi))
        assert time.perf_counter() - start < bound
        assert got is expected


def assert_elimination_basis_is_reduced(E: IdealPresentation) -> bool:
    """elimination() stores the kept part of its reduced block-order basis
    as the result's grevlex basis: it must be the reduced grevlex basis of
    the elimination ideal, in the order reduced_groebner_basis gives.
    Returns whether the ideal is nonzero."""
    stored = E._basis
    assert stored == E.generators
    assert stored == reduced_groebner_basis(list(E.generators), grevlex_order()), E
    return bool(stored)


def assert_elimination_matches_reference(J: IdealPresentation, keep) -> bool:
    """elimination(J, keep) equals term for term the kept part of the whole
    reduced block-order basis (``helpers.reference_elimination``), in the
    same order, and its stored basis is reduced.  Returns whether the
    ideal is nonzero."""
    E = elimination(J, keep)
    expected = reference_elimination(J, keep)
    assert E.ambient == tuple(keep)
    assert E.generators == expected, J
    assert [str(g) for g in E.generators] == [str(g) for g in expected]
    return assert_elimination_basis_is_reduced(E)


class TestEliminationBasis:
    def test_graph_ideals_of_the_corpora(self):
        phis = [phi for phi, _ in normal_form_corpus()]
        phis += empty_divisor_corpus() + monomial_surface_corpus()
        phis += pair_condition_corpus() + rank_law_corpus()
        nonzero = sum(
            assert_elimination_matches_reference(*graph_ideal(phi)) for phi in phis
        )
        assert nonzero >= 100

    def test_seeded_eliminations_and_saturations(self):
        rng = random.Random(31)
        amb = ("a", "b", "x", "y")
        nonzero = 0
        for _ in range(60):
            gens = [random_sparse_poly(amb, rng, max_terms=3) for _ in range(3)]
            keep = amb[rng.randint(1, 3):]
            J = IdealPresentation(gens, amb)
            nonzero += assert_elimination_matches_reference(J, keep)
            f = random_sparse_poly(amb, rng, max_terms=2)
            # The saturation (J : f^infinity).
            nonzero += assert_elimination_matches_reference(_rabinowitsch(J, f), amb)
        assert nonzero >= 60

    def test_zero_generators_and_the_zero_ideal(self):
        amb = ("t", "x", "y")
        zero = Polynomial.zero(amb)
        for gens, keep in [
            ([zero, P("x - t", amb), zero, P("y - t^2", amb)], ("x", "y")),
            ([zero], ("x", "y")),
            ([P("x - t", amb), P("y - t^2", amb)], ("y", "x")),
            ([], ("y",)),
            ([], amb),
            ([zero, P("t*x - 1", amb), P("t*y", amb)], ("x", "y")),
            ([P("x*y - t^3", amb), zero], amb),
            ([P("x - 1", amb), P("x", amb), zero], ("y",)),
        ]:
            assert_elimination_matches_reference(IdealPresentation(gens, amb), keep)
        assert elimination(IdealPresentation([zero], amb), ("x",)).is_zero_ideal()

    def test_dimension_reads_the_stored_basis(self, monkeypatch):
        E = elimination(I(["x - t", "y - t^2"], ("t", "x", "y")), ("x", "y"))
        monkeypatch.setattr(
            logmono.ideal, "reduced_groebner_basis", lambda *args: pytest.fail()
        )
        assert dimension(E) == 1
        assert not contains_one(E)


class TestEliminationDimension:
    def test_eliminate_parametrization(self):
        # Twisted-cubic style: x = t, y = t^2 gives y - x^2.
        amb = ("t", "x", "y")
        J = I(["x - t", "y - t^2"], amb)
        E = elimination(J, ("x", "y"))
        assert any(g == P("y - x^2", ("x", "y")) or g == P("x^2 - y", ("x", "y"))
                   for g in E.generators)

    def test_block_order_key_separates(self):
        ord2 = block_order(1)
        # Any power of the eliminated first variable beats the rest.
        assert ord2.key((1, 0, 0)) > ord2.key((0, 5, 5))

    def test_dimension_oracles(self):
        amb = ("x", "y", "z")
        assert dimension(I([], amb)) == 3
        assert dimension(I(["x"], amb)) == 2
        assert dimension(I(["x", "y"], amb)) == 1
        assert dimension(I(["x", "y", "z"], amb)) == 0
        assert dimension(I(["x*y - 1"], amb)) == 2
        with pytest.raises(EmptyVarietyError):
            dimension(I(["x", "x + 1"], amb))


class TestPrincipalMonomialAt:
    def test_principal_monomial_accept(self):
        amb = ("u", "v")
        J = I(["u^2*v + u^2*v^2"], amb)
        cert = is_principal_monomial_at(J, (0, 0), ("u", "v"))
        assert cert is not None
        assert cert.generator_monomial.exponents == (2, 1)
        assert cert.residual_witness.evaluate((0, 0)) != 0

    def test_content_shared_by_two_generators(self):
        amb = ("u", "v")
        J = I(["u^3*v", "u^3*v^2 + u^3*v"], amb)
        cert = is_principal_monomial_at(J, (0, 0), ("u", "v"))
        assert cert is not None
        assert cert.generator_monomial.exponents == (3, 1)

    def test_non_divisor_content_rejected(self):
        amb = ("u", "v")
        J = I(["u*v"], amb)
        assert is_principal_monomial_at(J, (0, 0), ("u",)) is None

    def test_no_unit_residual_rejected(self):
        amb = ("u", "v")
        # After stripping u^2 the residual v + v^2 vanishes at the origin.
        J = I(["u^2*v + u^2*v^2", "u^2*v^3"], amb)
        assert is_principal_monomial_at(J, (0, 0), ("u",)) is None

    def test_point_off_origin(self):
        amb = ("u", "v")
        J = I(["u^2*v + u^2*v^2"], amb)
        # At v = -1 the residual vanishes.
        assert is_principal_monomial_at(J, (0, -1), ("u", "v")) is None

    def test_zero_ideal_rejected(self):
        amb = ("u",)
        with pytest.raises(ValueError):
            is_principal_monomial_at(I([], amb), (0,), ("u",))

    def test_unit_at_point_goes_to_residual(self):
        # v is a unit at (0, 1): (v*u^2) is generated there by u^2.
        amb = ("u", "v")
        cert = is_principal_monomial_at(I(["v*u^2"], amb), (0, 1), ("u",))
        assert cert is not None
        assert cert.generator_monomial.exponents == (2, 0)
        assert cert.residual_witness == P("v", amb)
        # u is a unit at u = 1, so (u^2) is the unit ideal there.
        cert = is_principal_monomial_at(I(["u^2"], ("u",)), (1,), ("u",))
        assert cert is not None and cert.generator_monomial.exponents == (0,)

    def test_local_monomial_keeps_vanishing_variables(self):
        amb = ("u", "v", "w")
        gens = [P("u^2*v^3*w", amb), P("u*v^4*w^2 + u^3*v^3*w", amb)]
        assert local_monomial(gens, (0, 0, 0)) == (1, 3, 1)
        assert local_monomial(gens, (0, 2, 0)) == (1, 0, 1)
        assert local_monomial(gens, (1, 1, 1)) == (0, 0, 0)


# Generators sharing a monomial content, with coefficients +-1 and 2 and
# points whose coordinates are 0, +-1 or other rationals, so that residuals
# vanish at points other than the origin as well as at it.
LOCAL_AMB = ("u", "v", "w")
local_points = st.lists(
    st.sampled_from([Fraction(0), 0, Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3), 2]),
    min_size=3,
    max_size=3,
).map(tuple)


@st.composite
def local_generators(draw):
    content = draw(st.tuples(*(st.integers(0, 3) for _ in LOCAL_AMB)))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(
            st.dictionaries(
                st.tuples(*(st.integers(0, 2) for _ in LOCAL_AMB)),
                st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                min_size=1,
                max_size=3,
            )
        )
        shifted = {tuple(map(sum, zip(e, content))): c for e, c in terms.items()}
        gens.append(Polynomial(shifted, LOCAL_AMB))
    return gens


class TestUnitAtPointReference:
    @settings(max_examples=300, deadline=None)
    @given(local_generators(), local_points)
    def test_local_monomial_and_residual_match_reference(self, gens, point):
        m = local_monomial(gens, point)
        assert m == reference_local_monomial(gens, point)
        for g in gens:
            assert residual_value(g, m, point) == reference_residual_value(g, m, point)
            own = local_monomial([g], point)
            assert residual_value(g, own, point) == reference_residual_value(g, own, point)

    @settings(max_examples=200, deadline=None)
    @given(local_generators(), local_points, st.lists(st.sampled_from(LOCAL_AMB), unique=True))
    def test_principal_certificate_matches_reference(self, gens, point, divisor):
        J = IdealPresentation(gens, LOCAL_AMB)
        got = is_principal_monomial_at(J, point, divisor)
        want = reference_is_principal_monomial_at(J, point, divisor)
        assert got == want

    def test_zero_polynomial_has_no_local_monomial(self):
        with pytest.raises(ValueError):
            local_monomial([P("u", LOCAL_AMB), Polynomial.zero(LOCAL_AMB)], (0, 0, 0))

    def test_residual_point_length_checked(self):
        p = P("u*v", LOCAL_AMB)
        with pytest.raises(ValueError):
            residual_value(p, local_monomial([p], (0, 0, 0)), (0, 0))


def _assert_sympy_basis(gens, amb, order, sympy_order):
    """Our reduced basis equals sympy's, converted to logmono polynomials;
    returns ours."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(amb)
    polys = [
        sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()},
            *syms,
            domain="QQ",
        )
        for g in gens
    ]
    G = sympy.groebner(polys, *syms, order=sympy_order, domain="QQ")
    theirs = [
        Polynomial(
            {e: Fraction(int(c.p), int(c.q)) for e, c in zip(p.monoms(), p.coeffs())},
            amb,
        )
        for p in G.polys
    ]
    ours = reduced_groebner_basis(gens, order)
    assert len(ours) == len(theirs) and set(ours) == set(theirs)
    return ours


def _sympy_block_order(n):
    """sympy's counterpart of ``block_order(n)``."""
    orderings = pytest.importorskip("sympy.polys.orderings")
    grevlex = orderings.grevlex
    return orderings.ProductOrder(
        (grevlex, lambda m: m[:n]), (grevlex, lambda m: m[n:])
    )


class TestGroebnerOracle:
    """Reduced bases agree with sympy's, which shares no code with ours, so
    the S-pair queue and the reduction kernels change no basis."""

    def test_grevlex_bases_match_sympy(self):
        rng = random.Random(11)
        for amb in (("x", "y"), ("x", "y", "z")):
            for _ in range(20):
                gens = [
                    random_sparse_poly(amb, rng, max_terms=3)
                    for _ in range(rng.randint(1, 3))
                ]
                _assert_sympy_basis(gens, amb, grevlex_order(), "grevlex")

    def test_rabinowitsch_variable_is_fresh(self):
        # t is the first of _t, _t1, _t2, ... not in the ambient.
        amb = ("_t", "_t1", "u")
        t, t1, u = (Polynomial.variable(v, amb) for v in amb)
        f = u + t
        I = IdealPresentation([f * f, t1], amb)
        ext = _rabinowitsch(I, f)
        assert ext.ambient == ("_t2",) + amb
        t2 = Polynomial.variable("_t2", ext.ambient)
        one = Polynomial.constant(1, ext.ambient)
        assert ext.generators[-1] == one - t2 * f.extend_ambient(ext.ambient)
        assert radical_membership(f, I)
        assert not radical_membership(u + t1, IdealPresentation([u], amb))

    def test_rabinowitsch_bases_match_sympy(self):
        # The extensions I + (1 - t*f) that radical_membership decides.
        rng = random.Random(12)
        amb = ("u", "v", "w")
        units = 0
        for _ in range(20):
            J = IdealPresentation(
                [random_sparse_poly(amb, rng, max_terms=2) for _ in range(2)], amb
            )
            ext = _rabinowitsch(J, random_sparse_poly(amb, rng, max_terms=2))
            _assert_sympy_basis(ext.generators, ext.ambient, grevlex_order(), "grevlex")
            units += contains_one(ext)
        assert 0 < units < 20  # both verdicts of radical_membership occur

    def test_block_order_bases_match_sympy(self):
        # The eliminations behind elimination().
        product = _sympy_block_order(1)
        rng = random.Random(13)
        amb = ("a", "x", "y")
        for _ in range(15):
            gens = [random_sparse_poly(amb, rng, max_terms=3) for _ in range(2)]
            _assert_sympy_basis(gens, amb, block_order(1), product)

    def test_larger_bases_match_sympy(self):
        # 4-5 generators of up to 4 terms in 3-4 variables, where the pair
        # criteria have many pairs to prune.  Every other ideal has no
        # constant terms, so it is proper and its basis is not just [1].
        product = _sympy_block_order(2)
        rng = random.Random(14)
        sizes = []
        for amb in (("x", "y", "z"), ("w", "x", "y", "z")):
            for k in range(20):
                gens = [
                    random_sparse_poly(amb, rng, max_terms=4, min_deg=k % 2)
                    for _ in range(rng.randint(4, 5))
                ]
                sizes.append(len(_assert_sympy_basis(gens, amb, grevlex_order(), "grevlex")))
                if k < 5:
                    _assert_sympy_basis(gens, amb, block_order(2), product)
        assert max(sizes) >= 10

    def test_quasi_prepared_extensions_match_sympy(self):
        # singular_locus_ideal(phi) + (1 - t*prod u): the basis behind
        # is_quasi_prepared's radical-membership test.
        corpus = pair_condition_corpus()
        units = 0
        for phi in corpus:
            ext = _rabinowitsch(singular_locus_ideal(phi), phi.source.divisor_product())
            _assert_sympy_basis(ext.generators, ext.ambient, grevlex_order(), "grevlex")
            units += contains_one(ext)
        assert 0 < units < len(corpus)  # both verdicts occur


# Division problems over three variables for the reduction oracle.
AMB3 = ("x", "y", "z")
ORDERS = [grevlex_order(), block_order(1), block_order(2)]
exps3 = st.tuples(*(st.integers(0, 3) for _ in AMB3))
small_coeffs = st.integers(-3, 3).filter(bool).map(Fraction)


# Rational coefficients for the fraction-free kernel: denominators up to
# 12, and the leading coefficients 7, -12 and 1/5 often, so that records
# have non-unit leading coefficients and unequal cofactors.
rational_coeffs = st.one_of(
    st.sampled_from([Fraction(7), Fraction(-12), Fraction(1, 5)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool),
)


@st.composite
def division_problems(draw, coeffs=small_coeffs):
    """(order, f, basis).  Some basis elements share a leading term, and f
    is mostly a combination of shifted basis elements, so reduction steps
    often cancel terms that are already queued."""
    terms = st.dictionaries(exps3, coeffs, min_size=1, max_size=4)
    order = draw(st.sampled_from(ORDERS))
    basis = [Polynomial(t, AMB3) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    for g in draw(st.lists(st.sampled_from(basis), max_size=2)):
        # Same leading term, another coefficient and tail.
        lt = max(g.terms, key=order.key)
        tail = draw(terms)
        same_lt = {e: c for e, c in tail.items() if order.key(e) < order.key(lt)}
        same_lt[lt] = draw(coeffs)
        basis.append(Polynomial(same_lt, AMB3))
    f = Polynomial(draw(st.dictionaries(exps3, coeffs, max_size=2)), AMB3)
    for g in basis:
        shift = Polynomial({draw(exps3): draw(coeffs)}, AMB3)
        f = f + shift * g
    return order, f, draw(st.permutations(basis))


class TestReduction:
    """The heap reducer against the max-scan reference division."""

    @settings(max_examples=300, deadline=None)
    @given(division_problems())
    def test_normal_form_matches_max_scan(self, problem):
        order, f, basis = problem
        assert normal_form(f, basis, order) == max_scan_normal_form(f, basis, order)

    @settings(max_examples=100, deadline=None)
    @given(division_problems(rational_coeffs))
    def test_normal_form_matches_max_scan_on_rationals(self, problem):
        order, f, basis = problem
        assert normal_form(f, basis, order) == max_scan_normal_form(f, basis, order)

    def test_cancelled_term_that_returns(self):
        # Reducing -2*x^2 by x^2 - y cancels the queued 2*y; reducing 2*x
        # by -x + 2*y brings y back while its entry is still queued.
        amb = ("x", "y")
        f = P("-2*x^2 + 2*x + 2*y", amb)
        basis = [P("x^2 - y", amb), P("-x + 2*y", amb)]
        order = grevlex_order()
        assert normal_form(f, basis, order) == P("4*y", amb)
        assert max_scan_normal_form(f, basis, order) == P("4*y", amb)


# Exponents up to 42 in three variables: degrees up to 126, so the 8-bit
# fields are filled to their guard bits.
wide_exps3 = st.tuples(*(st.integers(0, 42) for _ in AMB3))


class TestPackedMonomials:
    """The kernel's packed exponent vectors: int order is the monomial
    order, a difference without guard bits is divisibility, and a sum that
    outgrows the fields widens them without changing any result."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ORDERS), st.sampled_from([8, 16]), st.lists(wide_exps3, max_size=12))
    def test_packed_order_is_key_order(self, order, width, exponents):
        packing = logmono.ideal._Packing(order, len(AMB3), width)
        assert sorted(exponents, key=packing.pack) == sorted(exponents, key=order.key)

    @pytest.mark.parametrize("order", ORDERS)
    def test_divisibility_at_field_boundaries(self, order):
        # Every pair of exponent tuples with entries at the bottom and the
        # top of an 8-bit field, many of them equal in one field while a
        # neighbouring field borrows.
        packing = logmono.ideal._Packing(order, len(AMB3), 8)
        values = (0, 1, 41, 42)
        grid = [(a, b, c) for a in values for b in values for c in values]
        divisible = 0
        for e in grid:
            for lt in grid:
                shift = packing.pack(e) - packing.pack(lt)
                want = all(a >= b for a, b in zip(e, lt))
                assert (not shift & packing.guard) == want, (e, lt)
                if want:
                    assert shift == packing.pack(tuple(a - b for a, b in zip(e, lt)))
                    divisible += 1
        assert divisible == 10**3

    def test_divisibility_with_full_fields(self):
        # One variable: the exponent and the degree field both at 127, the
        # largest value below the guard bit.
        packing = logmono.ideal._Packing(grevlex_order(), 1, 8)
        top, below = packing.pack((127,)), packing.pack((126,))
        assert not (top - top) & packing.guard
        assert not (top - below) & packing.guard
        assert (below - top) & packing.guard
        with pytest.raises(logmono.ideal._Overflow):
            packing.pack((128,))

    @pytest.mark.parametrize("power", [40, 70])
    def test_huge_exponents_match_sympy(self, power):
        # 64-bit fields for u^(2^40), which one Struct call reads, and
        # 128-bit fields for u^(2^70), which are shifted out.  sympy's
        # sparse ring: its dense Poly would allocate 2^power entries.
        sympy = pytest.importorskip("sympy")
        from sympy.polys.groebnertools import groebner
        from sympy.polys.orderings import grevlex
        from sympy.polys.rings import ring

        amb = ("u", "v", "w")
        gens = [P(f"u^{2**power}*v - w", amb), P("v^2 - u", amb)]
        R, *_ = ring(",".join(amb), sympy.QQ, grevlex)
        theirs = groebner([R({e: sympy.QQ(c) for e, c in g.terms.items()}) for g in gens], R)
        basis = reduced_groebner_basis(gens, grevlex_order())
        assert set(basis) == {
            Polynomial({e: Fraction(int(c.numerator), int(c.denominator)) for e, c in p.items()}, amb)
            for p in theirs
        }
        assert P(f"u^{2**power + 1} - v*w", amb) in basis
        f = P(f"u^{2**power + 3}*v^3 + w^2*v", amb)
        assert normal_form(f, basis, grevlex_order()) == max_scan_normal_form(
            f, basis, grevlex_order()
        )

    def test_overflow_widens_and_keeps_the_basis(self, monkeypatch):
        # The input's degree 31 starts at 8-bit fields, but eliminating t
        # from t - x^31 and t^5 - y brings x^155 - y, past their guard bits.
        widths = []
        original = logmono.ideal._minimal_records

        def recording(gens, packing):
            widths.append(packing.width)
            return original(gens, packing)

        monkeypatch.setattr(logmono.ideal, "_minimal_records", recording)
        amb = ("t", "x", "y")
        gens = [P("t - x^31", amb), P("t^5 - y", amb)]
        basis = _assert_sympy_basis(gens, amb, block_order(1), _sympy_block_order(1))
        assert widths == [8, 16]
        assert P("x^155 - y", amb) in basis
        eliminated = elimination(IdealPresentation(gens, amb), ("x", "y"))
        assert eliminated.generators == [P("x^155 - y", ("x", "y"))]
        # Dividing t^9 by t - x^31 carries x^279 past an 8-bit field within
        # one reduction.
        f, basis = P("t^9 + y", amb), [P("t - x^31", amb)]
        assert normal_form(f, basis, block_order(1)) == P("x^279 + y", amb)
        assert max_scan_normal_form(f, basis, block_order(1)) == P("x^279 + y", amb)

    def test_s_polynomial_term_past_the_guard_widens(self, monkeypatch):
        # Degree 31 starts at 8-bit fields.  Buchberger's loop reaches
        # t^3*x^3 - c*t^2*x^73 and t^2*x^112 - c'*t^2*x^3; their
        # S-polynomial shifts the tail term t^2*x^73 up to the lcm
        # t^3*x^112, giving t^2*x^182, past the guard of the x field.  No
        # pair lcm and no reduction shift crosses a guard before it, so the
        # check on S-polynomial terms is the one that widens the fields.
        widths = []
        original = logmono.ideal._minimal_records

        def recording(gens, packing):
            widths.append(packing.width)
            return original(gens, packing)

        monkeypatch.setattr(logmono.ideal, "_minimal_records", recording)
        amb = ("t", "x")
        gens = [P("2*t^19*x^12 - 3*t^2*x^3", amb), P("2*t^6*x^10 - 3*t^20*x^11", amb)]
        basis = _assert_sympy_basis(gens, amb, block_order(1), _sympy_block_order(1))
        assert widths == [8, 16]
        assert {max(g.terms, key=block_order(1).key) for g in basis} == {(3, 3), (2, 112)}


# Small generator lists with rational coefficients for the sympy oracle.
rational_generators = st.lists(
    st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in AMB3)), rational_coeffs, min_size=1, max_size=3
    ).map(lambda terms: Polynomial(terms, AMB3)),
    min_size=1,
    max_size=3,
)


def _is_primitive(record):
    lt, lc, tail = record
    coeffs = [lc] + [c for _, c in tail]
    return lc > 0 and all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1


class TestFractionFreeKernel:
    """The integer kernel on rational input: the same bases as sympy, every
    record primitive, and rationals built only for the output."""

    @settings(max_examples=40, deadline=None)
    @given(rational_generators)
    def test_grevlex_bases_match_sympy(self, gens):
        _assert_sympy_basis(gens, AMB3, grevlex_order(), "grevlex")

    @settings(max_examples=40, deadline=None)
    @given(rational_generators)
    def test_block_order_bases_match_sympy(self, gens):
        _assert_sympy_basis(gens, AMB3, block_order(1), _sympy_block_order(1))
        _assert_sympy_basis(gens, AMB3, block_order(2), _sympy_block_order(2))

    @settings(max_examples=60, deadline=None)
    @given(rational_generators, st.sampled_from(ORDERS))
    def test_every_divisor_record_is_primitive(self, gens, order):
        reduce = logmono.ideal._reduce

        def checking(work, divisors, guard):
            assert all(type(c) is int for c in work.values())
            for record in divisors:
                assert _is_primitive(record), record
            return reduce(work, divisors, guard)

        with mock.patch.object(logmono.ideal, "_reduce", checking):
            reduced_groebner_basis(gens, order)

    def test_one_fraction_per_non_integral_output_coefficient(self, monkeypatch):
        # Integer generators with leading coefficients 2, 3, 5, 7 and 12:
        # the kernel stays in ints, and only the monic output divides.
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(logmono.ideal, "Fraction", counting)
        amb = ("x", "y", "z")
        ideals = [
            ["2*x^2 + 3*y", "3*x*y - 5*z", "7*y^2 + x - 1"],
            ["12*x*y + 5*z^2", "7*x^2 - 3*y + 2*z"],
            ["5*x^3 - 2*y*z", "3*y^2 - 7*x*z + 1", "2*z^2 - x"],
        ]
        non_integral = 0
        for exprs in ideals:
            for g in reduced_groebner_basis([P(e, amb) for e in exprs], grevlex_order()):
                non_integral += sum(type(c) is Fraction for c in g.terms.values())
        assert non_integral > 0
        assert len(made) <= non_integral
