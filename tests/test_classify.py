from fractions import Fraction

import pytest

import logmono.classify
import logmono.fitting
import logmono.ideal
import logmono.logdiff
from logmono.chart import (
    ChartedPair,
    MorphismOfPairs,
    RationalPoint,
    preimage_equality_check,
    validate_pair_condition,
)
from logmono.classify import (
    DivisorFiltration,
    is_log_rank_adapted_at,
    is_monomial_morphism_at,
    is_quasi_prepared,
    is_strongly_prepared_at,
    match_spm_template,
    singular_locus_ideal,
    top_fitting_ideal,
)
from logmono.ideal import (
    IdealPresentation,
    is_principal_monomial_at,
)
from logmono.logdiff import NotAMorphismOfPairsError
from logmono.poly import Polynomial
from logmono.rank import jacobian

from helpers import (
    P,
    empty_divisor_corpus,
    monomial_surface_corpus,
    normal_form_corpus,
    origin,
    pair_condition_corpus,
    plain_radical_membership,
    rank_law_corpus,
    reference_is_monomial_morphism_at,
    reference_match_spm_template,
    reference_minors,
    sampled_log_rank_mismatch,
)
from test_fitting import surface_case1, surface_case2, surface_case3


class TestSingularLocus:
    def test_minor_generators(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ())
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u^2", amb), "y": P("v", amb)})
        sing = singular_locus_ideal(phi)
        assert sing.basis() == [P("u", amb)]

    def test_generators_are_the_reference_minors_in_order(self):
        corpus = [phi for phi, _ in normal_form_corpus()] + pair_condition_corpus()
        corpus += empty_divisor_corpus() + monomial_surface_corpus() + rank_law_corpus()
        nonzero = 0
        for phi in corpus:
            if len(phi.source.variables) < len(phi.target.variables):
                continue
            rows = jacobian(phi)
            sing = singular_locus_ideal(phi)
            assert sing.generators == reference_minors(rows, len(rows)), phi
            nonzero += not sing.is_zero_ideal()
        assert nonzero >= 300

    def test_source_smaller_than_target_rejected(self):
        src = ChartedPair(("u",), ())
        tgt = ChartedPair(("x", "y"), ())
        phi = MorphismOfPairs(
            src, tgt, {"x": P("u", ("u",)), "y": P("u^2", ("u",))}
        )
        with pytest.raises(ValueError):
            singular_locus_ideal(phi)


class TestQuasiPrepared:
    def test_surface_examples_pass(self):
        for phi in (surface_case1(), surface_case2(), surface_case3()):
            ok, diags = is_quasi_prepared(phi)
            assert ok, diags

    def test_singular_locus_escaping_divisor_fails(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u^2", amb), "y": P("v^2", amb)})
        ok, diags = is_quasi_prepared(phi)
        assert not ok
        assert any("singular locus" in d for d in diags)

    def test_partial_divisor_preimage_fails(self):
        src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "y1"), ("x1",))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt, {"x1": P("u1", amb), "y1": P("v1", amb)}
        )
        ok, diags = is_quasi_prepared(phi)
        assert not ok
        assert any("preimage" in d for d in diags)

    def test_cached_diagnostics_are_not_shared(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u^2", amb), "y": P("v^2", amb)})
        ok, diags = is_quasi_prepared(phi)
        expected = list(diags)
        diags.clear()
        diags.append("mutated")
        assert is_quasi_prepared(phi) == (ok, expected)

    def test_fitting_decision_matches_jacobian_minors(self):
        # Sing in D is decided from the top log-Fitting ideal, and only for
        # morphisms that pass the preimage test (which implies the pair
        # condition); the reference is the plain Rabinowitsch test over the
        # ideal of plain Jacobian minors.  Every other morphism is rejected
        # by the preimage test alone.
        phis = [phi for phi, _ in normal_form_corpus()]
        phis += pair_condition_corpus() + monomial_surface_corpus()
        phis += empty_divisor_corpus()
        preimage_line = "divisor preimage does not equal the source divisor"
        seen = set()
        for phi in phis:
            ok, diags = is_quasi_prepared(phi)
            pair_ok, _ = validate_pair_condition(phi)
            if not preimage_equality_check(phi):
                assert not ok and diags == [preimage_line], phi
                seen.add(("preimage fails", pair_ok))
                continue
            assert pair_ok, phi
            u_prod = phi.source.divisor_product()
            reference = plain_radical_membership(u_prod, singular_locus_ideal(phi))
            decided = "singular locus not contained in the divisor" not in diags
            assert decided == reference, phi
            seen.add(("preimage holds", reference))
        assert seen == {
            (p, r) for p in ("preimage fails", "preimage holds") for r in (False, True)
        }

    def test_top_fitting_ideal_computed_once(self, monkeypatch):
        # The quasi-prepared and strongly-prepared checks share one top
        # log-Fitting ideal, and that ideal is read off one log Jacobian.
        calls = []
        original = logmono.logdiff.log_jacobian

        def counting(phi):
            calls.append(phi)
            return original(phi)

        for module in (logmono.logdiff, logmono.fitting):
            monkeypatch.setattr(module, "log_jacobian", counting)
        phi = surface_case1()
        assert is_quasi_prepared(phi)[0]
        assert is_strongly_prepared_at(phi, origin(phi.source)) is not None
        assert top_fitting_ideal(phi) is top_fitting_ideal(phi)
        assert calls == [phi]
        # Degree 1 wedges the two target basis 1-forms, dx1/x1 and dy1,
        # from one more log Jacobian.
        assert len(logmono.fitting.log_fitting_ideal(phi, 1).generators) > 1
        assert calls == [phi, phi]


class TestStronglyPrepared:
    def test_semantic_certificates(self):
        c1 = is_strongly_prepared_at(surface_case1(), origin(surface_case1().source))
        assert c1 is not None and c1.generator_monomial.exponents == (3, 3, 0)
        c2 = is_strongly_prepared_at(surface_case2(), origin(surface_case2().source))
        assert c2 is not None and c2.generator_monomial.exponents == (2, 3)
        c3 = is_strongly_prepared_at(surface_case3(), origin(surface_case3().source))
        assert c3 is not None and c3.generator_monomial.exponents == (0, 0, 0)

    def test_syntactic_case_tags(self):
        assert match_spm_template(surface_case1(), origin(surface_case1().source)) == 1
        assert match_spm_template(surface_case2(), origin(surface_case2().source)) == 2
        assert match_spm_template(surface_case3(), origin(surface_case3().source)) == 3

    def test_requires_quasi_prepared(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u^2", amb), "y": P("v^2", amb)})
        with pytest.raises(ValueError):
            is_strongly_prepared_at(phi, RationalPoint((0, 0)))
        # The underlying principality test also rejects: the content v is
        # not a divisor monomial.
        F = top_fitting_ideal(phi)
        assert is_principal_monomial_at(F, (0, 0), src.divisor_vars) is None

    def test_template_none_off_normal_form(self):
        src = ChartedPair(("u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "y1"), ("x1",))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt,
            {"x1": P("u1^2*u2^2", amb),
             "y1": P("u1*u2 + u1^2*u2^3 + u1^3*u2^2", amb)},
        )
        assert match_spm_template(phi, origin(src)) is None

    def test_case_2_needs_independent_exponents(self):
        # alpha = (1, 2).  A remainder exponent beta independent of alpha
        # gives case 2; one proportional to alpha is a power of u^alpha,
        # so it joins the series and leaves no remainder.
        src = ChartedPair(("u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "y1"), ("x1",))
        amb = src.variables
        for y1, case in [
            ("u1^2*u2^4 + u1^2*u2", 2),
            ("u1^3*u2", 2),
            ("3*u1^2*u2^4", None),
            ("u1*u2^2 + u1^3*u2^6", None),
        ]:
            phi = MorphismOfPairs(src, tgt, {"x1": P("u1*u2^2", amb), "y1": P(y1, amb)})
            assert match_spm_template(phi, origin(src)) == case, y1

    def test_matcher_agrees_with_reference_matcher(self):
        # The origin and three other points, so that several strata of
        # each source chart are matched.
        corpus = [phi for phi, _ in normal_form_corpus()] + pair_condition_corpus()
        corpus += empty_divisor_corpus() + monomial_surface_corpus() + rank_law_corpus()
        matches = 0
        for phi in corpus:
            n = len(phi.source.variables)
            for pt in (
                origin(phi.source),
                RationalPoint((0,) * (n - 1) + (1,)),
                RationalPoint((0,) + (2,) * (n - 1)),
                RationalPoint((Fraction(1, 2),) * (n - 1) + (0,)),
            ):
                case = match_spm_template(phi, pt)
                assert case == reference_match_spm_template(phi, pt), (phi, pt)
                matches += case is not None
        assert matches >= 120


class TestMonomialMorphism:
    def test_exponent_matrix(self):
        phi = surface_case3()
        m = is_monomial_morphism_at(phi, origin(phi.source))
        assert m == [(1, 2, 0), (0, 3, 4)]

    def test_rank_deficient_rejected(self):
        src = ChartedPair(("u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "x2"), ("x1", "x2"))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt, {"x1": P("u1*u2", amb), "x2": P("u1^2*u2^2", amb)}
        )
        assert is_monomial_morphism_at(phi, origin(src)) is None

    def test_unit_factor_allowed_where_nonvanishing(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt, {"x": P("u^2 + u^2*v", amb), "y": P("v", amb)}
        )
        assert is_monomial_morphism_at(phi, RationalPoint((0, 0))) is not None
        assert is_monomial_morphism_at(phi, RationalPoint((0, -1))) is None

    def test_row_counts_only_vanishing_variables(self):
        # v is a unit at (0, 1), so x1 = u*v has the local row (1, 0).
        src = ChartedPair(("u", "v"), ("u", "v"))
        tgt = ChartedPair(("x1",), ("x1",))
        phi = MorphismOfPairs(src, tgt, {"x1": P("u*v", src.variables)})
        assert is_monomial_morphism_at(phi, RationalPoint((0, 1))) == [(1, 0)]
        assert is_monomial_morphism_at(phi, RationalPoint((0, 0))) == [(1, 1)]

    def test_matches_reference_at_rational_points(self):
        # The perfbench workloads only ask at the origin; here every corpus
        # morphism is asked at the origin, at points of the deepest stratum
        # whose free coordinates are nonzero rationals, and at points where
        # some divisor coordinates are units too.
        values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3), Fraction(2, 3)]
        corpus = [phi for phi, _ in normal_form_corpus()] + monomial_surface_corpus()
        corpus += empty_divisor_corpus() + pair_condition_corpus()[:100]
        accepted_off_origin = 0
        for i, phi in enumerate(corpus):
            src = phi.source
            n = len(src.variables)
            points = [origin(src)] + [
                RationalPoint(
                    tuple(
                        Fraction(0) if v in src.divisor_vars else values[1 + (i + s + j) % 5]
                        for j, v in enumerate(src.variables)
                    )
                )
                for s in (0, 2)
            ] + [
                RationalPoint(tuple(values[(i * s + j) % len(values)] for j in range(n)))
                for s in (1, 2, 5)
            ]
            for a in points:
                got = is_monomial_morphism_at(phi, a)
                assert got == reference_is_monomial_morphism_at(phi, a), (phi, a)
                accepted_off_origin += got is not None and any(a.coordinates)
        assert accepted_off_origin >= 50


def corpus_filtrations():
    """Each corpus morphism that has a source divisor and satisfies the pair
    condition, with each filtration tried on it: every divisor variable
    alone, the whole divisor, and the whole divisor over its first
    variable."""
    phis = [phi for phi, _ in normal_form_corpus()]
    phis += empty_divisor_corpus() + monomial_surface_corpus() + pair_condition_corpus()
    for phi in phis:
        div = phi.source.divisor_vars
        if not div or not validate_pair_condition(phi)[0]:
            continue
        for levels in dict.fromkeys([((w,),) for w in div] + [(div,), (div, div[:1])]):
            yield phi, DivisorFiltration(list(levels))


class TestLogRankAdapted:
    def chart_phi(self):
        src = ChartedPair(("v1", "u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("y1", "x1"), ("x1",))
        amb = src.variables
        return MorphismOfPairs(
            src, tgt, {"y1": P("v1", amb), "x1": P("u1*u2", amb)}
        )

    def test_adapted_morphism_accepted(self):
        # At a point on the divisor the log-rank of the divisor-stripped
        # morphism is 1, so component 1 must be a free variable and
        # component 2 a divisor monomial generating the pulled-back
        # target stratum ideal.
        phi = self.chart_phi()
        tamb = phi.target.variables
        filtration = DivisorFiltration([])
        target_ideal = IdealPresentation([P("x1", tamb)], tamb)
        pt = RationalPoint((Fraction(1), Fraction(0), Fraction(0)))
        ok, diags = is_log_rank_adapted_at(phi, pt, filtration, target_ideal)
        assert ok, diags

    def test_stratum_generator_compared_up_to_a_unit(self):
        # The pullback of (y) is (3*u^2) = (u^2): the component 3*u^2
        # generates it although its coefficient is not 1.
        src = ChartedPair(("v", "u"), ("u",))
        tgt = ChartedPair(("x", "y"), ("y",))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("v", amb), "y": P("3*u^2", amb)})
        target_ideal = IdealPresentation([P("y", tgt.variables)], tgt.variables)
        _, diags = is_log_rank_adapted_at(
            phi, RationalPoint((0, 0)), DivisorFiltration([("u",)]), target_ideal
        )
        assert not any("target stratum ideal" in d for d in diags), diags

    def test_wrong_leading_component_rejected(self):
        src = ChartedPair(("v1", "u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("y1", "x1"), ("x1",))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt, {"y1": P("v1^2", amb), "x1": P("u1*u2", amb)}
        )
        filtration = DivisorFiltration([])
        target_ideal = IdealPresentation([P("x1", tgt.variables)], tgt.variables)
        pt = RationalPoint((Fraction(1), Fraction(0), Fraction(0)))
        ok, diags = is_log_rank_adapted_at(phi, pt, filtration, target_ideal)
        assert not ok
        assert any("free source variable" in d for d in diags)

    def test_stratum_log_rank_mismatch_detected(self):
        # Constant log-Jacobian rows keep the log-rank at 2 on every
        # stratum, so a nonempty filtration level must be flagged.
        phi = self.chart_phi()
        tamb = phi.target.variables
        filtration = DivisorFiltration([("u1", "u2")])
        target_ideal = IdealPresentation([P("x1", tamb)], tamb)
        pt = RationalPoint((Fraction(1), Fraction(0), Fraction(0)))
        ok, diags = is_log_rank_adapted_at(phi, pt, filtration, target_ideal)
        assert not ok
        assert any("log-rank" in d for d in diags)

    @pytest.mark.parametrize("levels", [[("u1",)], [("u1",), ("u1",), ("u1",)]])
    def test_pair_condition_failure_raises(self, levels):
        # x1 = u1 + 1 does not vanish on u1 = 0.  With three equal levels
        # only level 3, past min(n, N) = 1, has a boundary variable, and
        # it builds no log-Fitting ideal.
        src = ChartedPair(("u1", "v1"), ("u1",))
        tgt = ChartedPair(("x1",), ("x1",))
        phi = MorphismOfPairs(src, tgt, {"x1": P("u1 + 1", src.variables)})
        target_ideal = IdealPresentation([], tgt.variables)
        with pytest.raises(NotAMorphismOfPairsError):
            is_log_rank_adapted_at(phi, origin(src), DivisorFiltration(levels), target_ideal)

    @pytest.mark.parametrize(
        "source, target, maps, drop",
        [
            # The log-rank drops to 1 on u2 = +-1: half of all sampler seeds
            # miss it.
            (
                ("u1 u2 v1", "u1 u2"),
                ("x1 y1 z1", "z1"),
                {"x1": "-u2^2*v1 + v1", "y1": "5", "z1": "u2^3"},
                "2-minors at u1 = 0 vanish: (-3*u2^2 + 3)",
            ),
            # The log-rank drops to 0 on v2 = 0: the sampler draws free
            # variables positive, so it never sees the drop.
            (
                ("u1 v1 v2", "u1"),
                ("x1 y1", ""),
                {"x1": "u1^2*v2 - 3", "y1": "-3*u1*v1*v2 + 2*v2^2"},
                "1-minors at u1 = 0 vanish: (4*v2)",
            ),
        ],
    )
    def test_drop_off_the_sampled_points_rejected(self, source, target, maps, drop):
        src = ChartedPair(tuple(source[0].split()), tuple(source[1].split()))
        tgt = ChartedPair(tuple(target[0].split()), tuple(target[1].split()))
        phi = MorphismOfPairs(src, tgt, {x: P(e, src.variables) for x, e in maps.items()})
        filtration = DivisorFiltration([("u1",)])
        target_ideal = IdealPresentation([], tgt.variables)
        ok, diags = is_log_rank_adapted_at(phi, origin(src), filtration, target_ideal)
        assert not ok
        rank_diags = [d for d in diags if "log-rank" in d]
        assert len(rank_diags) == 1
        assert "drops below" in rank_diags[0] and "stratum of u1 at level 1" in rank_diags[0]
        assert rank_diags[0].endswith(drop)
        assert not all(sampled_log_rank_mismatch(phi, filtration, seed) for seed in range(10))

    def test_sampler_mismatch_implies_exact_rejection(self):
        # The sampler can only miss a drop, so wherever it sees a wrong
        # log-rank the exact check must reject too.
        accepted = sampled = blind = 0
        for phi, filtration in corpus_filtrations():
            target_ideal = IdealPresentation([], phi.target.variables)
            _, diags = is_log_rank_adapted_at(phi, origin(phi.source), filtration, target_ideal)
            exact_ok = not any("log-rank" in d for d in diags)
            seen = any(sampled_log_rank_mismatch(phi, filtration, s) for s in range(5))
            assert not (seen and exact_ok), (phi.components, filtration.levels)
            accepted += exact_ok
            sampled += seen
            blind += not (seen or exact_ok)
        # Both verdicts occur, and some drops are invisible to the sampler.
        assert accepted >= 100 and sampled >= 100 and blind >= 10

    def test_top_level_stratum_has_no_rank_to_drop(self):
        # At e = 0 condition (2) asks only that F_1 vanish on w = 0: F_0 is
        # the unit ideal, not the zero ideal that no 0-minors would present.
        src = ChartedPair(("u",), ("u",))
        tgt = ChartedPair(("x",), ())
        phi = MorphismOfPairs(src, tgt, {"x": P("u^2", src.variables)})
        target_ideal = IdealPresentation([P("x", tgt.variables)], tgt.variables)
        filtration = DivisorFiltration([("u",)])
        assert is_log_rank_adapted_at(phi, origin(src), filtration, target_ideal) == (True, [])

    def test_stratum_radical_tests_agree_with_plain_rabinowitsch(self, monkeypatch):
        # Condition (2) tests the other divisor variables against the
        # e-minors at w = 0 alone.  Both are free of w, so every answer must
        # be the plain Rabinowitsch test against those minors plus (w).
        calls = []
        original = logmono.classify.radical_membership

        def recording(f, J):
            got = original(f, J)
            calls.append((f, J, got))
            return got

        monkeypatch.setattr(logmono.classify, "radical_membership", recording)
        verdicts, principal, combinations = set(), 0, 0
        for phi, filtration in corpus_filtrations():
            amb, div = phi.source.variables, phi.source.divisor_vars
            calls.clear()
            is_log_rank_adapted_at(
                phi, origin(phi.source), filtration, IdealPresentation([], phi.target.variables)
            )
            combinations += 1
            for f, J, got in calls:
                (exps,) = f.terms
                (w,) = [v for v, x in zip(amb, exps) if v in div and not x]
                with_w = IdealPresentation(J.generators + [Polynomial.variable(w, amb)], amb)
                assert got == plain_radical_membership(f, with_w), (phi.components, w, J)
                verdicts.add(got)
                principal += len(J.generators) <= 1
        assert combinations >= 800
        assert verdicts == {True, False} and principal >= 500

    def test_groebner_work_over_the_corpora_is_pinned(self, monkeypatch):
        # Every corpus morphism at the origin, with the zero target stratum
        # ideal and each filtration below; a raised exception is an outcome
        # too.  Condition (1) builds no basis for a zero pulled-back ideal
        # and condition (2) settles monomial ideals by their supports, so
        # few Buchberger runs remain.  The bound only tightens.
        calls = []
        original = logmono.ideal._minimal_records

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(logmono.ideal, "_minimal_records", counting)
        phis = [phi for phi, _ in normal_form_corpus()]
        phis += empty_divisor_corpus() + monomial_surface_corpus() + pair_condition_corpus()
        combinations = 0
        for phi in phis:
            div = phi.source.divisor_vars
            filtrations = [[(v,)] for v in div]
            if len(div) > 1:
                filtrations += [[div], [div, div[:1]]]
            target_ideal = IdealPresentation([], phi.target.variables)
            for levels in filtrations:
                combinations += 1
                try:
                    is_log_rank_adapted_at(
                        phi, origin(phi.source), DivisorFiltration(levels), target_ideal
                    )
                except NotAMorphismOfPairsError:
                    pass
        assert combinations == 1116
        assert len(calls) <= 6

    def test_filtration_validation(self):
        f = DivisorFiltration([("u1",), ("u1", "u2")])
        with pytest.raises(ValueError):
            f.validate(("u1", "u2"))
        DivisorFiltration([("u1", "u2"), ("u1",)]).validate(("u1", "u2"))
