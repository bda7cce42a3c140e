import re
from fractions import Fraction

import pytest

from logmono.blowup import blowup_chart, transform_morphism
from logmono.chart import (
    ChartedPair,
    DegenerateMorphismError,
    MorphismOfPairs,
    RationalPoint,
    preimage_equality_check,
    stratum_of_point,
    validate_pair_condition,
)
from logmono.frontend import ProblemFile, parse_problem
from logmono.rank import restrict_morphism
from helpers import (
    P,
    empty_divisor_corpus,
    monomial_surface_corpus,
    normal_form_corpus,
    origin,
    pair_condition_corpus,
    radical_pair_condition,
    radical_preimage_equality,
)


SRC = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
TGT = ChartedPair(("x1", "y1"), ("x1",))


def phi_of(x1, y1, source=SRC, target=TGT):
    amb = source.variables
    return MorphismOfPairs(source, target, {"x1": P(x1, amb), "y1": P(y1, amb)})


class TestChartedPair:
    def test_divisor_ordering_normalized(self):
        c = ChartedPair(("a", "b", "c"), ("c", "a"))
        assert c.divisor_vars == ("a", "c")
        assert c.free_vars == ("b",)

    def test_invalid_divisor_variable(self):
        with pytest.raises(ValueError):
            ChartedPair(("a",), ("b",))

    def test_duplicate_variables(self):
        with pytest.raises(ValueError):
            ChartedPair(("a", "a"), ())

    @pytest.mark.parametrize(
        "variables, divisor, message",
        [
            (("a", "b", "a"), ("a",), "duplicate variable declaration"),
            (("a", "b"), ("b", "w"), "divisor variable 'w' not declared"),
            (("a", "b"), ("a", "a"), "duplicate divisor variable 'a'"),
            # The first bad divisor name in listing order is reported.
            (("a", "b"), ("b", "b", "w"), "duplicate divisor variable 'b'"),
            (("a", "b"), ("w", "b", "b"), "divisor variable 'w' not declared"),
        ],
    )
    def test_chart_messages(self, variables, divisor, message):
        with pytest.raises(ValueError) as e:
            ChartedPair(variables, divisor)
        assert str(e.value) == message

    def test_divisor_out_of_chart_order_resorted(self):
        assert ChartedPair(("u", "v", "w"), ("w", "u")).divisor_vars == ("u", "w")

    def test_divisor_product(self):
        c = ChartedPair(("u", "v", "w"), ("u", "w"))
        assert c.divisor_product() == P("u*w", ("u", "v", "w"))


class TestMorphism:
    def test_component_coverage_enforced(self):
        with pytest.raises(ValueError, match="^components must cover exactly the target variables$"):
            MorphismOfPairs(SRC, TGT, {"x1": P("u1", SRC.variables)})

    def test_component_ambient_enforced(self):
        message = "component 'x1' has ambient ('u1',), expected ('u1', 'u2', 'v1')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MorphismOfPairs(SRC, TGT, {"x1": P("u1", ("u1",)),
                                       "y1": P("u1", ("u1",))})

    def test_trusted_morphisms_pass_the_validator(self):
        """parse_problem, transform_morphism and restrict_morphism build
        their morphisms unchecked; each passes the public constructor and
        keeps its components in target order."""
        phis = [phi for phi, _ in normal_form_corpus()]
        phis += empty_divisor_corpus() + monomial_surface_corpus() + pair_condition_corpus()
        checked = 0
        for phi in phis:
            parsed = parse_problem(ProblemFile(phi, origin(phi.source)).render()).morphism
            built = [parsed]
            built += [transform_morphism(parsed, child)
                      for child in blowup_chart(parsed.source, parsed.source.variables[:2])]
            built += [restrict_morphism(parsed, (d,)) for d in parsed.source.divisor_vars]
            for m in built:
                again = MorphismOfPairs(m.source, m.target, m.components)
                assert list(m.components.items()) == list(again.components.items())
                checked += 1
        assert checked > 1000

    def test_pullback_is_substitution(self):
        phi = phi_of("u1*u2", "v1")
        f = P("x1^2 + y1", TGT.variables)
        assert phi.pullback(f) == P("u1^2*u2^2 + v1", SRC.variables)

    def test_with_empty_target_divisor(self):
        phi = phi_of("u1*u2", "v1")
        phi0 = phi.with_empty_target_divisor()
        assert phi0.target.divisor_vars == ()
        assert phi0.components == phi.components


class TestStratum:
    def test_stratum_of_point(self):
        pt = RationalPoint((Fraction(0), Fraction(2), Fraction(0)))
        assert stratum_of_point(SRC, pt) == ("u1",)
        origin = RationalPoint((0, 0, 0))
        assert stratum_of_point(SRC, origin) == ("u1", "u2")

    def test_point_length_checked(self):
        with pytest.raises(ValueError):
            stratum_of_point(SRC, RationalPoint((0, 0)))


class TestPairCondition:
    def test_monomial_component_passes(self):
        ok, diags = validate_pair_condition(phi_of("u1^2*u2", "v1"))
        assert ok and not diags

    def test_unit_plus_divisor_fails(self):
        ok, diags = validate_pair_condition(phi_of("u1 + 1", "v1"))
        assert not ok and diags

    def test_free_variable_component_fails(self):
        ok, _ = validate_pair_condition(phi_of("v1", "u1"))
        assert not ok

    def test_zero_divisorial_component_degenerate(self):
        with pytest.raises(DegenerateMorphismError):
            validate_pair_condition(phi_of("0", "v1"))

    def test_empty_target_divisor_vacuous(self):
        phi = phi_of("v1 + 1", "v1", target=ChartedPair(("x1", "y1"), ()))
        ok, _ = validate_pair_condition(phi)
        assert ok


class TestPreimageEquality:
    def test_full_preimage(self):
        assert preimage_equality_check(phi_of("u1*u2", "v1"))

    def test_partial_preimage(self):
        # Divisor preimage only covers u1: u2 stays outside.
        assert not preimage_equality_check(phi_of("u1", "v1"))

    def test_fails_with_pair_condition(self):
        assert not preimage_equality_check(phi_of("u1 + 1", "v1"))


class TestAgainstRadicalOracle:
    """The support and exponent-sum checks against the Rabinowitsch
    radical-membership formulation of the same conditions."""

    @staticmethod
    def verdicts(phis):
        out = []
        for phi in phis:
            ok, diags = validate_pair_condition(phi)
            assert ok == (not diags)
            assert ok == radical_pair_condition(phi), phi
            eq = preimage_equality_check(phi)
            assert eq == radical_preimage_equality(phi), phi
            out.append((ok, eq))
        return out

    def test_corpora(self):
        phis = [phi for phi, _ in normal_form_corpus()]
        phis += empty_divisor_corpus() + monomial_surface_corpus()
        self.verdicts(phis)

    def test_random_morphisms(self):
        phis = pair_condition_corpus()
        assert len(phis) >= 300
        verdicts = self.verdicts(phis)
        # Every combination that the pair condition allows occurs.
        assert set(verdicts) == {(False, False), (True, False), (True, True)}
