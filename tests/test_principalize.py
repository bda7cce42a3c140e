import random

import pytest

import logmono.principalize
from logmono.blowup import transform_morphism
from logmono.chart import ChartedPair, MorphismOfPairs
from logmono.classify import top_fitting_ideal
from logmono.ideal import is_principal_monomial_at
from logmono.principalize import (
    MonomialIdeal,
    NonMonomialInputError,
    TerminationMeasureError,
    _antichain,
    choose_center,
    goward_principalize,
    monomial_ideal_from_presentation,
    monomialize_monomial_morphism,
    termination_measure,
)

from helpers import (
    P,
    all_pairs_antichain,
    assert_canonical,
    origin,
    reference_choose_center,
    reference_difference,
    reference_target_pair,
    reference_termination_measure,
    reference_transform,
    two_var_antichains,
)
from test_fitting import surface_case3


UV = ChartedPair(("u", "v"), ("u", "v"))


class TestMonomialIdeal:
    def test_antichain_reduction(self):
        I = MonomialIdeal.from_exponents(("u", "v"), [(2, 0), (3, 1), (2, 0)])
        assert I.generators == ((2, 0),)
        assert I.is_principal()

    def test_antichain_matches_all_pairs_definition(self):
        rng = random.Random(23)
        shrunk = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 4) for _ in range(n))]
            for _ in range(rng.randint(0, 11)):
                if rng.random() < 0.25:
                    gens.append(rng.choice(gens))  # a duplicate
                else:
                    gens.append(tuple(rng.randint(0, 4) for _ in range(n)))
            got = _antichain(tuple(gens))
            assert got == all_pairs_antichain(gens), gens
            shrunk += len(got) < len(set(gens))
        assert shrunk >= 100  # most draws have a non-minimal generator

    def test_transform(self):
        I = MonomialIdeal.from_exponents(("u", "v"), [(2, 0), (0, 3)])
        J = I.transform("u", ["v"])
        assert J.generators == ((2, 0),)
        K = I.transform("v", ["u"])
        assert K.generators == ((0, 3), (2, 2))

    def test_extraction_from_presentation(self):
        amb = ("u", "v")
        from logmono.ideal import IdealPresentation

        pres = IdealPresentation([P("2*u^2", amb), P("3*v^3", amb)], amb)
        I = monomial_ideal_from_presentation(pres, UV)
        assert I.generators == ((0, 3), (2, 0))
        with pytest.raises(NonMonomialInputError):
            monomial_ideal_from_presentation(
                IdealPresentation([P("u + v", amb)], amb), UV
            )


class TestCenterChoice:
    def test_center_targets_extremal_coordinates(self):
        I = MonomialIdeal.from_exponents(("u", "v"), [(2, 0), (0, 3)])
        assert choose_center(I, ("u", "v")) == ("v", "u")

    def test_non_divisor_support_rejected(self):
        I = MonomialIdeal.from_exponents(("u", "v"), [(2, 0), (0, 3)])
        with pytest.raises(NonMonomialInputError):
            choose_center(I, ("u",))

    def test_measure_is_well_founded_base_case(self):
        assert termination_measure(
            MonomialIdeal.from_exponents(("u",), [(2,)])
        ) == (0,)


def _outcome(f, *args):
    """f's value, or the message of the NonMonomialInputError it raises."""
    try:
        return f(*args)
    except NonMonomialInputError as e:
        return ("raises", str(e))


def _seeded_ideals(rng, count):
    """Ideals in 3 or 4 variables drawn with duplicate generators and
    multiples of generators, reduced by ``from_exponents``."""
    names = ("u", "v", "w", "t")
    for _ in range(count):
        n = rng.randint(3, 4)
        gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(2, 6))]
        gens.append(rng.choice(gens))  # a duplicate
        g = rng.choice(gens)
        gens.append(tuple(x + rng.randint(0, 2) for x in g))  # comparable
        yield MonomialIdeal.from_exponents(names[:n], gens)


class TestPairScanAgainstReference:
    """The one-pass pair scan and the direct transform against the
    multi-pass scan and the ``from_exponents`` transform they replaced."""

    def check(self, ideal, divisors):
        assert ideal.generators == all_pairs_antichain(ideal.generators)
        assert termination_measure(ideal) == reference_termination_measure(ideal)
        if not ideal.is_principal():
            _, _, pair, diff = ideal._pair_scan
            assert pair == reference_target_pair(ideal)
            assert diff == reference_difference(*pair)
            for divisor in divisors:
                assert _outcome(choose_center, ideal, divisor) == _outcome(
                    reference_choose_center, ideal, divisor
                )
        names = ideal.variables
        for c in names:
            others = [v for v in names if v != c]
            for absorbed in [[v] for v in others] + [others]:
                got = ideal.transform(c, absorbed)
                assert got == reference_transform(ideal, c, absorbed)

    def test_two_variable_family(self):
        # Criterion 6's family: every antichain with exponents <= 6.
        divisors = [("u", "v"), ("u",), ("v",)]
        count = 0
        for gens in two_var_antichains(6):
            self.check(MonomialIdeal.from_exponents(("u", "v"), gens), divisors)
            count += 1
        assert count == 3431

    def test_seeded_ideals_with_duplicates_and_multiples(self):
        rng = random.Random(21)
        raised = 0
        for ideal in _seeded_ideals(rng, 400):
            names = ideal.variables
            divisors = [names, names[:1], names[1:], names[::2]]
            self.check(ideal, divisors)
            raised += not ideal.is_principal() and any(
                _outcome(choose_center, ideal, d)[0] == "raises" for d in divisors
            )
        assert raised >= 100  # the non-divisor message is compared too


class TestPrincipalize:
    def test_already_principal_gives_empty_tree(self):
        tree = goward_principalize(
            MonomialIdeal.from_exponents(("u", "v"), [(2, 0)]), UV
        )
        assert tree.depth() == 0 and tree.step_count() == 0
        cert = tree.root.certificate
        assert cert.generator_monomial.exponents == (2, 0)

    def test_two_variables_one_step(self):
        tree = goward_principalize(
            MonomialIdeal.from_exponents(("u", "v"), [(1, 0), (0, 1)]), UV
        )
        assert tree.depth() == 1
        leaves = sorted(l.payload.generators for l in tree.leaves())
        assert leaves == [((0, 1),), ((1, 0),)]

    def test_u2_v3_regression_tree(self):
        tree = goward_principalize(
            MonomialIdeal.from_exponents(("u", "v"), [(2, 0), (0, 3)]), UV
        )
        assert tree.depth() == 3
        assert [l.payload.generators for l in tree.leaves()] == [
            ((0, 3),),
            ((3, 6),),
            ((6, 2),),
            ((2, 0),),
        ]
        for leaf in tree.leaves():
            cert = leaf.certificate
            assert cert.generator_monomial.exponents == leaf.payload.generators[0]

    def test_non_divisor_generator_rejected(self):
        chart = ChartedPair(("u", "v"), ("u",))
        with pytest.raises(NonMonomialInputError):
            goward_principalize(
                MonomialIdeal.from_exponents(("u", "v"), [(2, 0), (0, 3)]), chart
            )

    def test_one_termination_measure_per_blowup_step(self, monkeypatch):
        calls = []
        measure = termination_measure

        def counting(ideal):
            calls.append(ideal)
            return measure(ideal)

        monkeypatch.setattr(logmono.principalize, "termination_measure", counting)
        chart = ChartedPair(("u", "v", "w"), ("u", "v", "w"))
        I = MonomialIdeal.from_exponents(
            chart.variables, [(3, 0, 1), (0, 2, 0), (1, 1, 3)]
        )
        tree = goward_principalize(I, chart)
        assert tree.step_count() > 3
        assert len(calls) == tree.step_count()

    def test_measure_that_does_not_decrease_is_rejected(self, monkeypatch):
        monkeypatch.setattr(
            logmono.principalize, "termination_measure", lambda ideal: (1, (1, 1))
        )
        I = MonomialIdeal.from_exponents(("u", "v"), [(2, 0), (0, 3)])
        with pytest.raises(TerminationMeasureError, match="did not decrease"):
            goward_principalize(I, UV)
        # A principal root is never expanded, so nothing is compared.
        tree = goward_principalize(
            MonomialIdeal.from_exponents(("u", "v"), [(2, 1)]), UV
        )
        assert tree.root.certificate.generator_monomial.exponents == (2, 1)

    def test_zero_ideal_rejected(self):
        # The zero ideal is not the unit ideal: no generator certifies it.
        with pytest.raises(ValueError, match="zero ideal cannot be principalized"):
            goward_principalize(MonomialIdeal.from_exponents(("u", "v"), []), UV)

    def test_leaf_certificates_reverify(self):
        rng = random.Random(2)
        chart = ChartedPair(("u", "v", "w"), ("u", "v", "w"))
        for _ in range(20):
            gens = [
                tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)
            ]
            if all(sum(g) == 0 for g in gens):
                continue
            I = MonomialIdeal.from_exponents(chart.variables, gens)
            tree = goward_principalize(I, chart)
            for leaf in tree.leaves():
                assert leaf.payload.is_principal()
                assert leaf.certificate is not None

    def test_substitutions_have_int_coefficients(self):
        # Coordinate blowups are monomial maps, so every coefficient of every
        # node's substitution is an int, not a Fraction.  The substitutions
        # are built without validation, so each must also be canonical.
        rng = random.Random(3)
        chart = ChartedPair(("u", "v", "w"), ("u", "v", "w"))
        for _ in range(10):
            gens = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)]
            if all(sum(g) == 0 for g in gens):
                continue
            tree = goward_principalize(
                MonomialIdeal.from_exponents(chart.variables, gens), chart
            )
            stack = [tree.root]
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                for p in node.substitution.values():
                    assert_canonical(p)
                    assert all(type(c) is int for c in p.terms.values()), p


class TestMonomializeDriver:
    def test_unit_fitting_gives_empty_tree(self):
        tree = monomialize_monomial_morphism(surface_case3())
        assert tree.depth() == 0
        cert = tree.root.certificate
        assert cert.exponent_matrix == [(1, 2, 0), (0, 3, 4)]

    def test_coordinate_projection_toy(self):
        src = ChartedPair(("u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("x", "y"), ("x", "y"))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u1", amb), "y": P("u2", amb)})
        tree = monomialize_monomial_morphism(phi)
        assert tree.depth() == 0

    def test_unit_minor_monomial_pair(self):
        src = ChartedPair(("u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("x", "y"), ("x", "y"))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt, {"x": P("u1*u2", amb), "y": P("u1^2*u2", amb)}
        )
        F = top_fitting_ideal(phi)
        assert F.basis()[0].is_constant()
        tree = monomialize_monomial_morphism(phi)
        assert tree.depth() == 0

    def test_non_monomial_component_rejected(self):
        src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "y1"), ("x1",))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt,
            {"x1": P("u1^2*u2^2", amb), "y1": P("u1*u2 + u1^3*u2^3*v1", amb)},
        )
        with pytest.raises(NonMonomialInputError):
            monomialize_monomial_morphism(phi)

    def test_leaf_fitting_stays_principal(self):
        src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "y1"), ("x1",))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt, {"x1": P("u1^3*u2", amb), "y1": P("u1*u2^2*v1", amb)}
        )
        tree = monomialize_monomial_morphism(phi)
        for leaf in tree.leaves():
            leaf_phi = transform_morphism(phi, leaf)
            F = top_fitting_ideal(leaf_phi)
            cert = is_principal_monomial_at(
                F, origin(leaf.chart).coordinates, leaf.chart.divisor_vars
            )
            assert cert is not None
