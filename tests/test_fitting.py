import pytest

from logmono.chart import ChartedPair, MorphismOfPairs, validate_pair_condition
from logmono.fitting import log_fitting_ideal
from logmono.ideal import radical_membership
from logmono.poly import Polynomial

from helpers import (
    P,
    empty_divisor_corpus,
    monomial_surface_corpus,
    normal_form_corpus,
    pair_condition_corpus,
    polynomial_log_jacobian,
    reference_minors,
    up_to_scalar,
)


def surface_case1():
    src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
    tgt = ChartedPair(("x1", "y1"), ("x1",))
    amb = src.variables
    return MorphismOfPairs(
        src, tgt,
        {"x1": P("u1^2*u2^2", amb), "y1": P("u1*u2 + u1^3*u2^3*v1", amb)},
    )


def surface_case2():
    src = ChartedPair(("u1", "u2"), ("u1", "u2"))
    tgt = ChartedPair(("x1", "y1"), ("x1",))
    amb = src.variables
    return MorphismOfPairs(
        src, tgt,
        {"x1": P("u1^2*u2^2", amb), "y1": P("u1*u2 + u1^2*u2^3", amb)},
    )


def surface_case3():
    src = ChartedPair(("u1", "u2", "u3"), ("u1", "u2", "u3"))
    tgt = ChartedPair(("x1", "x2"), ("x1", "x2"))
    amb = src.variables
    return MorphismOfPairs(
        src, tgt, {"x1": P("u1*u2^2", amb), "x2": P("u2^3*u3^4", amb)}
    )


class TestTopFittingOracles:
    def test_case1_principal_monomial(self):
        F = log_fitting_ideal(surface_case1(), 2)
        amb = ("u1", "u2", "v1")
        assert F.basis() == [P("u1^3*u2^3", amb)]

    def test_case2_principal_monomial(self):
        F = log_fitting_ideal(surface_case2(), 2)
        assert F.basis() == [P("u1^2*u2^3", ("u1", "u2"))]

    def test_case3_unit_ideal(self):
        F = log_fitting_ideal(surface_case3(), 2)
        assert F.basis() == [Polynomial.constant(1, ("u1", "u2", "u3"))]


class TestDegreeOne:
    def test_case1_degree_one_generators(self):
        # Degree-1 coefficients include the constant 2 from dx1/x1, so the
        # ideal is the unit ideal.
        F = log_fitting_ideal(surface_case1(), 1)
        amb = ("u1", "u2", "v1")
        assert F.basis() == [Polynomial.constant(1, amb)]

    def test_degree_bounds_enforced(self):
        phi = surface_case1()
        with pytest.raises(ValueError):
            log_fitting_ideal(phi, 0)
        with pytest.raises(ValueError):
            log_fitting_ideal(phi, 3)


class TestVanishingLocus:
    """V(F_N) lies in the source divisor exactly when the divisor product
    is in the radical of F_N."""

    def test_vanishing_inside_divisor(self):
        for phi in (surface_case1(), surface_case3()):
            assert radical_membership(phi.source.divisor_product(), log_fitting_ideal(phi, 2))

    def test_free_variable_generator_escapes_divisor(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        u = src.divisor_product()
        phi = MorphismOfPairs(src, tgt, {"x": P("u^2", amb), "y": P("v^2", amb)})
        F = log_fitting_ideal(phi, 2)
        assert F.basis() == [P("v", amb)]
        assert not radical_membership(u, F)
        # A single-term generator is no shortcut when it involves a free
        # variable: V(u*v) leaves the divisor {u}.
        phi = MorphismOfPairs(src, tgt, {"x": P("u", amb), "y": P("u*v^2", amb)})
        F = log_fitting_ideal(phi, 2)
        assert F.generators == [P("2*u*v", amb)]
        assert not radical_membership(u, F)


def test_generators_are_the_log_jacobian_minors():
    # F_k wedges each k-subset of rows (divisor rows first) over every
    # column subset, so its generators are the k-minors of the log
    # Jacobian up to order and a nonzero rational scalar, each kept once.
    corpus = [phi for phi, _ in normal_form_corpus()] + pair_condition_corpus()
    corpus += empty_divisor_corpus() + monomial_surface_corpus()
    checked = 0
    repeats = 0
    for phi in corpus:
        if not validate_pair_condition(phi)[0]:
            continue
        rows = polynomial_log_jacobian(phi)
        for k in range(1, min(len(phi.source.variables), len(phi.target.variables)) + 1):
            got = [up_to_scalar(g) for g in log_fitting_ideal(phi, k).generators]
            assert len(set(got)) == len(got), (phi, k)
            minors = [up_to_scalar(m) for m in reference_minors(rows, k)]
            assert set(got) == set(minors), (phi, k)
            repeats += len(minors) - len(got)
            checked += 1
    assert checked >= 300
    # The corpus has proportional minors, so the test sees some dropped.
    assert repeats > 0
