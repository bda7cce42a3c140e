import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logmono.ideal import (
    block_order,
    grevlex_order,
    normal_form,
    reduced_groebner_basis,
)
from logmono.poly import (
    AmbientMismatchError,
    Monomial,
    Polynomial,
    exact_divide,
)

from helpers import P, assert_canonical, naive_evaluate, reference_exact_divide

AMB = ("x", "y", "z")


def rand_poly(draw_terms):
    return Polynomial(dict(draw_terms), AMB)


exps = st.tuples(*(st.integers(0, 4) for _ in AMB))
coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda c: c != 0)
polys = st.dictionaries(exps, coeffs, max_size=5).map(rand_poly)


class TestMonomial:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), "1"])
    def test_non_integral_exponent_rejected(self, bad):
        # An exponent must be an integer: 1.5 is not truncated to 1.
        with pytest.raises(ValueError, match="non-integral exponent"):
            Monomial((bad, 0))
        assert Monomial(e for e in (2, 1)).exponents == (2, 1)

    def test_as_string(self):
        assert Monomial((2, 1, 0)).as_string(AMB) == "x^2*y"
        assert Monomial((0, 0, 0)).as_string(AMB) == "1"


class TestArithmetic:
    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), "1"])
    def test_non_integral_exponent_rejected(self, bad):
        # Polynomial({(1.5, 0): 1}, ...) used to be u: int() truncated it.
        with pytest.raises(ValueError, match="non-integral exponent"):
            Polynomial({(bad, 0, 0): 1}, AMB)
        assert Polynomial({(1, 0, 0): 1}, AMB) == P("x", AMB)

    def test_canonical_zero(self):
        p = P("x", AMB) - P("x", AMB)
        assert p.is_zero()
        assert p.terms == {}

    def test_string_round_trip(self):
        p = P("2*x^2*y - 3*z + 1", AMB)
        assert P(str(p).replace(" ", ""), AMB) == p

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            P("x", ("x",)) + P("x", ("x", "y"))

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Polynomial.zero(AMB) == p
        assert p * Polynomial.constant(1, AMB) == p

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_homomorphism(self, p, q):
        pt = (Fraction(2), Fraction(-1, 2), Fraction(3))
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_leibniz_rule(self, p, q):
        for v in AMB:
            lhs = (p * q).partial_derivative(v)
            rhs = p.partial_derivative(v) * q + p * q.partial_derivative(v)
            assert lhs == rhs

    def test_power(self):
        p = P("x + y", AMB)
        assert p ** 3 == p * p * p
        assert p ** 0 == Polynomial.constant(1, AMB)

    def test_power_squares_only_as_far_as_needed(self, monkeypatch):
        p = P("x + y + 1", AMB)
        expected = Polynomial.constant(1, AMB)
        for k in range(10):
            assert p ** k == expected
            expected = expected * p
        work = []
        mul = Polynomial.__mul__

        def counting_mul(a, b):
            work.append(len(a.terms) * len(b.terms))
            return mul(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        result = p ** 16
        # Squaring the 16th power as well would cost len(result)^2.
        assert max(work) < len(result.terms) ** 2

    def test_power_multiplies_only_squarings_and_set_bits(self, monkeypatch):
        p = P("x + 2*y - z", AMB)
        one = Polynomial.constant(1, AMB)
        operands = []
        mul = Polynomial.__mul__

        def counting_mul(a, b):
            operands.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        for k in range(40):
            operands.clear()
            p ** k
            # floor(log2 k) squarings, then one product per set bit of k
            # after the lowest.
            squarings = max(k.bit_length() - 1, 0)
            products = max(bin(k).count("1") - 1, 0)
            assert len(operands) == squarings + products, k
            assert all(a != one and b != one for a, b in operands), k

    def test_first_power_is_the_base(self):
        p = P("x*y - 1/2*z", AMB)
        assert p ** 1 is p
        assert p ** 1 == p

    def test_powers_of_zero_and_constants(self):
        zero = Polynomial.zero(AMB)
        assert zero ** 0 == Polynomial.constant(1, AMB)
        for k in (1, 2, 5):
            assert (zero ** k).is_zero()
        for c in (Fraction(-2, 3), 3, Fraction(1, 2)):
            for k in range(6):
                power = Polynomial.constant(c, AMB) ** k
                assert power == Polynomial.constant(Fraction(c) ** k, AMB)
                assert_canonical(power)

    @given(polys, st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_multiplication(self, p, k):
        expected = Polynomial.constant(1, AMB)
        for _ in range(k):
            expected = expected * p
        power = p ** k
        assert power == expected
        assert_canonical(power)


class TestCalculus:
    def test_partial_derivative_oracle(self):
        p = P("x^3*y + 2*y*z - 7", AMB)
        assert p.partial_derivative("x") == P("3*x^2*y", AMB)
        assert p.partial_derivative("y") == P("x^3 + 2*z", AMB)
        assert p.partial_derivative("z") == P("2*y", AMB)

    def test_substitute_ring_hom(self):
        p = P("x^2 + y", AMB)
        target = ("s", "t")
        images = {
            "x": P("s*t", target),
            "y": P("s + 1", target),
            "z": P("0", target),
        }
        assert p.substitute(images) == P("s^2*t^2 + s + 1", target)


points = st.tuples(
    *(
        st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-3, 3), coeffs)
        for _ in AMB
    )
)


@given(polys, points)
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_naive_evaluation(p, point):
    """Skipping terms that vanish at zero coordinates, and leaving Fraction
    coordinates as they are, changes no value."""
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == naive_evaluate(p, point)


class TestMonomialStructure:
    def test_content_and_division(self):
        p = P("x^2*y + x*y^2", AMB)
        c = p.monomial_content()
        assert c == (1, 1, 0)
        assert p.divide_by_monomial(c) == P("x + y", AMB)

    def test_grevlex_leading_term(self):
        # x*y^2 beats x^2*y? No: same degree, grevlex compares last
        # exponents reversed; x^2*y wins.
        p = P("x^2*y + x*y^2", AMB)
        e, c = p.leading_term()
        assert e == (2, 1, 0) and c == 1

    def test_ambient_surgery(self):
        p = P("x*z", AMB)
        big = p.extend_ambient(("w",) + AMB)
        assert big == P("x*z", ("w",) + AMB)
        assert p.extend_ambient(AMB) is p
        with pytest.raises(ValueError):
            p.extend_ambient(("x", "y"))


class TestExactDivision:
    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_product_divides(self, p, q):
        if q.is_zero():
            return
        assert exact_divide(p * q, q) == p

    def test_inexact_returns_none(self):
        assert exact_divide(P("x + 1", AMB), P("y", AMB)) is None

    def test_random_division_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            terms_p = {
                tuple(rng.randint(0, 3) for _ in AMB): Fraction(rng.randint(1, 5))
                for _ in range(rng.randint(1, 4))
            }
            terms_q = {
                tuple(rng.randint(0, 2) for _ in AMB): Fraction(rng.randint(1, 5))
                for _ in range(rng.randint(1, 3))
            }
            p = Polynomial(terms_p, AMB)
            q = Polynomial(terms_q, AMB)
            got = exact_divide(p * q, q)
            assert got == p

    @given(polys, polys, polys, st.integers(0, 2))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_division(self, p, q, r, kind):
        # kind 0: an arbitrary pair, mostly not divisible; 1: a multiple of
        # q plus a stray remainder; 2: an exact multiple of q.
        if q.is_zero():
            return
        dividend = (p, p * q + r, p * q)[kind]
        got = exact_divide(dividend, q)
        want = reference_exact_divide(dividend, q)
        if want is None:
            assert got is None
        else:
            assert_canonical(got)
            assert got == want

    def test_cancelled_term_that_returns(self):
        # Dividing by y^2 + y + 1: the step at y^4 cancels the queued
        # 2*y^2, and the step at y^3 brings y^2 back while its entry is
        # still queued.
        p = P("2*y^4 + y^3 + 2*y^2 + 1", AMB)
        q = P("y^2 + y + 1", AMB)
        assert exact_divide(p, q) == P("2*y^2 - y + 1", AMB)
        assert reference_exact_divide(p, q) == P("2*y^2 - y + 1", AMB)


TARGET = ("s", "t")
small_images = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), coeffs, max_size=2
).map(lambda terms: Polynomial(terms, TARGET))
small_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in AMB)), coeffs, max_size=3
).map(rand_poly)
scalars = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


class TestTrustedResults:
    """Results built without validation are canonical, so re-validating
    them changes nothing."""

    @given(polys, polys, scalars, st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, p, q, k, n):
        for r in (p + q, p - q, p - p, -p, p * q, p ** n, p * k, k * p):
            assert_canonical(r)
        for zero in (0, Fraction(0)):
            assert_canonical(p * zero)
            assert (p * zero).is_zero()

    @given(polys, polys, small_images, small_images, small_images)
    @settings(max_examples=60, deadline=None)
    def test_calculus_division_and_surgery(self, p, q, a, b, c):
        for v in AMB:
            assert_canonical(p.partial_derivative(v))
        assert_canonical(p.substitute({"x": a, "y": b, "z": c}))
        assert_canonical(p.substitute({"x": a, "y": a, "z": -a}))
        if not p.is_zero():
            m = p.monomial_content()
            assert_canonical(p.divide_by_monomial(m))
        big = p.extend_ambient(("w",) + AMB)
        assert_canonical(big)
        basis = [g for g in (q, q * q + p) if not g.is_zero()]
        assert_canonical(normal_form(p, basis, grevlex_order()))
        assert_canonical(normal_form(p * q, basis, grevlex_order()))

    @given(polys, polys, scalars)
    @settings(max_examples=60, deadline=None)
    def test_monic_exact_divide_and_integral_scalars(self, p, q, k):
        assert_canonical(p.monic())
        if not p.is_zero():
            assert p.monic().leading_term()[1] == 1
        if not q.is_zero():
            assert_canonical(exact_divide(p * q, q))
            assert_canonical(exact_divide(q, q))
        # Scalars whose product with a coefficient is integral.
        for r in (p * Fraction(1, 2) * 2, Fraction(1, 2) * (2 * p)):
            assert_canonical(r)
            assert r == p
        assert_canonical(p * Fraction(4, 2))
        assert p * Fraction(4, 2) == p + p
        if k:
            assert_canonical(p * k * Fraction(1, k))
            assert p * k * Fraction(1, k) == p

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_reduced_bases(self, p, q, r):
        for order in (grevlex_order(), block_order(1)):
            for g in reduced_groebner_basis([p, q, r], order):
                assert_canonical(g)
                lc = g.terms[max(g.terms, key=order.key)]
                assert type(lc) is int and lc == 1

    def test_constructors(self):
        # variable, constant and zero skip validation; each must equal what
        # the validating constructor builds from the same terms.
        for i, name in enumerate(AMB):
            x = Polynomial.variable(name, list(AMB))
            assert_canonical(x)
            assert x == Polynomial({tuple(int(j == i) for j in range(3)): 1}, AMB)
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            Polynomial.variable("w", AMB)
        for c in (3, -2, Fraction(4, 2), Fraction(1, 3), 0):
            k = Polynomial.constant(c, list(AMB))
            assert_canonical(k)
            assert k == Polynomial({(0, 0, 0): c}, AMB)
        z = Polynomial.zero(list(AMB))
        assert_canonical(z)
        assert z == Polynomial({}, AMB)

    def test_integral_values_are_ints(self):
        half = Polynomial({(1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(4, 2)}, AMB)
        assert half.terms == {(1, 0, 0): Fraction(1, 2), (0, 0, 0): 2}
        assert type(half.terms[(0, 0, 0)]) is int
        for r in (
            half * 2,
            half + half,
            half.partial_derivative("x") * 2,
            P("2*x + 4", AMB).monic(),
            P("4/2*x + 2/3*3/2 + 1/2*y + 1/2*y", AMB),
            exact_divide(P("2*x^2 + 2*x", AMB), P("2*x", AMB)),
            P("1/2*x + 3/2*z", AMB).substitute(
                {"x": P("2*s", TARGET), "y": P("s", TARGET), "z": P("2*t", TARGET)}
            ),
        ):
            assert_canonical(r)
            assert all(type(c) is int for c in r.terms.values()), r
