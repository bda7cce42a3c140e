from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from logmono.chart import ChartedPair, MorphismOfPairs, validate_pair_condition
from logmono.fitting import log_fitting_ideal
from logmono.logdiff import (
    LogKForm,
    NotAMorphismOfPairsError,
    _det,
    log_differential,
    log_jacobian,
    pullback_basis_form,
    wedge_rows,
)
from logmono.poly import Polynomial

from helpers import (
    P,
    assert_canonical,
    division_log_jacobian,
    division_pullback,
    empty_divisor_corpus,
    monomial_surface_corpus,
    normal_form_corpus,
    pair_condition_corpus,
    polynomial_log_jacobian,
    reference_det,
    up_to_scalar,
)

CHART = ChartedPair(("u", "v"), ("u",))


class TestLogDifferential:
    def test_log_basis_coefficients(self):
        f = P("u^2 + v", ("u", "v"))
        d = log_differential(f, CHART)
        assert d.coefficient(("u",), ()) == P("2*u^2", ("u", "v"))
        assert d.coefficient((), ("v",)) == P("1", ("u", "v"))

    def test_constant_has_zero_differential(self):
        d = log_differential(P("7", ("u", "v")), CHART)
        assert d.is_zero()

    def test_linearity(self):
        amb = ("u", "v")
        f, g = P("u^3*v", amb), P("v^2 + u", amb)
        df, dg, dsum = (log_differential(p, CHART) for p in (f, g, f + g))
        for key in set(df.coefficients) | set(dg.coefficients):
            assert dsum.coefficient(*key) == df.coefficient(*key) + dg.coefficient(*key)

    def test_euler_rows_keep_coefficients_canonical(self):
        # u*d/du scales 1/2*u^2 by 2: the coefficient 1 must be the int 1.
        amb = ("u", "v")
        f = P("1/2*u^2 + 1/3*u*v + 3/2*v^2", amb)
        d = log_differential(f, CHART)
        assert d.coefficient(("u",), ()) == P("u^2 + 1/3*u*v", amb)
        assert d.coefficient((), ("v",)) == P("1/3*u + 3*v", amb)
        for p in d.coefficients.values():
            assert_canonical(p)
        tgt = ChartedPair(("x", "y"), ("x",))
        phi = MorphismOfPairs(CHART, tgt, {"x": P("u^3", amb), "y": f})
        for row in polynomial_log_jacobian(phi):
            for p in row:
                assert_canonical(p)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            LogKForm(1, CHART, {((), ("u",)): P("1", ("u", "v"))})
        with pytest.raises(ValueError):
            LogKForm(2, CHART, {((), ("v",)): P("1", ("u", "v"))})


def surface_morphism():
    """x1 = (u1*u2)^2, y1 = u1*u2 + u1^3*u2^3*v1 over a two-line divisor."""
    src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
    tgt = ChartedPair(("x1", "y1"), ("x1",))
    amb = src.variables
    return MorphismOfPairs(
        src, tgt,
        {"x1": P("u1^2*u2^2", amb), "y1": P("u1*u2 + u1^3*u2^3*v1", amb)},
    )


class TestPullback:
    def test_surface_example_top_form(self):
        phi = surface_morphism()
        form = pullback_basis_form(phi, ("x1",), ("y1",))
        amb = phi.source.variables
        expected = {
            (("u1",), ("v1",)): P("2*u1^3*u2^3", amb),
            (("u2",), ("v1",)): P("2*u1^3*u2^3", amb),
        }
        assert form.coefficients == expected

    def test_surface_example_one_forms(self):
        phi = surface_morphism()
        amb = phi.source.variables
        dx = pullback_basis_form(phi, ("x1",), ())
        assert dx.coefficient(("u1",), ()) == P("2", amb)
        assert dx.coefficient(("u2",), ()) == P("2", amb)
        assert dx.coefficient((), ("v1",)).is_zero()
        dy = pullback_basis_form(phi, (), ("y1",))
        assert dy.coefficient((), ("v1",)) == P("u1^3*u2^3", amb)

    def test_antisymmetry_degenerate_wedge(self):
        # Wedging a component's differential with itself gives zero.
        src = ChartedPair(("u1", "u2"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "x2"), ("x1", "x2"))
        amb = src.variables
        p = P("u1*u2^2", amb)
        phi = MorphismOfPairs(src, tgt, {"x1": p, "x2": p})
        form = pullback_basis_form(phi, ("x1", "x2"), ())
        assert form.is_zero()

    def test_monomial_pullback_constant_log_matrix(self):
        src = ChartedPair(("u1", "u2", "u3"), ("u1", "u2", "u3"))
        tgt = ChartedPair(("x1", "x2"), ("x1", "x2"))
        amb = src.variables
        phi = MorphismOfPairs(
            src, tgt, {"x1": P("u1*u2^2", amb), "x2": P("u2^3*u3^4", amb)}
        )
        form = pullback_basis_form(phi, ("x1", "x2"), ())
        # Coefficients are the 2x2 minors of the exponent matrix.
        assert form.coefficient(("u1", "u2"), ()) == P("3", amb)
        assert form.coefficient(("u1", "u3"), ()) == P("4", amb)
        assert form.coefficient(("u2", "u3"), ()) == P("8", amb)

    def test_malformed_morphism_raises(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("u + 1", amb), "y": P("v", amb)})
        with pytest.raises(NotAMorphismOfPairsError):
            pullback_basis_form(phi, ("x",), ("y",))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="form degree must be at least 1"):
            pullback_basis_form(surface_morphism(), (), ())

    @pytest.mark.parametrize(
        "I, J, message",
        [
            (("y1",), (), "I_target must consist of target divisor variables"),
            ((), ("x1",), "J_target must consist of target free variables"),
        ],
    )
    def test_basis_form_indices_checked(self, I, J, message):
        with pytest.raises(ValueError, match=message):
            pullback_basis_form(surface_morphism(), I, J)

    def test_log_differential_needs_chart_ambient(self):
        with pytest.raises(ValueError, match="polynomial not in chart variables"):
            log_differential(P("u", ("u", "w")), ChartedPair(("u", "v"), ("u",)))


class TestLogJacobian:
    def test_surface_example_entries(self):
        phi = surface_morphism()
        amb = phi.source.variables
        lj = log_jacobian(phi)
        assert len(lj) == 2 and all(len(row) == 3 for row in lj)
        assert lj[0] == (2, 2, 0)
        assert lj[1] == [
            P("u1*u2 + 3*u1^3*u2^3*v1", amb),
            P("u1*u2 + 3*u1^3*u2^3*v1", amb),
            P("u1^3*u2^3", amb),
        ]

    def test_malformed_raises(self):
        src = ChartedPair(("u", "v"), ("u",))
        tgt = ChartedPair(("x", "y"), ("x",))
        amb = src.variables
        phi = MorphismOfPairs(src, tgt, {"x": P("v", amb), "y": P("u", amb)})
        with pytest.raises(NotAMorphismOfPairsError):
            log_jacobian(phi)


def reversed_source(phi: MorphismOfPairs) -> MorphismOfPairs:
    """The same morphism with the source chart variables listed in reverse,
    so that free variables come before divisor variables."""
    amb = tuple(reversed(phi.source.variables))
    src = ChartedPair(amb, phi.source.divisor_vars)
    comps = {x: p.extend_ambient(amb) for x, p in phi.components.items()}
    return MorphismOfPairs(src, phi.target, comps)


def test_rows_and_pullbacks_match_division_reference():
    """Integer divisorial rows and wedged pullbacks agree with the division
    formulation on every basis form of every degree, in both chart orders,
    and each log-Fitting ideal lists the pullbacks' coefficients in
    (l, I, J) order, each kept once up to a nonzero rational scalar."""
    pair_valid = [phi for phi in pair_condition_corpus() if validate_pair_condition(phi)[0]]
    assert len(pair_valid) >= 100
    corpus = pair_valid + [phi for phi, _ in normal_form_corpus()]
    corpus += empty_divisor_corpus() + monomial_surface_corpus()
    for phi in corpus + [reversed_source(phi) for phi in corpus]:
        assert polynomial_log_jacobian(phi) == division_log_jacobian(phi), phi
        div, free = phi.target.divisor_vars, phi.target.free_vars
        for k in range(1, len(phi.target.variables) + 1):
            gens = []
            for l in range(k + 1):
                for I in combinations(div, l):
                    for J in combinations(free, k - l):
                        form = pullback_basis_form(phi, I, J)
                        assert form.coefficients == division_pullback(phi, I, J), (phi, I, J)
                        gens.extend(form.coefficients.values())
            if k <= len(phi.source.variables):
                firsts = {}
                for g in gens:
                    firsts.setdefault(up_to_scalar(g), g)
                assert log_fitting_ideal(phi, k).generators == list(firsts.values()), (phi, k)


# ---------------------------------------------------------------------------
# The minor kernel against the polynomial-only reference

KERNEL_AMB = ("u", "v", "w")
int_entries = st.integers(-4, 4)
poly_entries = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in KERNEL_AMB)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=3,
).map(lambda terms: Polynomial(terms, KERNEL_AMB))
entries = st.one_of(int_entries, int_entries, poly_entries)


def as_polynomial(x):
    return Polynomial.constant(x, KERNEL_AMB) if type(x) is int else x


def as_polynomials(matrix):
    return [[as_polynomial(x) for x in row] for row in matrix]


@st.composite
def mixed_matrices(draw, ncols=None):
    """Matrices of ints (zero and negative ones included) and polynomials
    (the zero polynomial included); some rows are all ints, like the
    divisorial rows of a log Jacobian, some are zero, and one may repeat
    another.  Square
    unless ``ncols`` is given, then k x ncols with k <= ncols."""
    k = draw(st.integers(1, ncols or 4))
    n = ncols or k
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["ints", "polys", "mixed", "zeros"]))
        entry = {"ints": int_entries, "polys": poly_entries, "mixed": entries, "zeros": st.just(0)}[kind]
        rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    if k > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


class TestMinorKernel:
    @settings(max_examples=200, deadline=None)
    @given(mixed_matrices())
    def test_det_matches_reference(self, matrix):
        d = _det(matrix)
        assert as_polynomial(d) == reference_det(as_polynomials(matrix))
        # A matrix of ints alone gives one int; a matrix of polynomials
        # gives a polynomial unless every product vanishes.
        kinds = {type(x) for row in matrix for x in row}
        if kinds == {int}:
            assert type(d) is int
        elif kinds == {Polynomial}:
            assert type(d) is Polynomial or d == 0
        if type(d) is not int:
            assert_canonical(d)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: mixed_matrices(ncols=n)))
    def test_maximal_minors_match_reference(self, rows):
        # Over a chart with an empty divisor every column is free, so the
        # wedge's coefficients are the nonzero maximal minors.  An int
        # minor comes back as a constant over the chart's own names.
        names = tuple(f"c{j}" for j in range(len(rows[0])))
        form = wedge_rows(rows, ChartedPair(names, ()))
        got = {}
        for (I, J), m in form.coefficients.items():
            assert I == ()
            if m.ambient == names:
                (m,) = m.terms.values()
            got[tuple(map(names.index, J))] = as_polynomial(m)
        want = {}
        for cols in combinations(range(len(rows[0])), len(rows)):
            m = reference_det([[as_polynomial(row[j]) for j in cols] for row in rows])
            if not m.is_zero():
                want[cols] = m
        assert got == want
        assert list(got) == sorted(got)

    @settings(max_examples=150, deadline=None)
    @given(mixed_matrices(ncols=len(KERNEL_AMB)), st.lists(st.sampled_from(KERNEL_AMB), unique=True))
    def test_wedge_rows_from_ints_matches_constant_polynomials(self, rows, divisor):
        chart = ChartedPair(KERNEL_AMB, tuple(divisor))
        form = wedge_rows(rows, chart)
        reference = wedge_rows(as_polynomials(rows), chart)
        assert form.coefficients == reference.coefficients
        assert list(form.coefficients) == list(reference.coefficients)
        # The keys wedge_rows builds pass the validating constructor.
        checked = LogKForm(form.degree, chart, form.coefficients)
        assert checked.coefficients == form.coefficients
        for p in form.coefficients.values():
            assert type(p) is Polynomial and not p.is_zero()

    def test_empty_determinant_rejected(self):
        with pytest.raises(ValueError):
            _det([])


def test_divisorial_rows_are_exponent_tuples():
    phi = surface_morphism()
    rows = log_jacobian(phi)
    assert rows[0] == (2, 2, 0) and type(rows[0]) is tuple
    assert all(type(e) is int for e in rows[0])
    assert rows[1] == division_log_jacobian(phi)[1]
