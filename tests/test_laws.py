"""The paper's invariance laws as oracles over the seeded corpora.

A law shares no code path with the kernels it checks, so it survives the
refactors that retire a reference implementation.

Log blowups are log étale (K. Kato, "Toric singularities", Amer. J.
Math. 1994).  Let π be a chart of the blowup at a center of two source
divisor variables.  The log Jacobian of φ∘π is π^* of φ's times a
unimodular integer matrix, so every log-Fitting ideal of φ∘π is the
pullback of φ's, and the log rank of φ∘π at a' is φ's at π(a').  Here
φ∘π comes from ``transform_morphism`` and the pullback from
``Polynomial.substitute`` through the chart's polynomial map.

Coordinate permutations.  Reordering the source variables, with the
divisor following, permutes the exponents of every log-Fitting ideal and
changes no verdict: quasi-preparedness, geometric rank, log rank at the
origin, monomiality, the normal-form case and strong preparedness.  The
reduced bases compared here are computed under two different variable
orders of the same ring, so the law checks the Groebner kernel as well.

Ranks are read off the log-Fitting ideals.  F_k is generated by the k x k
minors of the log Jacobian, which off the divisor is the Jacobian times an
invertible diagonal matrix; so the geometric rank is the largest k with
F_k nonzero, and the log rank at a point the largest k with a generator of
F_k that does not vanish there.  ``geometric_rank`` (a certificate at one
integer point, else a polynomial Bareiss elimination of the plain
Jacobian) and ``log_rank_at_point`` (an integer elimination of the log
Jacobian at the point) share no kernel with these ideals' generators.

Principalization is proper: the leaves of a blowup tree tile the positive
orthant (W. Fulton, *Introduction to Toric Varieties*, 1993, §2.4).  A
leaf's chart matrix M (row r: the exponents of root variable r) is a
non-negative integer matrix of determinant 1 whose columns span the
leaf's cone.  Cut by the hyperplane x_1 + ... + x_n = 1, that cone is a
simplex whose share of the standard simplex's volume is the product over
M's columns of 1 / (column sum), so over the leaves these shares sum to
exactly 1.  The law reads only the leaf matrices, with integer and
``Fraction`` arithmetic.
"""

import random
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import prod

from logmono.blowup import blowup_chart, transform_morphism
from logmono.chart import ChartedPair, MorphismOfPairs, RationalPoint, validate_pair_condition
from logmono.classify import (
    is_monomial_morphism_at,
    is_quasi_prepared,
    is_strongly_prepared_at,
    match_spm_template,
)
from logmono.fitting import log_fitting_ideal
from logmono.ideal import IdealPresentation
from logmono.poly import Polynomial
from logmono.principalize import goward_principalize
from logmono.rank import geometric_rank, log_rank_at_point

from cli_corpus import corpus_morphisms
from helpers import (
    criterion_six_problems,
    monomial_surface_corpus,
    normal_form_corpus,
    origin,
    pair_condition_corpus,
    rank_law_corpus,
    reference_chart_substitution,
)


def law_morphisms():
    phis = [phi for phi, _ in normal_form_corpus()] + monomial_surface_corpus()
    return phis + pair_condition_corpus() + rank_law_corpus()


def pair_condition_morphisms():
    return [phi for phi in law_morphisms() if validate_pair_condition(phi)[0]]


def test_log_blowups_are_log_etale():
    rng = random.Random(1994)
    ideals = ranks = 0
    for phi in pair_condition_morphisms():
        amb = phi.source.variables
        top = min(len(amb), len(phi.target.variables))
        for center in combinations(phi.source.divisor_vars, 2):
            for node in blowup_chart(phi.source, center):
                pi = reference_chart_substitution(amb, center, node.distinguished)
                psi = transform_morphism(phi, node)
                for k in range(1, top + 1):
                    pulled = [g.substitute(pi) for g in log_fitting_ideal(phi, k).generators]
                    assert IdealPresentation(pulled, amb).basis() == log_fitting_ideal(psi, k).basis()
                    ideals += 1
                a = tuple(Fraction(rng.choice((0, 1, -2))) for _ in amb)
                image = tuple(pi[v].evaluate(a) for v in amb)
                assert log_rank_at_point(psi, RationalPoint(a)) == log_rank_at_point(
                    phi, RationalPoint(image)
                )
                ranks += 1
    assert (ideals, ranks) == (708, 354)


def _permuted(p: Polynomial, order: list[int], ambient) -> Polynomial:
    """p with its i-th exponent moved to place i' where order[i'] = i."""
    return Polynomial({tuple(e[i] for i in order): c for e, c in p.terms.items()}, ambient)


def _outcome(f, *args):
    """f's value, or the class of the error it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


def _verdicts(phi, unpermute):
    """The permutation-invariant verdicts at the origin; exponent tuples
    over the source variables are read through ``unpermute``."""
    a = origin(phi.source)
    qp = _outcome(is_quasi_prepared, phi)
    monomial = _outcome(is_monomial_morphism_at, phi, a)
    if isinstance(monomial, list):
        monomial = [unpermute(row) for row in monomial]
    strong = None
    if qp is not ValueError and qp[0] and len(phi.target.variables) == 2:
        certificate = is_strongly_prepared_at(phi, a)
        strong = certificate and unpermute(certificate.generator_monomial.exponents)
    return (
        qp if qp is ValueError else qp[0],
        geometric_rank(phi),
        _outcome(log_rank_at_point, phi, a),
        monomial,
        match_spm_template(phi, a),
        strong,
    )


def test_coordinate_permutations_permute_every_invariant():
    # Each morphism's source variables rotated by one place: the last
    # variable, which grevlex treats apart, changes in every chart with
    # two or more variables.
    morphisms = ideals = 0
    for phi in law_morphisms():
        amb = phi.source.variables
        n = len(amb)
        order = list(range(1, n)) + [0]
        inverse = [order.index(i) for i in range(n)]
        new = tuple(amb[i] for i in order)
        psi = MorphismOfPairs(
            ChartedPair(new, phi.source.divisor_vars),
            phi.target,
            {y: _permuted(p, order, new) for y, p in phi.components.items()},
        )
        assert _verdicts(psi, lambda e: tuple(e[i] for i in inverse)) == _verdicts(
            phi, tuple
        ), phi
        morphisms += 1
        if validate_pair_condition(phi)[0]:
            for k in range(1, min(n, len(phi.target.variables)) + 1):
                moved = [_permuted(g, order, new) for g in log_fitting_ideal(phi, k).generators]
                assert IdealPresentation(moved, new).basis() == log_fitting_ideal(psi, k).basis()
                ideals += 1
    assert (morphisms, ideals) == (479, 583)


def _top_nonzero(phi, nonzero) -> int:
    """The largest k in 1..min(n, N) whose log-Fitting ideal F_k has
    ``nonzero(F_k)``, and 0 if none has (F_0 is the unit ideal)."""
    top = min(len(phi.source.variables), len(phi.target.variables))
    return max((k for k in range(1, top + 1) if nonzero(log_fitting_ideal(phi, k))), default=0)


def test_ranks_are_read_off_the_log_fitting_ideals():
    morphisms = points = 0
    for phi in corpus_morphisms():
        if not validate_pair_condition(phi)[0]:
            continue
        assert geometric_rank(phi) == _top_nonzero(phi, lambda F: not F.is_zero_ideal()), phi
        morphisms += 1
        n = len(phi.source.variables)
        for a in islice(product((0, 1, -2), repeat=n), 9):
            pt = tuple(map(Fraction, a))
            want = _top_nonzero(phi, lambda F: any(g.evaluate(pt) for g in F.generators))
            assert log_rank_at_point(phi, RationalPoint(pt)) == want, (phi, a)
            points += 1
    assert (morphisms, points) == (347, 2907)


def _determinant(m) -> int:
    """Leibniz's formula: a signed product per permutation."""
    n = len(m)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][p[i]] for i in range(n))
    return total


def test_principalization_leaves_tile_the_orthant():
    trees = leaves = 0
    for ideal, chart, max_depth in criterion_six_problems():
        tree = goward_principalize(ideal, chart, max_depth=max_depth)
        volume = Fraction(0)
        for leaf in tree.leaves():
            assert min(map(min, leaf.matrix)) >= 0, leaf.matrix
            assert _determinant(leaf.matrix) == 1, leaf.matrix
            volume += Fraction(1, prod(map(sum, zip(*leaf.matrix))))
            leaves += 1
        assert volume == 1, (ideal.generators, volume)
        trees += 1
    assert (trees, leaves) == (3481, 14920)
