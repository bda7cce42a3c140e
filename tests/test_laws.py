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
"""

import random
from fractions import Fraction
from itertools import combinations

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
from logmono.rank import geometric_rank, log_rank_at_point

from helpers import (
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
