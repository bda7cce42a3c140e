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
"""

import random
from fractions import Fraction
from itertools import combinations

from logmono.blowup import blowup_chart, transform_morphism
from logmono.chart import RationalPoint, validate_pair_condition
from logmono.fitting import log_fitting_ideal
from logmono.ideal import IdealPresentation
from logmono.rank import log_rank_at_point

from helpers import (
    monomial_surface_corpus,
    normal_form_corpus,
    pair_condition_corpus,
    rank_law_corpus,
    reference_chart_substitution,
)


def pair_condition_morphisms():
    phis = [phi for phi, _ in normal_form_corpus()] + monomial_surface_corpus()
    phis += pair_condition_corpus() + rank_law_corpus()
    return [phi for phi in phis if validate_pair_condition(phi)[0]]


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
