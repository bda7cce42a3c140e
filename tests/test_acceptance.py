"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail
line (to the real stdout, so it survives pytest capture).
"""

import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from logmono.blowup import blowup_chart, transform_morphism
from logmono.chart import ChartedPair, MorphismOfPairs, validate_pair_condition
from logmono.classify import (
    is_monomial_morphism_at,
    is_quasi_prepared,
    is_strongly_prepared_at,
    match_spm_template,
)
from logmono.frontend import parse_problem
from logmono.fitting import log_fitting_ideal
from logmono.ideal import (
    IdealPresentation,
    grevlex_order,
    ideal_membership,
    is_principal_monomial_at,
    normal_form,
    reduced_groebner_basis,
)
from logmono.logdiff import NotAMorphismOfPairsError, pullback_basis_form
from logmono.poly import Polynomial
from logmono.principalize import (
    MonomialIdeal,
    goward_principalize,
    monomialize_monomial_morphism,
)
from logmono.rank import (
    geometric_rank,
    image_closure_dimension,
    log_rank_at_point,
    rational_matrix_rank,
    restricted_geometric_rank,
)

from helpers import (
    P,
    empty_divisor_corpus,
    linear_membership_oracle,
    monomial_surface_corpus,
    normal_form_corpus,
    origin,
    random_sparse_poly,
    random_stratum_point,
    strata,
    two_var_antichains,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_reports(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num: int, label: str, passed: bool):
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {num} ({label}): {verdict}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def prepared_corpus():
    return normal_form_corpus()


SURFACE_PROBLEMS = [
    (
        "source vars u1 u2 v1 divisor u1 u2\n"
        "target vars x1 y1 divisor x1\n"
        "map x1 = (u1*u2)^2\n"
        "map y1 = u1*u2 + u1^3*u2^3*v1\n",
        "u1^3*u2^3",
    ),
    (
        "source vars u1 u2 divisor u1 u2\n"
        "target vars x1 y1 divisor x1\n"
        "map x1 = (u1*u2)^2\n"
        "map y1 = u1*u2 + u1^2*u2^3\n",
        "u1^2*u2^3",
    ),
    (
        "source vars u1 u2 u3 divisor u1 u2 u3\n"
        "target vars x1 x2 divisor x1 x2\n"
        "map x1 = u1*u2^2\n"
        "map x2 = u2^3*u3^4\n",
        "1",
    ),
]


def test_criterion_1_surface_example_corpus():
    """The three displayed surface morphisms parse, verify quasi-prepared,
    and hit their known top log-Fitting Groebner bases and case tags."""
    start = time.monotonic()
    passed = True
    try:
        for idx, (text, expected_gb) in enumerate(SURFACE_PROBLEMS):
            prob = parse_problem(text)
            phi = prob.morphism
            ok, diags = is_quasi_prepared(phi)
            assert ok, f"example {idx + 1} not quasi-prepared: {diags}"
            gb = log_fitting_ideal(phi, 2).basis()
            assert [str(g) for g in gb] == [expected_gb], f"example {idx + 1}"
            pt = origin(phi.source)
            assert is_strongly_prepared_at(phi, pt) is not None
            assert match_spm_template(phi, pt) == idx + 1
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"
    except AssertionError:
        passed = False
        raise
    finally:
        report(1, "surface example corpus", passed)


def test_criterion_2_semantic_syntactic_agreement(prepared_corpus):
    """Wherever the syntactic normal-form matcher returns a verdict, the
    semantic principal-monomial test must agree."""
    passed = True
    try:
        assert len(prepared_corpus) >= 50
        disagreements = 0
        syntactic_verdicts = 0
        for phi, pt in prepared_corpus:
            semantic = is_strongly_prepared_at(phi, pt) is not None
            syn = match_spm_template(phi, pt)
            if syn is not None:
                syntactic_verdicts += 1
                if not semantic:
                    disagreements += 1
        assert syntactic_verdicts >= 30, "matcher verdict coverage too thin"
        assert disagreements == 0
    except AssertionError:
        passed = False
        raise
    finally:
        report(2, "semantic vs syntactic strongly prepared", passed)


def test_criterion_3_rank_equals_image_dimension():
    """Geometric rank equals the dimension of the image closure on 100
    random morphisms with n, N <= 3 and degree <= 3."""
    start = time.monotonic()
    passed = True
    try:
        corpus = []
        rng = random.Random(42)
        while len(corpus) < 100:
            n = rng.randint(1, 3)
            N = rng.randint(1, 3)
            max_terms = 2 if max(n, N) == 3 else 3
            src = ChartedPair(tuple(f"w{k}" for k in range(n)), ())
            tgt = ChartedPair(tuple(f"x{k}" for k in range(N)), ())
            comps = {
                x: random_sparse_poly(src.variables, rng, max_terms=max_terms)
                for x in tgt.variables
            }
            corpus.append(MorphismOfPairs(src, tgt, comps))
        for phi in corpus:
            assert image_closure_dimension(phi) == geometric_rank(phi), repr(phi)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    except AssertionError:
        passed = False
        raise
    finally:
        report(3, "geometric rank = image dimension", passed)


def test_criterion_4_log_rank_on_strata():
    """On every divisor stratum, the sampled maximum log-rank equals the
    restricted geometric rank, and no sample exceeds it."""
    passed = True
    try:
        rng = random.Random(4)
        corpus = empty_divisor_corpus()
        assert len(corpus) >= 30
        for phi in corpus:
            for D in strata(phi.source):
                want = restricted_geometric_rank(phi, D)
                best = 0
                for _ in range(10):
                    pt = random_stratum_point(phi.source, D, rng)
                    lr = log_rank_at_point(phi, pt)
                    assert lr <= want, (phi, D, pt)
                    best = max(best, lr)
                assert best == want, (phi, D, best, want)
    except AssertionError:
        passed = False
        raise
    finally:
        report(4, "stratum log-rank vs restricted rank", passed)


def test_criterion_5_blowup_preserves_quasi_prepared(prepared_corpus):
    """Every coordinate center inside the divisor keeps every child chart
    quasi-prepared."""
    passed = True
    try:
        checked = 0
        for phi, _ in prepared_corpus:
            div = phi.source.divisor_vars
            for size in (2, 3):
                for center in combinations(div, size):
                    for node in blowup_chart(phi.source, center):
                        child = transform_morphism(phi, node)
                        ok, diags = is_quasi_prepared(child)
                        assert ok, (phi, center, node.distinguished, diags)
                        checked += 1
        assert checked >= 100
    except AssertionError:
        passed = False
        raise
    finally:
        report(5, "blowup stability of quasi-prepared", passed)


def _reverify_leaves(tree):
    for leaf in tree.leaves():
        ideal = leaf.payload
        assert ideal.is_principal()
        gens = [
            Polynomial({e: Fraction(1)}, ideal.variables) for e in ideal.generators
        ]
        if not gens:
            continue
        pres = IdealPresentation(gens, ideal.variables)
        pt = (Fraction(0),) * len(ideal.variables)
        cert = is_principal_monomial_at(pres, pt, leaf.chart.divisor_vars)
        assert cert is not None
        assert cert.generator_monomial.exponents == ideal.generators[0]


def test_criterion_6_principalization_terminates():
    """Exhaustive two-variable family (exponents <= 6) within depth 12,
    plus random three-variable ideals, with leaf re-verification.  The
    termination measure assertion runs inside the expansion loop."""
    passed = True
    try:
        chart2 = ChartedPair(("u", "v"), ("u", "v"))
        count = 0
        for gens in two_var_antichains(6):
            ideal = MonomialIdeal.from_exponents(chart2.variables, gens)
            tree = goward_principalize(ideal, chart2, max_depth=12)
            assert tree.depth() <= 12
            _reverify_leaves(tree)
            count += 1
        assert count >= 3000
        chart3 = ChartedPair(("u", "v", "w"), ("u", "v", "w"))
        rng = random.Random(6)
        for _ in range(50):
            gens = [
                tuple(rng.randint(0, 4) for _ in range(3))
                for _ in range(rng.randint(2, 4))
            ]
            ideal = MonomialIdeal.from_exponents(chart3.variables, gens)
            tree = goward_principalize(ideal, chart3)
            _reverify_leaves(tree)
    except AssertionError:
        passed = False
        raise
    finally:
        report(6, "principalization termination", passed)


def test_criterion_7_monomialisation_driver():
    """Every leaf of the driver's blowup tree is strongly prepared and
    monomial with exponent matrix of rank 2."""
    start = time.monotonic()
    passed = True
    try:
        corpus = monomial_surface_corpus()
        assert len(corpus) >= 25
        for phi in corpus:
            tree = monomialize_monomial_morphism(phi)
            for leaf in tree.leaves():
                cert = leaf.certificate
                assert cert is not None
                rows = [[Fraction(x) for x in r] for r in cert.exponent_matrix]
                assert rational_matrix_rank(rows) == 2
                leaf_phi = transform_morphism(phi, leaf)
                assert is_strongly_prepared_at(leaf_phi, origin(leaf.chart)) is not None
                assert is_monomial_morphism_at(leaf_phi, origin(leaf.chart)) is not None
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
    except AssertionError:
        passed = False
        raise
    finally:
        report(7, "monomialisation driver", passed)


def test_criterion_8_engine_soundness():
    """Membership agrees with a degree-bounded linear-algebra oracle on a
    500-case fuzz corpus, and normal forms do not depend on the order of
    the reduced basis."""
    passed = True
    try:
        amb = ("x", "y")
        rng = random.Random(88)
        order = grevlex_order()
        for case in range(500):
            gens = [
                random_sparse_poly(amb, rng, max_terms=2)
                for _ in range(rng.randint(1, 2))
            ]
            f = random_sparse_poly(amb, rng, max_terms=2)
            J = IdealPresentation(gens, amb)
            got = ideal_membership(f, J)
            bound = f.total_degree + max(g.total_degree for g in gens)
            want = linear_membership_oracle(f, gens, bound)
            while want != got and bound < 15:
                # The oracle is one-sided at small bounds; escalate before
                # declaring a disagreement.
                bound += 3
                want = linear_membership_oracle(f, gens, bound)
            assert got == want, (case, f, gens)

            gb = reduced_groebner_basis(gens, order)
            reference = normal_form(f, gb, order)
            for shuffle_seed in range(3):
                shuffled = list(gb)
                random.Random(shuffle_seed).shuffle(shuffled)
                assert normal_form(f, shuffled, order) == reference
    except AssertionError:
        passed = False
        raise
    finally:
        report(8, "engine soundness", passed)


def _malformed_morphisms():
    src = ChartedPair(("u", "v"), ("u",))
    tgt = ChartedPair(("x", "y"), ("x",))
    amb = src.variables
    bad_x = [
        "v",
        "u + v",
        "u + 1",
        "u + u^2",
        "v^2",
        "u^2 + v^2",
        "u*v",
        "1 + v",
        "u^2*v - u^2",
        "v - u",
    ]
    return [
        MorphismOfPairs(src, tgt, {"x": P(e, amb), "y": P("v", amb)})
        for e in bad_x
    ]


def test_criterion_9_exact_division_contract(prepared_corpus):
    """Pullbacks never hit a division failure on valid morphisms, and the
    dedicated error fires on divisor-preimage violations."""
    passed = True
    try:
        corpus = [phi for phi, _ in prepared_corpus]
        corpus += empty_divisor_corpus()
        corpus += monomial_surface_corpus()
        for phi in corpus:
            ok, _ = validate_pair_condition(phi)
            assert ok
            div = phi.target.divisor_vars
            free = phi.target.free_vars
            N = len(phi.target.variables)
            for k in (1, N):
                for l in range(0, k + 1):
                    for I in combinations(div, l):
                        for J in combinations(free, k - l):
                            pullback_basis_form(phi, I, J)

        malformed = _malformed_morphisms()
        assert len(malformed) == 10
        for phi in malformed:
            with pytest.raises(NotAMorphismOfPairsError):
                pullback_basis_form(phi, ("x",), ("y",))
    except AssertionError:
        passed = False
        raise
    finally:
        report(9, "exact pullback division contract", passed)
