"""Shared corpus builders and independent oracles for the test suite."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd
from typing import Optional

from logmono.chart import ChartedPair, MorphismOfPairs, RationalPoint
from logmono.classify import is_quasi_prepared
from logmono.frontend import MAX_NESTING, MAX_TERMS, ProblemSyntaxError
from logmono.ideal import (
    IdealPresentation,
    PrincipalMonomialCertificate,
    _rabinowitsch,
    block_order,
    contains_one,
    reduced_groebner_basis,
)
from logmono.logdiff import log_jacobian
from logmono.poly import Monomial, Polynomial, exact_divide
from logmono.principalize import MonomialIdeal, NonMonomialInputError
from logmono.rank import log_rank_at_point


def P(expr: str, ambient) -> Polynomial:
    from logmono.frontend import parse_expression

    return parse_expression(expr, tuple(ambient))


def assert_canonical(p: Polynomial):
    """The invariant every arithmetic result must satisfy, and that the
    validating constructor would restore: each coefficient is a nonzero
    ``int``, or a ``Fraction`` whose denominator is greater than 1."""
    assert type(p.ambient) is tuple
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(p.ambient)
        assert all(type(x) is int and x >= 0 for x in e)
        assert (type(c) is int and c != 0) or (
            type(c) is Fraction and c.denominator > 1
        ), f"coefficient {c!r} is not canonical"
    assert p == Polynomial(p.terms, p.ambient)


def random_sparse_poly(amb, rng, max_terms=2, max_deg=3, min_deg=0):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            e = tuple(rng.randint(0, max_deg) for _ in amb)
            if min_deg <= sum(e) <= max_deg:
                break
        terms[e] = terms.get(e, 0) + Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(terms, tuple(amb))


def origin(chart: ChartedPair) -> RationalPoint:
    return RationalPoint((Fraction(0),) * len(chart.variables))


def all_pairs_antichain(gens) -> tuple[tuple[int, ...], ...]:
    """Minimal exponent tuples under divisibility, in lex order, by
    testing each candidate against every other one."""
    uniq = sorted(set(gens))
    return tuple(
        g
        for g in uniq
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in uniq)
    )


def two_var_antichains(max_exp):
    """Every two-variable antichain with exponents <= max_exp: strictly
    increasing u-exponents paired with strictly decreasing v-exponents."""
    vals = range(max_exp + 1)
    for k in range(1, max_exp + 2):
        for a_vals in combinations(vals, k):
            for b_vals in combinations(vals, k):
                yield tuple(zip(a_vals, sorted(b_vals, reverse=True)))


# ---------------------------------------------------------------------------
# Principalization: the multi-pass pair scan and the re-tupling transform
# that ``principalize`` replaced, kept as differential oracles.  They do
# not assume that two generators are incomparable.


def reference_difference(g, h) -> list[int]:
    return [a - b for a, b in zip(g, h)]


def reference_pair_key(d) -> tuple[int, int]:
    """(a + b, number of entries equal to a or -b), with a the largest
    positive entry of d and b the largest magnitude of a negative one."""
    a = max(x for x in d if x > 0)
    b = max(-x for x in d if x < 0)
    return (a + b, sum(1 for x in d if x == a or x == -b))


def reference_target_pair(ideal: MonomialIdeal):
    """The generator pair of least key, ties to the lex-first pair."""
    return min(
        combinations(ideal.generators, 2),
        key=lambda gh: (reference_pair_key(reference_difference(*gh)), gh),
    )


def reference_termination_measure(ideal: MonomialIdeal) -> tuple:
    n = len(ideal.generators)
    if n <= 1:
        return (0,)
    d = reference_difference(*reference_target_pair(ideal))
    return (n * (n - 1) // 2, reference_pair_key(d))


def reference_choose_center(ideal: MonomialIdeal, divisor_vars) -> tuple[str, str]:
    d = reference_difference(*reference_target_pair(ideal))
    divisor = set(divisor_vars)
    pos = [k for k, x in enumerate(d) if x > 0]
    neg = [k for k, x in enumerate(d) if x < 0]
    for k in pos + neg:
        if ideal.variables[k] not in divisor:
            raise NonMonomialInputError(
                f"generators differ on non-divisor variable {ideal.variables[k]!r}"
            )
    i = min(pos, key=lambda k: (-d[k], k))
    j = min(neg, key=lambda k: (d[k], k))
    return ideal.variables[i], ideal.variables[j]


def reference_transform(ideal: MonomialIdeal, distinguished, absorbed) -> MonomialIdeal:
    c = ideal.variables.index(distinguished)
    idx = [ideal.variables.index(v) for v in absorbed]
    new = []
    for e in ideal.generators:
        e = list(e)
        e[c] += sum(e[i] for i in idx)
        new.append(tuple(e))
    return MonomialIdeal.from_exponents(ideal.variables, new)


# ---------------------------------------------------------------------------
# Blowup chart maps as polynomial substitutions, composed with
# ``Polynomial.substitute`` as ``BlowupTree.expand`` did before it
# multiplied integer matrices.


def reference_chart_substitution(amb, center, c) -> dict[str, Polynomial]:
    """The chart map of the blowup at ``center`` in the chart of ``c``:
    every other center variable w becomes c*w, the rest stay."""
    amb = tuple(amb)
    out = {}
    for v in amb:
        p = Polynomial.variable(v, amb)
        out[v] = Polynomial.variable(c, amb) * p if v in center and v != c else p
    return out


def reference_expand(substitution, amb, center) -> list[dict[str, Polynomial]]:
    """Each child's substitution from the root, in center order: the
    parent's ``substitution`` followed by the child's chart map."""
    return [
        {v: substitution[v].substitute(reference_chart_substitution(amb, center, c)) for v in amb}
        for c in center
    ]


# ---------------------------------------------------------------------------
# Quasi-prepared corpus in and around the three surface normal forms


def _series(rng, amb, alpha, max_j=2):
    """A polynomial P(u^alpha) with small support and no constant term."""
    out = Polynomial.zero(amb)
    for j in range(1, max_j + 1):
        if rng.random() < 0.6:
            c = Fraction(rng.choice([-2, -1, 1, 2]))
            mono = {tuple(j * a for a in alpha) + (0,) * (len(amb) - len(alpha)): c}
            out = out + Polynomial(mono, amb)
    return out


def _monomial(amb, exps, coeff=1):
    return Polynomial({tuple(exps): Fraction(coeff)}, tuple(amb))


def normal_form_corpus(rng=None, count=54):
    """Quasi-prepared surface morphisms: the three normal forms plus a few
    quasi-prepared morphisms outside them.  Returns (phi, point) pairs."""
    rng = rng or random.Random(7)
    out = []
    while len(out) < count:
        kind = rng.choice(["case1", "case2", "case3", "offform"])
        if kind == "case1":
            src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
            tgt = ChartedPair(("x1", "y1"), ("x1",))
            amb = src.variables
            while True:
                alpha = (rng.randint(1, 3), rng.randint(1, 3))
                if gcd(*alpha) == 1:
                    break
            m = rng.randint(1, 2)
            beta = (rng.randint(0, 3), rng.randint(0, 3))
            x1 = _monomial(amb, (alpha[0] * m, alpha[1] * m, 0))
            y1 = _series(rng, amb, alpha) + _monomial(amb, beta + (1,))
            phi = MorphismOfPairs(src, tgt, {"x1": x1, "y1": y1})
        elif kind == "case2":
            src = ChartedPair(("u1", "u2"), ("u1", "u2"))
            tgt = ChartedPair(("x1", "y1"), ("x1",))
            amb = src.variables
            while True:
                alpha = (rng.randint(1, 3), rng.randint(1, 3))
                if gcd(*alpha) == 1:
                    break
            m = rng.randint(1, 2)
            while True:
                beta = (rng.randint(0, 4), rng.randint(0, 4))
                if alpha[0] * beta[1] - alpha[1] * beta[0] != 0:
                    break
            x1 = _monomial(amb, (alpha[0] * m, alpha[1] * m))
            y1 = _series(rng, amb, alpha) + _monomial(amb, beta)
            phi = MorphismOfPairs(src, tgt, {"x1": x1, "y1": y1})
        elif kind == "case3":
            src = ChartedPair(("u1", "u2", "u3"), ("u1", "u2", "u3"))
            tgt = ChartedPair(("x1", "x2"), ("x1", "x2"))
            amb = src.variables
            a = (rng.randint(1, 3), rng.randint(0, 3), 0)
            b = (0, rng.randint(0, 3), rng.randint(1, 3))
            if all(x + y == 0 for x, y in zip(a[1:2], b[1:2])):
                continue
            x1 = _monomial(amb, a)
            x2 = _monomial(amb, b)
            phi = MorphismOfPairs(src, tgt, {"x1": x1, "x2": x2})
        else:
            # Quasi-prepared but with a two-term remainder: outside the
            # syntactic normal forms.
            src = ChartedPair(("u1", "u2"), ("u1", "u2"))
            tgt = ChartedPair(("x1", "y1"), ("x1",))
            amb = src.variables
            x1 = _monomial(amb, (2, 2))
            y1 = (
                _monomial(amb, (1, 1))
                + _monomial(amb, (rng.randint(2, 4), rng.randint(3, 4)))
                + _monomial(amb, (rng.randint(3, 4), rng.randint(2, 4)))
            )
            phi = MorphismOfPairs(src, tgt, {"x1": x1, "y1": y1})
        ok, _ = is_quasi_prepared(phi)
        if ok:
            out.append((phi, origin(phi.source)))
    return out


# ---------------------------------------------------------------------------
# Corpus with empty target divisor, for the log-rank / restricted-rank law


def empty_divisor_corpus(rng=None, count=30):
    rng = rng or random.Random(11)
    out = []
    for _ in range(count):
        src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "x2"), ())
        comps = {
            x: random_sparse_poly(src.variables, rng, max_terms=2, max_deg=3, min_deg=1)
            for x in tgt.variables
        }
        out.append(MorphismOfPairs(src, tgt, comps))
    return out


def strata(chart: ChartedPair):
    div = chart.divisor_vars
    for size in range(len(div) + 1):
        for D in combinations(div, size):
            yield D


def random_stratum_point(chart: ChartedPair, D, rng) -> RationalPoint:
    zero = set(D)
    coords = tuple(
        Fraction(0) if v in zero else Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for v in chart.variables
    )
    return RationalPoint(coords)


def sampled_log_rank_mismatch(phi: MorphismOfPairs, filtration, seed: int, samples: int = 5) -> bool:
    """Sampling oracle for condition (2) of log-rank adaptedness: True when
    one of ``samples`` random points per boundary stratum (w = 0, the other
    source variables drawn positive) has log-rank other than
    min(n, N) - k.  It can miss a drop, never invent one."""
    rng = random.Random(seed)
    expected = min(len(phi.source.variables), len(phi.target.variables))
    levels = filtration.levels
    for k, level in enumerate(levels, start=1):
        inner = levels[k] if k < len(levels) else ()
        for w in (w for w in level if w not in inner):
            pts = [
                RationalPoint(tuple(
                    Fraction(0) if v == w else Fraction(rng.randint(1, 7), rng.randint(1, 3))
                    for v in phi.source.variables
                ))
                for _ in range(samples)
            ]
            if any(log_rank_at_point(phi, pt) != expected - k for pt in pts):
                return True
    return False


# ---------------------------------------------------------------------------
# Monomial morphisms onto a surface, for the monomialisation driver


def monomial_surface_corpus(rng=None, count=25):
    rng = rng or random.Random(23)
    out = []
    while len(out) < count:
        src = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
        tgt = ChartedPair(("x1", "y1"), ("x1",))
        amb = src.variables
        a = (rng.randint(1, 4), rng.randint(1, 4), 0)
        e = rng.choice([0, 1])
        b = (rng.randint(0, 4), rng.randint(0, 4), e)
        if e == 0 and a[0] * b[1] - a[1] * b[0] == 0:
            continue
        if e == 0 and b[0] + b[1] == 0:
            continue
        phi = MorphismOfPairs(
            src, tgt, {"x1": _monomial(amb, a), "y1": _monomial(amb, b)}
        )
        ok, _ = is_quasi_prepared(phi)
        if ok:
            out.append(phi)
    return out


# ---------------------------------------------------------------------------
# Pair condition: random morphisms and the radical-membership oracle


def _divisorial_component(rng, src: ChartedPair) -> Polynomial:
    """A nonzero component drawn so that both pair verdicts occur: nonzero
    constants, divisor monomials, free-variable factors and multi-term
    polynomials, some with a divisor monomial factored out."""
    amb = src.variables
    div = [v in src.divisor_vars for v in amb]
    coeff = rng.choice([-2, -1, 1, 3])
    kind = rng.choice(["constant", "divisor", "free", "sum", "factored"])
    if kind == "constant":
        return Polynomial.constant(coeff, amb)
    exps = [rng.randint(0, 3) if d else 0 for d in div]
    if kind == "free" and not all(div):
        i = rng.choice([k for k, d in enumerate(div) if not d])
        exps[i] = rng.randint(1, 2)
    mono = _monomial(amb, exps, coeff)
    if kind in ("divisor", "free"):
        return mono
    while True:
        p = random_sparse_poly(amb, rng, max_terms=3, max_deg=2)
        if len(p.terms) > 1:
            break
    return p if kind == "sum" else mono * p


def pair_condition_corpus(rng=None, count=300):
    """Random surface morphisms over several source charts, one with an
    empty divisor, and every target divisor from none to both variables."""
    rng = rng or random.Random(31)
    sources = [
        ChartedPair(("u1", "u2", "v1"), ("u1", "u2")),
        ChartedPair(("u1", "u2"), ("u1", "u2")),
        ChartedPair(("u1", "v1", "v2"), ("u1",)),
        ChartedPair(("v1", "v2"), ()),
    ]
    divisors = [(), ("x1",), ("y1",), ("x1", "y1")]
    out = []
    for _ in range(count):
        src = rng.choice(sources)
        tgt = ChartedPair(("x1", "y1"), rng.choice(divisors))
        comps = {}
        for x in tgt.variables:
            if x in tgt.divisor_vars:
                comps[x] = _divisorial_component(rng, src)
            else:
                comps[x] = random_sparse_poly(src.variables, rng, max_terms=2)
        out.append(MorphismOfPairs(src, tgt, comps))
    return out


def plain_radical_membership(f: Polynomial, J: IdealPresentation) -> bool:
    """The Rabinowitsch test on J's generators as given: whether
    J + (1 - t*f) is the unit ideal, with no closed-form shortcut."""
    return contains_one(_rabinowitsch(J, f))


def radical_pair_condition(phi: MorphismOfPairs) -> bool:
    """Rabinowitsch oracle: the product of the source divisor variables lies
    in the radical of each divisorial component."""
    u_prod = phi.source.divisor_product()
    return all(
        plain_radical_membership(
            u_prod, IdealPresentation([phi.components[x]], phi.source.variables)
        )
        for x in phi.target.divisor_vars
    )


def radical_preimage_equality(phi: MorphismOfPairs) -> bool:
    """Rabinowitsch oracle: given the pair condition, the product of the
    divisorial components lies in the radical of each (u) for u in the
    source divisor."""
    if not radical_pair_condition(phi):
        return False
    amb = phi.source.variables
    product = Polynomial.constant(1, amb)
    for x in phi.target.divisor_vars:
        product = product * phi.components[x]
    return all(
        plain_radical_membership(product, IdealPresentation([Polynomial.variable(u, amb)], amb))
        for u in phi.source.divisor_vars
    )


# ---------------------------------------------------------------------------
# Pullbacks: the division formulation of the log Jacobian


def _log_numerator_rows(phi: MorphismOfPairs, targets) -> list[list[Polynomial]]:
    """u*df/du for source divisor variables and df/dv for free ones, in
    source chart order, one row per target component."""
    src = phi.source
    rows = []
    for x in targets:
        f = phi.components[x]
        row = []
        for v in src.variables:
            d = f.partial_derivative(v)
            if v in src.divisor_vars:
                d = d * Polynomial.variable(v, src.variables)
            row.append(d)
        rows.append(row)
    return rows


def _leibniz_det(matrix: list[list[Polynomial]]) -> Polynomial:
    k = len(matrix)
    amb = matrix[0][0].ambient
    total = Polynomial.zero(amb)
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(k), 2))
        term = Polynomial.constant(-1 if inversions % 2 else 1, amb)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


def division_pullback(phi: MorphismOfPairs, I_target, J_target) -> dict:
    """Coefficients of the pulled-back basis form dx_I/x_I ^ dy_J, keyed
    like LogKForm.coefficients: wedge the numerator rows of the components
    (the minor on columns I + J, divisor block first), then divide exactly
    by the product of the divisorial components."""
    src = phi.source
    rows = _log_numerator_rows(phi, tuple(I_target) + tuple(J_target))
    denominator = Polynomial.constant(1, src.variables)
    for x in I_target:
        denominator = denominator * phi.components[x]
    k = len(rows)
    out = {}
    for l in range(k + 1):
        for I in combinations(src.divisor_vars, l):
            for J in combinations(src.free_vars, k - l):
                cols = [src.variables.index(v) for v in I + J]
                minor = _leibniz_det([[row[c] for c in cols] for row in rows])
                q = exact_divide(minor, denominator)
                assert q is not None, f"{minor} is not divisible by {denominator}"
                if not q.is_zero():
                    out[(I, J)] = q
    return out


def division_log_jacobian(phi: MorphismOfPairs) -> list[list[Polynomial]]:
    """Log-Jacobian rows: each divisorial numerator row divided exactly by
    its component, each free numerator row as it is."""
    out = []
    for x, row in zip(phi.target.variables, _log_numerator_rows(phi, phi.target.variables)):
        if x in phi.target.divisor_vars:
            row = [exact_divide(p, phi.components[x]) for p in row]
            assert None not in row, f"log derivative of {x!r} is not regular"
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Random plain morphisms for the rank = image-dimension law


def rank_law_corpus(rng=None, count=100):
    """Sparse random morphisms (n, N <= 3, degree <= 3); term counts are
    kept small so the graph-ideal eliminations stay desk-scale."""
    rng = rng or random.Random(42)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        N = rng.randint(1, 3)
        max_terms = 2 if max(n, N) == 3 else 3
        src = ChartedPair(tuple(f"w{k}" for k in range(n)), ())
        tgt = ChartedPair(tuple(f"x{k}" for k in range(N)), ())
        comps = {
            x: random_sparse_poly(src.variables, rng, max_terms=max_terms)
            for x in tgt.variables
        }
        out.append(MorphismOfPairs(src, tgt, comps))
    return out


def reference_graph_ideal(phi: MorphismOfPairs) -> tuple[IdealPresentation, tuple[str, ...]]:
    """The graph ideal built with polynomial arithmetic: y - f for each
    target variable y (renamed with ``_img`` while it collides), as
    ``Polynomial.variable`` minus the component over the larger ambient."""
    src = phi.source.variables
    tgt = []
    for x in phi.target.variables:
        name = x
        while name in src or name in tgt:
            name = name + "_img"
        tgt.append(name)
    amb = src + tuple(tgt)
    gens = [
        Polynomial.variable(new, amb) - phi.components[old].extend_ambient(amb)
        for new, old in zip(tgt, phi.target.variables)
    ]
    return IdealPresentation(gens, amb), tuple(tgt)


def reference_elimination(I: IdealPresentation, keep) -> list[Polynomial]:
    """The elimination ideal's generators from the whole reduced
    block-order basis of the larger ring: every element is reduced, then
    those in the kept variables alone are restricted to them."""
    keep = tuple(keep)
    eliminated = tuple(v for v in I.ambient if v not in keep)
    ext = eliminated + keep
    gens = [g.extend_ambient(ext) for g in I.generators]
    n = len(eliminated)
    basis = reduced_groebner_basis(gens, block_order(n))
    return [
        Polynomial({e[n:]: c for e, c in g.terms.items()}, keep)
        for g in basis
        if not any(x for e in g.terms for x in e[:n])
    ]


def reference_symbolic_rank(rows: list[list[Polynomial]]) -> int:
    """The largest k with a nonzero k-minor (``reference_minors``)."""
    k = min(len(rows), len(rows[0]) if rows else 0)
    while k and not reference_minors(rows, k):
        k -= 1
    return k


# ---------------------------------------------------------------------------
# Degree-bounded linear-algebra membership oracle


def _monomials_up_to(nvars, degree):
    if nvars == 1:
        return [(d,) for d in range(degree + 1)]
    out = []
    for d in range(degree + 1):
        for first in range(d + 1):
            for rest in _monomials_up_to(nvars - 1, d - first):
                if sum(rest) == d - first:
                    out.append((first,) + rest)
    return sorted(set(out))


def _solve_consistent(rows, rhs):
    """Whether the rational system rows*x = rhs has a solution."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = Fraction(m[r][col]) / pv
                for c in range(col, ncols + 1):
                    m[r][c] -= f * m[row][c]
        row += 1
    return all(r[-1] == 0 for r in m[row:])


def linear_membership_oracle(f, gens, bound):
    """Whether f = sum h_i g_i with deg h_i <= bound, by solving the
    coefficient-matching linear system over the rationals."""
    amb = f.ambient
    nvars = len(amb)
    cofactor_monos = _monomials_up_to(nvars, bound)
    max_out = bound + max((g.total_degree for g in gens), default=0)
    out_monos = _monomials_up_to(nvars, max(max_out, f.total_degree))
    index = {e: i for i, e in enumerate(out_monos)}
    cols = []
    for g in gens:
        for m in cofactor_monos:
            col = [Fraction(0)] * len(out_monos)
            for e, c in g.terms.items():
                tgt = tuple(a + b for a, b in zip(e, m))
                if tgt in index:
                    col[index[tgt]] += c
                else:
                    break
            else:
                cols.append(col)
                continue
            cols.append(None)
    keep = [c for c in cols if c is not None]
    rows = list(map(list, zip(*keep))) if keep else [[] for _ in out_monos]
    rhs = [f.terms.get(e, Fraction(0)) for e in out_monos]
    if not keep:
        return all(b == 0 for b in rhs)
    return _solve_consistent(rows, rhs)


def max_scan_normal_form(f, basis, order):
    """Reference division: at each step take the largest remaining term by
    a fresh ``max`` over ``order.key`` and reduce it by the first basis
    element whose leading term divides it.  This is the textbook loop that
    ``ideal.normal_form`` replaced with a heap; it is kept only as an
    oracle."""
    if f.is_zero() or not basis:
        return f
    divisors = []
    for g in basis:
        lt = max(g.terms, key=order.key)
        divisors.append((lt, g.terms[lt], [(e, c) for e, c in g.terms.items() if e != lt]))
    rem = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for lt, lc, tail in divisors:
            if all(a >= b for a, b in zip(e, lt)):
                factor = Fraction(c) / lc
                shift = tuple(a - b for a, b in zip(e, lt))
                for te, tc in tail:
                    ne = tuple(a + b for a, b in zip(te, shift))
                    s = work.get(ne, Fraction(0)) - factor * tc
                    if s:
                        work[ne] = s
                    else:
                        work.pop(ne, None)
                break
        else:
            rem[e] = c
    return Polynomial(rem, f.ambient)


def reference_exact_divide(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """Reference single-divisor division: each step rescans the remainder
    for its grevlex leading term and builds the quotient and remainder
    anew as polynomials.  This is the loop that ``poly.exact_divide``
    replaced with one heap pass; it is kept only as an oracle."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.ambient)
    qe, qc = q.leading_term()
    quotient = Polynomial.zero(p.ambient)
    rem = p
    while not rem.is_zero():
        re, rc = rem.leading_term()
        if not all(a >= b for a, b in zip(re, qe)):
            return None
        t = Polynomial({tuple(a - b for a, b in zip(re, qe)): Fraction(rc, qc)}, p.ambient)
        quotient = quotient + t
        rem = rem - t * q
    return quotient


# ---------------------------------------------------------------------------
# Reference expression parser


_REFERENCE_TOKEN = re.compile(r"\s*(?:([0-9]+/[0-9]+)|([0-9]+)|([a-zA-Z][a-zA-Z0-9_]*)|([-+*^()]))")
_REFERENCE_KINDS = ("rational", "int", "name", "op")


class _ReferenceExprParser:
    """The expression parser that ``frontend``'s term-building parser
    replaced: every literal and name becomes a validated ``Polynomial`` and
    products, powers and sums use general polynomial arithmetic.  Kept only as the
    differential oracle for results, error messages and columns."""

    def __init__(self, text: str, ambient: tuple[str, ...], line: int):
        self.text = text
        self.ambient = ambient
        self.line = line
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _REFERENCE_TOKEN.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                column = len(text) - len(rest) + 1
                raise ProblemSyntaxError(
                    f"unexpected character {rest[0]!r}", line, column
                )
            pos = m.end()
            g = m.lastindex
            self.tokens.append((_REFERENCE_KINDS[g - 1], m.group(g), m.start(g) + 1))
        self.i = 0
        self.depth = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ProblemSyntaxError("unexpected end of expression", self.line)
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.sum()
        tok = self.peek()
        if tok is not None:
            raise ProblemSyntaxError(f"unexpected token {tok[1]!r}", self.line, tok[2])
        return p

    def sum(self) -> Polynomial:
        # Accumulate into one dict: adding Polynomials would copy the running
        # sum on every sign and make parsing quadratic in the term count.
        terms: dict[tuple[int, ...], Fraction] = {}
        tok = self.peek()
        sign = "+"
        if tok and tok[1] in "+-" and tok[0] == "op":
            self.next()
            sign = tok[1]
        while True:
            for e, c in self.product().terms.items():
                s = terms.get(e, 0) + (c if sign == "+" else -c)
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return Polynomial(terms, self.ambient)
            self.next()
            sign = tok[1]

    def product(self) -> Polynomial:
        p = self.power()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return p
            self.next()
            q = self.power()
            self.check_terms("product", len(p.terms) * len(q.terms), tok)
            p = p * q

    def power(self) -> Polynomial:
        p = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "int":
                raise ProblemSyntaxError("exponent must be an integer", self.line, etok[2])
            t, k = len(p.terms), int(etok[1])
            if k:
                # The count is at least t; skip computing it for huge bases.
                self.check_terms("power", comb(t + k - 1, k) if t <= MAX_TERMS else t, tok)
            return p ** k
        return p

    def check_terms(self, what: str, bound: int, tok: tuple[str, str, int]) -> None:
        if bound > MAX_TERMS:
            raise ProblemSyntaxError(
                f"{what} may have {bound} terms, over the budget of "
                f"MAX_TERMS = {MAX_TERMS}",
                self.line,
                tok[2],
            )

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok[0] in ("int", "rational"):
            try:
                c = Fraction(tok[1])
            except ZeroDivisionError:
                raise ProblemSyntaxError(
                    f"zero denominator in {tok[1]!r}", self.line, tok[2]
                )
            return Polynomial.constant(c, self.ambient)
        if tok[0] == "name":
            if tok[1] not in self.ambient:
                raise ProblemSyntaxError(
                    f"undeclared variable {tok[1]!r}", self.line, tok[2]
                )
            return Polynomial.variable(tok[1], self.ambient)
        if tok[1] == "(":
            if self.depth == MAX_NESTING:
                raise ProblemSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", self.line, tok[2]
                )
            self.depth += 1
            p = self.sum()
            self.depth -= 1
            close = self.next()
            if close[1] != ")":
                raise ProblemSyntaxError("expected ')'", self.line, close[2])
            return p
        raise ProblemSyntaxError(f"unexpected token {tok[1]!r}", self.line, tok[2])


def reference_parse_expression(text: str, ambient: tuple[str, ...], line: int = 1) -> Polynomial:
    return _ReferenceExprParser(text, ambient, line).parse()


def naive_evaluate(p: Polynomial, point) -> Fraction:
    """Sum of c * prod(x**e) over every term, every coordinate coerced."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        v = Fraction(c)
        for x, e in zip(point, exps):
            v *= Fraction(x) ** e
        total += v
    return total


# ---------------------------------------------------------------------------
# Reference kernels for the integer fast paths: minors with polynomial
# entries only, rank over Fraction only, and the unit-at-point rule by
# dividing out the local monomial and evaluating the quotient.


def reference_det(matrix: list[list[Polynomial]]) -> Polynomial:
    """Cofactor expansion along the first column; every entry, constants
    included, is a polynomial and every product a polynomial product."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    amb = matrix[0][0].ambient
    total = Polynomial.zero(amb)
    for i in range(k):
        entry = matrix[i][0]
        if entry.is_zero():
            continue
        sub = [row[1:] for r, row in enumerate(matrix) if r != i]
        cofactor = entry * reference_det(sub)
        total = total + cofactor if i % 2 == 0 else total - cofactor
    return total


def polynomial_log_jacobian(phi: MorphismOfPairs) -> list[list[Polynomial]]:
    """``logdiff.log_jacobian`` with each divisorial exponent tuple written
    as a row of constant polynomials."""
    amb = phi.source.variables
    return [
        [Polynomial.constant(e, amb) for e in row] if type(row) is tuple else row
        for row in log_jacobian(phi)
    ]


def reference_minors(rows: list[list[Polynomial]], size: int) -> list[Polynomial]:
    """The nonzero size-minors: for each size-subset of rows, the minor on
    each size-subset of columns, by ``reference_det``."""
    ncols = len(rows[0]) if rows else 0
    out = []
    for sub in combinations(rows, size):
        for cols in combinations(range(ncols), size):
            m = reference_det([[row[j] for j in cols] for row in sub])
            if not m.is_zero():
                out.append(m)
    return out


def up_to_scalar(p: Polynomial) -> frozenset:
    """The terms of a nonzero p divided by its coefficient on its largest
    exponent: equal exactly for proportional polynomials."""
    top = p.terms[max(p.terms)]
    return frozenset((e, Fraction(c) / top) for e, c in p.terms.items())


def reference_rational_matrix_rank(rows) -> int:
    """Gaussian elimination with every entry coerced to ``Fraction``."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            for c in range(col, ncols):
                m[r][c] -= f * m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank


def reference_local_monomial(polys, point) -> tuple[int, ...]:
    """gcd of the polynomials' monomial contents, kept on the coordinates
    that vanish at the point."""
    content = None
    for p in polys:
        c = p.monomial_content()
        content = c if content is None else tuple(map(min, content, c))
    return tuple(e if x == 0 else 0 for e, x in zip(content, point))


def reference_residual_value(p: Polynomial, m: tuple[int, ...], point) -> Fraction:
    """The residual p / m built as a polynomial, then evaluated."""
    return p.divide_by_monomial(m).evaluate(point)


def reference_is_principal_monomial_at(I: IdealPresentation, point, divisor_vars):
    """The certificate of ``ideal.is_principal_monomial_at``, computed by
    dividing every generator by the local monomial until one residual is a
    unit at the point."""
    m = reference_local_monomial(I.generators, point)
    if any(e and v not in divisor_vars for v, e in zip(I.ambient, m)):
        return None
    for g in I.generators:
        residual = g.divide_by_monomial(m)
        if residual.evaluate(point) != 0:
            return PrincipalMonomialCertificate(Monomial(m), residual)
    return None


def reference_is_monomial_morphism_at(phi: MorphismOfPairs, a: RationalPoint):
    """The exponent matrix of ``classify.is_monomial_morphism_at``, from the
    reference unit-at-point rule and the Fraction rank."""
    rows = []
    for p in phi.component_list():
        if p.is_zero():
            return None
        m = reference_local_monomial([p], a.coordinates)
        if reference_residual_value(p, m, a.coordinates) == 0:
            return None
        rows.append(m)
    if reference_rational_matrix_rank(rows) != len(rows):
        return None
    return rows


def reference_match_spm_template(phi: MorphismOfPairs, a: RationalPoint) -> Optional[int]:
    """The case number of ``classify.match_spm_template``, by the matcher's
    first form: it splits z into a series P(u^alpha), summed per power j,
    plus a remainder, and finds alpha as the first exponent vector divided
    by its multiplicity m, the gcd built up entry by entry."""
    if len(phi.target.variables) != 2:
        return None
    coords = dict(zip(phi.source.variables, a.coordinates))
    stratum = {v for v in phi.source.divisor_vars if coords[v] == 0}
    inside = [i for i, v in enumerate(phi.source.variables) if v in stratum]
    outside = [i for i, v in enumerate(phi.source.variables) if v not in stratum]
    free = {i for i, v in enumerate(phi.source.variables) if v not in phi.source.divisor_vars}
    k = len(inside)
    comps = phi.components

    def on_stratum(exps):
        if any(exps[i] for i in outside):
            return None
        return tuple(exps[i] for i in inside)

    def single(p):
        return next(iter(p.terms)) if len(p.terms) == 1 else None

    div = list(phi.target.divisor_vars)
    if len(div) == 2 and k >= 2:
        m1, m2 = single(comps[div[0]]), single(comps[div[1]])
        if m1 is not None and m2 is not None:
            e1, e2 = on_stratum(m1), on_stratum(m2)
            if (
                e1 is not None
                and e2 is not None
                and any(e1)
                and any(e2)
                and all(x + y > 0 for x, y in zip(e1, e2))
                and any(x > 0 and y > 0 and i != j
                        for i, x in enumerate(e1) for j, y in enumerate(e2))
            ):
                return 3

    if len(div) == 1:
        orderings = [(div[0], phi.target.free_vars[0])]
    elif len(div) == 2:
        orderings = [(div[0], div[1]), (div[1], div[0])]
    else:
        orderings = []
    for x1_name, z_name in orderings:
        mono = single(comps[x1_name])
        e = None if mono is None else on_stratum(mono)
        if e is None or any(x == 0 for x in e) or not e:
            continue
        m = 0
        for x in e:
            m = gcd(m, x)
        alpha = tuple(x // m for x in e)
        series: dict[int, Fraction] = {}
        rem = {}
        for exps, c in comps[z_name].terms.items():
            de = on_stratum(exps)
            j = None
            if de is not None:
                if all(x == 0 for x in de):
                    j = 0
                else:
                    ratios = {x // y for x, y in zip(de, alpha)}
                    if len(ratios) == 1:
                        jj = ratios.pop()
                        if de == tuple(jj * y for y in alpha):
                            j = jj
            if j is not None:
                series[j] = series.get(j, Fraction(0)) + c
            else:
                rem[exps] = c
        if len(rem) != 1:
            continue
        (exps,) = rem
        beta = on_stratum(exps)
        if beta is not None:
            if k >= 2 and any(
                alpha[i] * beta[j] != alpha[j] * beta[i]
                for i in range(len(alpha))
                for j in range(i + 1, len(alpha))
            ):
                return 2
            continue
        off = [i for i in outside if exps[i]]
        if len(off) == 1 and exps[off[0]] == 1 and off[0] in free:
            return 1
    return None
