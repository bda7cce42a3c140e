"""Classification predicates for morphisms of pairs: singular locus,
quasi-prepared, strongly prepared (semantic and syntactic), monomial
morphisms, and log-rank-adapted verification."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .chart import (
    ChartedPair,
    MorphismOfPairs,
    RationalPoint,
    preimage_equality_check,
    split_positions,
    stratum_of_point,
    validate_pair_condition,
)
from .fitting import log_fitting_ideal
from .ideal import (
    IdealPresentation,
    PrincipalMonomialCertificate,
    is_principal_monomial_at,
    local_monomial,
    radical_membership,
    residual_value,
)
from .logdiff import NotAMorphismOfPairsError, wedge_rows
from .rank import jacobian, log_rank_at_point, rational_matrix_rank
from .poly import Polynomial


@dataclass
class DivisorFiltration:
    """Nested SNC divisor levels, outermost first."""

    levels: list[tuple[str, ...]]

    def validate(self, divisor_vars: Sequence[str]):
        prev = None
        for level in self.levels:
            s = set(level)
            if not s <= set(divisor_vars):
                raise ValueError(f"filtration level {level} not inside the divisor")
            if prev is not None and not s <= prev:
                raise ValueError("filtration levels are not nested")
            prev = s


def singular_locus_ideal(phi: MorphismOfPairs) -> IdealPresentation:
    """Ideal of maximal minors of the Jacobian (requires n >= N).

    They are the coefficients of the wedge of the Jacobian's rows over the
    source chart with an empty divisor: there every column is free, so
    ``wedge_rows`` gives each nonzero maximal minor once, in
    ``itertools.combinations`` order of the columns."""
    amb = phi.source.variables
    if len(amb) < len(phi.target.variables):
        raise ValueError("source dimension below target dimension")
    wedge = wedge_rows(jacobian(phi), ChartedPair(amb, ()))
    return IdealPresentation(list(wedge.coefficients.values()), amb)


def is_quasi_prepared(phi: MorphismOfPairs) -> tuple[bool, list[str]]:
    """Reduced divisor preimage equal to the divisor, then singular locus
    inside the divisor.

    The preimage test is closed form and fails whenever the pair condition
    does, so Sing is only examined under the pair condition, where it lies
    in the divisor iff the divisor product is in the radical of the top
    log-Fitting ideal F_N: off the divisor the Jacobian and the log
    Jacobian differ by unit row and column scalings.
    At most one diagnostic is given, the first test that fails.

    The verdict is computed once per morphism and cached on it; every call
    returns a fresh diagnostics list.
    """
    if phi._quasi_prepared is None:
        N = len(phi.target.variables)
        if len(phi.source.variables) < N:
            raise ValueError("source dimension below target dimension")
        diagnostics = []
        if not preimage_equality_check(phi):
            diagnostics.append("divisor preimage does not equal the source divisor")
        elif not radical_membership(phi.source.divisor_product(), log_fitting_ideal(phi, N)):
            diagnostics.append("singular locus not contained in the divisor")
        phi._quasi_prepared = (not diagnostics), tuple(diagnostics)
    ok, diagnostics = phi._quasi_prepared
    return ok, list(diagnostics)


def top_fitting_ideal(phi: MorphismOfPairs) -> IdealPresentation:
    """The log-Fitting ideal at top form degree (the target dimension)."""
    N = len(phi.target.variables)
    return log_fitting_ideal(phi, N)


def is_strongly_prepared_at(
    phi: MorphismOfPairs, a: RationalPoint
) -> Optional[PrincipalMonomialCertificate]:
    """Semantic test: the top log-Fitting ideal is locally principal
    monomial at the point.  Requires a surface target and quasi-prepared."""
    if len(phi.target.variables) != 2:
        raise ValueError("strongly prepared is defined for surface targets only")
    ok, diags = is_quasi_prepared(phi)
    if not ok:
        raise ValueError("morphism is not quasi-prepared: " + "; ".join(diags))
    F = top_fitting_ideal(phi)
    if F.is_zero_ideal():
        return None
    return is_principal_monomial_at(F, a.coordinates, phi.source.divisor_vars)


# ---------------------------------------------------------------------------
# Syntactic normal-form matcher


def _as_constant_times_monomial(
    p: Polynomial,
) -> Optional[tuple[int | Fraction, tuple[int, ...]]]:
    """(c, a) when p is the single term c*u^a."""
    if len(p.terms) != 1:
        return None
    ((exps, c),) = p.terms.items()
    return c, exps


def _divisor_exponents(
    p_exps: tuple[int, ...], positions: tuple[tuple[int, ...], tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """Exponents restricted to the stratum (positions from
    ``chart.split_positions``); None if a variable outside it occurs."""
    inside, outside = positions
    if any(p_exps[i] for i in outside):
        return None
    return tuple(p_exps[i] for i in inside)


def _match_first_component(
    x1: Polynomial, positions: tuple[tuple[int, ...], tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """alpha when x1 is c*(u^alpha)^m with gcd(alpha)=1 and alpha positive
    on the whole stratum."""
    if len(x1.terms) != 1:
        return None
    (exps,) = x1.terms
    e = _divisor_exponents(exps, positions)
    if not e or not all(e):
        return None
    m = gcd(*e)
    return tuple(x // m for x in e)


def _series_remainder(
    z: Polynomial,
    positions: tuple[tuple[int, ...], tuple[int, ...]],
    alpha: tuple[int, ...],
) -> list[tuple[int, ...]]:
    """The exponents of the terms of z outside P(u^alpha): those that are
    not a non-negative integer multiple of alpha on the stratum and zero
    elsewhere (alpha is positive, so the multiple is de[0] // alpha[0])."""
    rem = []
    for exps in z.terms:
        de = _divisor_exponents(exps, positions)
        if de is None or de != tuple(de[0] // alpha[0] * a for a in alpha):
            rem.append(exps)
    return rem


def match_spm_template(phi: MorphismOfPairs, a: RationalPoint) -> Optional[int]:
    """Syntactic matcher against the three strongly-prepared normal forms:
    the number of the case the components match, or None.

    Recognizes presentations already in normal form; a None verdict does
    not preclude strong preparedness after a coordinate change.
    """
    if len(phi.target.variables) != 2:
        return None
    stratum = stratum_of_point(phi.source, a)
    positions = split_positions(phi.source.variables, stratum)
    target_div = phi.target.divisor_vars
    k = len(stratum)
    comps = phi.components

    # Case 3: both targets divisorial, both components pure monomials.
    if len(target_div) == 2 and k >= 2:
        cm1 = _as_constant_times_monomial(comps[target_div[0]])
        cm2 = _as_constant_times_monomial(comps[target_div[1]])
        if cm1 and cm2:
            e1 = _divisor_exponents(cm1[1], positions)
            e2 = _divisor_exponents(cm2[1], positions)
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

    # Cases 1 and 2: x1 divisorial in normal form, z the other component.
    if len(target_div) == 1:
        orderings = [(target_div[0], phi.target.free_vars[0])]
    elif len(target_div) == 2:
        orderings = [target_div, target_div[::-1]]
    else:
        orderings = []
    for x1_name, z_name in orderings:
        alpha = _match_first_component(comps[x1_name], positions)
        if alpha is None:
            continue
        rem = _series_remainder(comps[z_name], positions, alpha)
        if len(rem) != 1:
            continue
        (exps,) = rem
        beta = _divisor_exponents(exps, positions)
        if beta is not None:
            # Case 2: remainder is a pure divisor monomial not proportional
            # to alpha.  No rank test is needed: alpha is primitive, so a
            # proportional beta is an integer multiple of it, which
            # _series_remainder keeps in the series (on a stratum of one
            # variable every beta is such a multiple).
            return 2
        # Case 1: remainder is u^beta * (one free variable, exponent 1).
        off = [i for i in positions[1] if exps[i]]
        if len(off) == 1 and exps[off[0]] == 1 and off[0] in phi.source.positions[1]:
            return 1
    return None


def is_monomial_morphism_at(
    phi: MorphismOfPairs, a: RationalPoint
) -> Optional[list[tuple[int, ...]]]:
    """Exponent matrix if every component is a unit at the point times its
    local monomial (``ideal.local_monomial``: the source variables that
    vanish there) and the matrix has full target rank; None otherwise."""
    pt = a.coordinates
    rows = []
    for p in phi.component_list():
        if p.is_zero():
            return None
        m = local_monomial([p], pt)
        if not residual_value(p, m, pt):
            return None
        rows.append(m)
    if rational_matrix_rank(rows) != len(rows):
        return None
    return rows


# ---------------------------------------------------------------------------
# Log-rank adapted verification


def is_log_rank_adapted_at(
    phi: MorphismOfPairs,
    a: RationalPoint,
    filtration: DivisorFiltration,
    target_stratum_ideal: IdealPresentation,
) -> tuple[bool, list[str]]:
    """Verify the two log-rank-adapted conditions on supplied data.

    Condition (1): the first r components are distinct free variables and,
    unless r equals the target dimension, component r+1 is a divisor
    monomial generating the pullback of the supplied target stratum ideal.
    Condition (2): for each level k and each variable w of level k outside
    level k+1, the log-rank is exactly e = min(n, N) - k at every point,
    over the algebraic closure, of {w = 0} minus the other divisor
    components, with free variables unrestricted.  That set is dense in
    {w = 0}, so this holds exactly when the log-Fitting ideal F_{e+1} (the
    (e+1)-minors of the log Jacobian) vanishes on w = 0 and the product of
    the other divisor variables, free of w, is in the radical of F_e at
    w = 0 (F_0 = (1)).  It never holds for e < 0.  Raises
    NotAMorphismOfPairsError when a level is nonempty and the pair
    condition fails.
    """
    filtration.validate(phi.source.divisor_vars)
    diagnostics: list[str] = []
    n = len(phi.source.variables)
    N = len(phi.target.variables)
    phi0 = phi.with_empty_target_divisor()
    r = log_rank_at_point(phi0, a)

    amb = phi.source.variables
    comps = phi.component_list()
    free = set(phi.source.free_vars)
    seen = set()
    for i in range(r):
        cm = _as_constant_times_monomial(comps[i])
        v = amb[cm[1].index(1)] if cm and cm[0] == 1 and sum(cm[1]) == 1 else None
        if v not in free:
            diagnostics.append(f"component {i + 1} is not a free source variable")
            continue
        if v in seen:
            diagnostics.append(f"component {i + 1} repeats the variable {v}")
        seen.add(v)

    if r < N:
        p = comps[r]
        if not phi.source.is_divisor_monomial(p):
            diagnostics.append(
                f"component {r + 1} is not a monomial in divisor variables"
            )
        else:
            # Equal ideals have the same reduced Groebner basis, and that of
            # the principal ideal (p) is p made monic.
            pulled = [phi.pullback(g) for g in target_stratum_ideal.generators]
            if IdealPresentation(pulled, amb).basis() != [p.monic()]:
                diagnostics.append(
                    "pullback of the target stratum ideal is not generated "
                    f"by component {r + 1}"
                )

    # A boundary level past min(n, N) builds no log-Fitting ideal, so the
    # pair condition is checked here for every nonempty filtration.
    if any(filtration.levels):
        ok, pair_diags = validate_pair_condition(phi)
        if not ok:
            raise NotAMorphismOfPairsError("; ".join(pair_diags))
    for k, level in enumerate(filtration.levels, start=1):
        inner = filtration.levels[k] if k < len(filtration.levels) else ()
        boundary = [w for w in level if w not in inner]
        if not boundary:
            continue
        e = min(n, N) - k
        above = log_fitting_ideal(phi, e + 1).generators if e >= 0 else []
        below = log_fitting_ideal(phi, e).generators if e > 0 else []
        for w in boundary:
            i = amb.index(w)
            if e < 0 or any(not x[i] for m in above for x in m.terms):
                diagnostics.append(f"log-rank exceeds {e} on the stratum of {w} at level {k}")
                continue
            # The e-minors at w = 0; a subset of canonical terms is canonical.
            at_w = [
                Polynomial._trusted({x: c for x, c in m.terms.items() if not x[i]}, amb)
                for m in below
            ]
            others = Polynomial._trusted(
                {tuple(int(v != w and v in phi.source.divisor_vars) for v in amb): 1}, amb
            )
            if e > 0 and not radical_membership(others, IdealPresentation(at_w, amb)):
                gens = ", ".join(str(g) for g in at_w if not g.is_zero()) or "0"
                diagnostics.append(
                    f"log-rank drops below {e} on the stratum of {w} at level {k}, "
                    f"where the {e}-minors at {w} = 0 vanish: ({gens})"
                )
    return (not diagnostics), diagnostics
