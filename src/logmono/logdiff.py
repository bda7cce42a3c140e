"""Logarithmic differential forms in adapted coordinates.

The degree-1 log basis of a chart is du_i/u_i for each divisor variable
and dv_j for each free variable, in chart order.  A log k-form stores one
polynomial coefficient per basis index pair (I, J) with I a sorted subset
of divisor variables and J a sorted subset of free variables.

Pullbacks along a morphism of pairs are wedges of rows of its log
Jacobian.  Under the pair condition a divisorial component is c*u^a, so
its row is the integer exponent vector a; a free component's row is its
log differential.  The coefficients of a pulled-back basis form are
maximal minors of these rows, so no division happens.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .chart import ChartedPair, MorphismOfPairs, validate_pair_condition
from .poly import Polynomial


class NotAMorphismOfPairsError(ValueError):
    """The pair condition fails: a divisorial component vanishes outside
    the source divisor, so log forms do not pull back to log forms."""


class LogKForm:
    """Mapping from (I, J) basis indices to polynomial coefficients."""

    def __init__(
        self,
        degree: int,
        chart: ChartedPair,
        coefficients: dict[tuple[tuple[str, ...], tuple[str, ...]], Polynomial],
    ):
        self.degree = degree
        self.chart = chart
        clean = {}
        divisor = set(chart.divisor_vars)
        free = set(chart.free_vars)
        for (I, J), p in coefficients.items():
            if len(I) + len(J) != degree:
                raise ValueError(f"index ({I}, {J}) has wrong degree")
            if not (set(I) <= divisor and set(J) <= free):
                raise ValueError(f"index ({I}, {J}) not split into divisor/free blocks")
            if not p.is_zero():
                clean[(tuple(I), tuple(J))] = p
        self.coefficients = clean

    def coefficient(self, I: Sequence[str], J: Sequence[str]) -> Polynomial:
        return self.coefficients.get(
            (tuple(I), tuple(J)), Polynomial.zero(self.chart.variables)
        )

    def is_zero(self) -> bool:
        return not self.coefficients

    def __repr__(self):
        parts = []
        for (I, J), p in sorted(self.coefficients.items()):
            basis = [f"d{u}/{u}" for u in I] + [f"d{v}" for v in J]
            parts.append(f"({p})*" + "^".join(basis))
        return " + ".join(parts) if parts else "0"


def _log_row(f: Polynomial, chart: ChartedPair) -> list[Polynomial]:
    """df over the chart's log basis, in chart order: u*df/du for divisor
    variables, df/dv for free variables."""
    if f.ambient != chart.variables:
        raise ValueError("polynomial not in chart variables")
    divisor = set(chart.divisor_vars)
    row = []
    for v in chart.variables:
        d = f.partial_derivative(v)
        row.append(d * Polynomial.variable(v, chart.variables) if v in divisor else d)
    return row


def log_differential(f: Polynomial, chart: ChartedPair) -> LogKForm:
    """df expressed in the log basis: u*df/du against du/u, df/dv against dv."""
    return _wedge_rows([_log_row(f, chart)], chart)


def maximal_minors(
    rows: list[list[Polynomial]],
) -> Iterator[tuple[tuple[int, ...], Polynomial]]:
    """Every nonzero maximal minor of a k x n matrix with its column subset,
    in ``itertools.combinations`` order."""
    ncols = len(rows[0]) if rows else 0
    for cols in combinations(range(ncols), len(rows)):
        minor = _det([[row[j] for j in cols] for row in rows])
        if not minor.is_zero():
            yield cols, minor


def _wedge_rows(rows: list[list[Polynomial]], chart: ChartedPair) -> LogKForm:
    """Wedge of degree-1 forms given as coefficient rows over the log basis.

    The coefficient of each basis subset is the corresponding maximal
    minor; subsets are re-split into (I, J) with divisor block first,
    carrying the sign of the sorting permutation.
    """
    divisor = set(chart.divisor_vars)
    coeffs = {}
    for cols, minor in maximal_minors(rows):
        names = [chart.variables[j] for j in cols]
        I = tuple(v for v in names if v in divisor)
        J = tuple(v for v in names if v not in divisor)
        # Sign of the shuffle moving the divisor block in front.
        sign = _permutation_sign([names.index(v) for v in I + J])
        coeffs[(I, J)] = minor if sign == 1 else -minor
    return LogKForm(len(rows), chart, coeffs)


def _permutation_sign(perm: list[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _det(matrix: list[list[Polynomial]]) -> Polynomial:
    k = len(matrix)
    if k == 0:
        raise ValueError("empty determinant")
    if k == 1:
        return matrix[0][0]
    amb = matrix[0][0].ambient
    total = Polynomial.zero(amb)
    for i in range(k):
        entry = matrix[i][0]
        if entry.is_zero():
            continue
        sub = [row[1:] for r, row in enumerate(matrix) if r != i]
        cofactor = entry * _det(sub)
        total = total + cofactor if i % 2 == 0 else total - cofactor
    return total


def pullback_basis_form(
    phi: MorphismOfPairs,
    I_target: Sequence[str],
    J_target: Sequence[str],
) -> LogKForm:
    """Pullback of the target log basis k-form dx_I/x_I ^ dy_J.

    It is the wedge of the log-Jacobian rows of I_target, then J_target:
    each coefficient is a maximal minor of those rows, and no division
    happens.  Raises NotAMorphismOfPairsError when the pair condition fails.
    """
    I_target = tuple(I_target)
    J_target = tuple(J_target)
    if not set(I_target) <= set(phi.target.divisor_vars):
        raise ValueError("I_target must consist of target divisor variables")
    if not set(J_target) <= set(phi.target.free_vars):
        raise ValueError("J_target must consist of target free variables")
    if not I_target + J_target:
        raise ValueError("form degree must be at least 1")
    rows = dict(zip(phi.target.variables, log_jacobian(phi)))
    return _wedge_rows([rows[x] for x in I_target + J_target], phi.source)


def log_jacobian(phi: MorphismOfPairs) -> list[list[Polynomial]]:
    """One row per target variable (target chart order) over the source log
    basis (source chart order): the pullback of dx/x or dy.

    Under the pair condition a divisorial component is c*u^a, so dx/x pulls
    back to sum a_i du_i/u_i and its row is the exponent vector a, as
    constant polynomials.  A free component's row is its log differential.
    Raises NotAMorphismOfPairsError when the pair condition fails.
    """
    ok, diags = validate_pair_condition(phi)
    if not ok:
        raise NotAMorphismOfPairsError("; ".join(diags))
    chart = phi.source
    rows = []
    for x in phi.target.variables:
        comp = phi.components[x]
        if x in phi.target.divisor_vars:
            (exps,) = comp.terms
            rows.append([Polynomial.constant(e, chart.variables) for e in exps])
        else:
            rows.append(_log_row(comp, chart))
    return rows
