"""Logarithmic differential forms in adapted coordinates.

The degree-1 log basis of a chart is du_i/u_i for each divisor variable
and dv_j for each free variable, in chart order.  A log k-form stores one
polynomial coefficient per basis index pair (I, J) with I a sorted subset
of divisor variables and J a sorted subset of free variables.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .chart import ChartedPair, MorphismOfPairs, validate_pair_condition
from .poly import Polynomial, exact_divide


class NotAMorphismOfPairsError(ValueError):
    """A pullback coefficient failed to be a polynomial.

    For a genuine morphism of pairs every coefficient of a pulled-back
    log form is regular, so inexact division marks malformed input.
    """


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


def log_differential(f: Polynomial, chart: ChartedPair) -> LogKForm:
    """df expressed in the log basis: u*df/du against du/u, df/dv against dv."""
    if f.ambient != chart.variables:
        raise ValueError("polynomial not in chart variables")
    divisor = set(chart.divisor_vars)
    coeffs = {}
    for v in chart.variables:
        d = f.partial_derivative(v)
        if v in divisor:
            d = d * Polynomial.variable(v, chart.variables)
            key = ((v,), ())
        else:
            key = ((), (v,))
        if not d.is_zero():
            coeffs[key] = d
    return LogKForm(1, chart, coeffs)


def _coefficient_vector(form: LogKForm) -> list[Polynomial]:
    """Degree-1 form as a vector over the chart's log basis (chart order)."""
    chart = form.chart
    divisor = set(chart.divisor_vars)
    out = []
    for v in chart.variables:
        key = ((v,), ()) if v in divisor else ((), (v,))
        out.append(form.coefficient(*key))
    return out


def _wedge_rows(rows: list[list[Polynomial]], chart: ChartedPair) -> LogKForm:
    """Wedge of degree-1 forms given as coefficient rows over the log basis.

    The coefficient of each basis subset is the corresponding maximal
    minor; subsets are re-split into (I, J) with divisor block first,
    carrying the sign of the sorting permutation.
    """
    k = len(rows)
    n = len(chart.variables)
    divisor = set(chart.divisor_vars)
    coeffs: dict[tuple[tuple[str, ...], tuple[str, ...]], Polynomial] = {}
    for cols in combinations(range(n), k):
        minor = _det([[rows[i][j] for j in cols] for i in range(k)])
        if minor.is_zero():
            continue
        names = [chart.variables[j] for j in cols]
        I = tuple(v for v in names if v in divisor)
        J = tuple(v for v in names if v not in divisor)
        # Sign of the shuffle moving the divisor block in front.
        reordered = list(I) + list(J)
        sign = _permutation_sign([names.index(v) for v in reordered])
        key = (I, J)
        val = minor if sign == 1 else -minor
        coeffs[key] = coeffs[key] + val if key in coeffs else val
    return LogKForm(k, chart, coeffs)


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
    """Pullback of a target log basis k-form along the morphism.

    The numerator 1-forms (differentials of the components, with divisor
    components contributing their log numerators) are wedged, then each
    coefficient is divided exactly by the product of the divisorial
    components.  Inexact division raises NotAMorphismOfPairsError.
    """
    I_target = tuple(I_target)
    J_target = tuple(J_target)
    target_div = set(phi.target.divisor_vars)
    target_free = set(phi.target.free_vars)
    if not set(I_target) <= target_div:
        raise ValueError("I_target must consist of target divisor variables")
    if not set(J_target) <= target_free:
        raise ValueError("J_target must consist of target free variables")
    k = len(I_target) + len(J_target)
    if k < 1:
        raise ValueError("form degree must be at least 1")
    ok, diags = validate_pair_condition(phi)
    if not ok:
        raise NotAMorphismOfPairsError("; ".join(diags))

    chart = phi.source
    rows = []
    denominator = Polynomial.constant(1, chart.variables)
    for x in I_target:
        rows.append(_coefficient_vector(log_differential(phi.components[x], chart)))
        denominator = denominator * phi.components[x]
    for y in J_target:
        rows.append(_coefficient_vector(log_differential(phi.components[y], chart)))

    wedged = _wedge_rows(rows, chart)
    coeffs = {}
    for key, p in wedged.coefficients.items():
        q = exact_divide(p, denominator)
        if q is None:
            raise NotAMorphismOfPairsError(
                f"coefficient {p} not divisible by {denominator}: "
                "not a morphism of pairs"
            )
        coeffs[key] = q
    return LogKForm(k, chart, coeffs)


class LogJacobian:
    """N x n polynomial matrix of the morphism over the source log basis."""

    def __init__(self, phi: MorphismOfPairs, entries: list[list[Polynomial]]):
        self.phi = phi
        self.entries = entries  # rows indexed by target variables, chart order cols

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.phi.source.variables)

    def row(self, i: int) -> list[Polynomial]:
        return self.entries[i]


def log_jacobian(phi: MorphismOfPairs) -> LogJacobian:
    """Row per target variable: the pullback of dx/x for divisorial targets
    (exact division by the component), of dy for free targets."""
    ok, diags = validate_pair_condition(phi)
    if not ok:
        raise NotAMorphismOfPairsError("; ".join(diags))
    chart = phi.source
    target_div = set(phi.target.divisor_vars)
    entries = []
    for x in phi.target.variables:
        comp = phi.components[x]
        row = _coefficient_vector(log_differential(comp, chart))
        if x in target_div:
            divided = []
            for p in row:
                q = exact_divide(p, comp)
                if q is None:
                    raise NotAMorphismOfPairsError(
                        f"log derivative of {x!r} is not regular: "
                        "not a morphism of pairs"
                    )
                divided.append(q)
            row = divided
        entries.append(row)
    return LogJacobian(phi, entries)
