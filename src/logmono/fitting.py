"""Log-Fitting ideals of a morphism of pairs, computed chart-wise.

The ideal at form degree k is generated by all coefficients of the
pullbacks of the target log basis k-forms: the k-minors of one log
Jacobian, each k-subset of its rows wedged once, and each minor kept once
up to a nonzero rational scalar.  Divisorial rows are the components'
integer exponent tuples (``logdiff.log_jacobian``), so a minor of
divisorial rows alone is one integer and a divisorial entry of a mixed
minor scales its cofactor.  The artifact exposes the form degree k.  Local
principality of the top ideal (k the target dimension) characterizes
strongly prepared morphisms, and its zero set lies in the divisor iff the
divisor product is in its radical (``ideal.radical_membership``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .chart import MorphismOfPairs
from .ideal import IdealPresentation
from .logdiff import log_jacobian, wedge_rows
from .poly import Polynomial


def log_fitting_ideal(phi: MorphismOfPairs, k: int) -> IdealPresentation:
    """The degree-k log-Fitting ideal, computed once per morphism and form
    degree and cached on the morphism together with its Groebner bases."""
    cached = phi._log_fitting.get(k)
    if cached is not None:
        return cached
    n = len(phi.source.variables)
    N = len(phi.target.variables)
    if not 1 <= k <= min(n, N):
        raise ValueError(f"form degree {k} out of range 1..{min(n, N)}")
    rows = dict(zip(phi.target.variables, log_jacobian(phi)))
    gens = {}  # the first minor of each class up to a scalar, by _ray
    div = phi.target.divisor_vars
    free = phi.target.free_vars
    for l in range(0, k + 1):
        for I in combinations(div, l):
            for J in combinations(free, k - l):
                form = wedge_rows([rows[x] for x in I + J], phi.source)
                for p in form.coefficients.values():
                    gens.setdefault(_ray(p), p)
    F = phi._log_fitting[k] = IdealPresentation(list(gens.values()), phi.source.variables)
    return F


def _ray(p: Polynomial) -> frozenset:
    """p's terms divided by the coefficient of its least exponent tuple:
    equal for two nonzero polynomials exactly when one is a nonzero
    rational multiple of the other."""
    c0 = p.terms[min(p.terms)]
    return frozenset((e, Fraction(c, c0)) for e, c in p.terms.items())

