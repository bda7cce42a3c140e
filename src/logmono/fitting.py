"""Log-Fitting ideals of a morphism of pairs, computed chart-wise.

The ideal at form degree k is generated by all coefficients of the
pullbacks of the target log basis k-forms: the k-minors of one log
Jacobian, each k-subset of its rows wedged once.  Divisorial rows are the
components' integer exponent tuples (``logdiff.log_jacobian``), so a
minor of divisorial rows alone is one integer and a divisorial entry of a
mixed minor scales its cofactor.  Indexing convention: the
artifact exposes the form degree k directly; the top ideal (k equal to
the target dimension) is the one whose local principality characterizes
strongly prepared morphisms.
"""

from __future__ import annotations

from itertools import combinations

from .chart import MorphismOfPairs
from .ideal import IdealPresentation, radical_membership
from .logdiff import log_jacobian, wedge_rows


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
    gens = []
    div = phi.target.divisor_vars
    free = phi.target.free_vars
    for l in range(0, k + 1):
        for I in combinations(div, l):
            for J in combinations(free, k - l):
                form = wedge_rows([rows[x] for x in I + J], phi.source)
                gens.extend(form.coefficients.values())
    F = phi._log_fitting[k] = IdealPresentation(gens, phi.source.variables)
    return F


def fitting_vanishing_in_divisor(phi: MorphismOfPairs, k: int) -> bool:
    """Whether the vanishing locus of the degree-k log-Fitting ideal is
    contained in the source divisor D.

    A generator c*u^a on divisor variables alone (a nonzero constant
    included) vanishes only on D, so V(F) lies in D with no Groebner basis.
    Otherwise the answer is whether the divisor product lies in the radical
    of F."""
    F = log_fitting_ideal(phi, k)
    return any(map(phi.source.is_divisor_monomial, F.generators)) or radical_membership(
        phi.source.divisor_product(), F
    )
