"""Ideal-theoretic engine: Groebner bases and derived decision procedures.

Buchberger's algorithm (sugar selection, coprime-leading-term criterion)
over the rationals, with membership, radical membership via the
Rabinowitsch trick, elimination by block orders, Krull dimension from the
leading-term ideal, saturation, and the locally-principal-monomial test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, ge, le, sub
from typing import Sequence

from .poly import AmbientMismatchError, Monomial, Polynomial, grevlex_key


# ---------------------------------------------------------------------------
# Monomial orders


class MonomialOrder:
    """A total order on exponent tuples, exposed as a sort key."""

    def __init__(self, tag: str, key):
        self.tag = tag
        self.key = key

    def __repr__(self):
        return f"MonomialOrder({self.tag})"


def grevlex_order() -> MonomialOrder:
    return MonomialOrder("grevlex", grevlex_key)


def block_order(n_eliminated: int) -> MonomialOrder:
    """Eliminated block (the first ``n_eliminated`` variables) dominates."""

    def key(exps):
        return (grevlex_key(exps[:n_eliminated]), grevlex_key(exps[n_eliminated:]))

    return MonomialOrder(f"block{n_eliminated}", key)


# ---------------------------------------------------------------------------
# Presentation


class EmptyVarietyError(ValueError):
    """Operation undefined on the unit ideal."""


@dataclass
class PrincipalMonomialCertificate:
    generator_monomial: Monomial
    residual_witness: Polynomial


class IdealPresentation:
    """A generator list over a fixed ambient, with a one-shot basis cache.

    The cache is filled idempotently per order tag.
    """

    def __init__(self, generators: Sequence[Polynomial], ambient: Sequence[str]):
        amb = tuple(ambient)
        gens = []
        for g in generators:
            if g.ambient != amb:
                raise AmbientMismatchError(
                    f"generator ambient {g.ambient} does not match {amb}"
                )
            if not g.is_zero():
                gens.append(g)
        self.generators = gens
        self.ambient = amb
        self._basis_cache: dict[str, list[Polynomial]] = {}

    def __repr__(self):
        return f"IdealPresentation([{', '.join(map(str, self.generators))}])"

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def basis(self, order: MonomialOrder | None = None) -> list[Polynomial]:
        order = order or grevlex_order()
        cached = self._basis_cache.get(order.tag)
        if cached is None:
            cached = reduced_groebner_basis(self.generators, order)
            self._basis_cache[order.tag] = cached
        return cached


# ---------------------------------------------------------------------------
# Core Buchberger machinery


def _lt(p: Polynomial, order: MonomialOrder):
    return max(p.terms, key=order.key)


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by ``basis`` under ``order``."""
    if f.is_zero() or not basis:
        return f
    # Per divisor: leading exponent, leading coefficient, and the tail
    # terms that a reduction step subtracts.
    divisors = []
    for g in basis:
        lt = max(g.terms, key=order.key)
        tail = [(te, tc) for te, tc in g.terms.items() if te != lt]
        divisors.append((lt, g.terms[lt], tail))
    rem_terms: dict[tuple[int, ...], Fraction] = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for lt, lc, tail in divisors:
            if all(map(ge, e, lt)):
                factor = c / lc
                shift = tuple(map(sub, e, lt))
                for te, tc in tail:
                    ne = tuple(map(add, te, shift))
                    s = work.get(ne)
                    if s is None:
                        work[ne] = -factor * tc
                    else:
                        s -= factor * tc
                        if s:
                            work[ne] = s
                        else:
                            del work[ne]
                break
        else:
            rem_terms[e] = c
    return Polynomial._trusted(rem_terms, f.ambient)


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    ef = _lt(f, order)
    eg = _lt(g, order)
    l = tuple(map(max, ef, eg))
    mf = Polynomial._trusted({tuple(map(sub, l, ef)): 1 / f.terms[ef]}, f.ambient)
    mg = Polynomial._trusted({tuple(map(sub, l, eg)): 1 / g.terms[eg]}, g.ambient)
    return mf * f - mg * g


def reduced_groebner_basis(
    generators: Sequence[Polynomial], order: MonomialOrder
) -> list[Polynomial]:
    """Reduced Groebner basis; empty list for the zero ideal."""
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        return []
    basis = [g.monic(order.key) for g in basis]
    sugars = [g.total_degree for g in basis]
    lts = [_lt(g, order) for g in basis]

    def pair_sugar(i, j):
        l = sum(map(max, lts[i], lts[j]))
        return max(sugars[i] + l - sum(lts[i]), sugars[j] + l - sum(lts[j]))

    # Pairs leave the heap in (sugar, (i, j)) order, smallest first.
    pairs = [(pair_sugar(i, j), (i, j)) for i in range(len(basis)) for j in range(i)]
    heapq.heapify(pairs)
    done: set[tuple[int, int]] = set()
    while pairs:
        _, (i, j) = heapq.heappop(pairs)
        done.add((i, j))
        ei, ej = lts[i], lts[j]
        # Buchberger's first criterion: coprime leading terms reduce to 0.
        if not any(map(min, ei, ej)):
            continue
        # Chain criterion: skip if some third element divides the lcm and
        # both pairs with it were already handled.
        l = tuple(map(max, ei, ej))
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if all(map(le, lts[k], l)):
                pik = (max(i, k), min(i, k))
                pjk = (max(j, k), min(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        s = _s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r.is_zero():
            continue
        r = r.monic(order.key)
        k = len(basis)
        basis.append(r)
        sugars.append(pair_sugar(i, j))
        lts.append(_lt(r, order))
        for m in range(k):
            heapq.heappush(pairs, (pair_sugar(k, m), (k, m)))

    # Minimalize: drop elements whose leading term is divisible by another's.
    lts = [_lt(g, order) for g in basis]
    minimal = _minimalize(basis, lts)
    # Fully reduce each element against the others.
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others, order).monic(order.key))
    reduced.sort(key=lambda p: order.key(_lt(p, order)))
    return reduced


def _minimalize(basis: list[Polynomial], lts) -> list[Polynomial]:
    order_pairs = sorted(range(len(basis)), key=lambda i: sum(lts[i]))
    kept: list[int] = []
    for i in order_pairs:
        e = lts[i]
        if any(all(map(ge, e, lts[j])) for j in kept):
            continue
        kept.append(i)
    return [basis[i] for i in kept]


# ---------------------------------------------------------------------------
# Queries


def groebner_basis(I: IdealPresentation, order: MonomialOrder | None = None) -> IdealPresentation:
    order = order or grevlex_order()
    out = IdealPresentation(I.basis(order), I.ambient)
    out._basis_cache[order.tag] = list(out.generators)
    return out


def ideal_membership(f: Polynomial, I: IdealPresentation) -> bool:
    if f.ambient != I.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {I.ambient}")
    if f.is_zero():
        return True
    order = grevlex_order()
    return normal_form(f, I.basis(order), order).is_zero()


def contains_one(I: IdealPresentation) -> bool:
    basis = I.basis()
    return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()


def _rabinowitsch(I: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """I + (1 - t*f) over (t,) + the ambient, t a fresh variable.  Its
    variety is the part of V(I) where f does not vanish, and eliminating t
    gives (I : f^infinity)."""
    if f.ambient != I.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {I.ambient}")
    t, k = "_t", 0
    while t in I.ambient:
        k += 1
        t = f"_t{k}"
    ext = (t,) + I.ambient
    gens = [g.extend_ambient(ext) for g in I.generators]
    tf = Polynomial.variable(t, ext) * f.extend_ambient(ext)
    gens.append(Polynomial.constant(1, ext) - tf)
    return IdealPresentation(gens, ext)


def radical_membership(f: Polynomial, I: IdealPresentation) -> bool:
    """True iff f vanishes on V(I) over the algebraic closure, that is iff
    the Rabinowitsch ideal I + (1 - t*f) is the unit ideal."""
    return contains_one(_rabinowitsch(I, f))


def elimination(I: IdealPresentation, keep: Sequence[str]) -> IdealPresentation:
    """Generators of I intersected with the subring in the kept variables."""
    keep = tuple(keep)
    for v in keep:
        if v not in I.ambient:
            raise ValueError(f"kept variable {v!r} not in ambient")
    eliminated = tuple(v for v in I.ambient if v not in keep)
    ext = eliminated + keep
    order = block_order(len(eliminated))
    gens = [g.extend_ambient(ext) for g in I.generators]
    basis = reduced_groebner_basis(gens, order)
    kept_gens = []
    for g in basis:
        if g.support_variables() <= set(keep):
            kept_gens.append(g.restrict_ambient(keep))
    return IdealPresentation(kept_gens, keep)


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of the quotient ring, from the leading-term ideal."""
    n = len(I.ambient)
    if I.is_zero_ideal():
        return n
    order = grevlex_order()
    basis = I.basis(order)
    if contains_one(I):
        raise EmptyVarietyError("empty variety")
    lt_supports = []
    for g in basis:
        e = _lt(g, order)
        lt_supports.append({I.ambient[i] for i, x in enumerate(e) if x})
    # Largest variable subset meeting no leading-term support.
    for size in range(n, -1, -1):
        for S in combinations(I.ambient, size):
            s = set(S)
            if all(not sup <= s for sup in lt_supports):
                return size
    return 0


def saturation(I: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """(I : f^infinity) via the extended-variable method."""
    if f.is_zero():
        raise ValueError("saturation by the zero polynomial")
    return elimination(_rabinowitsch(I, f), I.ambient)


def radical_equality(I: IdealPresentation, J: IdealPresentation) -> bool:
    """Whether V(I) = V(J), by mutual radical membership of generators."""
    return all(radical_membership(g, J) for g in I.generators) and all(
        radical_membership(g, I) for g in J.generators
    )


def is_principal_monomial_at(
    I: IdealPresentation,
    point: Sequence[Fraction],
    divisor_vars: Sequence[str],
) -> PrincipalMonomialCertificate | None:
    """Certificate that I is generated, locally at the point, by one
    monomial in the divisor variables.

    Procedure: extract the common monomial content m of the generators,
    reject if m involves a non-divisor variable, strip m, and accept iff
    some stripped generator is a unit at the point.
    """
    if I.is_zero_ideal():
        raise ValueError("zero ideal has no principal monomial generator")
    if len(point) != len(I.ambient):
        raise ValueError("point length does not match ambient")
    divisor = set(divisor_vars)
    content = None
    for g in I.generators:
        c = g.monomial_content()
        content = c if content is None else content.gcd(c)
    for v, e in zip(I.ambient, content.exponents):
        if e and v not in divisor:
            return None
    # m divides every generator, so (I : m) is generated by the quotients.
    stripped = [g.divide_by_monomial(content) for g in I.generators]
    for g in stripped:
        if g.evaluate(point) != 0:
            return PrincipalMonomialCertificate(content, g)
    return None
