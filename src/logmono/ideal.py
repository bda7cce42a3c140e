"""Ideal-theoretic engine: Groebner bases and derived decision procedures.

Buchberger's algorithm over the rationals with sugar selection and
Gebauer-Moeller pair installation (Gebauer & Moeller, "On an installation
of Buchberger's algorithm", JSC 1988): the B, M and F criteria and the
coprime-leading-term criterion are applied once per new basis element.
Reduction keys each term once and pops terms from a heap, largest first.
On top of it: membership, radical membership via the Rabinowitsch trick,
elimination by block orders, Krull dimension from the leading-term ideal,
saturation, and the locally-principal-monomial test with the one "unit at
the point" rule (``local_monomial``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import add, ge, le, sub
from typing import Sequence

from .poly import (
    AmbientMismatchError,
    Monomial,
    Polynomial,
    canonical_coefficient,
    grevlex_key,
)


# ---------------------------------------------------------------------------
# Monomial orders


class MonomialOrder:
    """A total order on exponent tuples.

    ``key`` sorts ascending: a larger key is a larger monomial.
    ``heap_key`` runs the other way: ascending heap keys list exponents in
    descending order, so a ``heapq`` of them pops the largest first.
    """

    def __init__(self, tag: str, key, heap_key):
        self.tag = tag
        self.key = key
        self.heap_key = heap_key

    def __repr__(self):
        return f"MonomialOrder({self.tag})"


def _grevlex_heap_key(exps):
    # Higher total degree first, then the smaller last exponent.
    return (-sum(exps), exps[::-1])


def grevlex_order() -> MonomialOrder:
    return MonomialOrder("grevlex", grevlex_key, _grevlex_heap_key)


def block_order(n_eliminated: int) -> MonomialOrder:
    """Eliminated block (the first ``n_eliminated`` variables) dominates."""

    def key(exps):
        return (grevlex_key(exps[:n_eliminated]), grevlex_key(exps[n_eliminated:]))

    def heap_key(exps):
        return (
            _grevlex_heap_key(exps[:n_eliminated]),
            _grevlex_heap_key(exps[n_eliminated:]),
        )

    return MonomialOrder(f"block{n_eliminated}", key, heap_key)


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
#
# A divisor record (lt, tail) stands for the monic polynomial x^lt + tail;
# tail is a list of (exponent, coefficient) pairs below lt, with canonical
# coefficients (see ``poly``).


def _monic_tail(lt, terms: dict) -> list:
    """The tail of ``terms`` divided by the coefficient at ``lt``."""
    inv = canonical_coefficient(Fraction(1, terms[lt]))
    return [(e, canonical_coefficient(c * inv)) for e, c in terms.items() if e != lt]


def _record(g: Polynomial, heap_key) -> tuple[tuple[int, ...], list]:
    lt = min(g.terms, key=heap_key)
    return lt, _monic_tail(lt, g.terms)


def _reduce(work: dict, divisors: Sequence, heap_key) -> dict:
    """Fully reduce the term dict ``work`` (consumed) by the divisor
    records; return the remainder's canonical terms, largest first.

    Each term of ``work`` is keyed once, when it first enters, and queued
    on a heap that pops the largest first.  A reduction step writes only
    terms below the one it removes, so a popped exponent never comes back.
    A term that cancels stays in ``work`` at zero and is skipped when its
    entry surfaces.  A popped coefficient is made canonical before it
    scales a tail or enters the remainder."""
    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    rem: dict[tuple[int, ...], int | Fraction] = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        c = canonical_coefficient(c)
        for lt, tail in divisors:
            if all(map(ge, e, lt)):
                shift = tuple(map(sub, e, lt))
                for te, tc in tail:
                    ne = tuple(map(add, te, shift))
                    s = work.get(ne)
                    if s is None:
                        work[ne] = -c * tc
                        heapq.heappush(heap, (heap_key(ne), ne))
                    else:
                        work[ne] = s - c * tc
                break
        else:
            rem[e] = c
    return rem


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by ``basis`` under ``order``; each
    term is reduced by the first basis element whose leading term divides
    it."""
    if f.is_zero() or not basis:
        return f
    divisors = [_record(g, order.heap_key) for g in basis]
    return Polynomial._trusted(
        _reduce(dict(f.terms), divisors, order.heap_key), f.ambient
    )


def reduced_groebner_basis(
    generators: Sequence[Polynomial], order: MonomialOrder
) -> list[Polynomial]:
    """Reduced Groebner basis; empty list for the zero ideal.

    Buchberger's algorithm with sugar selection and the Gebauer-Moeller
    installation: each new element prunes the pending pairs (criterion B)
    and its own new pairs (criteria M and F, and coprime leading terms)
    once, when it enters the basis."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ambient = gens[0].ambient
    heap_key = order.heap_key
    # Per element: leading exponent, divisor record and sugar.  Every
    # record reduces, oldest first.  New pairs are formed only with the
    # active elements, those whose leading term no later element's leading
    # term divides.
    lts: list[tuple[int, ...]] = []
    records: list = []
    sugars: list[int] = []
    active: list[int] = []
    # Pending pairs (i, j), i > j, mapped to the lcm of their leading terms.
    # The heap pops them in (sugar, (i, j)) order; a pair deleted from
    # ``live`` is skipped when it surfaces.
    live: dict[tuple[int, int], tuple[int, ...]] = {}
    pairs: list = []

    def install(lt, tail, sugar):
        k = len(lts)
        lts.append(lt)
        records.append((lt, tail))
        sugars.append(sugar)
        # B: drop a pending pair whose lcm lt divides, unless lt shares
        # that lcm with one of the pair's elements.
        for (i, j), l in list(live.items()):
            if (
                all(map(le, lt, l))
                and tuple(map(max, lts[i], lt)) != l
                and tuple(map(max, lts[j], lt)) != l
            ):
                del live[i, j]
        # M and F: of the new pairs, keep one per minimal lcm, preferring a
        # coprime pair; then drop the coprime ones, whose S-polynomials
        # reduce to zero.
        new = [(tuple(map(max, lts[m], lt)), m) for m in active]
        kept = []
        while new:
            l, m = new.pop()
            if not any(map(min, lts[m], lt)) or not any(
                all(map(le, l2, l)) for l2, _ in chain(new, kept)
            ):
                kept.append((l, m))
        for l, m in kept:
            if any(map(min, lts[m], lt)):
                d = sum(l)
                live[k, m] = l
                heapq.heappush(
                    pairs,
                    (max(sugar + d - sum(lt), sugars[m] + d - sum(lts[m])), (k, m)),
                )
        active[:] = [m for m in active if not all(map(ge, lts[m], lt))] + [k]

    for g in gens:
        install(*_record(g, heap_key), g.total_degree)

    while pairs:
        sugar, (i, j) = heapq.heappop(pairs)
        l = live.pop((i, j), None)
        if l is None:
            continue
        # Both elements are monic, so their S-polynomial is the difference
        # of the two tails, each shifted up to the lcm.
        si = tuple(map(sub, l, lts[i]))
        work = {tuple(map(add, te, si)): tc for te, tc in records[i][1]}
        sj = tuple(map(sub, l, lts[j]))
        for te, tc in records[j][1]:
            ne = tuple(map(add, te, sj))
            work[ne] = work.get(ne, 0) - tc
        rem = _reduce(work, records, heap_key)
        if rem:
            lt = next(iter(rem))
            install(lt, _monic_tail(lt, rem), sugar)

    # Minimalize: active leading terms are distinct, so drop each that
    # another divides.  Then reduce each tail by the others.
    minimal = [
        k
        for k in active
        if not any(m != k and all(map(ge, lts[k], lts[m])) for m in active)
    ]
    minimal.sort(key=lambda k: order.key(lts[k]))
    reduced = []
    for k in minimal:
        others = [records[m] for m in minimal if m != k]
        terms = {lts[k]: 1}
        terms.update(_reduce(dict(records[k][1]), others, heap_key))
        reduced.append(Polynomial._trusted(terms, ambient))
    return reduced


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
    the Rabinowitsch ideal I + (1 - t*f) is the unit ideal.

    The answer depends only on V(I), and V(m*g) = V(rad(m)*g) for a
    monomial m, so each generator first drops its monomial content's
    exponents above 1: a generator like u^3000*v costs no more than u*v."""
    gens = []
    for g in I.generators:
        excess = [e - 1 if e > 1 else 0 for e in g.monomial_content().exponents]
        gens.append(g.divide_by_monomial(Monomial(excess)) if any(excess) else g)
    return contains_one(_rabinowitsch(IdealPresentation(gens, I.ambient), f))


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
    out = IdealPresentation(kept_gens, keep)
    # The block order restricts to grevlex on the kept variables, so the
    # kept part of the reduced basis is the reduced grevlex basis of the
    # elimination ideal, already in grevlex order.
    out._basis_cache[grevlex_order().tag] = kept_gens
    return out


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
        e, _ = g.leading_term(order.key)
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


def local_monomial(polys: Sequence[Polynomial], point: Sequence[Fraction]) -> Monomial:
    """The one "unit at the point" rule of the local predicates: each
    variable that vanishes at the point, to the largest power dividing
    every polynomial.

    Every other factor, a variable that does not vanish at the point
    included, stays in the residual ``p.divide_by_monomial(m)``, and p is
    a unit times m near the point exactly when that residual does not
    vanish there."""
    content = None
    for p in polys:
        c = p.monomial_content()
        content = c if content is None else content.gcd(c)
    return Monomial(e if x == 0 else 0 for e, x in zip(content.exponents, point))


def is_principal_monomial_at(
    I: IdealPresentation,
    point: Sequence[Fraction],
    divisor_vars: Sequence[str],
) -> PrincipalMonomialCertificate | None:
    """Certificate that I is generated, locally at the point, by one
    monomial in the divisor variables.

    Procedure: take the local monomial m of the generators (the variables
    vanishing at the point, see ``local_monomial``), reject if m involves
    a non-divisor variable, and accept iff some generator divided by m is
    a unit at the point.
    """
    if I.is_zero_ideal():
        raise ValueError("zero ideal has no principal monomial generator")
    if len(point) != len(I.ambient):
        raise ValueError("point length does not match ambient")
    divisor = set(divisor_vars)
    m = local_monomial(I.generators, point)
    for v, e in zip(I.ambient, m.exponents):
        if e and v not in divisor:
            return None
    # m divides every generator, so (I : m) is generated by the quotients.
    for g in I.generators:
        residual = g.divide_by_monomial(m)
        if residual.evaluate(point) != 0:
            return PrincipalMonomialCertificate(m, residual)
    return None
