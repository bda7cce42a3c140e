"""Ideal-theoretic engine: Groebner bases and derived decision procedures.

Buchberger's algorithm over the rationals with sugar selection and
Gebauer-Moeller pair installation (Gebauer & Moeller, "On an installation
of Buchberger's algorithm", JSC 1988): the B, M and F criteria and the
coprime-leading-term criterion are applied once per new basis element.
Reduction keys each term once and pops terms from a heap, largest first.
On top of it: membership, radical membership by unique factorization or
the Rabinowitsch trick, elimination by block orders, Krull dimension from
the leading-term ideal, and the locally-principal-monomial test with the
one "unit at the point" rule (``local_monomial``).

The kernel is fraction-free, after Bareiss's integer-preserving
elimination (Math. Comp. 1968): basis elements are primitive integer
polynomials, and a reduction step scales the working polynomial by an
integer instead of dividing by a leading coefficient.  A remainder is M
times the rational one, for an integer multiplier M that the reduction
returns with it, so rationals appear only in outputs: the monic reduced
basis and ``normal_form`` divide each coefficient once.  Leading terms,
sugars, pair order and criteria are those of monic rational reduction, so
every basis is the same term for term.

Buchberger's loop (``_minimal_records``) and the final interreduction
(``_interreduced``) are two steps of one kernel.  ``elimination`` runs
the second on the kept block only: under a block order the elements of a
Groebner basis whose leading term is free of the eliminated variables are
free of them in every term and generate the elimination ideal, and a
leading term that involves an eliminated variable divides no term of
theirs, so the other elements would be reduced only to be thrown away.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import add, ge, le, sub
from typing import Sequence

from .poly import (
    AmbientMismatchError,
    Monomial,
    Polynomial,
    grevlex_heap_key,
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

    def __init__(self, key, heap_key):
        self.key = key
        self.heap_key = heap_key


def grevlex_order() -> MonomialOrder:
    return MonomialOrder(grevlex_key, grevlex_heap_key)


def block_order(n_eliminated: int) -> MonomialOrder:
    """Eliminated block (the first ``n_eliminated`` variables) dominates."""

    def key(exps):
        return (grevlex_key(exps[:n_eliminated]), grevlex_key(exps[n_eliminated:]))

    def heap_key(exps):
        # The two blocks' grevlex heap keys, flattened: the first block's
        # reversed exponents all have the same length, so this is the
        # order of the pair of keys, built from one tuple.
        a = exps[:n_eliminated]
        b = exps[n_eliminated:]
        return (-sum(a), a[::-1], -sum(b), b[::-1])

    return MonomialOrder(key, heap_key)


# ---------------------------------------------------------------------------
# Presentation


class EmptyVarietyError(ValueError):
    """Operation undefined on the unit ideal."""


@dataclass
class PrincipalMonomialCertificate:
    generator_monomial: Monomial
    residual_witness: Polynomial


class IdealPresentation:
    """A generator list over a fixed ambient, with its reduced grevlex
    basis, computed on first use and cached."""

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
        self._basis: list[Polynomial] | None = None

    def __repr__(self):
        return f"IdealPresentation([{', '.join(map(str, self.generators))}])"

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def basis(self) -> list[Polynomial]:
        if self._basis is None:
            self._basis = reduced_groebner_basis(self.generators, grevlex_order())
        return self._basis


# ---------------------------------------------------------------------------
# Core Buchberger machinery
#
# A divisor record (lt, lc, tail) stands for the primitive integer
# polynomial lc*x^lt + tail: lc > 0, tail is a list of (exponent, int)
# pairs below lt, and the coefficients have no common factor.  Records are
# integer throughout.  ``_reduce`` returns a remainder together with the
# multiplier M it carries: the remainder is M times the one that monic
# rational division takes through the same steps.  Rationals appear only
# in outputs, one division by M (and by what was cleared from the input)
# per coefficient.


def _cleared(terms: dict) -> tuple[dict, int]:
    """``terms`` times the lcm D of their denominators, as ints, and D."""
    d = lcm(*(c.denominator for c in terms.values()))
    if d == 1:
        return dict(terms), 1
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _divided(terms: dict, d: int) -> dict:
    """The int ``terms`` divided by d > 0, with canonical coefficients."""
    if d == 1:
        return terms
    return {e: c // d if not c % d else Fraction(c, d) for e, c in terms.items()}


def _primitive_record(lt, terms: dict) -> tuple:
    """The record of the int ``terms`` with leading exponent ``lt``:
    divided by their content, signed so that the leading coefficient is
    positive."""
    content = gcd(*terms.values())
    if terms[lt] < 0:
        content = -content
    tail = [(e, c // content) for e, c in terms.items() if e != lt]
    return lt, terms[lt] // content, tail


def _record(g: Polynomial, heap_key) -> tuple:
    return _primitive_record(min(g.terms, key=heap_key), _cleared(g.terms)[0])


def _reduce(work: dict, divisors: Sequence, heap_key) -> tuple[dict, int]:
    """Fully reduce the int term dict ``work`` (consumed) by the divisor
    records; return the remainder, largest term first, and its
    multiplier M.

    Each term of ``work`` is keyed once, when it first enters, and queued
    on a heap that pops the largest first.  A step that removes the term
    c*x^e with the record (lt, a, tail) sets work to
    (a/g)*work - (c/g)*x^(e-lt)*tail, g = gcd(a, c), and multiplies M by
    a/g.  It writes only terms below e, so a popped exponent never comes
    back.  A term that cancels stays in ``work`` at zero and is skipped
    when its entry surfaces.  A remainder term is stored with the
    multiplier of its time and scaled up to the final M at the end."""
    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    out = []
    m = 1
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        for lt, a, tail in divisors:
            if all(map(ge, e, lt)):
                if a != 1:
                    g = gcd(a, c)
                    c //= g
                    if g != a:
                        f = a // g
                        m *= f
                        for k, v in work.items():
                            work[k] = v * f
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
            out.append((e, c, m))
    return {e: c if k == m else c * (m // k) for e, c, k in out}, m


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by ``basis`` under ``order``; each
    term is reduced by the first basis element whose leading term divides
    it."""
    if f.is_zero() or not basis:
        return f
    divisors = [_record(g, order.heap_key) for g in basis]
    work, d = _cleared(f.terms)
    rem, m = _reduce(work, divisors, order.heap_key)
    return Polynomial._trusted(_divided(rem, m * d), f.ambient)


def reduced_groebner_basis(
    generators: Sequence[Polynomial], order: MonomialOrder
) -> list[Polynomial]:
    """Reduced Groebner basis; empty list for the zero ideal."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    return _interreduced(_minimal_records(gens, order), order.heap_key, gens[0].ambient)


def _minimal_records(gens: Sequence[Polynomial], order: MonomialOrder) -> list:
    """The records of a minimal Groebner basis of the nonzero ``gens``,
    sorted by ``order``, smallest leading term first.

    Buchberger's algorithm with sugar selection and the Gebauer-Moeller
    installation: each new element prunes the pending pairs (criterion B)
    and its own new pairs (criteria M and F, and coprime leading terms)
    once, when it enters the basis."""
    heap_key = order.heap_key
    # Per element: leading exponent, primitive record and sugar.  Every
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

    def install(record, sugar):
        lt = record[0]
        k = len(lts)
        lts.append(lt)
        records.append(record)
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
        install(_record(g, heap_key), g.total_degree)

    while pairs:
        sugar, (i, j) = heapq.heappop(pairs)
        l = live.pop((i, j), None)
        if l is None:
            continue
        # With cofactors lc_j/g and lc_i/g, g = gcd(lc_i, lc_j), the
        # leading terms cancel, so the S-polynomial is the difference of
        # the two scaled tails, each shifted up to the lcm.
        _, ai, tail_i = records[i]
        _, aj, tail_j = records[j]
        g = gcd(ai, aj)
        ci, cj = aj // g, ai // g
        si = tuple(map(sub, l, lts[i]))
        work = {tuple(map(add, te, si)): ci * tc for te, tc in tail_i}
        sj = tuple(map(sub, l, lts[j]))
        for te, tc in tail_j:
            ne = tuple(map(add, te, sj))
            work[ne] = work.get(ne, 0) - cj * tc
        rem, _ = _reduce(work, records, heap_key)
        if rem:
            install(_primitive_record(next(iter(rem)), rem), sugar)

    # Minimalize: active leading terms are distinct, so drop each that
    # another divides.
    minimal = [
        k
        for k in active
        if not any(m != k and all(map(ge, lts[k], lts[m])) for m in active)
    ]
    minimal.sort(key=lambda k: order.key(lts[k]))
    return [records[k] for k in minimal]


def _interreduced(
    records: list, heap_key, ambient: tuple[str, ...], cut: int = 0
) -> list[Polynomial]:
    """The reduced basis of a minimal one: each record's tail reduced by
    the other records, made monic (a tail coefficient c with multiplier M
    becomes c/(M*lc)) and written over ``ambient``.  ``cut`` drops that
    many leading exponents of every term, which must all be zero there."""
    reduced = []
    for k, (lt, lc, tail) in enumerate(records):
        rem, m = _reduce(dict(tail), records[:k] + records[k + 1:], heap_key)
        terms = {lt[cut:]: 1}
        for e, c in _divided(rem, m * lc).items():
            terms[e[cut:]] = c
        reduced.append(Polynomial._trusted(terms, ambient))
    return reduced


# ---------------------------------------------------------------------------
# Queries


def ideal_membership(f: Polynomial, I: IdealPresentation) -> bool:
    if f.ambient != I.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {I.ambient}")
    if f.is_zero():
        return True
    return normal_form(f, I.basis(), grevlex_order()).is_zero()


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

    A term f = c*x^b with support S needs no basis when a generator c*x^a
    with supp(a) inside S vanishes only where f does (True), or else when I
    has at most one generator g (False).  Q[x] is a UFD, so f^m in (g) makes
    each irreducible factor of g a variable of S, and the zero ideal holds
    no nonzero f (Cox, Little & O'Shea, Ch. 4).  Otherwise the answer
    depends only on V(I), and V(m*g) = V(rad(m)*g) for a monomial m, so
    each generator first drops its monomial content's exponents above 1: a
    generator like u^3000*v costs no more than u*v."""
    if f.ambient != I.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {I.ambient}")
    if len(f.terms) == 1:
        off = [i for b in f.terms for i, x in enumerate(b) if not x]
        for g in I.generators:
            if len(g.terms) == 1 and not any(a[i] for a in g.terms for i in off):
                return True
        if len(I.generators) <= 1:
            return False
    gens = []
    for g in I.generators:
        excess = tuple(e - 1 if e > 1 else 0 for e in g.monomial_content())
        gens.append(g.divide_by_monomial(excess) if any(excess) else g)
    return contains_one(_rabinowitsch(IdealPresentation(gens, I.ambient), f))


def elimination(I: IdealPresentation, keep: Sequence[str]) -> IdealPresentation:
    """Generators of I intersected with the subring in the kept variables.

    Under the block order with the eliminated variables first, the basis
    elements whose leading term is free of them form a Groebner basis of
    the elimination ideal (Cox, Little & O'Shea, Ch. 3), and every term of
    such an element is free of them too.  A leading term that involves an
    eliminated variable divides no such term, so only the kept block of
    the minimal basis is interreduced, among itself, and written straight
    into the kept ambient: term for term the kept part of the reduced
    block-order basis."""
    keep = tuple(keep)
    for v in keep:
        if v not in I.ambient:
            raise ValueError(f"kept variable {v!r} not in ambient")
    eliminated = tuple(v for v in I.ambient if v not in keep)
    ext = eliminated + keep
    n = len(eliminated)
    order = block_order(n)
    records = _minimal_records([g.extend_ambient(ext) for g in I.generators], order)
    kept = [r for r in records if not any(r[0][:n])]
    kept_gens = _interreduced(kept, order.heap_key, keep, n)
    out = IdealPresentation(kept_gens, keep)
    # The block order restricts to grevlex on the kept variables, so the
    # kept part of the reduced basis is the reduced grevlex basis of the
    # elimination ideal, already in grevlex order.
    out._basis = kept_gens
    return out


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of the quotient ring, from the leading-term ideal."""
    n = len(I.ambient)
    if I.is_zero_ideal():
        return n
    if contains_one(I):
        raise EmptyVarietyError("empty variety")
    lt_supports = []
    for g in I.basis():
        e, _ = g.leading_term()
        lt_supports.append({I.ambient[i] for i, x in enumerate(e) if x})
    # Largest variable subset meeting no leading-term support.
    for size in range(n, -1, -1):
        for S in combinations(I.ambient, size):
            s = set(S)
            if all(not sup <= s for sup in lt_supports):
                return size
    return 0


def local_monomial(polys: Sequence[Polynomial], point: Sequence[Fraction]) -> tuple[int, ...]:
    """The one "unit at the point" rule of the local predicates: the
    exponent tuple that gives each variable vanishing at the point the
    largest power dividing every polynomial, which is its least exponent
    over all their terms, and every other variable 0.

    Every other factor, a variable that does not vanish at the point
    included, stays in the residual p / m, and p is a unit times m near
    the point exactly when that residual does not vanish there
    (``residual_value``)."""
    if not polys or not all(p.terms for p in polys):
        raise ValueError("local monomial of the zero polynomial")
    terms = [e for p in polys for e in p.terms]
    # Repeating the first term gives min at least two arguments.
    content = map(min, terms[0], *terms)
    return tuple(e if x == 0 else 0 for e, x in zip(content, point))


def residual_value(
    p: Polynomial, m: tuple[int, ...], point: Sequence[Fraction]
) -> int | Fraction:
    """The value at the point of the residual p / m, for the exponent
    tuple m of a local monomial of p (``local_monomial``), read off p's
    terms without dividing.

    m lives on the coordinates that vanish at the point, so a term of p / m
    survives there exactly when its exponents equal m's on them, and it
    contributes its coefficient times the powers of the other
    coordinates."""
    if len(point) != len(p.ambient):
        raise ValueError(
            f"point of length {len(point)} for ambient of length {len(p.ambient)}"
        )
    nonzero = [(i, x) for i, x in enumerate(point) if x]
    zeros = [i for i, x in enumerate(point) if not x]
    total = 0
    for e, c in p.terms.items():
        if all(e[i] == m[i] for i in zeros):
            for i, x in nonzero:
                if e[i]:
                    c *= x ** e[i]
            total += c
    return total


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
    a unit at the point; the certificate holds that generator's residual.
    """
    if I.is_zero_ideal():
        raise ValueError("zero ideal has no principal monomial generator")
    if len(point) != len(I.ambient):
        raise ValueError("point length does not match ambient")
    divisor = set(divisor_vars)
    m = local_monomial(I.generators, point)
    for v, e in zip(I.ambient, m):
        if e and v not in divisor:
            return None
    # m divides every generator, so (I : m) is generated by the quotients.
    for g in I.generators:
        if residual_value(g, m, point):
            return PrincipalMonomialCertificate(Monomial(m), g.divide_by_monomial(m))
    return None
