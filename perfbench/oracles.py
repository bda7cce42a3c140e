"""Independent oracles for the graded answers.

None of these call logmono.  The pair condition and the blowup leaves are
decided with integer arithmetic written here; quasi-preparedness and the
generic Jacobian rank use sympy, imported lazily because the oracles run
after the timed loop.
"""

from __future__ import annotations

from gen import IdealProblem, SurfaceProblem


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dict: exponent tuple -> nonzero int)


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _diff(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return out


# ---------------------------------------------------------------------------
# verdict


def pair_condition(problem: SurfaceProblem) -> bool:
    """Support check: in a polynomial chart the only units are constants, so
    V(f) lies in the source divisor exactly when f = c*u^a with a supported
    on source divisor variables."""
    divisor = [v in problem.source_divisor for v in problem.source]
    for x, p in zip(problem.target, problem.maps):
        if x not in problem.target_divisor:
            continue
        if len(p) != 1:
            return False
        (e,) = p
        if any(k and not d for k, d in zip(e, divisor)):
            return False
    return True


def _divisor_preimage_equal(problem: SurfaceProblem) -> bool:
    """Given the pair condition, every divisorial component is c*u^a, so the
    reduced preimage of the target divisor is the union of the u with a
    positive total exponent; it must be the whole source divisor."""
    total = [0] * len(problem.source)
    for x, p in zip(problem.target, problem.maps):
        if x in problem.target_divisor:
            (e,) = p
            total = [t + k for t, k in zip(total, e)]
    return all(t > 0 for v, t in zip(problem.source, total) if v in problem.source_divisor)


def _maximal_minors(problem: SurfaceProblem) -> list[dict]:
    n = len(problem.source)
    jac = [[_diff(p, j) for j in range(n)] for p in problem.maps]
    if len(jac) != 2:
        raise ValueError("verdict problems have surface targets")
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            m = _sub(_mul(jac[0][a], jac[1][b]), _mul(jac[0][b], jac[1][a]))
            if m:
                out.append(m)
    return out


def quasi_prepared(problem: SurfaceProblem) -> bool:
    """Singular locus inside the divisor (sympy Rabinowitsch radical
    membership) and reduced divisor preimage equal to the divisor."""
    import sympy

    if not (pair_condition(problem) and _divisor_preimage_equal(problem)):
        return False
    minors = _maximal_minors(problem)
    if not minors:
        return False  # V(0) is the whole chart
    t = sympy.Symbol("_rabinowitsch")
    xs = sympy.symbols(problem.source)
    gens = (t,) + tuple(xs)
    u_prod = {tuple(int(v in problem.source_divisor) for v in problem.source): 1}
    polys = [_to_sympy(m, gens, shift=1) for m in minors]
    polys.append(sympy.Integer(1) - t * _to_sympy(u_prod, gens, shift=1))
    G = sympy.groebner(polys, *gens, order="grevlex", domain="QQ")
    return list(G.exprs) == [1]


def _to_sympy(p: dict, gens, shift: int = 0):
    import sympy

    return sympy.Poly.from_dict(
        {(0,) * shift + e: c for e, c in p.items()}, *gens, domain="QQ"
    ).as_expr()


# ---------------------------------------------------------------------------
# image


def jacobian_rank(problem: SurfaceProblem) -> int:
    """Generic rank of the Jacobian over the fraction field QQ(w), by sympy."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    xs = sympy.symbols(problem.source)
    n = len(xs)
    rows = [[_to_sympy(_diff(p, j), xs) for j in range(n)] for p in problem.maps]
    M = DomainMatrix.from_list_sympy(len(rows), n, rows)
    field = sympy.QQ.frac_field(*xs)
    return M.convert_to(field).rank()


# ---------------------------------------------------------------------------
# blowup


def transport_leaves(problem: IdealProblem, tree) -> list[tuple[int, ...]]:
    """For every leaf, carry each root generator's exponent vector down the
    chain of centers with integer arithmetic and reduce to the minimal
    generators.  Returns the leaf certificates, in depth-first order, and
    raises AssertionError when a leaf ideal is not its certificate's one
    monomial or a leaf substitution is not the composed monomial map.

    In the chart distinguished by w_c of a blowup at a center C, every
    other center variable w_j becomes w_c*w_j, so exponent e_c absorbs the
    exponents e_j of the other center variables.
    """
    names = problem.variables
    out = []
    stack = [(tree.root, problem.generators, [list(r) for r in _identity(len(names))])]
    while stack:
        node, gens, matrix = stack.pop()
        if node.children:
            center = tuple(node.center)
            if len(center) != 2 or len(node.children) != 2:
                raise AssertionError(f"center {center} is not codimension two")
            for child, c in zip(node.children, center):
                ci = names.index(c)
                others = [names.index(v) for v in center if v != c]
                new = []
                for e in gens:
                    e = list(e)
                    e[ci] += sum(e[j] for j in others)
                    new.append(tuple(e))
                # Root variable v maps to prod_w w^matrix[v][w]; column c
                # absorbs the columns of the other center variables.
                m = [list(r) for r in matrix]
                for r in m:
                    for j in others:
                        r[ci] += r[j]
                stack.append((child, tuple(new), m))
            continue
        minimal = [g for g in gens if all(all(a <= b for a, b in zip(g, h)) for h in gens)]
        if not minimal:
            raise AssertionError(f"leaf ideal {sorted(set(gens))} is not principal")
        cert = node.certificate
        if cert is None:
            raise AssertionError("leaf without certificate")
        got = tuple(cert.generator_monomial.exponents)
        if got != minimal[0]:
            raise AssertionError(f"leaf certificate {got} != transported generator {minimal[0]}")
        for v, row in zip(names, matrix):
            img = node.substitution[v]
            if len(img.terms) != 1 or dict(img.terms) != {tuple(row): 1}:
                raise AssertionError(f"leaf substitution {v} -> {img} != monomial {row}")
        out.append(got)
    return out


def _identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]
