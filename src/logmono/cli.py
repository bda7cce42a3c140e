"""Command line interface.

Every subcommand reads a problem file and prints a report, as text or as
JSON with ``--json``.  ``main`` owns this contract: it loads the problem,
lets the subcommand compute its ``Report``, prints it and maps the outcome
to an exit code.  Exit codes: 0 on success (and for predicates that hold),
1 for predicates that fail or computations yielding a negative verdict
(``Report.ok`` false), 2 for malformed input or violated preconditions, 3
for an internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .blowup import blowup_chart, transform_morphism
from .chart import RationalPoint, validate_pair_condition
from .classify import (
    is_log_rank_adapted_at,
    is_monomial_morphism_at,
    is_quasi_prepared,
    is_strongly_prepared_at,
    match_spm_template,
    singular_locus_ideal,
    top_fitting_ideal,
)
from .fitting import log_fitting_ideal
from .frontend import Report, parse_point, parse_problem
from .principalize import (
    DepthLimitError,
    TerminationMeasureError,
    goward_principalize,
    monomial_ideal_from_presentation,
    monomialize_monomial_morphism,
)
from .rank import (
    geometric_rank,
    image_closure_dimension,
    log_rank_at_point,
    rank_at_point,
)


class InputError(Exception):
    """User-facing problem with the input; maps to exit code 2."""


def _load(args) -> tuple:
    # Unbuffered bytes and one UTF-8 decode, whatever the locale: the file
    # is read whole, so text mode's buffer and incremental decoder only add
    # cost.  splitlines in parse_problem takes \r\n and \r line ends as
    # text mode's newline translation did.  A bad byte raises the codec's
    # UnicodeDecodeError, a ValueError (exit 2).
    try:
        with open(args.problem, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as e:
        raise InputError(str(e))
    return parse_problem(data.decode())


def _point_from(args, problem) -> RationalPoint:
    if args.at is not None:
        return parse_point(args.at, len(problem.morphism.source.variables))
    if problem.point is None:
        raise InputError("a point is required (problem 'point' line or --at)")
    return problem.point


def _ideal_strings(I) -> list[str]:
    return [str(g) for g in I.generators] or ["0"]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_fitting(problem, args) -> Report:
    F = log_fitting_ideal(problem.morphism, args.k)
    basis = F.basis()
    report = Report("fitting")
    report.add("k", args.k)
    report.add("generators", _ideal_strings(F))
    report.add("groebner_basis", [str(g) for g in basis] or ["0"])
    return report


def cmd_logrank(problem, args) -> Report:
    a = _point_from(args, problem)
    r = log_rank_at_point(problem.morphism, a)
    report = Report("logrank")
    report.add("point", [str(c) for c in a.coordinates])
    report.add("logrank", r)
    return report


def cmd_rank(problem, args) -> Report:
    a = _point_from(args, problem)
    r = rank_at_point(problem.morphism, a)
    report = Report("rank")
    report.add("point", [str(c) for c in a.coordinates])
    report.add("rank", r)
    return report


def cmd_grk(problem, args) -> Report:
    r = geometric_rank(problem.morphism)
    report = Report("grk")
    report.add("geometric_rank", r)
    return report


def cmd_imagedim(problem, args) -> Report:
    d = image_closure_dimension(problem.morphism)
    report = Report("imagedim")
    report.add("image_dimension", d)
    return report


def cmd_classify(problem, args) -> Report:
    phi = problem.morphism
    report = Report("classify")
    pair_ok, pair_diags = validate_pair_condition(phi)
    report.add("pair_condition", pair_ok)
    qp_ok, qp_diags = is_quasi_prepared(phi)
    report.add("quasi_prepared", qp_ok)
    diagnostics = pair_diags + qp_diags
    sp = None
    if qp_ok and len(phi.target.variables) == 2 and problem.point is not None:
        cert = is_strongly_prepared_at(phi, problem.point)
        sp = cert is not None
        report.add("strongly_prepared_at_point", sp)
        if cert is not None:
            report.add("principal_monomial", str(cert.generator_monomial.as_string(phi.source.variables)))
        report.add("normal_form_case", match_spm_template(phi, problem.point))
    if problem.point is not None:
        mono = is_monomial_morphism_at(phi, problem.point)
        report.add("monomial_at_point", mono is not None)
    if diagnostics:
        report.add("diagnostics", diagnostics)
    report.ok = qp_ok
    return report


def cmd_quasiprepared(problem, args) -> Report:
    ok, diags = is_quasi_prepared(problem.morphism)
    report = Report("quasiprepared")
    report.add("quasi_prepared", ok)
    sing = singular_locus_ideal(problem.morphism)
    report.add("singular_locus", _ideal_strings(sing))
    if diags:
        report.add("diagnostics", diags)
    report.ok = ok
    return report


def cmd_lradapted(problem, args) -> Report:
    if problem.filtration is None:
        raise InputError("lradapted needs a filtration in the problem file")
    if problem.target_ideal is None:
        raise InputError("lradapted needs a targetideal in the problem file")
    a = _point_from(args, problem)
    ok, diags = is_log_rank_adapted_at(
        problem.morphism, a, problem.filtration, problem.target_ideal
    )
    report = Report("lradapted")
    report.add("log_rank_adapted", ok)
    if diags:
        report.add("diagnostics", diags)
    report.ok = ok
    return report


def cmd_blowup(problem, args) -> Report:
    center = tuple(args.center.split(","))
    report = Report("blowup")
    report.add("center", list(center))
    for child in blowup_chart(problem.morphism.source, center):
        phi_c = transform_morphism(problem.morphism, child)
        c = child.distinguished
        report.add(f"chart_{c}_divisor", list(child.chart.divisor_vars))
        for x in phi_c.target.variables:
            report.add(f"chart_{c}_map_{x}", str(phi_c.components[x]))
    return report


def _tree_report(tree, name: str) -> Report:
    report = Report(name)
    report.add("blowup_steps", tree.step_count())
    report.add("depth", tree.depth())
    leaves = tree.leaves()
    report.add("leaf_count", len(leaves))
    for idx, leaf in enumerate(leaves):
        report.add(f"leaf_{idx}_divisor", list(leaf.chart.divisor_vars))
        report.add(
            f"leaf_{idx}_principal_generator",
            leaf.certificate.generator_monomial.as_string(leaf.chart.variables),
        )
    return report


def cmd_principalize(problem, args) -> Report:
    phi = problem.morphism
    F = top_fitting_ideal(phi)
    ideal = monomial_ideal_from_presentation(F, phi.source)
    tree = goward_principalize(ideal, phi.source, max_depth=args.max_depth)
    return _tree_report(tree, "principalize")


def cmd_monomialize(problem, args) -> Report:
    tree = monomialize_monomial_morphism(problem.morphism, max_depth=args.max_depth)
    return _tree_report(tree, "monomialize")


def cmd_verify_monomial(problem, args) -> Report:
    a = _point_from(args, problem)
    rows = is_monomial_morphism_at(problem.morphism, a)
    report = Report("verify-monomial")
    report.add("monomial", rows is not None)
    if rows is not None:
        report.add("exponent_matrix", [list(r) for r in rows])
    report.ok = rows is not None
    return report


# ---------------------------------------------------------------------------


# Built once per process: callers such as test suites and benchmarks run
# ``main`` many times in one interpreter.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmono",
        description="Log differential forms, log-Fitting ideals, and "
        "combinatorial principalization for morphisms of charted pairs.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument(
        "--max-depth", type=int, default=64, help="blowup tree depth cap"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("problem", help="path to a problem file")
        return p

    p = add("fitting", cmd_fitting, help="log-Fitting ideal at a form degree")
    p.add_argument("--k", type=int, required=True, help="form degree")

    p = add("logrank", cmd_logrank, help="log-rank at a point")
    p.add_argument("--at", help="comma separated rational coordinates")

    p = add("rank", cmd_rank, help="Jacobian rank at a point")
    p.add_argument("--at", help="comma separated rational coordinates")

    add("grk", cmd_grk, help="geometric (generic Jacobian) rank")
    add("imagedim", cmd_imagedim, help="dimension of the image closure")
    add("classify", cmd_classify, help="full classification report")
    add("quasiprepared", cmd_quasiprepared, help="quasi-prepared predicate")

    p = add("lradapted", cmd_lradapted, help="log-rank-adapted verification")
    p.add_argument("--at", help="comma separated rational coordinates")

    p = add("blowup", cmd_blowup, help="blow up the source chart at a center")
    p.add_argument(
        "--center", required=True, help="comma separated center variables"
    )

    add(
        "principalize",
        cmd_principalize,
        help="principalize the top log-Fitting monomial ideal",
    )
    add(
        "monomialize",
        cmd_monomialize,
        help="monomialize a monomial morphism onto a surface",
    )

    p = add(
        "verify-monomial",
        cmd_verify_monomial,
        help="check the morphism is monomial of full exponent rank at a point",
    )
    p.add_argument("--at", help="comma separated rational coordinates")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(_load(args), args)
        out = report.render_json() if args.json else report.render_text()
    except (InputError, DepthLimitError, TerminationMeasureError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
