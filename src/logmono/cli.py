"""Command line interface.

Every subcommand reads a problem file and prints a report, as text or as
JSON with ``--json``.  ``main`` owns this contract: it loads the problem,
lets the subcommand compute its ``Report``, prints it and maps the outcome
to an exit code.  Exit codes: 0 on success (and for predicates that hold),
1 for predicates that fail or computations yielding a negative verdict
(``Report.ok`` false), 2 for malformed input or violated preconditions, 3
for an internal error.

The command line is ``logmono [--json] [--max-depth N] <subcommand>
[options] <problem>``.  ``COMMANDS`` declares each subcommand once: its
function, its one-line help and its options, with their value types and
which are required.  ``Parser.parse_args`` reads argv against that table in
one left-to-right scan, and the usage line and ``--help`` are written from
it too.  A subcommand's options and the problem path come in any order.  An
option's value follows it (``--k 2``) or joins it with ``=`` (``--k=2``),
and it is taken whatever it starts with, so ``--at -1,0`` is a point.  The
last of a repeated option wins, ``--`` ends the subcommand's options, and
options are never abbreviated.  A usage error writes the usage line and
``logmono: error: <message>`` to stderr, nothing to stdout, and raises
``SystemExit(2)``; ``-h``/``--help``, before or after the subcommand,
prints the help and exits 0.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Callable, NamedTuple, Optional

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
# The command line: one table, one scan


class Option(NamedTuple):
    """A ``--name`` option: the ``Args`` field it sets, the type its value
    is read with (``None`` for a flag, which takes no value), the value's
    name in the help, whether it is required, and its help."""

    dest: str
    type: Optional[Callable[[str], object]]
    metavar: str = ""
    required: bool = False
    help: str = ""


class Command(NamedTuple):
    """A subcommand: its function, its one-line help and its options."""

    fn: Callable
    help: str
    options: dict


class Args:
    """A parsed command line; a field the line does not set keeps its
    class default."""

    json = False
    max_depth = 64
    command = fn = problem = at = k = center = None


_AT = {"--at": Option("at", str, "AT", help="comma separated rational coordinates")}

# Every subcommand, declared once.
COMMANDS = {
    "fitting": Command(
        cmd_fitting,
        "log-Fitting ideal at a form degree",
        {"--k": Option("k", int, "K", True, "form degree")},
    ),
    "logrank": Command(cmd_logrank, "log-rank at a point", _AT),
    "rank": Command(cmd_rank, "Jacobian rank at a point", _AT),
    "grk": Command(cmd_grk, "geometric (generic Jacobian) rank", {}),
    "imagedim": Command(cmd_imagedim, "dimension of the image closure", {}),
    "classify": Command(cmd_classify, "full classification report", {}),
    "quasiprepared": Command(cmd_quasiprepared, "quasi-prepared predicate", {}),
    "lradapted": Command(cmd_lradapted, "log-rank-adapted verification", _AT),
    "blowup": Command(
        cmd_blowup,
        "blow up the source chart at a center",
        {"--center": Option("center", str, "CENTER", True, "comma separated center variables")},
    ),
    "principalize": Command(
        cmd_principalize, "principalize the top log-Fitting monomial ideal", {}
    ),
    "monomialize": Command(
        cmd_monomialize, "monomialize a monomial morphism onto a surface", {}
    ),
    "verify-monomial": Command(
        cmd_verify_monomial,
        "check the morphism is monomial of full exponent rank at a point",
        _AT,
    ),
}

# The options that come before the subcommand.
GLOBAL_OPTIONS = {
    "--json": Option("json", None, help="emit JSON reports"),
    "--max-depth": Option(
        "max_depth", int, "N", help=f"blowup tree depth cap (default {Args.max_depth})"
    ),
}

_HELP = Option("help", None, help="show this help and exit")
# A negative number starts with "-" but is an argument, as in argparse.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _word(key: str, opt: Option) -> str:
    return key if opt.type is None else f"{key} {opt.metavar}"


def _spelled(options: dict) -> str:
    return " ".join(_word(k, o) if o.required else f"[{_word(k, o)}]" for k, o in options.items())


def _rows(rows) -> str:
    return "".join(f"  {left:<16}  {text}\n" for left, text in rows)


class Parser:
    """One left-to-right scan of argv over a command table, in the
    language the module docstring gives.  A token that starts with ``-``
    but is no option (``-``, a negative number, one containing a space) is
    an argument, as in argparse.  A bad or missing value and an unknown
    subcommand fail where they stand; an unknown option and a surplus
    argument fail after the scan, so a later ``-h`` still prints the help.
    """

    def __init__(self, commands: dict, global_options: dict):
        self.commands = commands
        self.global_options = global_options
        helps = {"-h": _HELP, "--help": _HELP}
        self._scope = {None: {**helps, **global_options}}
        for name, command in commands.items():
            self._scope[name] = {**helps, **command.options}

    def parse_args(self, argv=None) -> Args:
        args = Args()
        name = None
        options = self._scope[None]
        unknown = []
        ended = False
        tokens = iter(sys.argv[1:] if argv is None else argv)
        for tok in tokens:
            if tok[:1] == "-" and not ended:
                if tok == "--" and name is not None:
                    ended = True
                    continue
                key, eq, value = tok.partition("=")
                opt = options.get(key)
                if opt is not None:
                    if opt.type is None:
                        if eq:
                            self.error(name, f"argument {key}: ignored explicit argument {value!r}")
                        if opt is _HELP:
                            sys.stdout.write(self.format_help(name))
                            raise SystemExit(0)
                        setattr(args, opt.dest, True)
                        continue
                    if not eq:
                        value = next(tokens, None)
                        if value is None:
                            self.error(name, f"argument {key}: expected one argument")
                    try:
                        setattr(args, opt.dest, opt.type(value))
                    except ValueError:
                        self.error(name, f"argument {key}: invalid {opt.type.__name__} value: {value!r}")
                    continue
                if tok not in ("-", "--") and " " not in tok and not _NEGATIVE_NUMBER.match(tok):
                    unknown.append(tok)
                    continue
            if name is None:
                command = self.commands.get(tok)
                if command is None:
                    choices = ", ".join(map(repr, self.commands))
                    self.error(None, f"argument command: invalid choice: {tok!r} (choose from {choices})")
                name = args.command = tok
                args.fn = command.fn
                options = self._scope[name]
            elif args.problem is None:
                args.problem = tok
            else:
                unknown.append(tok)
        if name is None:
            self.error(None, "the following arguments are required: command")
        missing = [] if args.problem is not None else ["problem"]
        for key, opt in options.items():
            if opt.required and getattr(args, opt.dest) is None:
                missing.append(key)
        if missing:
            self.error(name, "the following arguments are required: " + ", ".join(missing))
        if unknown:
            self.error(name, "unrecognized arguments: " + " ".join(unknown))
        return args

    def usage(self, name=None) -> str:
        spelled = _spelled(self.global_options)
        if name is None:
            return f"usage: logmono [-h] {spelled} COMMAND [-h] [options] problem\n"
        tail = _spelled(self.commands[name].options)
        return f"usage: logmono {spelled} {name} [-h] {tail + ' ' if tail else ''}problem\n"

    def format_help(self, name=None) -> str:
        helps = [("-h, --help", _HELP.help)]
        if name is not None:
            command = self.commands[name]
            rows = [("problem", "path to a problem file")]
            rows += [(_word(key, opt), opt.help) for key, opt in command.options.items()]
            return f"{self.usage(name)}\n{command.help}\n\narguments:\n{_rows(rows + helps)}"
        rows = [(_word(key, opt), opt.help) for key, opt in self.global_options.items()]
        return (
            f"{self.usage()}\n"
            "Log differential forms, log-Fitting ideals, and combinatorial\n"
            "principalization for morphisms of charted pairs.\n\n"
            f"commands:\n{_rows((n, c.help) for n, c in self.commands.items())}\n"
            f"options before the command:\n{_rows(helps + rows)}\n"
            "An option's value follows it (--k 2) or joins it with = (--k=2).\n"
            "-- ends a command's options; logmono COMMAND -h lists them.\n"
        )

    def error(self, name, message: str):
        """Print the usage line and the message to stderr; exit 2."""
        sys.stderr.write(f"{self.usage(name)}logmono: error: {message}\n")
        raise SystemExit(2)


# Built once per process: callers such as test suites and benchmarks run
# ``main`` many times in one interpreter.
@functools.cache
def build_parser() -> Parser:
    return Parser(COMMANDS, GLOBAL_OPTIONS)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(_load(args), args)
        out = report.render_json() if args.json else report.render_text()
    except (InputError, DepthLimitError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
