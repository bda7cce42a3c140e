"""The argv scan of ``cli.Parser`` against an argparse parser built from
the same command table.

Every argv of a fixed enumeration is given to both.  Either both accept it
with equal fields, or both exit 2 (the scan with nothing on stdout), or
both print the help and exit 0.  The scan differs from argparse in three
ways, each asserted on its own below:

- it takes an option's value whatever the value starts with, where
  argparse refused ``--at -1,0``;
- it does not expand abbreviated options such as ``--max-d``;
- a ``--`` after everything else ends no options and is accepted, where
  argparse refused ``fitting f --k=2 --`` (it takes a ``--`` only into a
  positional or into a value given after a space).

For the first and third, argparse is given ``joined(argv)``: each such
value joined to its option by ``=`` and a final ``--`` dropped, spellings
in which argparse reads the line as the scan does.  No spelling gives
argparse the value ``--`` (it drops ``--`` from an option's value even
after ``=``), so the reference reads a stand-in for it.
"""

import argparse
import contextlib
import io
import itertools

import pytest

from logmono import cli

FIELDS = ("command", "problem", "json", "max_depth", "at", "k", "center")
DASHES = "-stand-in-for-dashes-"


class _Exit(Exception):
    def __init__(self, code):
        self.code = code


class _Reference(argparse.ArgumentParser):
    """argparse without its output: an error or the help ends the parse
    with its exit code."""

    def error(self, message):
        raise _Exit(2)

    def exit(self, status=0, message=None):
        raise _Exit(status)

    def print_help(self, file=None):
        pass


def reference_parser() -> argparse.ArgumentParser:
    """The parser cli.main used before the scan, built from cli's table."""

    def add_options(parser, options):
        for key, opt in options.items():
            if opt.type is None:
                parser.add_argument(key, dest=opt.dest, action="store_true")
            else:
                parser.add_argument(key, dest=opt.dest, type=opt.type, required=opt.required)

    parser = _Reference(prog="logmono")
    add_options(parser, cli.GLOBAL_OPTIONS)
    parser.set_defaults(max_depth=cli.Args.max_depth)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("problem")
        add_options(p, command.options)
    return parser


REFERENCE = reference_parser()


def by_reference(argv):
    try:
        ns = REFERENCE.parse_args(argv)
    except _Exit as e:
        return e.code
    return tuple(
        "--" if v == DASHES else v for v in (getattr(ns, f, None) for f in FIELDS)
    )


def by_scan(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = cli.build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code == 2:
            assert not out.getvalue(), argv
            assert err.getvalue().startswith("usage: logmono "), argv
            assert "logmono: error: " in err.getvalue(), argv
        else:
            assert e.code == 0 and out.getvalue().startswith("usage: logmono "), argv
            assert not err.getvalue(), argv
        return e.code
    assert not out.getvalue() and not err.getvalue(), argv
    return tuple(getattr(args, f) for f in FIELDS)


def _is_argument(tok: str) -> bool:
    """Whether argparse reads a token that is no option as an argument."""
    return (
        not tok.startswith("-")
        or tok in ("-", "--")
        or " " in tok
        or cli._NEGATIVE_NUMBER.match(tok) is not None
    )


def joined(argv: list[str]) -> list[str]:
    """argv spelled so that argparse reads it as the scan reads argv.
    Each value that starts with "-" is joined to its option by "=" (a
    value "--" replaced by ``DASHES``), where the option takes a value at
    its place: a global option before the subcommand, or one of the
    subcommand's before its "--".  A "--" that ends argv after the
    subcommand is dropped."""
    values = {k for k, o in cli.GLOBAL_OPTIONS.items() if o.type is not None}
    in_command = False
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if in_command and tok == "--":
            rest = [*tokens]
            return out + [tok, *rest] if rest else out
        if tok in values:
            value = next(tokens, None)
            if value is None:
                out.append(tok)
            elif value.startswith("-"):
                out.append(f"{tok}={DASHES if value == '--' else value}")
            else:
                out += [tok, value]
            continue
        out.append(tok)
        if not in_command and _is_argument(tok):
            command = cli.COMMANDS.get(tok)
            if command is None:
                return out + [*tokens]
            values = {k for k, o in command.options.items() if o.type is not None}
            in_command = True
    return out


# The alphabet: values of each type, two paths, "--", the help, --json,
# an unknown option and every option in both spellings.
VALUES = ["2", "x", "-1", "-1,0"]
PATHS = ["f", "g"]
GLOBALS = [
    [],
    ["--json"],
    ["--max-depth", "3"],
    ["--max-depth=-2"],
    ["--max-depth", "x"],
    ["--max-depth", "-1,0"],
    ["--max-depth"],
    ["--json", "--max-depth=5", "--json"],
    ["--max-depth", "3", "--max-depth=-2"],
    ["-h"],
    ["--help"],
    ["--bogus"],
    ["--json=1"],
]
SUBCOMMANDS = [*cli.COMMANDS, "bogus", "--"]
TAILS = [
    [], ["f"], ["f", "g"], ["-h"], ["--json", "f"], ["--", "f"],
    # Arguments that start with "-": a lone dash, and one with a space.
    ["-"], ["-a b"], ["-a b", "-h"],
    # A repeated option keeps its last value.
    ["--k", "2", "f", "--k=-1"],
    ["--at=-1,0", "f", "--at", "-1"],
    ["--center=u,v", "f", "--center", "v"],
]
COMMON = [*PATHS, "--", "-h", "--json", "--bogus", *VALUES]
TOKENS = [*COMMON, "--k", "--at", "--center", "--k=2", "--at=-1,0", "--center=u,v"]
# One subcommand of each option shape (required int, optional string,
# required string, none), with its options in both spellings and one
# option of another subcommand.
SHAPES = {
    "fitting": ["--k", "--k=2", "--at"],
    "rank": ["--at", "--at=-1,0", "--k"],
    "blowup": ["--center", "--center=u,v", "--k=2"],
    "classify": ["--at"],
}


def argvs():
    """Each global prefix before each subcommand (and before none) with a
    few tails; every subcommand with every tail of up to two tokens; and
    the four shapes with every tail of three of their tokens."""
    for head in GLOBALS:
        for name in [*SUBCOMMANDS, None]:
            for tail in TAILS:
                yield head + ([name] if name else []) + tail
    for name in SUBCOMMANDS:
        for n in (1, 2):
            for tail in itertools.product(TOKENS, repeat=n):
                yield [name, *tail]
    for name, options in SHAPES.items():
        for tail in itertools.product(COMMON + options, repeat=3):
            yield [name, *tail]


def test_scan_agrees_with_argparse():
    outcomes = {0: 0, 2: 0, "accepted": 0}
    rejoined = 0
    for argv in argvs():
        reference_argv = joined(argv)
        rejoined += reference_argv != argv
        got = by_scan(argv)
        assert got == by_reference(reference_argv), argv
        outcomes[got if got in (0, 2) else "accepted"] += 1
    # The enumeration reaches every outcome and the first difference.
    assert min(outcomes.values()) > 500 and rejoined > 1000, (outcomes, rejoined)


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (["rank", "--at", "-1,0", "f"], "at", "-1,0"),
        (["logrank", "f", "--at", "-x"], "at", "-x"),
        (["blowup", "--center", "--json", "f"], "center", "--json"),
        (["lradapted", "--at", "--", "f"], "at", "--"),
        (["verify-monomial", "--at", "-h", "f"], "at", "-h"),
    ],
)
def test_a_value_is_taken_whatever_it_starts_with(argv, field, value):
    assert by_reference(argv) == 2
    got = by_scan(argv)
    assert got[FIELDS.index(field)] == value
    assert got == by_reference(joined(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["fitting", "f", "--k=2", "--"],
        ["rank", "f", "--at=1", "--"],
        ["--json", "blowup", "f", "--center=u", "--"],
    ],
)
def test_a_final_dashes_ends_no_options(argv):
    assert by_reference(argv) == 2
    assert by_scan(argv) == by_scan(argv[:-1]) == by_reference(argv[:-1])


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--max-d", "3", "classify", "f"], "argument command: invalid choice: '3'"),
        (["--js", "classify", "f"], "unrecognized arguments: --js"),
        (["rank", "--a", "1", "f"], "unrecognized arguments: --a f"),
        (["fitting", "--k=1", "f", "--he"], "unrecognized arguments: --he"),
        (["blowup", "--cent=u", "f"], "the following arguments are required: --center"),
    ],
)
def test_abbreviations_are_unknown_options(capsys, argv, error):
    assert by_reference(argv) != 2
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.splitlines()[-1].startswith(f"logmono: error: {error}")
