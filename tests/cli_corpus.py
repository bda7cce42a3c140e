"""The CLI's whole output over the test corpora, as one digest.

Each corpus morphism of ``helpers`` is rendered at the origin with
``ProblemFile.render`` and written to a problem file.  Every command of
``COMMANDS`` then runs on it through ``cli.main`` in process, in text and
with ``--json``.  ``run_commands`` hashes (call, exit code, stdout, stderr)
over all runs and counts the exit codes per subcommand, so a pinned digest
covers every byte those subcommands print.  A call names its problem by
the morphism's index in ``corpus_morphisms``, not by the file's path, so
the digest does not depend on where the files are written.

A command maps a morphism to the arguments that follow the global options
and precede the problem path; extend ``COMMANDS`` to pin another
subcommand, ``GROEBNER_COMMANDS`` for one that builds bases, or
``POINT_COMMANDS`` for one that reads the problem's ``point`` line.

``lradapted`` needs a filtration and a target ideal in the file, so
``write_lradapted_problems`` writes each morphism once per filtration of
its source divisor, with the ideal of its target divisor variables, and
``LRADAPTED_COMMANDS`` runs it off the origin (``--at``).
``OFF_ORIGIN_COMMANDS`` runs ``logrank``, ``rank`` and ``verify-monomial``
at that same point on the files of ``write_problems``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

from logmono.chart import MorphismOfPairs
from logmono.classify import DivisorFiltration
from logmono.cli import main
from logmono.frontend import ProblemFile
from logmono.ideal import IdealPresentation
from logmono.poly import Polynomial

from helpers import (
    empty_divisor_corpus,
    monomial_surface_corpus,
    normal_form_corpus,
    origin,
    pair_condition_corpus,
    rank_law_corpus,
)


def _first_two_source_variables(phi: MorphismOfPairs) -> list[str]:
    return ["blowup", "--center", ",".join(phi.source.variables[:2])]


def _top_form_degree(phi: MorphismOfPairs) -> list[str]:
    top = min(len(phi.source.variables), len(phi.target.variables))
    return ["fitting", "--k", str(top)]


COMMANDS = {
    "blowup": _first_two_source_variables,
    "principalize": lambda phi: ["principalize"],
    "monomialize": lambda phi: ["monomialize"],
}

# The subcommands whose output rests on Groebner bases, radical tests and
# eliminations (``ideal``): pinned by a digest of their own.
GROEBNER_COMMANDS = {
    "grk": lambda phi: ["grk"],
    "imagedim": lambda phi: ["imagedim"],
    "quasiprepared": lambda phi: ["quasiprepared"],
    "fitting --k 1": lambda phi: ["fitting", "--k", "1"],
    "fitting --k top": _top_form_degree,
}

# The subcommands that read the problem's point (the origin here): the
# classification report, the two ranks there and the monomiality check.
POINT_COMMANDS = {
    "classify": lambda phi: ["classify"],
    "logrank": lambda phi: ["logrank"],
    "rank": lambda phi: ["rank"],
    "verify-monomial": lambda phi: ["verify-monomial"],
}


def _off_origin(phi: MorphismOfPairs) -> str:
    """The point with first coordinate 1 and every other 0: off the
    origin, and off the divisor component of the first variable."""
    return ",".join(["1"] + ["0"] * (len(phi.source.variables) - 1))


# lradapted at that point.
LRADAPTED_COMMANDS = {
    "lradapted": lambda phi: ["lradapted", "--at", _off_origin(phi)],
}

# The two ranks and the monomiality check at the same point, given with
# --at, which overrides each file's point line (the origin).
OFF_ORIGIN_COMMANDS = {
    name: (lambda phi, name=name: [name, "--at", _off_origin(phi)])
    for name in ("logrank", "rank", "verify-monomial")
}

FORMATS = ([], ["--json"])


def corpus_morphisms() -> list[MorphismOfPairs]:
    """The 509 morphisms of the five corpora, in a fixed order."""
    phis = [phi for phi, _ in normal_form_corpus()]
    phis += empty_divisor_corpus() + monomial_surface_corpus()
    phis += pair_condition_corpus() + rank_law_corpus()
    return phis


def write_problems(phis, directory: Path) -> list[Path]:
    paths = []
    for i, phi in enumerate(phis):
        path = directory / f"{i}.problem"
        path.write_text(ProblemFile(phi, origin(phi.source)).render())
        paths.append(path)
    return paths


def _filtrations(phi: MorphismOfPairs) -> list[list[tuple[str, ...]]]:
    """Each source divisor variable alone, and for two or more the whole
    divisor in one level and over its first variable; one empty level
    for an empty divisor."""
    div = phi.source.divisor_vars
    if not div:
        return [[()]]
    levels = [[(v,)] for v in div]
    if len(div) > 1:
        levels += [[div], [div, div[:1]]]
    return levels


def write_lradapted_problems(phis, directory: Path):
    """(morphisms, paths): one problem file per morphism and filtration,
    at the origin, with the ideal of the target divisor variables (the
    zero ideal for an empty target divisor).  Each morphism is listed once
    per file it was written to."""
    listed, paths = [], []
    for phi in phis:
        tgt = phi.target.variables
        ideal = IdealPresentation(
            [Polynomial.variable(x, tgt) for x in phi.target.divisor_vars], tgt
        )
        for levels in _filtrations(phi):
            path = directory / f"{len(paths)}.problem"
            problem = ProblemFile(phi, origin(phi.source), DivisorFiltration(levels), ideal)
            path.write_text(problem.render())
            listed.append(phi)
            paths.append(path)
    return listed, paths


def run_commands(phis, paths, commands=COMMANDS):
    """(sha256 hex digest, {subcommand: Counter of exit codes}) over every
    command, format and problem, in that nesting order."""
    digest = hashlib.sha256()
    exits = {name: Counter() for name in commands}
    for name, argv_of in commands.items():
        for fmt in FORMATS:
            for i, (phi, path) in enumerate(zip(phis, paths)):
                argv = fmt + argv_of(phi)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv + [str(path)])
                call = " ".join(argv + [f"#{i}"])
                record = [call, code, out.getvalue(), err.getvalue()]
                digest.update(json.dumps(record).encode() + b"\n")
                exits[name][code] += 1
    return digest.hexdigest(), exits
