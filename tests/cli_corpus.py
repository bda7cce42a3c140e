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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

from logmono.chart import MorphismOfPairs
from logmono.cli import main
from logmono.frontend import ProblemFile

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
