"""The exact output of ``verify`` and ``axet``: stdout, stderr, exit code
and the ``--report`` JSON, for every catalog emit, the F_7 and F_11
emits of 3C-skew, Q2 and Q2-skew, and the golden files, against the
recordings in tests/golden/cli/outputs.json.

``python tests/test_cli_pinned.py`` rewrites the recordings; run it only
when an output is meant to change."""

import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from axetlab import cli
from axetlab.algfile import emit_algebra_file
from axetlab.catalog import make_3C_skew, make_Q2_skew, make_Q2_third
from axetlab.fusion import make_jordan, make_monster
from axetlab.scalars import PrimeField

HERE = Path(__file__).resolve().parent
RECORDINGS = HERE / "golden" / "cli" / "outputs.json"
GOLDEN_FILES = HERE / "golden" / "files"


def _prime_emits(p):
    field = PrimeField(p)
    q2 = make_Q2_third(field)
    return {
        "3C-skew-F%d" % p: cli._pair(make_3C_skew(Fraction(1, 4), field)),
        "Q2-F%d" % p: cli._axes(
            q2, (("s1", "s2"), make_jordan(Fraction(1, 3))),
            (("d1", "d2"), make_monster(Fraction(2, 3), Fraction(1, 3)))),
        "Q2-skew-F%d" % p: cli._pair(make_Q2_skew(field)),
    }


def documents():
    """{case name: file text}."""
    docs = {}
    for name, build in cli.CATALOG.items():
        docs[name] = emit_algebra_file(*build(lambda: Fraction(1, 4)))
    for p in (7, 11):
        docs.update((name, emit_algebra_file(*built))
                    for name, built in _prime_emits(p).items())
    for path in sorted(GOLDEN_FILES.glob("*.alg")):
        docs[path.stem] = path.read_text()
    return docs


def run(command, name, text, workdir):
    """{stdout, stderr, code, report} of one command on the file
    name.alg, written in workdir and named relative to it."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        Path(name + ".alg").write_text(text)
        report = Path(name + "." + command + ".json")
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, name + ".alg", "--report", str(report)])
        return {"stdout": out.getvalue(), "stderr": err.getvalue(),
                "code": code,
                "report": report.read_text() if report.exists() else None}
    finally:
        os.chdir(cwd)


def record(workdir):
    return {name: {command: run(command, name, text, workdir)
                   for command in ("verify", "axet")}
            for name, text in documents().items()}


PINNED = json.loads(RECORDINGS.read_text()) if RECORDINGS.exists() else {}


def test_every_case_is_recorded():
    assert sorted(PINNED) == sorted(documents())


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("command", ["verify", "axet"])
def test_cli_output_is_pinned(tmp_path, name, command):
    text = documents()[name]
    assert run(command, name, text, tmp_path) == PINNED[name][command]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        RECORDINGS.parent.mkdir(exist_ok=True)
        RECORDINGS.write_text(json.dumps(record(tmp), indent=1,
                                         sort_keys=True) + "\n")
    sys.exit(0)
