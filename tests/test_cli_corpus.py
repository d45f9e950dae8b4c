"""The committed ``tdq`` argv corpus: one argv per line of ``cli_corpus.txt``
and one digest per argv in ``cli_corpus.sha256``.

An argv's digest covers what it does through ``tdq.cli.main`` in process:
the exit code, stdout, stderr and the files it writes (names and bytes).
Each argv runs with a fresh scratch directory in place of ``{out}``, and
that directory is written back as ``{out}`` before hashing.  argparse wraps
usage and ``--help`` at the terminal width, so COLUMNS is pinned to 80.

A digest changes only in a change that lists the argv in CHANGES.md with
the reason.  To list the argv whose digest changed, or to rewrite the
digests once the changes are listed::

    PYTHONPATH=src python tests/test_cli_corpus.py
    PYTHONPATH=src python tests/test_cli_corpus.py --write
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from tdq import cli, verify

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.txt"
DIGESTS = HERE / "cli_corpus.sha256"


def corpus_lines():
    """The argv lines of the corpus; blank lines and ``#`` comments are skipped."""
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def digest(line):
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{out}", tmp) for arg in shlex.split(line)])
        parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            parts += [path.relative_to(tmp).as_posix().encode(), path.read_bytes()]
        h = hashlib.sha256()
        for part in parts:  # length-prefixed, so no two outputs hash the same bytes
            part = part.replace(tmp.encode(), b"{out}")
            h.update(b"%d:" % len(part) + part)
        return h.hexdigest()


def digests(lines):
    """{argv line: digest}, with argparse's wrap width pinned to 80 columns."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return {line: digest(line) for line in lines}
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


def committed():
    """{argv line: digest} as committed in cli_corpus.sha256."""
    pairs = (line.split("  ", 1) for line in DIGESTS.read_text(encoding="utf-8").splitlines())
    return {line: hexdigest for hexdigest, line in pairs}


def diff(want, got):
    """Lines naming each argv whose digest is new, changed or gone."""
    out = [f"{'new' if line not in want else 'changed'}: {line}" for line in got if want.get(line) != got[line]]
    return out + [f"gone: {line}" for line in want if line not in got]


def test_cli_corpus_digests():
    lines = corpus_lines()
    assert len(set(lines)) == len(lines), "an argv is listed twice in cli_corpus.txt"
    bad = diff(committed(), digests(lines))
    assert not bad, f"{len(bad)} argv changed output; list them with tests/test_cli_corpus.py:\n" + "\n".join(bad[:20])


def test_cli_corpus_covers_every_target():
    argvs = [shlex.split(line) for line in corpus_lines()]
    heads = {" ".join(argv[:2]) for argv in argvs} | {argv[0] for argv in argvs if argv}
    wanted = [f"eval {t}" for t in cli.EVALS] + [f"verify {t}" for t in [*verify.SWEEPS, "larcher"]]
    wanted += [f"curve {t}" for t in [*cli.CURVES, "fluctuation"]] + [f"odometer {t}" for t in cli.ODOMETER]
    missing = [w for w in [*wanted, "figures"] if w not in heads]
    sq = [" ".join(argv) for argv in argvs if argv[:2] == ["eval", "Sq"]]
    missing += [f"eval Sq --route {r}" for r in cli.SQ_ROUTES if not any(f"--route {r}" in a for a in sq)]
    assert not missing, f"no argv in cli_corpus.txt for: {missing}"


def main(argv):
    got = digests(corpus_lines())
    bad = diff(committed(), got)
    print("\n".join(bad) or f"all {len(got)} digests match")
    if "--write" in argv:
        DIGESTS.write_text("".join(f"{h}  {line}\n" for line, h in got.items()), encoding="utf-8", newline="\n")
        return 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
