"""CLI output stays byte-identical: digests of every command on the
packaged theories, checked against committed goldens.

Each digest is the sha256 of one command's exit code, stdout and stderr.
The sweep runs every curated and paper theory through `classify`,
`rewrite` (plain and `--partition --json`), `chase` and `answer` (oblivious
and `--restricted`, at 300 atoms, so null ids pass 9 and 99) and
`fc-check` on each query.  It runs once in-process and once in a fresh
interpreter under another `PYTHONHASHSEED`, so output that depends on
set iteration order shows up as a mismatch.

Regenerate the goldens (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_outputs.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from shychase.cli import main
from shychase.parse import parse_program

GOLDEN = Path(__file__).parent / "data" / "cli_digests.json"


def _commands():
    """(name, argv) of every command of the sweep, in a fixed order."""
    suites = resources.files("shychase").joinpath("suites")
    for suite in ("curated", "paper"):
        for path in sorted(suites.joinpath(suite).iterdir(), key=lambda p: p.name):
            file = str(path)
            queries = len(parse_program(path.read_text()).queries)
            runs = [["classify", "--json"], ["rewrite"], ["rewrite", "--partition", "--json"]]
            for command in ("chase", "answer"):
                for mode in ([], ["--restricted"]):
                    runs.append([command, "--json", *mode, "--max-atoms", "300"])
            for q in range(1, queries + 1):
                runs.append(["fc-check", "--json", "--max-nulls", "2", "--max-atoms", "10",
                             "--query", str(q)])
            for argv in runs:
                yield f"{suite}/{path.name} {' '.join(argv)}", [argv[0], file, *argv[1:]]


def sweep() -> dict:
    """Digest of (exit code, stdout, stderr) for every command of the sweep."""
    digests = {}
    for name, argv in _commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = json.dumps([code, out.getvalue(), err.getvalue()])
        digests[name] = hashlib.sha256(record.encode()).hexdigest()
    return digests


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cli_outputs_match_the_goldens():
    golden = _golden()
    digests = sweep()
    assert len(digests) == 267
    assert list(digests) == list(golden)
    assert [name for name in golden if digests[name] != golden[name]] == []


def test_cli_outputs_match_the_goldens_under_another_hash_seed():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    digests = json.loads(proc.stdout)
    golden = _golden()
    assert list(digests) == list(golden)
    assert [name for name in golden if digests[name] != golden[name]] == []


if __name__ == "__main__":
    result = sweep()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(result, indent=1) + "\n")
    else:
        print(json.dumps(result))
