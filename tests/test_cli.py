"""CLI behavior: exit codes, JSON determinism, command output."""

import json

import pytest

from shychase import cli
from shychase.chase import OBLIVIOUS, ChaseConfig, entails
from shychase.cli import main
from shychase.parse import parse_program

FATHER = """
p(c1).
p(c2).
f(c1,c2).
p(X) -> exists Y. f(Y,X).
f(X,Y) -> p(X).
? p(X), f(X,c1).
"""


@pytest.fixture
def father_file(tmp_path):
    path = tmp_path / "father.dlp"
    path.write_text(FATHER)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_reports_fragments(father_file, capsys):
    code, out, _ = run(capsys, "classify", father_file)
    assert code == 0
    assert "shy: yes" in out
    assert "datalog: no" in out


def test_classify_json_is_deterministic(father_file, capsys):
    code, first, _ = run(capsys, "classify", father_file, "--json")
    assert code == 0
    code, second, _ = run(capsys, "classify", father_file, "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["shy"]["holds"] is True


def test_chase_respects_bounds(father_file, capsys):
    code, out, _ = run(capsys, "chase", father_file, "--max-atoms", "10",
                       "--max-rounds", "3")
    assert code == 0
    assert "terminated: False" in out
    assert "f(_:n1,c1)" in out


def test_answer_runs_one_chase_for_all_queries(tmp_path, capsys, monkeypatch):
    text = FATHER + "? f(c1,c1).\n"
    path = tmp_path / "two.dlp"
    path.write_text(text)
    calls = []
    real_chase = cli.run_chase

    def counting_chase(*args):
        calls.append(args)
        return real_chase(*args)

    monkeypatch.setattr(cli, "run_chase", counting_chase)
    code, out, _ = run(capsys, "answer", str(path), "--json", "--max-atoms", "10")
    assert code == 0
    assert len(calls) == 1
    program = parse_program(text)
    cfg = ChaseConfig(OBLIVIOUS, 10, 500)
    expected = [entails(program.database, program.ontology, q, cfg).verdict.value
                for q in program.queries]
    assert [item["verdict"] for item in json.loads(out)] == expected == ["true", "unknown"]


def test_answer_reports_verdicts(father_file, capsys):
    code, out, _ = run(capsys, "answer", father_file, "--restricted")
    assert code == 0
    assert "=> true" in out


def test_answer_without_queries_is_usage_error(tmp_path, capsys):
    path = tmp_path / "noq.dlp"
    path.write_text("p(c).\n")
    code, _, err = run(capsys, "answer", str(path))
    assert code == 2
    assert "no queries" in err


def test_rewrite_emits_canonical_rules(father_file, capsys):
    code, out, _ = run(capsys, "rewrite", father_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rules"]) == 13
    assert payload["database"]


def test_rewrite_partition_splits_rules(father_file, capsys):
    code, out, _ = run(capsys, "rewrite", father_file, "--partition")
    assert code == 0
    assert "# active" in out and "# harmless" in out


def test_fc_check_finds_countermodel(tmp_path, capsys):
    path = tmp_path / "toy.dlp"
    path.write_text("p(c). p(X) -> exists Y. f(Y,X). ? f(c,c).\n")
    code, out, _ = run(capsys, "fc-check", str(path), "--max-nulls", "2",
                       "--max-atoms", "6")
    assert code == 0
    assert "countermodel" in out
    code, _, err = run(capsys, "fc-check", str(path), "--query", "9")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("argv", [
    ("chase", "--max-atoms", "0"),
    ("answer", "--max-rounds", "0"),
    ("fc-check", "--max-nulls", "-1"),
    ("fc-check", "--max-atoms", "0"),
])
def test_rejected_bound_exits_2(father_file, capsys, argv):
    command, *flags = argv
    code, out, err = run(capsys, command, father_file, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.dlp"
    path.write_text("p(c")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/x.dlp")
    assert code == 2


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_0(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_harness_paper_suite_passes(capsys):
    code, out, _ = run(capsys, "harness", "--suite", "paper")
    assert code == 0
    assert out.count("[PASS]") == 3
