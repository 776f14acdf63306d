"""Tests for the command-line surface: subcommand output fixtures, exit
codes, determinism, and regeneration of every golden file from its
checked-in argument file."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from f2alg.cli import eval_expr, main
from f2alg.dyer_lashof import render

ROOT = Path(__file__).resolve().parent.parent
REPRO = ROOT / "repro"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------- expressions

def test_eval_nested_adem():
    assert render(eval_expr("Q[2](s*Q[1](s))")) == "Q[1](s)^3 + s^2*Q[2,1](s)"


def test_eval_lower_indices_match_upper():
    # on sigma (degree 0) the lower and upper single indices agree
    assert eval_expr("q[2](s)") == eval_expr("Q[2](s)")
    # on Q[1](s) (degree 1) lower q[1] means Q^2
    assert eval_expr("q[1](Q[1](s))") == eval_expr("Q[2](Q[1](s))")


def test_eval_powers_and_sums():
    assert render(eval_expr("s^2*Q[2](s)+s^2*Q[2](s)")) == "0"
    assert eval_expr("(s+b)^2") == eval_expr("s^2+b^2")


def test_eval_rejects_garbage():
    with pytest.raises(ValueError):
        eval_expr("Q[2](s")
    with pytest.raises(ValueError):
        eval_expr("wibble")


# ---------------------------------------------------------------- subcommands

def test_adem_fixture():
    code, out = run(["adem", "Q[2](s*Q[1](s))"])
    assert code == 0 and out == "Q[1](s)^3 + s^2*Q[2,1](s)\n"


def test_families_includes_spec_rows():
    code, out = run(["families", "--max-i", "1"])
    assert code == 0
    lines = out.splitlines()
    assert "u\t0\t0\t2\t1\tz32\tnonzero" in lines
    assert "s\t1\t\t11\t7\ty128.z00\tnonzero" in lines
    assert all(line.endswith("nonzero") for line in lines[1:])


def test_families_out_of_window_marked():
    code, out = run(["families", "--max-i", "2", "--no-verify"])
    assert code == 0
    assert "unverified" in out and "nonzero" not in out


def test_grouphom_tsv():
    code, out = run(["grouphom", "UT(3,2)", "--dmax", "4"])
    assert code == 0
    dims = [int(line.split("\t")[2]) for line in out.splitlines()[1:6]]
    assert dims == [1, 2, 3, 4, 5]
    assert "# H_1 abelianization cross-check: ok" in out


def test_delta_json_roundtrip():
    code, out = run(["delta", "--cells", "x1.cells", "--bound", "3",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [["sb", 1], ["delta", 3]]
    assert doc["hopf"]["max_grading"] == 3


def test_cellss_notes_are_surfaced():
    code, out = run(["cellss"])
    assert code == 0
    assert "# enumerated but not charted at (12,8): b^2*Q[1](s)*Q[2,1](s)" in out
    assert "# survivors agree under both filtration readings: yes" in out


def test_json_format_is_canonical():
    code1, out1 = run(["wbasis", "--gens", "s", "--g", "4", "--d", "3",
                       "--format", "json"])
    code2, out2 = run(["wbasis", "--gens", "s", "--g", "4", "--d", "3",
                       "--format", "json"])
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "f2alg.basis/1"
    assert len(doc["rows"]) == 3


# ---------------------------------------------------------------- exit codes

def test_exit_invalid_input():
    assert run(["adem", "Q[oops](s)"])[0] == 2
    assert run(["cotor", "--algebra", "nope"])[0] == 2
    assert run(["nonsense-subcommand"])[0] == 2
    assert run(["wbasis", "--gens", "x"])[0] == 2
    assert run(["grouphom", "C0"])[0] == 2
    # invalid names that happen to contain the word "budget"
    assert run(["wbasis", "--gens", "budget"])[0] == 2
    assert run(["adem", "budget"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["adem", "s", "--format", "json"],
    ["nishida", "--a", "2", "Q[4](s)", "--format", "json"],
    ["delta", "--format", "tsv"],
])
def test_exit_unproduced_format(argv, capsys):
    assert run(argv) == (2, "")
    assert "invalid choice" in capsys.readouterr().err


def test_may_json_columns_match_tsv():
    argv = ["may", "--page", "2", "--gmax", "3", "--dmax", "2"]
    code1, tsv = run(argv)
    code2, out = run(argv + ["--format", "json"])
    assert code1 == code2 == 0
    doc = json.loads(out)
    header, *rows = tsv.splitlines()
    assert doc["columns"] == header.split("\t")
    assert [[str(c) for c in r] for r in doc["rows"]] == [r.split("\t") for r in rows]


def test_invalid_input_reports_one_error_line(capsys):
    for argv in (["wbasis", "--gens", "x"], ["grouphom", "C0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid input:")


@pytest.mark.parametrize("argv", [
    ["cotor", "--gmax", "-1"],
    ["families", "--max-i", "-3"],
    ["cone", "--dmax", "-2"],
    ["may", "--gmax", "-1"],
    ["wbasis", "--g", "-1"],
    ["grouphom", "C2", "--dmax", "-1"],
])
def test_exit_meaningless_window(argv, capsys):
    assert run(argv) == (2, "")
    assert "window bound must be >= 0" in capsys.readouterr().err


def test_grouphom_dmax_zero():
    code, out = run(["grouphom", "C2", "--dmax", "0"])
    assert code == 0
    assert out.splitlines()[1:] == ["C2\t0\t1", "# H_1 abelianization cross-check: ok"]


def test_exit_budget_exceeded():
    assert run(["grouphom", "C2000"])[0] == 3
    assert run(["cotor", "--gmax", "40"])[0] == 3


# ---------------------------------------------------------------- golden files

@pytest.mark.parametrize(
    "stem", sorted(p.stem for p in REPRO.glob("*.args"))
)
def test_golden_regenerates(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # cell-spec paths in configs are repo-relative
    golden = next(REPRO.glob(f"golden/{stem}.*"))
    out_path = tmp_path / golden.name
    code, _ = run([f"@repro/{stem}.args", "--output", str(out_path)])
    assert code == 0
    assert out_path.read_bytes() == golden.read_bytes()


def test_survivor_report_deterministic():
    assert run(["cellss"]) == run(["cellss"])
