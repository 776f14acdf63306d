"""Tests for the command-line surface: subcommand output fixtures, exit
codes, determinism, and regeneration of every golden file from its
checked-in argument file."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from f2alg import cellfilt, grouphom
from f2alg.cli import SUBCOMMANDS, _expand, build_parser, eval_expr, main
from f2alg.dyer_lashof import ZERO, free_basis, render

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


def test_zero_reads_as_zero_class():
    assert eval_expr("0") is ZERO
    assert run(["adem", "0"]) == (0, "0\n")


@pytest.mark.parametrize("expr", ["q[1](0)", "q[0](0)", "q[1](s+s)", "q[1,1](s*s)", "Q[1](0)"])
def test_tower_on_zero_class_is_zero(expr):
    # Q_s is linear, so a lower-indexed tower on 0 is 0, as an upper one
    # is; in q[1,1](s*s) the inner q[1](s^2) vanishes by Cartan
    assert run(["adem", expr]) == (0, "0\n")


def test_lower_tower_refuses_inhomogeneous_class():
    assert run(["adem", "q[1](s+b)"]) == (2, "")


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
    code, out = run(["families", "--max-i", "3"])
    assert code == 0
    lines = out.splitlines()
    assert "u\t0\t0\t2\t1\tz32\tnonzero" in lines
    assert "s\t1\t\t11\t7\ty128.z00\tnonzero" in lines
    assert "gamma\t3\t2\t43\t28\ty128^3*h11^2.z32\tnonzero" in lines
    assert len(lines) == 40 and all(line.endswith("\tnonzero") for line in lines[1:])


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


@pytest.mark.parametrize("group,name", [
    ("S3", "S3"), ("(0,1)", "(0,1)"), ("(0,1)\n(2,3)", "(0,1); (2,3)"),
    ("\n(0 1 2)\n\n  (0 1)\n", "(0 1 2); (0 1)"), ("(0 1)\t(2 3)", "(0 1) (2 3)"),
])
def test_grouphom_rows_are_as_wide_as_the_header(group, name):
    # a literal's lines are joined by "; " into one cell of the TSV
    code, out = run(["grouphom", group, "--dmax", "2"])
    assert code == 0
    header, *rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 3 and all(len(row) == len(header) for row in rows)
    assert {row[0] for row in rows} == {name}


def test_delta_json_roundtrip():
    code, out = run(["delta", "--cells", "x1.cells", "--bound", "3",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [["sb", 1], ["delta", 3]]
    assert doc["hopf"]["max_grading"] == 3


@pytest.mark.parametrize("bound, gens", [(0, []), (2, [["sb", 1]])])
def test_delta_lists_only_generators_within_the_bound(bound, gens):
    code, out = run(["delta", "--cells", "x1.cells", "--bound", str(bound)])
    assert code == 0
    assert json.loads(out)["generators"] == gens


def test_cellss_notes_are_surfaced():
    code, out = run(["cellss"])
    assert code == 0
    assert "# enumerated but not charted at (12,8): b^2*Q[1](s)*Q[2,1](s)" in out
    assert "# survivors agree under both filtration readings: yes" in out


def test_cellss_reports_a_disagreement(capsys):
    # at f = -7 chi2 has tag 1 under the rule (-8) and none under the
    # recorded -6, so the readings differ: an answer, not a fault
    code, out = run(["cellss", "--spots", "12,8,-7"])
    assert code == 0 and capsys.readouterr().err == ""
    assert "# survivors agree under both filtration readings: NO" in out
    assert "12\t8\t-7\t-1\ttau^1*b^2*Q[1](s)^2*Q[2](s)\tsurvives\t" in out.splitlines()


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
    # the stability relations need n1 and n2 among the generators
    assert run(["wbasis", "--gens", "s", "--quotient", "--gmax", "4"])[0] == 2
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


# the fewest arguments each subcommand parses with
REQUIRED = {"adem": ["s"], "nishida": ["--a", "1", "s"], "grouphom": ["GL(2,2)"]}


@pytest.mark.parametrize("argv", [[f"@repro/{p.name}"] for p in sorted(REPRO.glob("*.args"))]
                         + [[name, *REQUIRED.get(name, [])] for name in SUBCOMMANDS],
                         ids=" ".join)
def test_lean_parser_matches_full_parser(argv, monkeypatch):
    monkeypatch.chdir(ROOT)  # the argument files are repo-relative
    cmd = _expand(argv)[0]
    assert cmd in SUBCOMMANDS
    assert build_parser(cmd).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["cotor", "--bogus"], ["cotor", "cone"], ["cotor", "--gmax", "-1"], ["adem"],
    ["nishida", "-h"], ["delta", "--format", "tsv"], ["grouphom", "-h", "x"],
])
def test_lean_parser_prints_what_the_full_parser_prints(argv):
    def parse(ap):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as e:
            ap.parse_args(argv)
        return e.value.code, out.getvalue(), err.getvalue()

    assert parse(build_parser(argv[0])) == parse(build_parser())


def test_lean_parser_knows_only_its_subcommand():
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        build_parser("cotor").parse_args(["cone"])
    assert build_parser("cone").parse_args(["cone"]).cmd == "cone"


def test_first_arg_reads_nested_files(tmp_path):
    (tmp_path / "empty").write_text("")
    (tmp_path / "inner").write_text("cone\n--gmax\n3\n")
    (tmp_path / "outer").write_text(f"@{tmp_path / 'empty'}\n@{tmp_path / 'inner'}\n")
    assert _expand([f"@{tmp_path / 'outer'}", "--dmax", "2"]) == \
        ["cone", "--gmax", "3", "--dmax", "2"]
    assert _expand([f"@{tmp_path / 'empty'}", "cotor"]) == ["cotor"]
    # a file named twice, but not inside itself, is read twice
    assert _expand([f"@{tmp_path / 'inner'}"] * 2) == ["cone", "--gmax", "3"] * 2
    with pytest.raises(OSError):
        _expand([f"@{tmp_path / 'missing'}", "cotor"])
    assert _expand([]) == []
    assert main([f"@{tmp_path / 'outer'}", "--dmax", "2"]) == 0
    # argparse names the file it cannot read
    with redirect_stderr(io.StringIO()) as err:
        assert main(["cotor", f"@{tmp_path / 'missing'}"]) == 2
    assert "No such file" in err.getvalue()


@pytest.mark.parametrize("files", [
    {"selfref.args": "@selfref.args"},
    {"selfref.args": "grouphom\n@selfref.args"},
    {"a.args": "@b.args", "b.args": "cotor\n@c.args", "c.args": "@./a.args"},
], ids=["itself", "after-a-subcommand", "through-a-chain"])
def test_self_referencing_argument_file_exits_2(tmp_path, monkeypatch, capsys, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    assert main([f"@{next(iter(files))}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid input:") and captured.err.count("\n") == 1


def test_may_json_columns_match_tsv():
    argv = ["may", "--page", "2", "--gmax", "3", "--dmax", "2"]
    code1, tsv = run(argv)
    code2, out = run(argv + ["--format", "json"])
    assert code1 == code2 == 0
    doc = json.loads(out)
    header, *rows = tsv.splitlines()
    assert doc["columns"] == header.split("\t")
    assert [[str(c) for c in r] for r in doc["rows"]] == [r.split("\t") for r in rows]


def test_invalid_input_reports_one_error_line(capsys, tmp_path):
    # the second relation quotients by a generator the first one removed
    cells = tmp_path / "twice.cells"
    cells.write_text("gen s (1,0)\nrel r1 (1,0) attach=s\nrel r2 (1,0) attach=s\n")
    for argv in (["wbasis", "--gens", "x"], ["grouphom", "C0"],
                 ["delta", "--cells", str(cells)]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid input:")


@pytest.mark.parametrize("spots", ["", "1", "1,2,x"])
def test_bad_spots_error_names_the_option(spots, capsys):
    assert run(["cellss", "--spots", spots]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "--spots" in err[0] and repr(spots) in err[0]


def test_grouphom_empty_name_is_not_a_path(capsys):
    # "" is the path "." (a directory), so it must be read as a group name
    assert run(["grouphom", ""]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid input: unknown built-in group ''"]


@pytest.mark.parametrize("argv", [
    ["delta", "--cells", ""],
    ["delta", "--cells", "."],
    ["delta", "--cells", "src"],
    ["delta", "--cells", "nosuch"],
    ["cellss", "--decls", ""],
    ["cellss", "--decls", "."],
    ["cellss", "--decls", "nosuch"],
])
def test_file_arguments_that_are_not_files(argv, capsys, monkeypatch):
    # "" and "." are the current directory and "src" a directory of the
    # repository root; none is a file, so none may be opened
    monkeypatch.chdir(ROOT)
    assert run(argv) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "Errno" not in err[0] and repr(argv[2]) in err[0]
    if argv[0] == "cellss":
        assert "--decls" in err[0]


def test_cone_needs_room_for_its_cycle(capsys):
    assert run(["may", "--cone", "--gmax", "0"]) == (2, "")
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid input: --cone needs --gmax >= 1"]


def test_wbasis_refuses_a_repeated_generator(capsys):
    # s,s would list s^2 once per split between the two copies of s
    assert run(["wbasis", "--gens", "s,s", "--g", "2", "--d", "0"]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--gens" in err[0]


@pytest.mark.parametrize("argv", [
    ["cotor", "--gmax", "-1"],
    ["families", "--max-i", "-3"],
    ["cone", "--dmax", "-2"],
    ["may", "--gmax", "-1"],
    ["wbasis", "--g", "-1"],
    ["grouphom", "C2", "--dmax", "-1"],
    ["delta", "--bound", "-1"],
])
def test_exit_meaningless_window(argv, capsys):
    assert run(argv) == (2, "")
    assert "window bound must be >= 0" in capsys.readouterr().err


def test_grouphom_dmax_zero():
    code, out = run(["grouphom", "C2", "--dmax", "0"])
    assert code == 0
    assert out.splitlines()[1:] == ["C2\t0\t1", "# H_1 abelianization cross-check: ok"]


def test_grouphom_dmax_at_degree_budget():
    code, out = run(["grouphom", "C2", "--dmax", "6"])
    assert code == 0
    assert out.splitlines()[1:-1] == [f"C2\t{d}\t1" for d in range(7)]


def test_grouphom_resolves_only_to_dmax(monkeypatch):
    # H_dmax is read off ker d_dmax, so F_{dmax+1} is never built; the
    # Sylow subgroup and each intersection it is compared on are resolved
    # through max(dmax, 1), the degree of the H_1 cross-check
    seen = []
    resolve = grouphom.resolve

    def spy(g, d):
        seen.append(d)
        return resolve(g, d)

    monkeypatch.setattr(grouphom, "resolve", spy)
    for name in ("S3", "GL(3,2)"):
        for dmax in (3, 0):
            seen.clear()
            assert run(["grouphom", name, "--dmax", str(dmax)])[0] == 0
            assert seen and set(seen) == {max(dmax, 1)}, (name, dmax)


def test_grouphom_s6_through_sylow():
    # the direct resolution of S6 (order 720) through H_3 takes about 75 s
    start = time.perf_counter()
    code, out = run(["grouphom", "S6", "--dmax", "3"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert [int(line.split("\t")[2]) for line in out.splitlines()[1:5]] == [1, 1, 2, 4]


def test_grouphom_large_point_label():
    # the points named set the degree, so a label of 10^9 costs nothing
    start = time.perf_counter()
    code, out = run(["grouphom", "(0,1000000000)", "--dmax", "3"])
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert [int(line.split("\t")[2]) for line in out.splitlines()[1:5]] == [1, 1, 1, 1]


def test_grouphom_gl3_through_h6():
    code, out = run(["grouphom", "GL(3,2)", "--dmax", "6"])
    assert code == 0
    assert tuple(int(line.split("\t")[2]) for line in out.splitlines()[1:8]) == \
        (1, 0, 1, 2, 1, 2, 3)


@pytest.mark.parametrize("text", ["()", "(0)"])
def test_grouphom_on_no_point_and_one_point(text):
    # the trivial group on 0 and on 1 point: each product is the identity
    code, out = run(["grouphom", text, "--dmax", "2"])
    assert code == 0
    lines = out.splitlines()
    assert [line.split("\t")[1:] for line in lines[1:4]] == [["0", "1"], ["1", "0"], ["2", "0"]]
    assert lines[4:] == ["# H_1 abelianization cross-check: ok"]


def test_grouphom_refuses_parsed_group_over_budget(tmp_path):
    # S7 (order 5040) from a generator file: no closed form, so the walk
    # over its elements refuses it
    path = tmp_path / "s7.perm"
    path.write_text("(0 1)\n(0 1 2 3 4 5 6)\n")
    assert run(["grouphom", str(path)])[0] == 3


def test_exit_budget_exceeded():
    assert run(["grouphom", "C2000"])[0] == 3
    assert run(["grouphom", "C2", "--dmax", "7"])[0] == 3
    assert run(["cotor", "--gmax", "40"])[0] == 3
    assert run(["cotor", "--algebra", "cgl", "--gmax", "6"])[0] == 3  # its truncation is 5
    for argv in (["cellss", "--spots", "99,60,0"], ["cellss", "--spots", "12,8,-4;60,40,0"],
                 ["cellss", "--spots", "12,21,0"], ["delta", "--bound", "41"],
                 ["delta", "--bound", "45"],
                 ["may", "--gmax", "19"], ["wbasis", "--gens", "s,b", "--g", "20", "--d", "20"],
                 ["wbasis", "--gens", "s,b", "--g", "30", "--d", "30"],
                 ["wbasis", "--gens", "s,b", "--g", "1", "--d", "19"],
                 ["wbasis", "--gens", "s,b,n1,n2", "--quotient", "--gmax", "24", "--dmax", "12"],
                 ["wbasis", "--gens", "s,b,n1,n2", "--quotient", "--gmax", "14", "--dmax", "15"],
                 ["nishida", "--a", "100000", "Q[1](s)"], ["nishida", "--a", "1001", "Q[1](s)"],
                 ["nishida", "--a", "400", "Q[1000](s)*Q[1001](s)*Q[1002](s)"],
                 ["families", "--max-i", "1000000", "--no-verify"],
                 ["families", "--max-i", "1001"],
                 ["adem", "s^501"], ["adem", "s^20000"], ["adem", "s^250*s^251"],
                 ["adem", "0^99999999"],
                 ["nishida", "--a", "1000", "Q[1](s)^501"]):
        assert run(argv)[0] == 3, argv


@pytest.mark.parametrize("argv", [
    ["nishida", "--a", "1000", "Q[1](s)"],
    # Sq^a_* annihilates a bare generator, so no split of a > 0 is counted
    ["nishida", "--a", "12", "n1^8"],
    ["nishida", "--a", "20", "n1^10"],
    ["families", "--max-i", "1000", "--no-verify"],
    ["delta", "--bound", "40"],
    # a monomial of the class syntax has at most 500 factors
    ["adem", "s^500"],
    ["nishida", "--a", "1000", "Q[1](s)^500"],
])
def test_ceiling_admits_its_bound(argv):
    assert run(argv)[0] == 0


def test_nishida_skips_splits_the_rest_cannot_take():
    # Sq^36_* on Q[2](s)^18: the Cartan sum tries only the splits whose
    # remaining factors can absorb the rest of the degree
    assert run(["nishida", "--a", "36", "Q[2](s)^18"]) == (0, "0\n")


def test_cellss_enumerates_each_spot_once(monkeypatch):
    calls = []

    def counted(gens, g, d):
        calls.append((g, d))
        return free_basis(gens, g, d)

    monkeypatch.setattr(cellfilt, "free_basis", counted)
    assert run(["cellss"])[0] == 0
    # the two default spots; the reconciliation reuses the (12, 8) spot's
    assert sorted(calls) == [(12, 8), (13, 8)]
    calls.clear()
    # without a (12, 8) spot the reconciliation enumerates it once itself
    assert run(["cellss", "--spots", "13,8,-5"])[0] == 0
    assert sorted(calls) == [(12, 8), (13, 8)]


def _joined(tokens, max_size):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


_window = st.integers(-1, 4).map(str)
_format = st.sampled_from([[], [], ["--format", "json"], ["--format", "x"]])
_ops = ["Q[1]", "Q[3]", "q[2]", "Q[2,1]"]
_class = st.recursive(st.sampled_from(["s", "b", "n1", "0"]), lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("*+"), inner).map("".join),
    st.tuples(st.sampled_from(_ops), inner).map(lambda t: f"{t[0]}({t[1]})"),
    inner.map(lambda e: f"({e})^2"),
), max_leaves=3)
_expr = st.one_of(_class, _joined(["s", "b", "n1", "0", "1", "x", *_ops,
                                   "(", ")", "*", "+", "^2", "^", " "], 8))
_group = st.one_of(
    st.sampled_from(["C2", "S3", "D8", "UT(3,2)", "GL(2,2)", "C0", "S0", "E8", "C2000"]),
    _joined(["(", ")", "0", "1", "2", "3", " ", ",", "a", "\n"], 12),
    st.lists(st.lists(st.integers(0, 3).map(str), max_size=3).map(lambda c: f"({' '.join(c)})"),
             min_size=1, max_size=3).map("".join),
)
_spot = st.tuples(_window, _window, st.integers(-5, 1).map(str)).map(",".join)
_spots = st.one_of(st.lists(_spot, min_size=1, max_size=2).map(";".join),
                   _joined(["1", ",", ";", "-", "x"], 6))


def _argv_of(*parts):
    """argv drawn part by part (one token or a list of tokens), then a format."""
    return st.tuples(*parts, _format).map(
        lambda t: [a for p in t for a in ([p] if isinstance(p, str) else p)])


_argv = st.one_of(
    _argv_of(st.just("adem"), _expr),
    _argv_of(st.just(["nishida", "--a"]), st.integers(-1, 3).map(str), _expr),
    _argv_of(st.just("grouphom"), _group, st.just("--dmax"), _window),
    _argv_of(st.just(["wbasis", "--gens"]), st.sampled_from(["s", "b", "n1", "s,b", "s,s", "x", ""]),
             st.sampled_from([["--g"], ["--d"], ["--quotient", "--gmax"], ["--quotient", "--dmax"]]),
             _window),
    _argv_of(st.just(["cellss", "--spots"]), _spots),
    _argv_of(st.just(["cotor", "--algebra"]), st.sampled_from(["a1", "cgl", "x"]),
             st.just("--gmax"), _window, st.just("--dmax"), _window),
    _argv_of(st.just(["cone", "--gmax"]), _window, st.just("--dmax"), _window),
    _argv_of(st.just(["may", "--page"]), _window, st.just("--gmax"), _window,
             st.just("--dmax"), _window, st.sampled_from([[], ["--cone"]])),
    _argv_of(st.just(["families", "--max-i"]), _window, st.sampled_from([[], ["--no-verify"]])),
    _argv_of(st.just(["delta", "--cells"]), st.sampled_from(["cgl.cells", "x1.cells", "y1", ""]),
             st.just("--bound"), _window),
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_argv)
@example(["grouphom", "(0 1)(0 2)"])
@example(["grouphom", "(0 1)(1 2 2)"])
@example(["grouphom", "(a b)"])
@example(["grouphom", "(0 1)(2"])
@example(["delta", "--bound", "-1"])
@example(["cellss", "--spots", "99,60,0"])
@example(["cellss", "--spots", "60,40,0"])
@example(["delta", "--bound", "45"])
@example(["cotor", "--algebra", "cgl", "--gmax", "6"])
@example(["may", "--gmax", "20"])
def test_argv_fuzz_keeps_exit_contract(argv):
    """Every argv exits 0, 2 or 3 without a traceback; a failure prints
    exactly one error line."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, lines)
    assert not any("Traceback" in ln for ln in lines)
    if code:
        assert sum("error:" in ln for ln in lines) == 1, (argv, lines)


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


# goldens whose rows come out of sets and frozensets of symbolic terms
SET_BUILT = ("adem", "nishida", "cellss", "delta_cgl", "wbasis_quotient", "grouphom_gl2")


@pytest.mark.parametrize("seed", ["1", "12345"])
def test_set_built_goldens_ignore_hash_seed(seed, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys; from f2alg.cli import main; out, *stems = sys.argv[1:]; "
            "sys.exit(max([main([f'@repro/{s}.args', '--output', f'{out}/{s}']) for s in stems]))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), *SET_BUILT], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for stem in SET_BUILT:
        golden = next(REPRO.glob(f"golden/{stem}.*"))
        assert (tmp_path / stem).read_bytes() == golden.read_bytes(), stem


def test_survivor_report_deterministic():
    assert run(["cellss"]) == run(["cellss"])
