"""Verification harness: file formats, suites, and the CLI surface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wpolab import oracles, suites
from wpolab.bounds import theta_plus
from wpolab.cardinals import KOrdinal
from wpolab.cli import main
from wpolab.io import export_poset, load_poset
from wpolab.ordinals import MAX_NUMERAL_DIGITS, ZERO, add
from wpolab.posets import PosetError, antichain, chain, make_poset
from wpolab.suites import SUITES, run_suite
from wpolab.terms import MAX_INLINE_FIN


# -- poset files -------------------------------------------------------------------


def test_json_round_trip():
    p = make_poset(4, [(0, 1), (1, 2)])
    assert load_poset(export_poset(p)) == p


def test_loader_applies_transitive_closure():
    p = load_poset('{"n": 3, "le": [[0, 1], [1, 2]]}')
    assert (0, 2) in p.le


def test_loader_rejects_cycles_with_a_witness():
    with pytest.raises(PosetError, match=r"cycle witness \[0, 1, 2, 0\]"):
        load_poset('{"n": 3, "le": [[0, 1], [1, 2], [2, 0]]}')
    with pytest.raises(PosetError, match="witness"):
        load_poset('{"n": 1, "le": [[0, 0]]}')


def test_loader_rejects_malformed_documents():
    for bad in ('[]', '{"n": 2}', '{"n": 2, "le": [[0, 5]]}', '{"n": -3, "le": []}',
                '{"n": 2.5, "le": []}', '{"n": 2, "le": [[0.5, 1]]}', '{"n": 2, "le": [3]}',
                '{"n": 2, "le": [[0, 1, 1]]}', '{"n": 2, "le": 7}'):
        with pytest.raises((PosetError, ValueError)):
            load_poset(bad)


def test_json_examples():
    assert json.loads(export_poset(chain(2))) == {"n": 2, "le": [[0, 1]]}
    dot = export_poset(antichain(2), "dot")
    assert "->" not in dot and "0;" in dot and "1;" in dot


def test_dot_uses_the_hasse_diagram():
    dot = export_poset(chain(3), "dot")
    assert "0 -> 1;" in dot and "1 -> 2;" in dot and "0 -> 2;" not in dot


# -- suites ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_a_small_budget(name):
    report = run_suite(name, 25, 7)
    assert report.passed, report.failures


def test_reports_are_deterministic():
    a = run_suite("ordinal_laws", 40, 99)
    b = run_suite("ordinal_laws", 40, 99)
    assert a.to_json() == b.to_json()
    assert json.loads(a.to_json())["passed"] is True
    c = run_suite("ordinal_laws", 40, 100)
    assert json.loads(c.to_json())["seed"] == 100
    assert c.to_json() == run_suite("ordinal_laws", 40, 100).to_json()


@pytest.mark.parametrize("name, target, wrong", [
    ("oracle_agreement", "nat_add", add),  # the ordinal sum, not commutative
    ("minoration_meets_theta", "theta_plus", lambda *a: theta_plus(*a).succ()),
    ("majoration_shadow", "theta_sharp", lambda *a, **kw: KOrdinal.of(ZERO)),
    ("finite_poset_oracle", "length_recursive", lambda p: p.n + 1),
], ids=["oracle_agreement", "minoration_meets_theta", "majoration_shadow",
        "finite_poset_oracle"])
def test_suites_catch_a_wrong_library_function(monkeypatch, name, target, wrong):
    # the criteria that run these suites rest on them failing here
    monkeypatch.setattr(suites, target, wrong)
    assert not run_suite(name, 25, 7).passed
    # and the oracles never reach the natural operations they check
    for op in ("nat_add", "nat_mul", "ul_nat_add"):
        assert not hasattr(oracles, op)


def test_zero_cases_is_a_vacuous_pass():
    report = run_suite("theta_laws", 0, 0)
    assert report.passed and report.cases == 0


@pytest.mark.parametrize("cases", range(1, 12))
def test_constructions_prefix_passes_on_short_runs(cases):
    # the mixing windows need 11 vertices whatever the case count
    report = run_suite("constructions_prefix", cases, 0)
    assert report.passed, report.failures


def test_unknown_suite_is_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", 10, 0)


# -- CLI ---------------------------------------------------------------------------


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out.strip() if capsys else None
    return code, out


def test_cli_ord_arithmetic(capsys):
    assert run_cli("ord", "nadd", "w^2+1", "w*3", capsys=capsys) == (0, "w^2+w*3+1")
    assert run_cli("ord", "nmul", "w+1", "w+1", capsys=capsys) == (0, "w^2+w*2+1")
    assert run_cli("ord", "mul", "w+1", "w", capsys=capsys) == (0, "w^2")
    assert run_cli("ord", "div", "w^2+w*3+5", "w", capsys=capsys) == (0, "w+3 5")
    assert run_cli("ord", "sub", "w", "w+4", capsys=capsys) == (0, "4")
    assert run_cli("ord", "hartog", "w^2", capsys=capsys) == (0, "W1*(1)+(0)")
    assert run_cli("ord", "cmp", "w", "W1*(1)+(0)", capsys=capsys) == (0, "<")
    assert run_cli("ord", "cmp", "w*2", "w*2", capsys=capsys) == (0, "=")


def test_cli_theta(capsys):
    assert run_cli("theta", "w*2+3", "w*2+4", capsys=capsys) == (0, "w*4+8")
    assert run_cli("theta", "w", "w", "w", capsys=capsys)[0] == 0


def test_cli_poset_commands(capsys, tmp_path):
    assert run_cli("poset", "len", "prod(ord(w+1), ord(w+1))",
                   capsys=capsys) == (0, "w^2+w*2+1")
    assert run_cli("poset", "badtree", "fin(chain3)", capsys=capsys) == (0, "3")
    code, out = run_cli("poset", "embeds", "fin(chain2)", "fin(chain3)", capsys=capsys)
    assert (code, out) == (0, "yes")
    code, out = run_cli("poset", "embeds", "fin(chain2)", "fin(antichain3)",
                        capsys=capsys)
    assert (code, out) == (1, "no")
    path = tmp_path / "c3.json"
    path.write_text('{"n": 3, "le": [[0, 1], [1, 2]]}')
    code, out = run_cli("poset", "intersect", "@%s" % path, "fin(antichain3)",
                        capsys=capsys)
    assert code == 0 and json.loads(out) == {"n": 3, "le": []}


def test_cli_construct_matches_frozen_prefix(capsys):
    code, out = run_cli("construct", "sierp", "w*2", "--prefix", "6", capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["le"] == [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 3], [1, 5],
                         [2, 3], [2, 4], [2, 5], [3, 5], [4, 5]]


def test_cli_construct_writes_files_and_dot(capsys, tmp_path):
    out_file = tmp_path / "m.dot"
    code, _ = run_cli("construct", "minoration", "w*2+3", "w*2+4",
                      "--prefix", "8", "--format", "dot",
                      "--out", str(out_file), capsys=capsys)
    assert code == 0 and out_file.read_text().startswith("digraph poset {")


def test_cli_verify_exit_codes(capsys):
    code, out = run_cli("verify", "--suite", "theta_laws", "--cases", "20",
                        "--seed", "3", capsys=capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    code, _ = run_cli("verify", "--suite", "theta_laws", "--cases", "20",
                      "--seed", "3", "--jobs", "4", capsys=capsys)
    assert code == 2  # there is no --jobs option


def test_cli_verify_timing_goes_to_stderr(capsys):
    argv = ["verify", "--suite", "theta_laws", "--cases", "20", "--seed", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timing"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    assert re.fullmatch(r"elapsed \d+\.\d{3} s\n", timed.err)


@pytest.mark.parametrize("argv", [
    ["ord", "add", "9" * 5000, "1"],
    ["ord", "add", "W%s*(1)+(0)" % ("9" * 5000), "1"],
    ["theta", "w*%s" % ("9" * (MAX_NUMERAL_DIGITS + 1)), "w"],
    # a product past the limit of Python's int-to-text conversion
    ["ord", "nmul", "9" * 3000, "9" * 3000],
    # digits other than 0-9 are not numerals
    ["ord", "add", "w^\u00b2", "1"],
    ["ord", "add", "W\u00b2*(1)+(0)", "1"],
])
def test_cli_long_numerals_fail_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wpolab: ") and captured.err.count("\n") == 1


def test_cli_usage_and_parse_errors(capsys):
    assert main(["ord", "frobnicate", "w", "w"]) == 2
    assert main(["ord", "nadd", "w^", "w"]) == 2
    assert main(["poset", "len", "fin(@/no/such/file)"]) == 2
    assert main(["nothing"]) == 2


def test_cli_unreadable_poset_files_fail_with_one_line(capsys, tmp_path):
    (tmp_path / "text").write_text("not json")
    (tmp_path / "binary").write_bytes(b"\xff\xfe")
    for name in ("text", "binary", "missing", "."):
        path = tmp_path / name
        for arg in ("@%s" % path, "fin(@%s)" % path):
            assert main(["poset", "len", arg]) == 2, arg
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("wpolab: ") and captured.err.count("\n") == 1


def test_cli_rejects_bad_counts(capsys):
    for argv in (["construct", "sierp", "w", "--prefix", "0"],
                 ["construct", "sierp", "w", "--prefix", "-3"],
                 ["verify", "--suite", "theta_laws", "--cases", "-1"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wpolab: ") and captured.err.count("\n") == 1


def test_cli_finite_decompinver_prefix_past_its_end_fails_fast():
    # all blocks finite: 5 vertices, so a 10-vertex prefix does not exist
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wpolab.cli", "construct", "decompinver", "5", "5",
         "--prefix", "10"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("wpolab: ") and done.stderr.count("\n") == 1
    assert "10" in done.stderr and "5" in done.stderr


def test_cli_inline_finite_poset_over_the_bound_fails_fast():
    # 16 characters that would ask for a 100000-vertex chain
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "wpolab.cli", "poset", "len", "fin(chain100000)"],
        capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("wpolab: ") and done.stderr.count("\n") == 1
    assert str(MAX_INLINE_FIN) in done.stderr


@pytest.mark.parametrize("argv", [
    ["ord", "add", "w^(" * 400 + "w" + ")" * 400, "1"],
    ["construct", "sierp", "w^(" * 400 + "w" + ")" * 400, "--prefix", "3"],
    ["theta", "W1*(1)+(" * 400 + "5" + ")" * 400, "w"],
    ["poset", "len", "dsum(" * 400 + "ord(1)" + ", ord(2))" * 400],
])
def test_cli_deep_nesting_fails_with_one_line(argv):
    # a 400-deep input would exceed the recursion limit; the grammars
    # stop at a fixed nesting depth instead
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "wpolab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("wpolab: ") and done.stderr.count("\n") == 1
    assert "nested deeper than" in done.stderr
