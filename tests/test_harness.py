"""Verification harness: file formats, suites, and the CLI surface."""

import ast
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wpolab
from wpolab import cli, oracles, ordinals, posets, suites, terms
from wpolab.bounds import theta_plus
from wpolab.cardinals import KOrdinal
from wpolab.cli import MAX_BADTREE_VERTICES, build_parser, main
from wpolab.io import MAX_VERTICES, export_poset, load_poset
from wpolab.oracles import normal_form, random_countable_infinite, random_ordinal
from wpolab.ordinals import MAX_NUMERAL_DIGITS, ZERO, add, mul, nat_add
from wpolab.posets import PosetError, antichain, chain, make_poset
from wpolab.suites import SUITES, run_suite
from wpolab.terms import denote_prefix, parse_term

import cases


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


def test_loader_bounds_the_vertex_count_before_building():
    assert load_poset('{"n": %d, "le": []}' % MAX_VERTICES) == antichain(MAX_VERTICES)
    with pytest.raises(PosetError) as info:
        load_poset('{"n": %d, "le": []}' % 10**10)
    assert str(info.value) == "a poset file takes at most %d vertices; got %d" % (
        MAX_VERTICES, 10**10)


def test_json_examples():
    assert json.loads(export_poset(chain(2))) == {"n": 2, "le": [[0, 1]]}
    dot = export_poset(antichain(2), "dot")
    assert "->" not in dot and "0;" in dot and "1;" in dot


def test_dot_uses_the_hasse_diagram():
    dot = export_poset(chain(3), "dot")
    assert "0 -> 1;" in dot and "1 -> 2;" in dot and "0 -> 2;" not in dot


# -- suites ------------------------------------------------------------------------


# the theta_sharp and theta_tilde suites, the prefix audits and the two
# suites that check the CNF arithmetic on generated cases also run at 40
# cases and the CLI's default seed
WIDER_BUDGET = {"constructions_prefix", "majoration_shadow", "oracle_agreement",
                "ordinal_laws", "reduction_identities"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_a_small_budget(name):
    for cases, seed in [(25, 7)] + [(40, 0)] * (name in WIDER_BUDGET):
        report = run_suite(name, cases, seed)
        assert report.passed, (cases, seed, report.failures)


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
    ("ordinal_laws", "nat_mul", mul),  # the ordinal product, not commutative
    ("theta_laws", "theta_plus", lambda *a: theta_plus(*a).succ()),
    ("reduction_identities", "theta_tilde", theta_plus),
    ("ordinal_laws", "ul_nat_add", nat_add),  # w^c (+) w^c is w^c*2, not w^c
], ids=["oracle_agreement", "minoration_meets_theta", "majoration_shadow",
        "finite_poset_oracle", "ordinal_laws", "theta_laws",
        "reduction_identities", "ordinal_laws_ul_nat_add"])
def test_suites_catch_a_wrong_library_function(monkeypatch, name, target, wrong):
    # the criteria that run these suites rest on them failing here
    monkeypatch.setattr(suites, target, wrong)
    assert not run_suite(name, 25, 7).passed
    # and the oracles never reach the natural operations they check
    for op in ("nat_add", "nat_mul", "ul_nat_add"):
        assert not hasattr(oracles, op)


def test_ordinal_laws_reports_a_wrong_nat_mul_byte_for_byte(monkeypatch):
    # ordinal_laws formats a label only when its check fails; the report,
    # its first failure included, is the one the eager labels gave
    monkeypatch.setattr(suites, "nat_mul", mul)
    report = run_suite("ordinal_laws", 25, 7)
    failures = report.failures
    assert failures[0] == (
        'distrib w^(w^(w^10*7+w^8*6)*2+w^(w^3*15)*3+4)+w^(w^(w^9*6+w^6*2)*9'
        '+w^(w^6*8+w^2*3+8)+w^(w^5*5)*3+w^5*4+9)*3+w*7,w^(w^(w^9*8+w^7*7+2)'
        '*2+w^(w^6*6)*2+w^(w^2*2+6)*9+9)*7+w^(w^(w^9*4+w^8*8+w^6*6+w^4*7)*3'
        '+w^(w^8+w^5*2)*7+w^2*4+1)+3,1',
        'w^(w^(w^10*7+w^8*6)*2+w^(w^9*8+w^7*7+2)*2+w^(w^6*6)*2+w^(w^2*2+6)*'
        '9+9)*7+w^(w^(w^10*7+w^8*6)*2+w^(w^9*4+w^8*8+w^6*6+w^4*7)*3+w^(w^8+'
        'w^5*2)*7+w^2*4+1)+w^(w^(w^10*7+w^8*6)*2+w^(w^3*15)*3+4)*4+w^(w^(w^'
        '9*6+w^6*2)*9+w^(w^6*8+w^2*3+8)+w^(w^5*5)*3+w^5*4+9)*6+w*14',
        'w^(w^(w^10*7+w^8*6)*2+w^(w^9*8+w^7*7+2)*2+w^(w^6*6)*2+w^(w^2*2+6)*'
        '9+9)*7+w^(w^(w^10*7+w^8*6)*2+w^(w^9*4+w^8*8+w^6*6+w^4*7)*3+w^(w^8+'
        'w^5*2)*7+w^2*4+1)+w^(w^(w^10*7+w^8*6)*2+w^(w^3*15)*3+4)*4+w^(w^(w^'
        '9*6+w^6*2)*9+w^(w^6*8+w^2*3+8)+w^(w^5*5)*3+w^5*4+9)*3+w*7')
    assert len(failures) == 31
    assert hashlib.md5(report.to_json().encode()).hexdigest() == "9d666ea7978b9d74a4b92b947432573b"


# md5 of the str() of the draws for random.Random(s), s in 0..1999, joined
# by newlines: the suites' cases, and so their reports, stay those of the
# generator that drew them through the library's own arithmetic
DRAW_DIGESTS = {
    "random_ordinal": "b9454d47dea5605b1260b56be138ad99",
    "random_ordinal(depth=2)": "b532cff7eba1ed56d68e9ee34d28e909",
    "random_countable_infinite": "abd85fd1ba93339b1491fe3ff2c75d9e",
}
GENERATORS = {
    "random_ordinal": random_ordinal,
    "random_ordinal(depth=2)": lambda rng: random_ordinal(rng, depth=2),
    "random_countable_infinite": random_countable_infinite,
}


def _draw_digests():
    return {name: hashlib.md5("\n".join(str(gen(random.Random(s))) for s in range(2000))
                              .encode()).hexdigest()
            for name, gen in GENERATORS.items()}


def test_generators_make_the_pinned_draws():
    assert _draw_digests() == DRAW_DIGESTS


@pytest.mark.parametrize("n", [4, 6, 9, 10])
def test_below_draws_what_randrange_draws(n):
    for s in range(50):
        mine, theirs = random.Random(s), random.Random(s)
        assert ([oracles._below(mine.getrandbits, n) for _ in range(20)]
                == [theirs.randrange(n) for _ in range(20)])


@pytest.mark.parametrize("off", [-1, 1])
def test_a_bit_width_one_off_changes_the_draws(monkeypatch, off):
    def below(bits, n):
        k = n.bit_length() + off
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def stream(draw, s):
        rng = random.Random(s)
        return [draw(rng) for _ in range(20)]

    for n in (4, 6, 9, 10):  # the stream check sees it
        assert any(stream(lambda rng: below(rng.getrandbits, n), s)
                   != stream(lambda rng: rng.randrange(n), s) for s in range(50))
    monkeypatch.setattr(oracles, "_below", below)
    got = _draw_digests()
    assert all(got[name] != DRAW_DIGESTS[name] for name in DRAW_DIGESTS)


def test_normal_form_sums_equal_exponents_in_any_order():
    w = ordinals.OMEGA
    assert normal_form([(ZERO, 2), (w, 1), (ZERO, 3), (w, 4)]) is ordinals.parse_ordinal("w^w*5+5")
    assert normal_form([]) is ZERO
    with pytest.raises(ordinals.OrdinalError):
        normal_form([(w, 0)])


def test_a_wrong_merge_changes_the_results_but_not_the_cases(monkeypatch):
    merge = ordinals._merge

    def keep_first(xs, ys):
        # an equal exponent keeps xs's coefficient instead of the sum
        exps = {e for e, _ in xs}
        return merge(xs, tuple(t for t in ys if t[0] not in exps))

    monkeypatch.setattr(ordinals, "_merge", keep_first)
    assert _draw_digests() == DRAW_DIGESTS
    assert not run_suite("ordinal_laws", 25, 7).passed
    assert not run_suite("oracle_agreement", 25, 7).passed


def test_generators_run_no_arithmetic():
    # the suites' generators and every generator and strategy of cases.py;
    # the finite orders, built from cases.reach, run no closure either
    watched = {f.__code__: f.__name__ for f in (
        ordinals.add, ordinals.mul, ordinals.nat_add, ordinals.nat_mul, ordinals.omega_pow,
        ordinals.fund_seq, ordinals.left_subtract, ordinals._merge, ordinals._add,
        posets._close, posets.make_poset, posets.poset_of_matrix)}
    gens = list(GENERATORS.values())
    bounds = [b for b in (random_ordinal(random.Random(s)) for s in range(300)) if not b.is_zero]
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            entered.add(watched[frame.f_code])

    @given(cases.ordinals(), cases.ORDINALS, cases.K_ORDINALS, cases.kordinals(),
           cases.shallow_ordinals(), cases.posets(8))
    @settings(max_examples=100, database=None)
    def draw_strategies(a, b, c, d, e, f):
        pass

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        for s in range(2000):
            gens[s % 3](random.Random(s))
        for s, b in enumerate(bounds):
            rng = random.Random(s)
            cases.random_below(rng, b)
            cases.random_kordinal(rng, max_level=s % 10)
            cases.random_small_ordinal(rng)
            cases.random_infinite(rng)
            cases.tower(b, rng, s % 8 + 1)
            cases.random_blocks(rng)
            cases.random_common_chunk(rng)
            cases.ordinal_sum(b, bounds[s - 1])
            m = cases.relation(s % 12 + 1, cases.random_dag(rng, s % 12 + 1, rng.random()))
            cases.closed_poset(m)
            cases.cycle_steps(m | m.T, 0)
        draw_strategies()
    finally:
        sys.setprofile(old)
    assert not entered


def _top_level_names(tree) -> set:
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_no_test_module_imports_another():
    # shared generators live in tests/cases.py, not in a test module, and
    # no test module defines a copy of one of its names
    here = Path(__file__).parent
    shared = _top_level_names(ast.parse((here / "cases.py").read_text()))
    found = []
    for path in sorted(here.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s defines %s" % (path.name, n) for n in _top_level_names(tree) & shared]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, n) for n in names
                      if n.split(".")[0].startswith("test_")]
    assert not found


def test_finite_poset_oracle_reports_a_wrong_batch_order(monkeypatch):
    # Fin leaves that write no order keep every length, so only the
    # comparison with the pairwise order can catch them; the budget reaches
    # the pairs of a point with the 2-chain
    cases = 243 + 30
    assert run_suite("finite_poset_oracle", cases, 0).passed
    monkeypatch.setattr(terms, "_leaf_rows", lambda p, vs, bits: [0] * len(vs))
    failures = run_suite("finite_poset_oracle", cases, 0).failures
    assert failures and all(label.endswith(" lt_rows") for label, _, _ in failures)
    assert any(label.startswith("dsum ") for label, _, _ in failures)
    assert any(label.startswith("prod ") for label, _, _ in failures)


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


def one_error_line(out: str, err: str) -> bool:
    """A refused command: nothing on stdout, one `wpolab:` line on stderr."""
    return out == "" and err.startswith("wpolab: ") and err.count("\n") == 1


SRC = Path(__file__).resolve().parents[1] / "src"
CLI = ("-m", "wpolab.cli")


def spawn(*args, timeout=60):
    """`python ARGS` in a fresh process with src/ on its module path;
    `spawn(*CLI, ...)` runs a `wpolab` command line."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=timeout)


# a tower of exactly MAX_NESTING = 64 parenthesized exponents
DEEPEST = "w^(" * 64 + "1" + ")" * 64


def test_cli_ord_arithmetic(capsys):
    assert run_cli("ord", "nadd", "w^2+1", "w*3", capsys=capsys) == (0, "w^2+w*3+1")
    assert run_cli("ord", "nmul", "w+1", "w+1", capsys=capsys) == (0, "w^2+w*2+1")
    assert run_cli("ord", "mul", "w+1", "w", capsys=capsys) == (0, "w^2")
    assert run_cli("ord", "div", "w^2+w*3+5", "w", capsys=capsys) == (0, "w+3 5")
    assert run_cli("ord", "sub", "w", "w+4", capsys=capsys) == (0, "4")
    assert run_cli("ord", "hartog", "w^2", capsys=capsys) == (0, "W1*(1)+(0)")
    assert run_cli("ord", "cmp", "w", "W1*(1)+(0)", capsys=capsys) == (0, "<")
    assert run_cli("ord", "cmp", "w*2", "w*2", capsys=capsys) == (0, "=")
    # the CNF order: a last coefficient, and one value nested three exponents
    # deep; the tower order: a countable tail under one scale, a higher
    # scale against a large lower one, and an equal pair
    for a, b, want in (("w^(w^w*2+1)*3", "w^(w^w*2+1)*3+1", "<"),
                       ("w^(w^(w^3))", "w^(w^(w^3))", "="),
                       (DEEPEST, DEEPEST, "="),
                       ("W1*(w)+(5)", "W1*(w)+(w)", "<"),
                       ("W2*(1)+(0)", "W1*(w^w)+(3)", ">"),
                       ("W1*(1)+(0)", "W1*(1)+(0)", "=")):
        assert run_cli("ord", "cmp", a, b, capsys=capsys) == (0, want), (a, b)
    # a natural product whose terms share exponents, which each value
    # renders once
    assert run_cli("ord", "nmul", "w^(w^w+1)*3+w^w*2+1", "w^(w^w+1)+w^w+5",
                   capsys=capsys) == (0, "w^(w^w*2+2)*3+w^(w^w+w+1)*5+w^(w^w+1)*16"
                                         "+w^(w*2)*2+w^w*11+5")


def test_cli_theta(capsys):
    assert run_cli("theta", "w*2+3", "w*2+4", capsys=capsys) == (0, "w*4+8")
    assert run_cli("theta", "w", "w", "w", capsys=capsys)[0] == 0


def test_cli_poset_commands(capsys, tmp_path):
    assert run_cli("poset", "len", "prod(ord(w+1), ord(w+1))",
                   capsys=capsys) == (0, "w^2+w*2+1")
    assert run_cli("poset", "badtree", "fin(chain3)", capsys=capsys) == (0, "3")
    # the embedding search holds no stack frame per vertex
    for p, q, want in (("fin(chain2)", "fin(chain3)", (0, "yes")),
                       ("fin(chain2000)", "fin(chain2000)", (0, "yes")),
                       ("fin(chain2)", "fin(antichain3)", (1, "no")),
                       ("fin(antichain2)", "fin(chain2)", (1, "no"))):
        assert run_cli("poset", "embeds", p, q, capsys=capsys) == want, (p, q)
    path = tmp_path / "c3.json"
    path.write_text('{"n": 3, "le": [[0, 1], [1, 2]]}')
    # a poset file argument is the leaf fin(@file), used closed
    assert run_cli("poset", "len", "@%s" % path, capsys=capsys) == (0, "3")
    assert run_cli("poset", "intersect", "@%s" % path, "fin(@%s)" % path, capsys=capsys) == (
        0, '{"le": [[0, 1], [0, 2], [1, 2]], "n": 3}')
    code, out = run_cli("poset", "intersect", "@%s" % path, "fin(antichain3)",
                        capsys=capsys)
    assert code == 0 and json.loads(out) == {"n": 3, "le": []}


def test_cli_intersect_refuses_unequal_vertex_counts(capsys):
    assert main(["poset", "intersect", "fin(chain2)", "fin(chain3)"]) == 2
    assert capsys.readouterr() == (
        "", "wpolab: intersect needs equal vertex counts (2 vs 3)\n")


# md5 of the printed document of `wpolab construct ARGS --prefix N --format F`
# for (N, F) in PREFIX_FORMATS order: the sums of realizers behind
# decompinver (finite, aligned and mixing blocks), minoration and both
# branches of extend (a finite and an infinite common chunk; left growth)
PREFIX_FORMATS = [(n, f) for n in (1, 7, 60) for f in ("json", "dot")]
FROZEN_CONSTRUCT = {
    "decompinver 3 3 w w*2 w+2 w+2": (
        "99575e6922a86c8c60846df29e220c59", "fe6f66f681eefbc4b3e2cf3656e92358",
        "ec907056437f034b3cd3a3f6d6ad2a75", "1afcfa3b977165684b896a44c86bcbb4",
        "4099dbf6a7006b9cf944557f69ba639a", "ed865aa2dd41b1efbaa431365f0f2500"),
    "decompinver w*2 w 2 2": (
        "5baeffb5401c34cb97c4486e0eefb893", "fe6f66f681eefbc4b3e2cf3656e92358",
        "b4cfa365c4eba440d5cca932958bf9db", "6d1443381bb3106e26ae72285bb16314",
        "eb7a6de477035f91c099224126ca74d9", "44ba3fb4a3fbfcd54892fb4e671e261b"),
    "minoration w*2+3 w*2+4": (
        "583d96574b9911e97068d1e5f14b1bea", "fe6f66f681eefbc4b3e2cf3656e92358",
        "44a6881b9475e96f184c2825dfab5173", "1afcfa3b977165684b896a44c86bcbb4",
        "e350ad3a3a5edf69eabd769339d56e4a", "9342f3248408425d091e142d060f17d4"),
    "extend w w+3 w+3": (
        "5f063da40c70d2aff1b61e2345a10014", "fe6f66f681eefbc4b3e2cf3656e92358",
        "3236ce39152759a7f3b62d2243cffcc3", "da6a74103c771a99c969597f04f77df3",
        "7dbfac29423c6a054f8ef1675d2dc928", "7c68d9e52eba66ba85d04355d2d7b575"),
    "extend w^2 w^2 w^2*2": (
        "393e435c5e06bc120792755664a8acfb", "fe6f66f681eefbc4b3e2cf3656e92358",
        "a6c0c28d2aa7f0fb0abbab8b901e4910", "88641e3b7e963097077ade5148080e5a",
        "3f3282ac105e0a93f19cd45703b069d7", "3ca1d7cac44990b6a13accb73162e854"),
    "extend w w*2 w": (
        "88508b26f14c40a831ec7fdda48eb5de", "fe6f66f681eefbc4b3e2cf3656e92358",
        "cf246a5a4047f61d7251d29a226c4e3d", "51a406809472cc4dbdbd598975ef0a41",
        "b8d2b8a5b852aadc8afd069a09bc007e", "82ee115ba931759c7d82bfa420e37977"),
}
# md5 of the printed `wpolab poset intersect A B --format F`, json then dot,
# over finite dsum/lexsum terms
FROZEN_INTERSECT = {
    ("dsum(fin(chain3), lexsum(ord(2), fin(antichain2)))",
     "lexsum(dsum(fin(chain2), ord(3)), fin(antichain2))"): (
        "f0b1d0268cd8b83a978064adfa0840e0", "780a5217a6e6f0e5e49b95686c02276c"),
    ("lexsum(fin(antichain3), dsum(ord(3), fin(chain1)))",
     "dsum(lexsum(ord(2), fin(chain2)), dsum(fin(antichain1), ord(2)))"): (
        "7e9c402e8ef366a038b9cf3c9e94b683", "eac43dfb113360c7b9da74ac68d93250"),
    # products, over sums and over each other
    ("prod(lexsum(fin(chain3), ord(4)), dsum(ord(3), fin(antichain2)))", "fin(chain35)"): (
        "b947b3a37b13d8373ac42053738d5ed3", "784cb265dd79266cdac6d791b9b7cc3c"),
    ("prod(fin(antichain3), prod(ord(2), fin(chain4)))",
     "prod(fin(chain4), dsum(ord(3), lexsum(fin(chain2), fin(antichain1))))"): (
        "3269e16722dbf4fda1632e8ab9fe852d", "eda86de4e4f7db66ba6fe37f115877db"),
    # the closure on 300 vertices, and a product of an ordinal and a sum
    ("fin(chain300)", "lexsum(fin(chain150),fin(chain150))"): (
        "36f45c4b5d2e96e5fdc04ec1282fc11e", "74347baf906a4c71d43ba6333fdbc8c6"),
    ("prod(ord(20), lexsum(fin(chain7), ord(8)))", "fin(chain300)"): (
        "f3a296dc62cba4ebf0732a3089e59a8b", "cec2772341a815bdd10e80649c7c45b7"),
}
# md5 of the printed `wpolab construct ARGS --prefix N`: a sierpinskisation,
# both signs of the realizer sum (a common chunk on top, blocks that descend
# on the right), a tower, an exponent tower deeper than the recursion limit,
# and left growth over a sierpinskisation
FROZEN_PREFIX = {
    ("sierp w*2", 6): "ef8aead794c6ad683ec03ee23d0b8948",
    ("extend w w+3 w+3", 6): "2000aaff7719818d6909bda70d470b9e",
    ("decompinver w w 3 3", 6): "3338a8077cf0859419cab0bc50e55c74",
    ("sierp w^(w^w)", 300): "e49bb21550aa320ba726d480ace1fc3d",
    ("sierp w^(w^(w^8*9+w^4*7)*9)*8", 10): "7cf64d467271c7285328f14c5bcf5777",
    ("extend w w*2 w", 300): "a2f8e7f2d09e01c495c24a91dca82452",
}


def _printed_md5(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.md5(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(FROZEN_CONSTRUCT))
def test_cli_construct_documents_are_frozen(args, capsys):
    got = tuple(_printed_md5(["construct", *args.split(), "--prefix", str(n),
                              "--format", f], capsys)
                for n, f in PREFIX_FORMATS)
    assert got == FROZEN_CONSTRUCT[args]


def test_cli_construct_matches_frozen_prefix(capsys):
    for (args, n), want in FROZEN_PREFIX.items():
        got = _printed_md5(["construct", *args.split(), "--prefix", str(n)], capsys)
        assert got == want, (args, n)


@pytest.mark.parametrize("terms", sorted(FROZEN_INTERSECT))
def test_cli_intersect_documents_are_frozen(terms, capsys):
    got = tuple(_printed_md5(["poset", "intersect", *terms, "--format", f], capsys)
                for f in ("json", "dot"))
    assert got == FROZEN_INTERSECT[terms]


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
    # echoed input is clipped, so the message stays one short line
    ["poset", "len", "ord(w) " + "x" * 5000],
    ["poset", "len", "fin(%s)" % ("x" * 5000)],
])
def test_cli_long_numerals_fail_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert one_error_line(*captured)
    assert len(captured.err) < 200


@pytest.mark.parametrize("argv", [
    ["ord", "x" * 5000, "w"],
    ["construct", "sierp", "w", "--prefix", "x" * 5000],
    ["ord", "add", "w", "w", "x" * 5000],
])
def test_cli_usage_errors_clip_long_arguments(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert one_error_line(*captured)
    assert len(captured.err) < 300 and "x" * 61 not in captured.err


def test_cli_usage_and_parse_errors(capsys):
    assert main(["ord", "frobnicate", "w", "w"]) == 2
    assert main(["ord", "nadd", "w^", "w"]) == 2
    assert main(["poset", "len", "fin(@/no/such/file)"]) == 2
    assert main(["nothing"]) == 2
    capsys.readouterr()
    # a surplus argument is an error, not silently dropped
    for argv in (["poset", "len", "fin(chain2)", "fin(chain2)"],
                 ["poset", "badtree", "fin(chain2)", "fin(chain2)"],
                 ["ord", "hartog", "w", "w"]):
        assert main(argv) == 2, argv
        assert one_error_line(*capsys.readouterr())


def _count_outer_calls(monkeypatch, module, name: str, calls: list) -> list:
    """Patch module.<name> to append `name` to calls on each call that no
    other call of it encloses, and return the list of every call's first
    argument.  The CLI imports the function from its module when it runs,
    so the patch is what it calls; and `terms._denote` recurses through its
    module global, so the patch sees every node and counts the outermost."""
    fn = getattr(module, name)
    every, depth = [], [0]

    def call(*args):
        every.append(args[0])
        if not depth[0]:
            calls.append(name)
        depth[0] += 1
        try:
            return fn(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(module, name, call)
    return every


def test_cli_denotes_a_poset_term_once(capsys, monkeypatch):
    calls = []
    every = _count_outer_calls(monkeypatch, terms, "_denote", calls)
    assert run_cli("poset", "badtree", "dsum(fin(chain3), lexsum(ord(2), fin(antichain2)))",
                   capsys=capsys) == (0, "7")
    # one denotation of the whole term, which visited its five nodes
    assert calls == ["_denote"] and len(every) == 5
    assert main(["poset", "badtree", "dsum(fin(chain3), ord(w))"]) == 2
    assert capsys.readouterr().err == ("wpolab: poset commands need a finite denotation; "
                                       "'dsum(fin(chain3), ord(w))' is infinite\n")


def test_cli_clips_an_infinite_term_it_echoes(capsys):
    # 597 characters, which the message once echoed in full (661 in all)
    term = "lexsum(ord(w), %s)" % ("dsum(fin(chain1), " * 30 + "fin(chain1)" + ")" * 30)
    assert main(["poset", "badtree", term]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("wpolab: poset commands need a finite denotation; "
                            "%r is infinite\n" % (term[:60] + "..."))
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


def _random_poset_file(path, n: int, density: float):
    p = cases.closed_poset(cases.relation(n, cases.random_dag(random.Random(n), n, density)))
    path.write_text(export_poset(p))
    return p


def test_cli_uses_a_leaf_argument_as_its_poset(monkeypatch, tmp_path):
    # a Fin leaf holds its poset closed and bounded, so nothing denotes or
    # closes it again
    calls = []
    _count_outer_calls(monkeypatch, terms, "_denote", calls)
    _count_outer_calls(monkeypatch, terms, "_prefix_poset", calls)
    path = tmp_path / "p.json"
    p = _random_poset_file(path, 6, 0.4)
    for arg in ("@%s" % path, "fin(@%s)" % path, " fin(@%s) " % path):
        assert cli._load_poset_arg(arg) == p
    assert cli._load_poset_arg("fin(chain5)") == chain(5)
    assert cli._load_poset_arg("fin(antichain3)") == antichain(3)
    assert calls == []
    assert cli._load_poset_arg("dsum(fin(chain1), fin(chain1))") == antichain(2)
    assert calls == ["_denote", "_prefix_poset"]


@pytest.mark.parametrize("n, density", [(0, 0.0), (1, 0.0), (4, 0.5), (6, 0.3), (7, 0.6),
                                        (8, 0.2)])
def test_cli_a_file_leaf_is_its_denotation(capsys, tmp_path, n, density):
    path = tmp_path / "p.json"
    _random_poset_file(path, n, density)
    leaf = "fin(@%s)" % path
    denoted = denote_prefix(parse_term(leaf), n + 1)
    assert cli._load_poset_arg("@%s" % path) == cli._load_poset_arg(leaf) == denoted

    def run(argv, arg):
        code = main(["poset", *(arg if a == "X" else a for a in argv)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in (["len", "X"], ["badtree", "X"], ["intersect", "X", "X"],
                 ["intersect", "X", "X", "--format", "dot"], ["embeds", "X", "X"]):
        got = run(argv, "@%s" % path)
        assert got == run(argv, leaf) and got[0] == 0 and got[2] == "", argv
    assert run(["len", "X"], leaf)[1] == "%d\n" % n


@pytest.mark.parametrize("n", [0, 1, 5, 40, MAX_VERTICES])
def test_cli_an_inline_leaf_is_its_denotation(n):
    for body in ("chain%d" % n, "antichain%d" % n):
        leaf = "fin(%s)" % body
        assert cli._load_poset_arg(leaf) == denote_prefix(parse_term(leaf), n + 1)


def test_cli_lets_a_key_error_escape(monkeypatch):
    # argparse choices guard every table the commands look up, so a
    # KeyError is a bug, and main does not turn it into an input error
    def broken(*ordinals):
        raise KeyError("x")

    monkeypatch.setattr(cli, "theta_plus", broken)
    with pytest.raises(KeyError):
        main(["theta", "w", "w"])


def test_a_reused_parser_keeps_no_state(capsys):
    # main reuses one parser per process: a command's result must not
    # depend on the commands that ran before it
    argvs = [
        ["-h"],
        ["ord", "frobnicate", "w", "w"],  # usage error
        ["ord", "nadd", "w^", "w"],  # parse error
        ["verify", "--suite", "theta_laws", "--cases", "5", "--seed", "3"],
        ["construct", "sierp", "w*2", "--prefix", "6", "--format", "dot"],
        ["construct", "sierp", "w*2", "--prefix", "6"],
        ["poset", "intersect", "prod(fin(chain2),fin(chain2))", "fin(chain4)"],
        ["poset", "intersect", "prod(fin(chain2),fin(chain2))", "fin(chain4)",
         "--format", "dot"],
        ["poset", "len", "prod(ord(w+1), ord(w+1))"],
    ]

    def run_all(order):
        results = {}
        for k in order:
            code = main(list(argvs[k]))
            captured = capsys.readouterr()
            results[k] = (code, captured.out, captured.err)
        return results

    forward = run_all(range(len(argvs)))
    assert forward == run_all(reversed(range(len(argvs))))
    assert [forward[k][0] for k in range(len(argvs))] == [0, 2, 2, 0, 0, 0, 0, 0, 0]
    assert forward[6][1] == '{"le": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]], "n": 4}\n'
    assert build_parser() is build_parser()


def test_cli_unreadable_poset_files_fail_with_one_line(capsys, tmp_path):
    (tmp_path / "text").write_text("not json")
    (tmp_path / "binary").write_bytes(b"\xff\xfe")
    for name in ("text", "binary", "missing", "."):
        path = tmp_path / name
        for arg in ("@%s" % path, "fin(@%s)" % path):
            assert main(["poset", "len", arg]) == 2, arg
            assert one_error_line(*capsys.readouterr())


def test_cli_a_long_cycle_fails_with_one_short_line(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text('{"n": 3, "le": [[0, 1], [1, 2], [2, 0]]}')
    assert main(["poset", "len", "@%s" % path]) == 2
    assert capsys.readouterr() == (
        "", "wpolab: le is not antisymmetric; cycle witness [0, 1, 2, 0]\n")
    # 0 -> 1999 -> 1998 -> ... -> 1 -> 0: the witness lists 2001 vertices
    n = 2000
    path.write_text(json.dumps({"n": n, "le": [[i + 1, i] for i in range(n - 1)] + [[0, n - 1]]}))
    assert main(["poset", "len", "@%s" % path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wpolab: le is not antisymmetric; cycle witness [0, 1999, ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    with pytest.raises(PosetError) as info:
        load_poset(path.read_text())
    assert info.value.cycle == [0, *range(n - 1, 0, -1), 0]


# argv from the CLI grammar: each command with its own argument shapes,
# values drawn from valid texts (two times in three) and from token
# strings, and now and then a stray word.  Inline leaves have at most two
# vertices and a token string at most six tokens, so a finite denotation
# has at most four vertices and badtree and embeds stay instant.
CLI_ORD_TOKENS = ["w", "^", "*", "+", "(", ")", "0", "1", "2", "10", "W1", "W10",
                  "*(", ")+("]
CLI_TERM_TOKENS = ["ord(w)", "ord(2)", "fin(chain2)", "fin(antichain2)", "fin(", "ord(",
                   "dsum(", "lexsum(", "prod(", ",", ")", "chain", "@", "w"]
# w^(w^(w^8*9+w^4*7)*9)*8 is an exponent tower deeper than the recursion
# limit for any enumeration that recurses once per block level
VALID_ORDINALS = st.sampled_from(["0", "1", "3", "w", "w+1", "w*2", "w^2", "w^w",
                                  "w^2*3+w+2", "w^(w^(w^8*9+w^4*7)*9)*8",
                                  "W1*(1)+(0)", "W2*(w)+(3)"])
CLI_ORDINALS = st.one_of(
    VALID_ORDINALS, VALID_ORDINALS,
    st.lists(st.sampled_from(CLI_ORD_TOKENS), min_size=1, max_size=6).map("".join))
VALID_TERMS = st.sampled_from(["fin(chain2)", "fin(antichain2)", "ord(w)", "ord(3)",
                               "dsum(fin(chain2), fin(antichain2))",
                               "prod(fin(chain2), fin(chain2))",
                               "lexsum(ord(w), ord(2))", "prod(ord(w), ord(w*2))"])
CLI_TERMS = st.one_of(
    VALID_TERMS, VALID_TERMS,
    st.lists(st.sampled_from(CLI_TERM_TOKENS), min_size=1, max_size=6).map("".join))
CLI_STRAY = st.one_of(st.just([]), st.just([]), st.lists(st.sampled_from(
    ["--format", "dot", "json", "--out", "out.txt", "--timing", "-1", "x", "w"]),
    min_size=1, max_size=2))


def _command(*parts):
    return st.tuples(*parts, CLI_STRAY).map(
        lambda t: [x for part in t for x in (part if isinstance(part, list) else [part])])


CLI_ARGV = st.one_of(
    _command(st.just("ord"), st.sampled_from(["add", "mul", "nadd", "nmul", "div", "sub",
                                              "hartog", "cmp"]),
             st.lists(CLI_ORDINALS, min_size=1, max_size=2)),
    _command(st.just("theta"), st.lists(CLI_ORDINALS, min_size=1, max_size=3)),
    _command(st.just("poset"), st.sampled_from(["len", "badtree", "intersect", "embeds"]),
             st.lists(CLI_TERMS, min_size=1, max_size=2)),
    _command(st.just("construct"),
             st.sampled_from(["sierp", "mixing", "decompinver", "minoration", "extend"]),
             st.lists(CLI_ORDINALS, min_size=1, max_size=4),
             st.sampled_from(["1", "2", "7", "30", "0"]).map(lambda n: ["--prefix", n])),
    _command(st.just("verify"), st.sampled_from(sorted(SUITES)).map(lambda s: ["--suite", s]),
             st.sampled_from(["0", "1", "3", "12"]).map(lambda c: ["--cases", c]),
             st.sampled_from(["0", "5"]).map(lambda s: ["--seed", s])),
)


@given(CLI_ARGV)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_exits_cleanly(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)  # --out files and fin(@file) names stay here
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err
    if code == 2:
        assert one_error_line(*captured), argv


def test_cli_rejects_bad_counts(capsys):
    for argv in (["construct", "sierp", "w", "--prefix", "0"],
                 ["construct", "sierp", "w", "--prefix", "-3"],
                 ["verify", "--suite", "theta_laws", "--cases", "-1"]):
        assert main(argv) == 2, argv
        assert one_error_line(*capsys.readouterr())


@pytest.mark.parametrize("targets, message", [
    ("w w w*2", "growing the right type alone is not implemented; swap the "
                "realizer and grow left"),
    ("w w+1 w", "left growth alternates old and new vertices forever, so the "
                "padding type must be infinite (got 1)"),
    ("w w*3 w*2", "unsupported extension (w,w) -> (w*3,w*2)"),
    ("w*2 w*3 w*2", "left growth needs the nth_right rank hook"),
    ("w+3 w*2 w+3", "left growth needs a right type that is a multiple of omega "
                    "(doubled points change w+3)"),
])
def test_cli_extend_refusals_are_frozen(capsys, targets, message):
    assert main(["construct", "extend", *targets.split()]) == 2
    assert capsys.readouterr() == ("", "wpolab: %s\n" % message)


@pytest.mark.parametrize("argv, want", [
    ("add W1*(1)+(0) w", "W1*(1)+(w)"),
    ("nadd W1*(1)+(w) W1*(2)+(3)", "W1*(3)+(w+3)"),
    ("add w W1*(1)+(0)", "W1*(1)+(0)"),  # w + omega_1 absorbs the w
])
def test_cli_scaled_ord_add_and_nadd(capsys, argv, want):
    assert main(["ord", *argv.split()]) == 0
    assert capsys.readouterr() == (want + "\n", "")


@pytest.mark.parametrize("op", ["mul", "nmul", "div", "sub"])
def test_cli_scaled_ord_takes_add_and_nadd_only(capsys, op):
    assert main(["ord", op, "W1*(1)+(0)", "w"]) == 2
    assert capsys.readouterr() == (
        "", "wpolab: ord %s supports countable arguments only\n" % op)


def test_cli_construct_rejects_scaled_ordinals(capsys):
    assert main(["construct", "sierp", "W1*(1)+(0)"]) == 2
    assert capsys.readouterr() == ("", "wpolab: constructions take countable ordinals; "
                                       "W1*(1)+(0) is scaled\n")


def test_cli_finite_decompinver_prefix_past_its_end_fails_fast():
    # all blocks finite: 5 vertices, so a 10-vertex prefix does not exist
    done = spawn(*CLI, "construct", "decompinver", "5", "5", "--prefix", "10")
    assert done.returncode == 2 and one_error_line(done.stdout, done.stderr)
    assert "10" in done.stderr and "5" in done.stderr


@pytest.mark.parametrize("argv, n", [
    (["construct", "sierp", "w*99999999", "--prefix", "3"], 3),
    (["construct", "mixing", "w*99999999", "1"], 32),
])
def test_cli_construct_over_a_large_coefficient_returns(argv, n):
    # the enumeration builds its blocks when first visited, not one per
    # unit of the coefficient; about 0.4 s of wall time on a 2-vCPU machine
    done = spawn(*CLI, *argv, timeout=15)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["n"] == n


def test_cli_inline_finite_poset_over_the_bound_fails_fast():
    # 16 characters that would ask for a 100000-vertex chain
    done = spawn(*CLI, "poset", "len", "fin(chain100000)", timeout=20)
    assert done.returncode == 2 and one_error_line(done.stdout, done.stderr)
    assert str(MAX_VERTICES) in done.stderr


@pytest.mark.parametrize("argv, err", [
    # a 100000-vertex prefix would need a 9.3 GiB order matrix
    (["construct", "sierp", "w", "--prefix", "100000"],
     "--prefix must be from 1 to %d, got 100000" % MAX_VERTICES),
    # four million vertices, a 14.6 TiB order matrix
    (["poset", "badtree", "prod(fin(chain2000),fin(chain2000))"],
     "poset commands take at most %d vertices; prod(fin(chain2000),fin(chain2000)) "
     "has 4000000" % MAX_VERTICES),
    # ten billion vertices, whose rows alone take 80 GB
    (["poset", "len", "@FILE"],
     "a poset file takes at most %d vertices; got 10000000000" % MAX_VERTICES),
])
def test_cli_short_input_for_a_huge_poset_fails_fast(tmp_path, argv, err):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**10, "le": []}))
    argv = [a.replace("FILE", str(path)) for a in argv]
    done = spawn(*CLI, *argv, timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "wpolab: %s\n" % err)


def test_cli_posets_at_the_vertex_bound_answer(capsys):
    # --format dot lists the covers only: 0.2 s of CPU each (2-vCPU x86)
    n = MAX_VERTICES
    for argv in (["construct", "sierp", "w", "--prefix", str(n)],
                 ["poset", "intersect", "fin(chain%d)" % n,
                  "lexsum(fin(chain%d), fin(chain%d))" % (n // 2, n - n // 2)]):
        assert main([*argv, "--format", "dot"]) == 0, argv
        out = capsys.readouterr().out
        assert out.startswith("digraph poset {\n") and "  %d;\n" % (n - 1) in out


# `python -c RUSAGE_CLI ARGV...` runs `wpolab ARGV...` and then writes its
# own CPU seconds and peak RSS (ru_maxrss, KiB on Linux) to stderr
RUSAGE_CLI = ("import resource, sys\n"
              "from wpolab.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "r = resource.getrusage(resource.RUSAGE_SELF)\n"
              "sys.stderr.write('%f %d' % (r.ru_utime + r.ru_stime, r.ru_maxrss))\n"
              "sys.exit(code)\n")


@pytest.mark.parametrize("argv, md5", [
    (["construct", "sierp", "w", "--prefix", "2000"], "ec7b3a88faaf4f2d1c78cb82c38c5eaa"),
    (["poset", "intersect", "fin(chain2000)", "fin(chain2000)"],
     "d25eb7e6dd925469ccab890344455c99"),
    # the same document as the first, written to a file
    (["construct", "sierp", "w", "--prefix", "2000", "--out", "FILE"],
     "ec7b3a88faaf4f2d1c78cb82c38c5eaa"),
])
def test_cli_documents_at_the_vertex_bound_stay_small(argv, md5, tmp_path):
    # 26 MB of JSON, written row by row from the bitsets: 0.2-0.3 s of CPU
    # and 90-115 MB at peak in the child, to a file as to stdout (2-vCPU
    # x86), where a pair list and json.dumps took 1.1-1.9 s and 280 MB.
    # The budgets leave 2x on CPU and hold the peak under 200 MB
    path = tmp_path / "doc.json"
    argv = [str(path) if a == "FILE" else a for a in argv]
    done = spawn("-c", RUSAGE_CLI, *argv, timeout=60)
    assert done.returncode == 0
    out = path.read_text() if "--out" in argv else done.stdout
    assert hashlib.md5(out.encode()).hexdigest() == md5
    cpu, peak_kib = done.stderr.split()
    assert float(cpu) < 1.2, "%s took %ss of CPU (budget 1.2s)" % (" ".join(argv), cpu)
    assert int(peak_kib) < 200 * 1024, "%s peaked at %d MiB (budget 200)" % (
        " ".join(argv), int(peak_kib) // 1024)


@pytest.mark.parametrize("source", ["inline", "file"])
def test_cli_badtree_over_its_vertex_cap_fails_fast(tmp_path, source):
    # antichain11 did not finish in a minute through the brute force
    n = MAX_BADTREE_VERTICES + 3
    arg = "fin(antichain%d)" % n
    if source == "file":
        (tmp_path / "a.json").write_text(json.dumps({"n": n, "le": []}))
        arg = "@%s" % (tmp_path / "a.json")
    done = spawn(*CLI, "poset", "badtree", arg, timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("wpolab: poset badtree lists every bad sequence, so it "
                           "takes at most %d vertices; got %d\n" % (MAX_BADTREE_VERTICES, n))


def test_cli_badtree_at_its_vertex_cap_answers(capsys):
    n = MAX_BADTREE_VERTICES
    assert run_cli("poset", "badtree", "fin(chain%d)" % n, capsys=capsys) == (0, str(n))


@pytest.mark.parametrize("argv", [
    ["ord", "add", "w^(" * 400 + "w" + ")" * 400, "1"],
    ["construct", "sierp", "w^(" * 400 + "w" + ")" * 400, "--prefix", "3"],
    ["theta", "W1*(1)+(" * 400 + "5" + ")" * 400, "w"],
    ["poset", "len", "dsum(" * 400 + "ord(1)" + ", ord(2))" * 400],
    # one level past the deepest tower that parses
    ["ord", "cmp", "w^(%s)" % DEEPEST, "w^(%s)" % DEEPEST],
])
def test_cli_deep_nesting_fails_with_one_line(argv):
    # a 400-deep input would exceed the recursion limit; the grammars
    # stop at a fixed nesting depth instead
    done = spawn(*CLI, *argv)
    assert done.returncode == 2 and one_error_line(done.stdout, done.stderr)
    assert "nested deeper than" in done.stderr


# -- the package namespace and what each command imports ---------------------------

# the names the package bound when its __init__ imported every submodule, by
# the submodule each came from
PUBLIC_NAMES = {
    "bounds": "BoundOp THETA_PLUS UnsupportedSupremum bracket_plus bracket_tilde "
              "reduction_identity_check reduction_identity_sides theta_box_sup theta_len "
              "theta_plus theta_sharp theta_tilde",
    "cardinals": "MAX_LEVEL KOrdinal LevelOverflowError cardinality hartog k_add k_nat_add "
                 "k_ul_nat_add omega_level parse_k render_k",
    "constructions": "AuditReport Enumeration LazyOrder LazyPoset decompinver_witness "
                     "enum_below extend_realizer minoration_witness mixing_poset prefix_audit "
                     "relation_rows sierpinskisation",
    "io": "export_poset load_poset",
    "ordinals": "OMEGA ONE ZERO CnfOrdinal OrdinalError add cmp euclid_div from_int fund_seq "
                "is_indecomposable iter_below left_subtract mul nat_add nat_mul omega_pow "
                "parse_ordinal render_ordinal sup_plus ul_nat_add",
    "posets": "FinPoset PosetError all_posets antichain bad_sequences bad_tree_height chain "
              "embeds intersect length_fin length_recursive linear_extensions longcut_fin "
              "make_poset poset_of_matrix",
    "suites": "SUITES SuiteReport run_suite",
    "terms": "DSum Fin LexSum Ord PosetTerm Prod denote_prefix length_term parse_term "
             "render_term term_size",
}
SUBMODULES = ("bounds", "cardinals", "constructions", "io", "oracles", "ordinals", "posets",
              "suites", "terms")


def test_the_package_gives_each_public_name_from_its_submodule():
    for module, names in PUBLIC_NAMES.items():
        home = importlib.import_module("wpolab." + module)
        for name in names.split():
            assert getattr(wpolab, name) is getattr(home, name), name
    for module in SUBMODULES:
        assert getattr(wpolab, module) is sys.modules["wpolab." + module]
    # one PosetError, at home beside OrdinalError
    assert wpolab.PosetError is ordinals.PosetError is posets.PosetError
    assert issubclass(wpolab.PosetError, wpolab.OrdinalError)

    everything = set(SUBMODULES).union(*(names.split() for names in PUBLIC_NAMES.values()))
    star = {}
    exec("from wpolab import *", star)
    del star["__builtins__"]
    assert set(star) == set(wpolab.__all__) == everything
    assert everything <= set(dir(wpolab))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wpolab.no_such_name
    with pytest.raises(ImportError, match="'no_such_name'"):
        from wpolab import no_such_name  # noqa: F401


POSET_LAYERS = ("wpolab.constructions", "wpolab.posets", "wpolab.terms", "wpolab.io",
                "wpolab.suites")


@pytest.mark.parametrize("code, out", [
    ("main(['ord', 'add', 'w^2+w', 'w*3+1'])", "w^2+w*4+1\n"),
    ("main(['ord', 'cmp', 'W1*(1)+(0)', 'w^(w^w)'])", ">\n"),
    ("main(['ord', 'hartog', 'w^2'])", "W1*(1)+(0)\n"),
    ("main(['theta', 'W1*(w)+(3)', 'W1*(2)+(w)'])", "W1*(w*2+1)+(0)\n"),
    ("print(wpolab.render_k(wpolab.theta_plus(wpolab.parse_k('w*2+3'), "
     "wpolab.parse_k('w*2+4'))))", "w*4+8\n"),
], ids=["ord_add", "ord_cmp", "ord_hartog", "theta", "package_theta_plus"])
def test_the_algebra_commands_load_no_numpy(code, out):
    # a fresh process: this one has loaded every layer already
    done = spawn("-c", "import json, sys\nimport wpolab\nfrom wpolab.cli import main\n%s\n"
                 "print(json.dumps(sorted(sys.modules)), file=sys.stderr)" % code)
    assert done.returncode == 0 and done.stdout == out
    loaded = set(json.loads(done.stderr))
    assert {"wpolab.ordinals", "wpolab.cardinals", "wpolab.bounds"} <= loaded
    assert not {m for m in loaded if m.split(".")[0] == "numpy" or m in POSET_LAYERS}


# one command line of each poset, construct and verify kind; every suite
# (finite_poset_oracle needs 243 cases to pass its all_posets part and
# reach the term sums, and constructions_prefix audits 11 vertices)
NUMPY_FREE_COMMANDS = [
    ["construct", "sierp", "w^2", "--prefix", "40"],
    ["construct", "mixing", "w", "w*2", "--prefix", "40", "--format", "dot"],
    ["construct", "decompinver", "3", "3", "w", "w*2", "--prefix", "40"],
    ["construct", "minoration", "w*2+3", "w*2+4", "--prefix", "40"],
    ["construct", "extend", "w", "w+3", "w+3", "--prefix", "40"],
    ["construct", "extend", "w", "w*2", "w", "--prefix", "40"],
    ["poset", "len", "prod(ord(w), fin(chain3))"],
    ["poset", "intersect", "prod(fin(chain2),fin(chain2))", "fin(chain4)"],
    ["poset", "intersect", "lexsum(fin(chain3), fin(antichain2))", "dsum(ord(2), fin(chain3))",
     "--format", "dot"],
    ["poset", "embeds", "fin(antichain2)", "prod(fin(chain2),fin(chain2))"],
    ["poset", "badtree", "dsum(fin(chain2), fin(antichain2))"],
    *(["verify", "--suite", suite, "--cases",
       {"finite_poset_oracle": "260", "constructions_prefix": "11"}.get(suite, "5")]
      for suite in cli.SUITE_NAMES),
]

# run each argv of sys.argv[1] through main, then write the numpy modules
# loaded so far, one JSON list per command, to stderr
NUMPY_PROBE = ("import io, json, sys\n"
               "from contextlib import redirect_stdout\n"
               "from wpolab.cli import main\n"
               "for argv in json.loads(sys.argv[1]):\n"
               "    with redirect_stdout(io.StringIO()):\n"
               "        main(argv)\n"
               "    print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'numpy']),\n"
               "          file=sys.stderr)\n")


def test_the_poset_commands_load_no_numpy():
    # a fresh process: this one has loaded numpy already
    done = spawn("-c", NUMPY_PROBE, json.dumps(NUMPY_FREE_COMMANDS))
    assert done.returncode == 0, done.stderr
    loaded = [json.loads(line) for line in done.stderr.splitlines()]
    assert len(loaded) == len(NUMPY_FREE_COMMANDS)
    assert [(argv, mods) for argv, mods in zip(NUMPY_FREE_COMMANDS, loaded) if mods] == []


# the frozen documents and a prefix audit, printed where `import numpy`
# fails: each line is the md5 of one command's stdout
FROZEN_WITHOUT_NUMPY = ("import hashlib, io, json, sys\n"
                        "sys.modules['numpy'] = None\n"
                        "from contextlib import redirect_stdout\n"
                        "from wpolab.cli import main\n"
                        "for argv in json.loads(sys.argv[1]):\n"
                        "    out = io.StringIO()\n"
                        "    with redirect_stdout(out):\n"
                        "        assert main(argv) == 0, argv\n"
                        "    print(hashlib.md5(out.getvalue().encode()).hexdigest())\n")


def test_the_frozen_documents_need_no_numpy():
    argvs, want = [], []
    for args, md5s in sorted(FROZEN_CONSTRUCT.items()):
        for (n, f), md5 in zip(PREFIX_FORMATS, md5s):
            argvs.append(["construct", *args.split(), "--prefix", str(n), "--format", f])
            want.append(md5)
    for terms_, md5s in sorted(FROZEN_INTERSECT.items()):
        for f, md5 in zip(("json", "dot"), md5s):
            argvs.append(["poset", "intersect", *terms_, "--format", f])
            want.append(md5)
    argvs.append(["verify", "--suite", "constructions_prefix", "--cases", "60"])
    want.append(hashlib.md5(b'{"cases": 60, "failures": [], "passed": true, "seed": 0, '
                            b'"suite": "constructions_prefix"}\n').hexdigest())
    done = spawn("-c", FROZEN_WITHOUT_NUMPY, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == want


def test_construct_runs_no_closure(capsys):
    # every construction's rows are closed by construction, so no kind
    # enters posets._close, not even through make_poset
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is posets._close.__code__:
            entered.append(frame.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in NUMPY_FREE_COMMANDS if argv[0] == "construct"]
    finally:
        sys.setprofile(old)
    capsys.readouterr()
    assert codes == [0] * 6 and entered == []
    # the probe itself sees a closure where one runs
    sys.setprofile(profile)
    try:
        main(["poset", "intersect", "dsum(fin(chain1), fin(chain1))", "fin(chain2)"])
    finally:
        sys.setprofile(old)
    capsys.readouterr()
    assert entered == ["_close"]


def test_the_parser_names_every_suite():
    assert cli.SUITE_NAMES == tuple(sorted(SUITES))


HELP = {"verify": """\
usage: wpolab verify [-h] --suite
                     {constructions_prefix,finite_poset_oracle,majoration_shadow,minoration_meets_theta,oracle_agreement,ordinal_laws,reduction_identities,theta_laws}
                     [--cases N] [--seed S] [--timing]

options:
  -h, --help            show this help message and exit
  --suite {constructions_prefix,finite_poset_oracle,majoration_shadow,minoration_meets_theta,oracle_agreement,ordinal_laws,reduction_identities,theta_laws}
  --cases N
  --seed S
  --timing              write the suite's wall time to stderr
""", "construct": """\
usage: wpolab construct [-h] [--prefix N] [--out FILE] [--format {json,dot}]
                        {sierp,mixing,decompinver,minoration,extend} ORDINAL
                        [ORDINAL ...]

positional arguments:
  {sierp,mixing,decompinver,minoration,extend}
  ORDINAL

options:
  -h, --help            show this help message and exit
  --prefix N
  --out FILE
  --format {json,dot}
"""}


@pytest.mark.parametrize("command", sorted(HELP))
def test_cli_help_lists_the_same_choices(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "-h"]) == 0
    # word for word: where argparse breaks the usage line differs between
    # Python versions
    assert capsys.readouterr().out.split() == HELP[command].split()
