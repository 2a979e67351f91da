"""Lazy countable posets: enumerations, sierpinskisations, mixing, and audits."""

import collections
import dataclasses
import itertools
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpolab import constructions
from wpolab.bounds import theta_plus
from wpolab.cardinals import KOrdinal
from wpolab.constructions import (
    Enumeration,
    LazyPoset,
    _linear_witness,
    _ranks,
    _transitivity_witness,
    decompinver_witness,
    enum_below,
    extend_realizer,
    minoration_witness,
    mixing_poset,
    prefix_audit,
    relation_rows,
    sierpinskisation,
)
from wpolab.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    CnfOrdinal,
    OrdinalError,
    add,
    from_int,
    fund_seq,
    iter_below,
    left_subtract,
    mul,
    nat_mul,
    omega_pow,
    parse_ordinal,
    render_ordinal,
)
from wpolab.oracles import random_ordinal
from wpolab.posets import PosetError
from wpolab.suites import run_suite

from cases import (
    INDICES,
    bitsets,
    matrix,
    omega_times,
    ordinal_sum,
    random_below,
    random_blocks,
    random_common_chunk,
    random_dag,
    random_index,
    random_infinite,
    random_small_ordinal,
    reach,
    relation,
    shallow_ordinals,
)


def o(text):
    return parse_ordinal(text)


# -- enumerations ------------------------------------------------------------------


def test_enum_finite_and_omega_are_identity():
    e = enum_below(from_int(5))
    assert [e.at(i) for i in range(5)] == [from_int(i) for i in range(5)]
    e = enum_below(o("w"))
    assert e.at(1000) == from_int(1000)


def test_enum_omega_times_two_prefix_is_frozen():
    # the anti-diagonal traversal interleaves the two unit blocks
    e = enum_below(o("w*2"))
    got = [render_ordinal(e.at(i)) for i in range(6)]
    assert got == ["0", "w", "1", "w+1", "2", "w+2"]


def test_enum_hits_every_block_of_a_mixed_ordinal():
    e = enum_below(o("w^2+w*3+5"))
    seen = [e.at(i) for i in range(400)]
    assert from_int(4) in seen          # the finite block
    assert o("w*2+7") in seen           # inside the w^2 block
    assert o("w^2+w*2+1") in seen       # inside the w*3 block
    assert all(b < o("w^2+w*3+5") for b in seen)


@given(st.integers(0, 2**48))
@settings(max_examples=60)
def test_enum_index_inverts_at(seed):
    rng = random.Random(seed)
    alpha = random_small_ordinal(rng)
    e = enum_below(alpha)
    top = 120 if e.size is None else min(120, e.size)
    i = rng.randrange(top)
    assert e.index(e.at(i)) == i


@given(st.integers(0, 2**48))
@settings(max_examples=40)
def test_enum_values_are_distinct_and_below(seed):
    rng = random.Random(seed)
    alpha = random_small_ordinal(rng)
    e = enum_below(alpha)
    top = 60 if e.size is None else min(60, e.size)
    vals = [e.at(i) for i in range(top)]
    assert len(set(vals)) == len(vals)
    assert all(v < alpha for v in vals)
    # the block paths are distinct too, and sort the indices as the values do
    keys = [e.key(i) for i in range(top)]
    assert len(set(keys)) == len(keys)
    assert sorted(range(top), key=keys.__getitem__) == sorted(range(top), key=vals.__getitem__)


# 0.01-0.02 s of CPU for the 3000 index calls below w*2 and w+3 on a 2-vCPU
# x86 machine, where counting the earlier diagonals one vertex at a time took
# 4-8 s; 0.12-0.18 s below w^w and w^w*2+3, whose index steps down one
# block level per exponent it descends.  Each budget leaves more than 6x
# headroom
_ROUND_TRIP_BUDGETS = {"w*2": 0.5, "w+3": 0.5, "w^w": 1.5, "w^w*2+3": 1.5}


@pytest.mark.parametrize("alpha", list(_ROUND_TRIP_BUDGETS))
def test_enum_index_round_trips_within_budget(alpha):
    budget = _ROUND_TRIP_BUDGETS[alpha]
    e = enum_below(o(alpha))
    values = [e.at(i) for i in range(3000)]
    start = time.process_time()
    back = [e.index(v) for v in values]
    cpu = time.process_time() - start
    assert back == list(range(3000))
    assert cpu < budget, "3000 index calls below %s took %.2fs of CPU (budget %.1fs)" % (
        alpha, cpu, budget)


# The blocks that index builds, on every level: below w^w, blocks 1-4 of
# w^w (the walk up to beta's block 3), then one block each of w^4, w^3 and
# w^2; below w^2 and w*99999999, beta's block alone
_INDEX_BLOCKS = {"w^w": 7, "w^2": 1, "w*99999999": 1}


@pytest.mark.parametrize("alpha, beta, index", [
    ("w^w", "w^3*9+9", 718706381577),
    ("w^2", "w*100000+5", 5000550020),
    ("w*99999999", "w*100000+5", 5000550020),
])
def test_enum_index_is_a_closed_form(alpha, beta, index):
    # on a 2-vCPU x86 machine, walking every earlier block and diagonal
    # took 48 s, 1.7 s and 1.0 s of CPU and left 1.2 million, 100,006 and
    # 100,006 cached blocks; the closed form takes under 5 ms and builds
    # only the blocks up to beta's (the budget leaves 100x headroom)
    e = enum_below(o(alpha))
    constructions._block.cache_clear()
    start = time.process_time()
    got = e.index(o(beta))
    cpu = time.process_time() - start
    assert got == index
    assert cpu < 0.5, "index(%s) below %s took %.2fs of CPU (budget 0.5s)" % (beta, alpha, cpu)
    assert constructions._block.cache_info().currsize <= _INDEX_BLOCKS[alpha]


@pytest.mark.parametrize("alpha", ["w^w", "w^w*2+3"])
def test_enum_below_a_limit_exponent_starts_at_zero(alpha):
    # the first block of w^e with a limit exponent e starts at 0, not at
    # the first step of the fundamental sequence of w^e
    e = enum_below(o(alpha))
    assert e.index(ZERO) == 0
    for beta in iter_below(2, 2):
        assert beta < e.alpha
        assert e.at(e.index(beta)) == beta


def _reference_walk(alpha):
    """The frozen coding by its definition, as a generator of at(0),
    at(1), ...: identity below omega; otherwise alpha's unit blocks, each
    an interval [lo, hi) enumerated as lo + (the walk below -lo + hi), are
    walked anti-diagonally: diagonal d opens block d, if there is one,
    then takes the next value of every open block, the highest first.  It
    nests one generator per block level, so it serves shallow ordinals
    only."""
    if alpha.is_finite:
        yield from map(from_int, range(alpha.as_int()))
        return
    if alpha == OMEGA:
        yield from map(from_int, itertools.count())
        return
    blocks, walks = _unit_blocks(alpha), []
    while True:
        for lo, hi in itertools.islice(blocks, 1):
            walks.append((lo, _reference_walk(left_subtract(lo, hi))))
        for lo, walk in reversed(walks):
            for beta in itertools.islice(walk, 1):
                yield add(lo, beta)


def _unit_blocks(alpha):
    """alpha's unit blocks as intervals [lo, hi) in increasing order: w^e
    alone splits along its fundamental sequence, with block 0 from 0;
    otherwise each term w^e*c gives c blocks w^e, or one block c if e = 0."""
    if len(alpha.terms) == 1 and alpha.terms[0][1] == 1:
        for b in itertools.count():
            yield ZERO if b == 0 else fund_seq(alpha, b), fund_seq(alpha, b + 1)
    else:
        lo = ZERO
        for e, c in alpha.terms:
            for _ in range(1 if e.is_zero else c):
                hi = add(lo, from_int(c) if e.is_zero else omega_pow(e))
                yield lo, hi
                lo = hi


@given(shallow_ordinals())
@example(o("w^w*2+3"))
@example(o("w^(w*2+1)+w^3*4+7"))
@example(o("w^(w^w)"))
@settings(max_examples=60)
def test_enum_at_follows_the_reference_walk(alpha):
    e = enum_below(alpha)
    want = list(itertools.islice(_reference_walk(alpha), 150))
    got = [e.at(i) for i in range(150)]
    assert all(g is w for g, w in zip(got, want)), (alpha, got, want)


# Successor alphas whose prefix runs past the first empty cell (the _skip
# branch), limit-exponent powers, multi-term and finite alphas
_KEY_ALPHAS = ["w*2+1", "w^2+w*3+5", "w^(w*2+1)*2+w^9*3+w^4+7", "w^w", "w^(w*2+1)",
               "w^(w^w)", "w^w*2+3", "w^3*2", "w+3", "7", "1"]


@pytest.mark.parametrize("alpha", _KEY_ALPHAS)
def test_enum_key_orders_indices_as_at_orders_values(alpha):
    e = enum_below(o(alpha))
    n = 150 if e.size is None else e.size
    if e.alpha.is_successor and e.size is None:
        assert e._skip < n  # the prefix reaches the skipped cells
    values = [e.at(i) for i in range(n)]
    keys = [e.key(i) for i in range(n)]
    assert len(set(keys)) == n
    for i, j in itertools.product(range(n), repeat=2):
        assert (keys[i] < keys[j]) == (values[i] < values[j]), (i, j, keys[i], keys[j])
    # a repeated call, from the memo or from a fresh walk, gives an equal key
    assert [e.key(i) for i in range(n)] == keys
    assert [enum_below(o(alpha)).key(i) for i in range(n)] == keys


def test_enum_key_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(constructions, "KEY_MEMO_SIZE", 16)
    e = enum_below(o("w^w"))
    keys = [e.key(i) for i in range(100)]
    assert len(e._keys) <= 16
    assert [e.key(i) for i in range(100)] == keys
    with pytest.raises(OrdinalError):
        enum_below(from_int(3)).key(3)


# The deep ordinals of the audit benchmark (wpobench/wl_audit.py, DEEP):
# block 0 alone descends more than 1000 block levels below each of them
DEEP = [
    "w^(w^(w^8*9+w^4*7)*9)*8",
    "w^(w^(w^9*9+w^4*6)*9)*6+w^(w^(w^9*7+w^6*8+w^4*7+w*3)*3+w^(w^3*6)*6)*3+9",
    "w^(w^(w^10*5+w^7*9)*3+w^(w^9*6+w^8*4)*6+w^(w^4*2)+w^9*6)*8+w*13+2",
]


@pytest.mark.parametrize("alpha", DEEP)
def test_enum_below_a_deep_tower_needs_no_recursion(alpha):
    e = enum_below(o(alpha))
    values = [e.at(i) for i in range(100)]
    assert len(set(values)) == 100
    assert all(v < e.alpha for v in values)
    assert [e.index(v) for v in values] == list(range(100))


def test_tower_enumeration_cpu_budget():
    # 0.08-0.16 s of CPU on a 2-vCPU x86 machine, where a cached
    # sub-enumeration per block, each walking its own prefix, took
    # 8.8-9.5 s and 341 MB; the budget leaves more than 6x headroom
    s = sierpinskisation(o("w^(w^w)"))
    start = time.process_time()
    rows = s.lt_rows(range(2000))
    cpu = time.process_time() - start
    assert len(rows) == 2000
    assert cpu < 1.0, "lt_rows of 2000 vertices below w^(w^w) took %.2fs of CPU " \
        "(budget 1.0s)" % cpu


# -- sierpinskisations -------------------------------------------------------------


def test_sierpinskisation_omega_two_prefix_pairs():
    s = sierpinskisation(o("w*2"))
    got = {(i, j) for i in range(6) for j in range(6) if s.lt(i, j)}
    assert got == {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5),
                   (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)}


@pytest.mark.parametrize("alpha", ["w", "w*2", "w^2+w*3+5"])
def test_sierpinskisation_prefixes_audit_clean(alpha):
    s = sierpinskisation(o(alpha))
    report = prefix_audit(s, 150)
    assert report.passed, report.failures()


def test_a_negative_prefix_is_refused():
    # an empty prefix would pass the audit, and its timings would count 2 pairs
    finite = decompinver_witness([(from_int(2), from_int(2))])
    for p in (sierpinskisation(OMEGA), finite):
        for call in (lambda: p.prefix(-1), lambda: prefix_audit(p, -1)):
            with pytest.raises(PosetError, match="^vertex count -1 is negative$"):
                call()


def test_sierpinskisation_of_omega_is_a_chain():
    s = sierpinskisation(o("w"))
    vs = s.prefix(10)
    assert all(s.lt(x, y) for x in vs for y in vs if x < y)


def test_audit_catches_an_injected_transitivity_fault():
    s = sierpinskisation(o("w*2"))

    # the audit reads lt_rows, so the fault goes there; lt stays sound
    def lt_rows(vs):
        rows = s.lt_rows(vs)
        rows[vs.index(0)] &= ~(1 << vs.index(5))
        return rows

    broken = LazyPoset(
        vertex=s.vertex,
        lt=s.lt,
        lt_rows=lt_rows,
        keys=s.keys,
        types=s.types,
        certificate=s.certificate,
    )
    report = prefix_audit(broken, 8)
    # 0 < 1 < 5 with the pair (0, 5) dropped
    assert report.checks["transitivity"] == (False, (0, 1, 5))


# -- mixing ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,window",
    [("1", "1", (1, 1)), ("w", "w", (3, 3)), ("w*2", "w*3", (3, 3))],
)
def test_mixing_posets_audit_clean(a, b, window):
    m = mixing_poset(o(a), o(b))
    report = prefix_audit(m, 220, window=window)
    assert report.passed, report.failures()


def test_unpair_inverts_pair():
    # the anti-diagonal walk of the infinite grid, which mixing's triple
    # coding reads, inverts the Cantor pairing
    cell = constructions._diagonal_cell(None, None)

    def pair(x, y):
        return (x + y) * (x + y + 1) // 2 + x

    grid = [(x, y) for x in range(60) for y in range(60)]
    big = [(10**15 + dx, dy) for dx in range(-3, 4) for dy in range(4)]
    big += [(dy, 10**15 + dx) for dx, dy in big]
    for x, y in grid + big:
        assert cell(pair(x, y)) == (x, y)
    # every natural up to 10^4 is a pair code
    assert [pair(*cell(n)) for n in range(10**4)] == list(range(10**4))


def _omega_mixing_rows(m, vs):
    # below w the index enumerations are the identity, so a row of
    # mixing(w, w) is (a, b, left key (a's order key, k1), right key (b's
    # order key, k2)), and a key's first item names its index
    index = {from_int(a)._key: a for a in range(len(vs))}
    rows = []
    for v in vs:
        left, right = m.keys[0](v), m.keys[1](v)
        rows.append((index[left[0]], index[right[0]], left, right))
    return rows


def test_mixing_checks_report_a_repeated_first_key():
    m = mixing_poset(o("w"), o("w"))
    vs = m.prefix(40)
    rows = _omega_mixing_rows(m, vs)
    checks = constructions._mixing_checks(rows, vs, m.lt_rows(vs), None, constructions._Laps())
    assert all(ok for ok, _ in checks.values())
    rows[5] = rows[5][:2] + (rows[2][2],) + rows[5][3:]  # vertex 5 repeats (k1, a) of 2
    checks = constructions._mixing_checks(rows, vs, m.lt_rows(vs), None, constructions._Laps())
    assert checks["bi_functional"] == (False, 5)


def test_mixing_checks_report_an_order_pair_off_the_projection():
    m = mixing_poset(o("w"), o("w"))
    vs = m.prefix(40)
    rows = _omega_mixing_rows(m, vs)
    # i has a larger a-index than j, so (k1, (a, b)) cannot put i below j
    i, j = next((i, j) for i in range(40) for j in range(40) if rows[i][0] > rows[j][0])
    lt = m.lt_rows(vs)
    lt[i] |= 1 << j
    checks = constructions._mixing_checks(rows, vs, lt, None, constructions._Laps())
    assert checks["projection_monotone"] == (False, (vs[i], vs[j]))
    assert checks["bi_functional"] == (True, None)


def test_mixing_audit_reports_the_cells_a_short_prefix_misses():
    m = mixing_poset(o("w"), o("w"))
    cells = {row[:2] for row in _omega_mixing_rows(m, m.prefix(10))}
    want = [(x, y) for x in range(5) for y in range(5) if (x, y) not in cells]
    report = prefix_audit(m, 10, window=(5, 5))
    assert want and report.checks["window_sections"] == (False, want)
    assert set(report.failures()) == {"window_sections"}


def test_mixing_types_and_certificate():
    m = mixing_poset(o("w*2"), o("w*3"))
    assert m.type_left == o("w^2*2") and m.type_right == o("w^2*3")
    assert m.certificate == nat_mul(o("w"), nat_mul(o("w*2"), o("w*3")))


def test_mixing_trivial_case_is_an_omega_antichain_free_mix():
    m = mixing_poset(from_int(1), from_int(1))
    assert m.certificate == o("w")
    report = prefix_audit(m, 120, window=(1, 1))
    assert report.passed, report.failures()


# -- decomposition inversion -------------------------------------------------------


def test_decompinver_two_singletons_make_an_antichain():
    w = decompinver_witness([(from_int(1), from_int(1)), (from_int(1), from_int(1))])
    assert w.certificate == from_int(2)
    vs = w.prefix(2)
    assert not any(w.lt(x, y) for x in vs for y in vs)


def test_decompinver_aligned_blocks_concatenate():
    w = decompinver_witness([(from_int(2), from_int(2)), (from_int(3), from_int(3))])
    assert w.certificate == from_int(5)
    assert w.type_left == from_int(5) and w.type_right == from_int(5)
    assert prefix_audit(w, 5).passed


def test_decompinver_finite_blocks_end():
    w = decompinver_witness([(from_int(2), from_int(2)), (from_int(3), from_int(3))])
    assert w.size == 5 and len(w.prefix(5)) == 5
    with pytest.raises(PosetError):
        w.prefix(6)
    with pytest.raises(PosetError):
        w.vertex(5)
    assert decompinver_witness([(o("w"), o("w")), (from_int(3), from_int(3))]).size is None


@pytest.mark.parametrize("sizes", [[None], [3], [0, None], [2, None, 5], [4, 1, 4],
                                   [None, 2, None, 0, 7], [1, 1, 1]])
def test_round_robin_matches_walking_the_rounds(sizes):
    walked = []
    for d in range(12):
        walked += [(k, d) for k, n in enumerate(sizes) if n is None or d < n]
    locate = constructions._round_robin(sizes)
    total = None if None in sizes else sum(sizes)
    n = len(walked) if total is None else total
    assert [locate(i) for i in range(n)] == walked[:n]
    if total is not None:
        with pytest.raises(PosetError):
            locate(total)


def test_decompinver_prefix_within_budget():
    # about 0.015 s of CPU at n = 4000 on a 2-vCPU x86 machine, where
    # walking every earlier round per vertex took 3.5 s; the budget leaves
    # more than 10x headroom
    w = minoration_witness(o("w*4+7"), o("w+1"))
    start = time.process_time()
    vs = w.prefix(4000)
    cpu = time.process_time() - start
    assert len(set(vs)) == 4000
    # the finite blocks (1 and 7 vertices) run out in the first rounds
    assert vs[:4] == [(0, 0), (1, 0), (2, 0), (1, 1)]
    assert cpu < 0.15, "a 4000-vertex prefix took %.2fs of CPU (budget 0.15s)" % cpu


def test_decompinver_omega_blocks_mix_even_on_the_diagonal():
    # (w, w) is a multiple of omega, so it mixes: certificate w (+) w = w*2
    w = decompinver_witness([(o("w"), o("w")), (o("w"), o("w"))])
    assert w.certificate == o("w*2")
    assert w.type_left == o("w*2") and w.type_right == o("w*2")
    assert prefix_audit(w, 80).passed


def test_decompinver_rejects_mismatched_non_multiple_blocks():
    with pytest.raises(PosetError):
        decompinver_witness([(from_int(2), from_int(3))])


# -- minoration --------------------------------------------------------------------


def test_minoration_example_meets_theta_minus_one():
    w = minoration_witness(o("w*2+3"), o("w*2+4"))
    assert w.certificate == o("w*4+7")
    assert KOrdinal.of(add(w.certificate, ONE)) == theta_plus(o("w*2+3"), o("w*2+4"))
    assert prefix_audit(w, 120).passed


@given(st.integers(0, 2**48))
@settings(max_examples=60, deadline=None)
def test_minoration_certificate_plus_one_is_theta(seed):
    """For infinite countable alpha, beta the witness length certificate sits
    exactly one below theta_plus(alpha, beta)."""
    rng = random.Random(seed)
    a = random_below(rng, o("w^3"))
    b = random_below(rng, o("w^3"))
    if a.is_finite or b.is_finite:
        a, b = add(o("w"), a), add(o("w"), b)
    w = minoration_witness(a, b)
    assert KOrdinal.of(add(w.certificate, ONE)) == theta_plus(a, b)


def test_minoration_witness_prefixes_audit_clean():
    w = minoration_witness(o("w^2+w+1"), o("w*5+2"))
    report = prefix_audit(w, 150)
    assert report.passed, report.failures()


# -- extension ---------------------------------------------------------------------


def test_extend_realizer_identity_and_common_chunk():
    s = sierpinskisation(o("w"))
    assert extend_realizer(s, (o("w"), o("w"))) is s
    g = extend_realizer(s, (o("w*2"), o("w*2")))
    assert g.type_left == o("w*2") and g.type_right == o("w*2")
    assert prefix_audit(g, 100).passed
    old = s.prefix(8)
    new = [v for v in g.prefix(30) if v[0] == 0 and v[1] in old]
    assert all(
        g.lt(x, y) == s.lt(x[1], y[1])
        for x in new for y in new
    )


def test_extend_realizer_over_a_finite_poset_ends():
    g = extend_realizer(decompinver_witness([(from_int(2), from_int(2))]),
                        (from_int(5), from_int(5)))
    assert g.size == 5
    assert [side for side, _ in g.prefix(5)] == [0, 1, 0, 1, 1]
    assert prefix_audit(g, 5).passed
    with pytest.raises(PosetError):
        g.prefix(6)


def test_extend_realizer_grows_left_only():
    s = sierpinskisation(o("w"))
    g = extend_realizer(s, (o("w*2"), o("w")))
    assert g.type_left == o("w*2") and g.type_right == o("w")
    report = prefix_audit(g, 100)
    assert report.passed, report.failures()


def test_left_growth_reads_each_right_rank_once():
    # the right ranks of the originals are read in one walk, not one walk
    # per original: the 1000 originals of a 2000-vertex prefix read ranks
    # 0 .. 999 once each, after the probe of rank 0 that checks the hook
    s = sierpinskisation(o("w"))
    calls = []

    def nth_right(i):
        calls.append(i)
        return s.nth_right(i)

    g = extend_realizer(dataclasses.replace(s, nth_right=nth_right), (o("w*2"), o("w")))
    g.lt_rows(g.prefix(2000))
    assert calls == [0, *range(1000)]


def test_extend_realizer_refuses_shrinking_or_gate_crossing():
    s = sierpinskisation(o("w"))
    with pytest.raises(PosetError):
        extend_realizer(s, (from_int(3), o("w")))
    f = decompinver_witness([(from_int(2), from_int(2))])
    with pytest.raises(PosetError):
        extend_realizer(f, (o("w"), o("w")))


# -- audit matrix checks -----------------------------------------------------------


def test_audit_reports_pass_with_no_witnesses():
    s = sierpinskisation(o("w"))
    report = prefix_audit(s, 30)
    assert all(w is None for ok, w in report.checks.values() if ok)


def test_audit_flags_a_non_linear_comparator():
    s = sierpinskisation(o("w*2"))
    broken = LazyPoset(
        vertex=s.vertex,
        lt=s.lt,
        lt_rows=s.lt_rows,
        keys=(lambda x: 1 if x == 2 else s.keys[0](x), s.keys[1]),  # ties 1 and 2
        types=s.types,
        certificate=s.certificate,
    )
    report = prefix_audit(broken, 8)
    assert report.checks["left_linear"] == (False, (1, 2))


class _Cyclic:
    """A key whose < has no ties but is not transitive: of two values d
    apart, the lower comes first unless 3 divides d."""

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        d = other.v - self.v
        return d != 0 and (d > 0) != (d % 3 == 0)


def test_audit_flags_a_key_whose_order_is_not_transitive():
    # at n = 12 the keys sort and rank as 0 < 1 < ... < 11 with no tie, but
    # key 0 does not come before key 6, six ranks (n//2) above it; where
    # n//2 apart in rank order misses the cycle, 2 or 3 apart catches it.
    # Three keys 0 < 1 < 2 are linear, so n starts at 4
    s = sierpinskisation(o("w"))
    broken = dataclasses.replace(s, keys=(_Cyclic, s.keys[1]))
    assert prefix_audit(broken, 12).failures() == {"left_linear": (0, 6)}
    passed = [n for n in range(3, 61) if prefix_audit(broken, n).checks["left_linear"][0]]
    assert passed == [3]


def test_audit_reports_a_row_bit_past_the_prefix():
    # lt_rows sets bit n of row 0, a vertex outside the prefix: the
    # intersection check names it, and the other checks read the prefix
    s = sierpinskisation(o("w"))

    def lt_rows(vs, bits=None):
        rows = s.lt_rows(vs, bits)
        rows[0] |= 1 << len(vs)
        return rows

    report = prefix_audit(dataclasses.replace(s, lt_rows=lt_rows), 10)
    assert report.failures() == {"intersection": (0, 10)}


def _reference_transitivity(m):
    """The float32 path count, independent of the audit's row walk: exact
    while n < 2**24."""
    f = m.astype(np.float32)
    gap = (f @ f > 0) & ~m
    np.fill_diagonal(gap, False)
    if not gap.any():
        return None
    i, j = map(int, np.argwhere(gap)[0])
    k = int(np.nonzero(m[i] & m[:, j])[0][0])
    return (i, k, j)


@st.composite
def _relations(draw):
    """Bool matrices on up to 40 vertices: sparse and dense (diagonal
    included), and on a `random_dag`: its closed order with one pair
    dropped, a 2-cycle added, or a cycle of 3 or more vertices and no
    2-cycle.  The entries come from a seeded generator."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["sparse", "dense", "dropped", "2-cycle", "long cycle"]))
    density = {"sparse": 2.0 / max(n, 1), "dense": 0.7, "dropped": 0.2}.get(shape, 0.1)
    if shape in ("sparse", "dense"):
        return np.array([[rng.random() < density for _ in range(n)] for _ in range(n)],
                        dtype=bool).reshape(n, n)
    m = relation(n, random_dag(rng, n, density))
    if shape == "dropped":
        m = reach(m)
        pairs = np.argwhere(m)
        if len(pairs):
            i, j = pairs[rng.randrange(len(pairs))]
            m[i, j] = False
    elif shape == "2-cycle" and n >= 2:
        i, j = rng.sample(range(n), 2)
        m[i, j] = m[j, i] = True
    elif shape == "long cycle" and n >= 3:
        on = rng.sample(range(n), rng.randint(3, n))
        for x, y in zip(on, on[1:] + on[:1]):
            m[x, y], m[y, x] = True, False
        assert not (m & m.T).any()
    return m


@given(_relations())
@settings(max_examples=300, deadline=None)
def test_transitivity_witness_matches_the_float32_reference(m):
    assert _transitivity_witness(bitsets(m)) == _reference_transitivity(m)


def test_transitivity_witness_pins_a_gap_behind_a_cycle():
    # a relation with a cycle, 0 < 1 < 0, is walked like any other: the
    # walk must still see 0 < 2 < 3, which a walk skipping successors
    # already reached (as FinPoset.hasse does) passes over: 1 reaches 2
    # before 2's row is read
    m = relation(4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 3)])
    assert _reference_transitivity(m) == (0, 2, 3)
    assert _transitivity_witness(bitsets(m)) == (0, 2, 3)


@given(st.sampled_from(["sierpinskisation", "mixing", "minoration", "decompinver"]),
       st.integers(0, 2**48))
@settings(max_examples=200, deadline=None)
def test_audit_transitivity_matches_the_reference_under_faults(kind, seed):
    # the audit walks the rows only when the intersection check fails, so
    # flipped lt_rows bits (self-loops included) and a key tie must still
    # give the reference verdict and witness
    rng = random.Random(seed)
    p = KEYED[kind](rng)
    vs = p.prefix(rng.randrange(41) if p.size is None else rng.randrange(min(40, p.size) + 1))
    n = len(vs)
    rows = p.lt_rows(vs)
    for _ in range(rng.randrange(4) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i] ^= 1 << j
    keys = list(p.keys)
    if n >= 2 and rng.randrange(2):
        a, b = rng.sample(vs, 2)
        side = rng.randrange(2)
        key = keys[side]
        keys[side] = lambda v: key(a) if v == b else key(v)
    faulty = dataclasses.replace(
        p, keys=tuple(keys), lt_rows=lambda us: list(rows) if us == vs else p.lt_rows(us))
    w = _reference_transitivity(matrix(rows, n))
    assert prefix_audit(faulty, n).checks["transitivity"] == (w is None, w)


def _first_true(mask):
    hits = np.argwhere(mask)
    return tuple(map(int, hits[0])) if len(hits) else None


def _dense_ranks(values):
    rank = {x: r for r, x in enumerate(sorted(set(values)))}
    return np.array([rank[x] for x in values])


def _reference_projection(m, table):
    """The first pair row-major of m outside the order on (k1, (a, b)), as
    a bool-matrix formula on ranks from one sorted set per key: within a
    cell (a, b) by k1, elsewhere by a <= a and b <= b."""
    a, b, k1 = (_dense_ranks([r[side][pos] for r in table])
                for side, pos in ((2, 0), (3, 0), (2, 1)))
    same = (a[:, None] == a) & (b[:, None] == b)
    le = np.where(same, k1[:, None] < k1, (a[:, None] <= a) & (b[:, None] <= b))
    return _first_true(m & ~le)


@given(st.sampled_from(["sierpinskisation", "mixing", "minoration", "decompinver", "extend_both",
                        "extend_left"]), st.integers(0, 2**48))
@settings(max_examples=200, deadline=None)
def test_audit_row_checks_match_the_matrix_formulas_under_faults(kind, seed):
    # antisymmetry against m & m.T, and for mixing projection_monotone
    # against its matrix formula, under flipped lt_rows bits, self-loops,
    # symmetric pairs and, in the mixing table, a vertex given another's
    # left key (a tie in a or in k1) or both keys (same cell, same k1)
    rng = random.Random(seed)
    p = KEYED[kind](rng)
    vs = p.prefix(rng.randrange(41) if p.size is None else rng.randrange(min(40, p.size) + 1))
    n = len(vs)
    rows = p.lt_rows(vs)
    for _ in range(rng.randrange(4) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i] ^= 1 << j
        if rng.randrange(2):
            rows[j] |= 1 << i
    faulty = dataclasses.replace(p, lt_rows=lambda us: list(rows) if us == vs else p.lt_rows(us))
    m = matrix(rows, n)
    w = _first_true(m & m.T)
    assert prefix_audit(faulty, n).checks["antisymmetry"] == (w is None, w)
    if kind != "mixing":
        return
    table = [(0, 0, p.keys[0](v), p.keys[1](v)) for v in vs]
    for _ in range(rng.randrange(3) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        table[i] = (0, 0, table[j][2], table[rng.choice([i, j])][3])
    w = _reference_projection(m, table)
    checks = constructions._mixing_checks(table, vs, rows, None, constructions._Laps())
    want = None if w is None else (vs[w[0]], vs[w[1]])
    assert checks["projection_monotone"] == (w is None, want)


@given(st.lists(st.integers(0, 12), max_size=30))
@settings(max_examples=200, deadline=None)
def test_linear_witness_reports_the_first_tie_row_major(keys):
    # integer keys are linear under <, so only a tie can fail; the witness
    # is the first off-diagonal pair with equal keys in row-major order
    n = len(keys)
    tie = next(((i, j) for i in range(n) for j in range(n) if i != j and keys[i] == keys[j]),
               None)
    assert _linear_witness(keys, *_ranks(keys)[:2]) == tie


# -- key-ranked realizers ----------------------------------------------------------


def test_omega_times_is_the_product_it_stands_for():
    # random_blocks draws w*i as omega_times(i) where it once drew
    # mul(OMEGA, i), with the same rng calls, so its draws are the old ones
    # value for value
    for x in (*INDICES, *(random_ordinal(random.Random(s)) for s in range(300))):
        assert omega_times(x) == mul(OMEGA, x), x


def test_ordinal_sum_is_the_sum_it_stands_for():
    # random_common_chunk draws w + g and alpha + g with ordinal_sum where
    # it once drew them with add, with the same rng calls, so its draws are
    # the old ones value for value
    for s in range(500):
        rng = random.Random(s)
        alpha = random_infinite(rng)
        g = rng.choice([from_int(rng.randrange(1, 6)), random_infinite(rng)])
        assert random_common_chunk(random.Random(s)) == (alpha, (add(OMEGA, g), add(alpha, g)))
        a, b = random_ordinal(rng), random_ordinal(rng)
        assert ordinal_sum(a, b) == add(a, b), (a, b)


def _extend_both(rng):
    alpha, target = random_common_chunk(rng)
    return extend_realizer(sierpinskisation(alpha), target)


KEYED = {
    "sierpinskisation": lambda rng: sierpinskisation(random_infinite(rng)),
    "mixing": lambda rng: mixing_poset(random_index(rng), random_index(rng)),
    "decompinver": lambda rng: decompinver_witness(random_blocks(rng)),
    "minoration": lambda rng: minoration_witness(random_infinite(rng), random_infinite(rng)),
    # a common chunk on both sides, then left growth alone
    "extend_both": _extend_both,
    "extend_left": lambda rng: extend_realizer(
        sierpinskisation(o("w")), (add(o("w"), random_infinite(rng)), o("w"))),
}


@pytest.mark.parametrize("kind", sorted(KEYED))
@given(st.integers(0, 2**48))
@settings(max_examples=10, deadline=None)
def test_key_ranks_match_pairwise_key_comparisons(kind, seed):
    rng = random.Random(seed)
    p = KEYED[kind](rng)
    vs = p.prefix(40 if p.size is None else min(40, p.size))
    for key in p.keys:
        keys = [key(v) for v in vs]
        want = np.array([[kx < ky for ky in keys] for kx in keys])
        order, rank, tails = _ranks(keys)
        r = np.array(rank)
        assert ((r[:, None] < r[None, :]) == want).all()
        assert sorted(order, key=rank.__getitem__) == order
        assert [tails[r + 1] for r in rank] == bitsets(want)


@pytest.mark.parametrize("kind", sorted(KEYED))
@given(st.integers(0, 2**48))
@settings(max_examples=6, deadline=None)
def test_lt_matrix_matches_the_pairwise_oracle(kind, seed):
    # decompinver draws aligned, mixing and finite blocks; extend_both
    # takes the common-chunk branch, extend_left grows sierp(w) on the left
    rng = random.Random(seed)
    p = KEYED[kind](rng)
    n = rng.randrange(1, 301)
    vs = p.prefix(n if p.size is None else min(n, p.size))
    rng.shuffle(vs)  # any vertex list, not only a prefix in order
    assert p.lt_rows(vs) == relation_rows(vs, p.lt)


@pytest.mark.parametrize("kind", sorted(KEYED))
@given(st.integers(0, 2**48))
@settings(max_examples=25, deadline=None)
def test_prefix_rows_are_closed_and_acyclic(kind, seed):
    # `wpolab construct` writes these rows with no closure pass, so they
    # must be the pairwise order and equal their own closure under
    # cases.reach, which then has an empty diagonal: closed and acyclic
    rng = random.Random(seed)
    p = KEYED[kind](rng)
    n = rng.randrange(81)
    vs = p.prefix(n if p.size is None else min(n, p.size))
    rows = p.lt_rows(vs)
    assert rows == relation_rows(vs, p.lt)
    closure = reach(matrix(rows, len(vs)))
    assert bitsets(closure) == rows and not closure.diagonal().any()


BASE_CHECKS = {"antisymmetry", "transitivity", "left_linear", "right_linear", "intersection"}


@pytest.mark.parametrize("kind", sorted(KEYED))
@pytest.mark.parametrize("window", [None, (1, 1)])
def test_audit_check_names(kind, window):
    p = KEYED[kind](random.Random(0))
    report = prefix_audit(p, 30 if p.size is None else min(30, p.size), window=window)
    want = set(BASE_CHECKS)
    if kind == "mixing":
        want |= {"bi_functional", "projection_monotone"}
        if window is not None:
            want.add("window_sections")
    assert set(report.checks) == want
    # one timing lap per check, plus the shared steps
    assert set(report.timings) == want | {"vertices", "lt", "left_key", "right_key"}


CONSTRUCTORS = {
    "sierpinskisation": lambda x: sierpinskisation(x),
    "mixing": lambda x: mixing_poset(x, o("w")),
    "decompinver": lambda x: decompinver_witness([(x, x)]),
    "minoration": lambda x: minoration_witness(o("w"), x),
    "extend": lambda x: extend_realizer(sierpinskisation(o("w")), (x, o("w"))),
}


@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
@pytest.mark.parametrize("bad", ["w", 2.5, None])
def test_constructions_reject_a_non_ordinal_argument(kind, bad):
    with pytest.raises(OrdinalError):
        CONSTRUCTORS[kind](bad)


def test_sierp_enumerations_are_bijective_on_the_prefix():
    for text in ("w", "w*2", "w^2+w*3+5", "w^w"):
        alpha = o(text)
        s = sierpinskisation(alpha)
        e = enum_below(alpha)
        values = [e.at(i) for i in range(300)]
        assert [e.index(v) for v in values] == list(range(300))
        # the right key ranks the prefix as the values do, with no tie
        keys = [s.keys[1](i) for i in range(300)]
        assert len(set(keys)) == 300
        assert (sorted(range(300), key=keys.__getitem__)
                == sorted(range(300), key=values.__getitem__))


def _ordinal_comparisons(run) -> dict:
    """The Python-level calls of CnfOrdinal's four orders made by run()."""
    codes = {getattr(CnfOrdinal, name).__code__: name
             for name in ("__lt__", "__le__", "__gt__", "__ge__")}
    seen = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return dict(seen)


@pytest.mark.parametrize("make", [
    lambda: sierpinskisation(o("w^(w*2+1)*2+w^9*3+w^4+7")),
    lambda: mixing_poset(o("w*2"), o("w+1")),
], ids=["sierp", "mixing"])
def test_audit_compares_no_ordinals(make):
    # ranks and realizer keys read block paths and order keys, plain tuples
    # compared in C; ranking the values instead made 3184 and 3993 __lt__
    # calls here
    p = make()
    reports = []
    assert _ordinal_comparisons(lambda: reports.append(prefix_audit(p, 200))) == {}
    assert reports[0].passed, reports[0].failures()


def _repeat_an_enumeration_value(monkeypatch):
    # on a fresh instance only: the value memo that every enumeration
    # shares stays clean
    def enum_below(alpha):
        e = Enumeration(alpha)
        at = e.at
        e.at = lambda i: at(6 if i == 7 else i)
        return e

    monkeypatch.setattr(constructions, "enum_below", enum_below)


def _reverse_batch_ranks(monkeypatch):
    ranks = constructions._index_ranks
    monkeypatch.setattr(constructions, "_index_ranks",
                        lambda indices, at: [-r for r in ranks(indices, at)])


@pytest.mark.parametrize("fault,check", [
    (_repeat_an_enumeration_value, "enumeration_bijective"),
    (_reverse_batch_ranks, "lt_rows"),
])
def test_constructions_suite_reports_an_injected_fault(monkeypatch, fault, check):
    assert run_suite("constructions_prefix", 40, 0).passed
    fault(monkeypatch)
    labels = [label for label, _, _ in run_suite("constructions_prefix", 40, 0).failures]
    assert "sierp(w*2) %s" % check in labels


def test_mixing_audit_cpu_budget():
    # 2.8-3.6 ms of CPU on a 2-vCPU x86 machine (Python 3.11.7, five fresh
    # processes); the budget leaves room for a much slower machine
    start = time.process_time()
    report = prefix_audit(mixing_poset(o("w"), o("w")), 300, window=(3, 3))
    cpu = time.process_time() - start
    assert report.passed, report.failures()
    assert cpu < 0.75, "mixing(w, w) audit at N=300 took %.2fs of CPU (budget 0.75s)" % cpu
