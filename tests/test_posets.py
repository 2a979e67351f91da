import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wpolab.cli import main
from wpolab.io import export_poset
from wpolab.oracles import length_by_bad_sequences
from wpolab.ordinals import clip
from wpolab.posets import (
    FinPoset,
    PosetError,
    all_posets,
    antichain,
    bad_tree_height,
    chain,
    embeds,
    intersect,
    length_fin,
    length_recursive,
    linear_extensions,
    longcut_fin,
    make_poset,
    poset_of_matrix,
)
from wpolab.posets import _cycle, _predecessors
from wpolab.terms import DSum, Fin, LexSum, Prod, denote_prefix

from cases import closed_poset, cycle_steps, posets, random_dag, reach, relation


def test_make_poset():
    p = make_poset(3, [(0, 1), (1, 2)])
    assert p.le == frozenset({(0, 1), (1, 2), (0, 2)})


def test_chain_is_the_closure_of_its_covers():
    for n in range(65):
        assert chain(n) == make_poset(n, [(i, i + 1) for i in range(n - 1)])
    assert antichain(3).le == frozenset()
    with pytest.raises(PosetError):
        make_poset(2, [(0, 1), (1, 0)])
    with pytest.raises(PosetError):
        make_poset(3, [(0, 1), (1, 2), (2, 0)])  # closure finds the cycle
    with pytest.raises(PosetError):
        make_poset(2, [(0, 5)])
    with pytest.raises(PosetError):
        make_poset(-3, [])


def test_intersect():
    c = chain(3)
    rev = make_poset(3, [(2, 1), (1, 0)])
    assert intersect(c, rev).le == frozenset()
    assert intersect(c, c) == c
    relabeled = make_poset(3, [(0, 2), (2, 1)])  # chain 0 < 2 < 1
    assert intersect(c, relabeled).le == frozenset({(0, 1), (0, 2)})
    with pytest.raises(PosetError):
        intersect(chain(2), chain(3))


def test_linear_extensions():
    assert list(linear_extensions(chain(3))) == [(0, 1, 2)]
    assert len(list(linear_extensions(antichain(3)))) == 6
    v = make_poset(3, [(0, 1), (0, 2)])
    assert set(linear_extensions(v)) == {(0, 1, 2), (0, 2, 1)}
    # each extension respects every strict pair positionally
    p = make_poset(4, [(0, 2), (1, 2), (2, 3)])
    for perm in linear_extensions(p):
        pos = {v: i for i, v in enumerate(perm)}
        assert all(pos[i] < pos[j] for (i, j) in p.le)


def test_length_trio_small():
    assert length_fin(antichain(0)) == 0
    assert length_recursive(antichain(0)) == 0
    assert length_recursive(antichain(2)) == 2
    assert length_recursive(chain(3)) == 3
    v = make_poset(3, [(0, 1), (0, 2)])
    assert bad_tree_height(v) == 3
    assert bad_tree_height(chain(3)) == 3
    assert bad_tree_height(antichain(3)) == 3


def test_length_trio_exhaustive_n3():
    for p in all_posets(3):
        assert length_fin(p) == length_recursive(p) == bad_tree_height(p) == 3
        assert length_by_bad_sequences(p.n, p.le) == 3


def test_all_posets_counts():
    # labeled partial orders: 1, 1, 3, 19, 219
    assert sum(1 for _ in all_posets(0)) == 1
    assert sum(1 for _ in all_posets(2)) == 3
    assert sum(1 for _ in all_posets(3)) == 19


def test_combine():
    # sums and products of finite posets are term denotations; the labels
    # follow the canonical enumeration (sums alternate their factors)
    two = chain(2)
    ds = denote_prefix(DSum(Fin(two), Fin(two)), 4)
    assert ds.n == 4 and ds.le == frozenset({(0, 2), (1, 3)})
    diamond = denote_prefix(Prod(Fin(two), Fin(two)), 4)
    assert diamond.n == 4
    assert diamond.le == frozenset({(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)})
    assert length_fin(diamond) == 4  # 2 (x) 2
    ls = denote_prefix(LexSum(Fin(antichain(2)), Fin(chain(1))), 3)
    assert ls.le == frozenset({(0, 1), (2, 1)})


def test_embeds():
    assert embeds(chain(2), chain(3))
    assert not embeds(antichain(2), chain(3))
    v = make_poset(3, [(0, 1), (0, 2)])
    diamond = denote_prefix(Prod(Fin(chain(2)), Fin(chain(2))), 4)
    assert embeds(v, diamond)
    assert not embeds(diamond, v)


def test_embeds_refuses_a_larger_poset_before_searching(monkeypatch):
    # the search starts by reading q's predecessor bitsets
    calls = []
    monkeypatch.setattr("wpolab.posets._predecessors",
                        lambda *a: calls.append(1) or _predecessors(*a))
    assert not embeds(antichain(9), antichain(8))
    assert calls == []
    assert embeds(antichain(8), antichain(8)) and calls == [1]


def _reference_embeds(p: FinPoset, q: FinPoset) -> bool:
    """The order-embedding test by its definition: some injective map f of
    p's vertices into q's has p.lt(u, v) == q.lt(f(u), f(v)) on every
    ordered pair."""
    return any(all(p.lt(u, v) == q.lt(f[u], f[v]) for u in range(p.n) for v in range(p.n))
               for f in itertools.permutations(range(q.n), p.n))


def test_embeds_agrees_with_the_reference_on_every_small_pair():
    small = [p for n in range(4) for p in all_posets(n)]
    for p in small:
        for q in small:
            assert embeds(p, q) == _reference_embeds(p, q), (p, q)


@given(posets(7), posets(7))
@settings(max_examples=300)
def test_embeds_agrees_with_the_reference_on_random_pairs(p, q):
    assert embeds(p, q) == _reference_embeds(p, q)


def test_embeds_a_2000_chain_without_recursion():
    # 0.5 s of CPU on a 2-vCPU x86 machine, where the recursive search hit
    # the recursion limit above about 1000 vertices; the budget leaves 10x
    start = time.process_time()
    assert embeds(chain(2000), chain(2000))
    assert time.process_time() - start < 5.0


def test_longcut():
    assert longcut_fin(chain(5), 2, 3) == ((0, 1), (2, 3, 4))
    assert longcut_fin(antichain(3), 2, 1) == ((0, 1), (2,))
    with pytest.raises(PosetError):
        longcut_fin(chain(2), 2, 1)
    for a1, a2 in ((-1, 3), (3, -1)):  # the sum is right, a size is not
        with pytest.raises(PosetError, match="cut size -1 is negative"):
            longcut_fin(chain(2), a1, a2)
    # initial part is downward closed
    p = make_poset(4, [(2, 0), (3, 1)])
    lo, hi = longcut_fin(p, 2, 2)
    assert all(i in lo for j in lo for i in range(p.n) if p.lt(i, j))


def _reference_longcut(p: FinPoset, a1: int) -> tuple:
    """The first size-a1 vertex set, in itertools.combinations' lexicographic
    order, that is downward closed, with its complement."""
    for initial in itertools.combinations(range(p.n), a1):
        if all(i in initial for j in initial for i in range(p.n) if p.lt(i, j)):
            return initial, tuple(v for v in range(p.n) if v not in initial)
    raise AssertionError("no downward-closed set of size %d" % a1)


def test_longcut_matches_the_search_on_every_small_poset():
    for n in range(5):
        for p in all_posets(n):
            for a1 in range(n + 1):
                assert longcut_fin(p, a1, n - a1) == _reference_longcut(p, a1), (p, a1)


@settings(max_examples=300)
@given(posets(8), st.data())
def test_longcut_matches_the_search_on_random_posets(p, data):
    a1 = data.draw(st.integers(0, p.n))
    assert longcut_fin(p, a1, p.n - a1) == _reference_longcut(p, a1)


def test_longcut_of_a_long_reversed_chain_is_fast():
    # the only cut of 100 vertices is {100..199}, the last of C(200, 100)
    # combinations; about 0.4 ms of CPU on a 2-vCPU x86 machine (the
    # combinations search took 0.9 s at n = 22), so the budget leaves 100x
    n = 200
    p = closed_poset(relation(n, [(i + 1, i) for i in range(n - 1)]))
    start = time.process_time()
    cut = longcut_fin(p, n // 2, n - n // 2)
    cpu = time.process_time() - start
    assert cut == (tuple(range(n // 2, n)), tuple(range(n // 2)))
    assert cpu < 0.05, "longcut_fin took %.3fs of CPU (budget 0.05s)" % cpu


def test_dejongh_parikh_small_pairs():
    threes = list(all_posets(3))[:6] + [chain(3), antichain(3)]
    twos = list(all_posets(2))
    for p, q in itertools.product(twos, threes):
        assert length_fin(denote_prefix(DSum(Fin(p), Fin(q)), p.n + q.n)) == p.n + q.n
        prod = denote_prefix(Prod(Fin(p), Fin(q)), p.n * q.n)
        assert length_recursive(prod) == p.n * q.n
        assert length_fin(denote_prefix(LexSum(Fin(p), Fin(q)), p.n + q.n)) == p.n + q.n


def test_restriction_bounds():
    for p in all_posets(3):
        for k in range(4):
            for sub in itertools.combinations(range(3), k):
                rest = tuple(v for v in range(3) if v not in sub)
                a = length_fin(p.restrict(sub))
                b = length_fin(p.restrict(rest))
                assert a <= length_fin(p) <= a + b


def test_hasse_reduction():
    c = chain(3)
    assert c.hasse == frozenset({(0, 1), (1, 2)})
    assert antichain(2).hasse == frozenset()


# -- bitset engine against an independent model ------------------------------------


@st.composite
def edge_sets(draw, n):
    """Random edges on n vertices; half of them forced acyclic (edges
    i -> j with i < j, relabelled by a random permutation) so that large
    posets occur."""
    if n == 0:
        return set()
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=n * n // 2))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        edges = {(perm[min(e)], perm[max(e)]) for e in edges if e[0] != e[1]}
    return edges


@st.composite
def digraphs(draw):
    n = draw(st.integers(0, 8))
    return n, draw(edge_sets(n))


@settings(max_examples=400)
@given(digraphs(), st.data())
def test_make_poset_matches_reachability(graph, data):
    n, edges = graph
    if reach(relation(n, edges)).diagonal().any():  # a cycle or a self-loop
        with pytest.raises(PosetError):
            make_poset(n, edges)
        return
    p = make_poset(n, edges)
    assert p == closed_poset(relation(n, edges))
    pairs = p.le
    assert p.hasse == {(i, j) for i, j in pairs
                       if not any(p.lt(i, k) and p.lt(k, j) for k in range(n))}
    assert p.minimal() == [v for v in range(n) if not any((u, v) in pairs for u in range(n))]
    q = make_poset(n, [(j, i) for (i, j) in edges])  # the dual order
    assert intersect(p, q).le == frozenset()
    assert intersect(p, p) == p
    # a second digraph on the same vertices: the intersection is the
    # common part of the two reachability relations
    other = data.draw(edge_sets(n))
    if not reach(relation(n, other)).diagonal().any():
        both = intersect(p, make_poset(n, other))
        assert both.le == pairs & closed_poset(relation(n, other)).le
        assert both == make_poset(n, both.le)


@settings(max_examples=200)
@given(digraphs())
def test_a_cycle_is_reported_by_a_shortest_witness(graph):
    n, edges = graph
    m = relation(n, edges)
    cyclic = list(np.flatnonzero(reach(m).diagonal()))
    if not cyclic:
        return
    with pytest.raises(PosetError, match="le is not antisymmetric; cycle witness") as info:
        make_poset(n, edges)
    witness = info.value.cycle
    assert str(info.value) == "le is not antisymmetric; cycle witness " + clip(str(witness))
    # a closed walk along generating pairs through the lowest cyclic vertex,
    # as short as any closed walk through it
    start = cyclic[0]
    assert witness[0] == witness[-1] == start
    assert all((u, v) in edges for u, v in zip(witness, witness[1:]))
    assert len(witness) - 1 == cycle_steps(m, start)


def test_cycle_search_returns_none_off_every_cycle():
    rows = [0b10, 0b100, 0b10]  # 0 -> 1 -> 2 -> 1: 0 reaches a cycle, lies on none
    assert _cycle(rows, 0) is None
    assert _cycle(rows, 1) == [1, 2, 1]
    assert _cycle(rows, 2) == [2, 1, 2]
    assert _cycle([0b10, 0b100, 0], 0) is None  # a chain
    assert _cycle([0b1], 0) == [0, 0]  # a self-loop


# -- closure at larger n ---------------------------------------------------------


@st.composite
def wide_digraphs(draw):
    """Digraphs on up to 64 vertices, in four shapes on a `random_dag`: a
    sparse DAG, an order already closed, a dense order, and a DAG with a
    cycle placed among its high-numbered vertices.  The edges come from a
    seeded generator: one hypothesis draw per edge is slow at this size."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(["sparse", "closed", "dense", "cycle"]))
    density = {"sparse": 2.0 / n, "closed": 0.2, "dense": 0.9, "cycle": 0.1}[shape]
    edges = set(random_dag(rng, n, density))
    if shape == "closed":
        edges = set(closed_poset(relation(n, edges)).le)
    elif shape == "cycle":
        # a closed walk through k of the top vertices; k = 1 is a self-loop
        top = list(range(n // 2, n))
        on = rng.sample(top, rng.randint(1, len(top)))
        edges |= set(zip(on, on[1:] + on[:1]))
    return n, edges


@settings(max_examples=300)
@given(wide_digraphs())
def test_closure_matches_a_matrix_fixpoint(graph):
    n, edges = graph
    m = relation(n, edges)
    cyclic = list(np.flatnonzero(reach(m).diagonal()))
    if not cyclic:
        assert make_poset(n, edges) == poset_of_matrix(m) == closed_poset(m)
        return
    errors = []
    for build in (lambda: make_poset(n, edges), lambda: poset_of_matrix(m)):
        with pytest.raises(PosetError) as info:
            build()
        errors.append(info.value)
    witness = errors[0].cycle
    assert errors[1].cycle == witness
    for error in errors:
        assert str(error) == "le is not antisymmetric; cycle witness " + clip(str(witness))
    # a closed walk along generating pairs through the lowest cyclic vertex,
    # as short as any closed walk through it
    start = cyclic[0]
    assert witness[0] == witness[-1] == start
    assert all((u, v) in edges for u, v in zip(witness, witness[1:]))
    assert len(witness) - 1 == cycle_steps(m, start)


def test_pack_reads_rows_in_any_memory_layout():
    # poset_of_matrix packs each row of bools itself: a numpy bool row
    # through its buffer, in whatever layout, and any other row by value
    rng = np.random.default_rng(7)
    for n in (1, 8, 9, 70):
        m = np.triu(rng.random((n, n)) < 0.3, 1)
        m = reach(m)  # closed, so the closure keeps the packed rows as they are
        want = FinPoset(n, tuple(sum(1 << int(j) for j in np.flatnonzero(row)) for row in m))
        perm = rng.permutation(n)
        relabelled = m[perm][:, perm]  # a gathered copy, in neither C nor Fortran order
        assert poset_of_matrix(m) == poset_of_matrix(np.asfortranarray(m)) == want
        assert poset_of_matrix(m.tolist()) == poset_of_matrix(m.astype(np.int64)) == want
        assert poset_of_matrix(relabelled) == poset_of_matrix(np.ascontiguousarray(relabelled))
        strided = np.zeros((n, 2 * n), dtype=bool)
        strided[:, ::2] = m
        assert poset_of_matrix(strided[:, ::2]) == want  # rows with a stride of 2 bytes


def test_closing_a_closed_2000_chain_visits_only_covers():
    # each takes about 0.01s of CPU on a 2-vCPU x86 machine, where a
    # closure that revisits every row takes 0.35s; the budget leaves 10x
    # headroom
    m = np.triu(np.ones((2000, 2000), dtype=bool), 1)
    leaf = Fin(chain(2000))
    for name, close in (("poset_of_matrix", lambda: poset_of_matrix(m)),
                        ("denote_prefix", lambda: denote_prefix(leaf, 2000))):
        start = time.process_time()
        p = close()
        cpu = time.process_time() - start
        assert p == chain(2000)
        assert cpu < 0.1, "%s took %.3fs of CPU (budget 0.1s)" % (name, cpu)


# the meta `wpolab construct` writes, and strings json.dumps must escape
CONSTRUCT_META = {"construction": "sierp", "parameters": ["w^2"], "prefix": 8,
                  "type_left": "w^2", "type_right": "w^2", "certificate": "w^2*2"}
ESCAPED_META = {"q\"uote": 'say "hi"', "back\\slash": ["a\\b", "\\"],
                "non-ascii": "\u03c9\u2080 \u00e9", "ctrl": "\t\n\x00"}
METAS = st.one_of(st.none(), st.just(CONSTRUCT_META), st.just(ESCAPED_META),
                  st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3))


@settings(max_examples=300)
@given(posets(8), METAS)
@example(chain(0), None)
@example(chain(1), CONSTRUCT_META)
@example(antichain(1), ESCAPED_META)
def test_json_export_lists_pairs_in_sorted_order(p, meta):
    # the document as json.dumps writes it from the pairs
    extra = {} if meta is None else {"meta": meta}
    want = json.dumps({"n": p.n, "le": sorted(map(list, p.le)), **extra}, sort_keys=True)
    assert export_poset(p, "json", meta=meta) == want


def _reference_covers(p: FinPoset) -> list:
    """The covering pairs by their definition, on `reach` of the order:
    (i, j) with i < j and no k with i < k < j; sorted."""
    r = reach(relation(p.n, p.le))
    return [(i, j) for i in range(p.n) for j in range(p.n)
            if r[i, j] and not (r[i] & r[:, j]).any()]


@settings(max_examples=300)
@given(posets(8))
@example(chain(0))
@example(chain(1))
def test_dot_export_lists_the_covers_in_sorted_order(p):
    want = ["digraph poset {", *("  %d;" % v for v in range(p.n)),
            *("  %d -> %d;" % e for e in _reference_covers(p)), "}"]
    assert export_poset(p, "dot") == "\n".join(want) + "\n"


@given(posets(8))
def test_hasse_is_the_pairs_of_covers(p):
    assert p.hasse == {(i, j) for i in range(p.n) for j in range(p.n) if p.covers[i] >> j & 1}
    assert sorted(p.hasse) == _reference_covers(p)


@pytest.mark.parametrize("argv", [
    ["construct", "sierp", "w^2", "--prefix", "300"],
    ["poset", "intersect", "fin(chain300)", "fin(chain300)", "--format", "dot"],
])
def test_closure_and_reduction_scale(argv, capsys):
    # each takes about 0.2s of CPU on a 2-vCPU x86 machine; the budget
    # leaves more than 2x headroom
    start = time.process_time()
    assert main(argv) == 0
    cpu = time.process_time() - start
    assert capsys.readouterr().out
    assert cpu < 1.5, "%s took %.2fs of CPU (budget 1.5s)" % (" ".join(argv), cpu)
