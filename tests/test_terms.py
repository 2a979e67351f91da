"""Term algebra: de Jongh-Parikh lengths, prefixes, and the term grammar."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpolab.constructions import relation_rows
from wpolab.io import MAX_VERTICES
from wpolab.ordinals import (
    OrdinalError,
    add,
    from_int,
    parse_ordinal,
)
from wpolab.posets import PosetError, antichain, chain, length_fin, make_poset
from wpolab import terms
from wpolab.terms import (
    DSum,
    Fin,
    LexSum,
    Ord,
    Prod,
    denote_prefix,
    length_term,
    parse_term,
    render_term,
    term_size,
)

from cases import closed_poset, matrix, posets, random_below


def o(text):
    return parse_ordinal(text)


def test_length_of_leaves():
    assert length_term(Ord(o("w^2"))) == o("w^2")
    assert length_term(Fin(chain(4))) == from_int(4)
    assert length_term(Fin(antichain(4))) == from_int(4)


def test_length_of_combinators():
    assert length_term(DSum(Ord(o("w")), Ord(o("w")))) == o("w*2")
    assert length_term(Prod(Ord(o("w+1")), Ord(o("w+1")))) == o("w^2+w*2+1")
    assert length_term(LexSum(Ord(from_int(1)), Ord(o("w")))) == o("w")
    assert length_term(LexSum(Ord(o("w")), Ord(from_int(1)))) == o("w+1")


@given(st.integers(0, 2**48))
@settings(max_examples=60)
def test_length_is_commutative_for_dsum_and_prod(seed):
    rng = random.Random(seed)
    a = Ord(random_below(rng, o("w^3")))
    b = Ord(random_below(rng, o("w^3")))
    assert length_term(DSum(a, b)) == length_term(DSum(b, a))
    assert length_term(Prod(a, b)) == length_term(Prod(b, a))
    assert length_term(LexSum(a, b)) == add(a.alpha, b.alpha)


def test_denote_prefix_of_finite_terms_is_full():
    assert denote_prefix(Fin(chain(3)), 5) == chain(3)
    assert denote_prefix(Ord(o("w")), 4) == chain(4)
    assert denote_prefix(Fin(antichain(2)), 10) == antichain(2)


def test_denote_prefix_refuses_a_negative_budget():
    for t in (Fin(chain(3)), Ord(o("w"))):
        with pytest.raises(PosetError, match="^vertex count -1 is negative$"):
            denote_prefix(t, -1)


def test_dsum_prefix_alternates_factors():
    p = denote_prefix(DSum(Ord(o("w")), Ord(o("w"))), 4)
    assert p.le == frozenset({(0, 2), (1, 3)})


def test_lexsum_prefix_still_orders_left_below_right():
    p = denote_prefix(LexSum(Ord(o("w")), Ord(o("w"))), 4)
    # even slots are the left chain, odd the right; all left below all right
    assert p.le == frozenset({(0, 2), (1, 3), (0, 1), (0, 3), (2, 1), (2, 3)})


def test_interleaving_survives_a_finite_factor():
    p = denote_prefix(DSum(Fin(chain(1)), Ord(o("w"))), 5)
    # vertex 0 is the singleton; the rest is a chain of 4
    assert p.le == frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)})


def test_product_prefix_is_the_product_order():
    p = denote_prefix(Prod(Ord(o("w")), Ord(o("w"))), 6)
    # anti-diagonal order: (0,0), (0,1), (1,0), (0,2), (1,1), (2,0)
    assert (0, 1) in p.le and (0, 2) in p.le and (1, 4) in p.le
    assert (1, 2) not in p.le and (2, 1) not in p.le  # incomparable pair


@pytest.mark.parametrize(
    "t",
    [
        Fin(make_poset(3, [(0, 1)])),
        DSum(Fin(chain(2)), Fin(antichain(2))),
        Prod(Fin(chain(2)), Fin(chain(3))),
        LexSum(Fin(antichain(2)), Fin(chain(2))),
        Prod(Ord(from_int(3)), DSum(Ord(from_int(2)), Fin(chain(2)))),
    ],
)
def test_finite_term_length_matches_the_denoted_poset(t):
    n = term_size(t)
    assert n is not None
    full = denote_prefix(t, n + 3)
    assert full.n == n
    assert length_term(t) == from_int(length_fin(full))


@given(st.integers(0, 2**48))
@settings(max_examples=40, deadline=None)
def test_monotone_budget_gives_induced_subposets(seed):
    rng = random.Random(seed)
    leaves = [Ord(o("w")), Ord(o("w*2")), Fin(chain(3)), Ord(from_int(4))]
    a, b = rng.choice(leaves), rng.choice(leaves)
    t = rng.choice([DSum, LexSum, Prod])(a, b)
    m = rng.randrange(1, 8)
    n = rng.randrange(m, 12)
    big = denote_prefix(t, n)
    assert denote_prefix(t, m) == big.restrict(range(min(m, big.n)))


def test_product_enumeration_walks_anti_diagonals():
    # (i, j) cells of the index grid, first index ascending on each diagonal
    for sa, sb in [("w", "w"), ("3", "w"), ("w", "3"), ("2", "5"), ("5", "2"), ("4", "4")]:
        d = terms._denote(Prod(Ord(o(sa)), Ord(o(sb))))
        walk = [(i, s - i) for s in range(30) for i in range(s + 1)
                if (sa == "w" or i < int(sa)) and (sb == "w" or s - i < int(sb))]
        n = len(walk) if d.size is None else d.size
        assert [d.vertex(k) for k in range(n)] == walk[:n]
        if d.size is not None:
            with pytest.raises(OrdinalError):
                d.vertex(d.size)


def _pairwise_prefix(t, budget):
    """denote_prefix through the pairwise comparator LazyOrder.lt, closed by
    `cases.closed_poset`; denote_prefix runs no closure, so equality also
    shows that its rows come out closed."""
    d = terms._denote(t)
    n = budget if d.size is None else min(budget, d.size)
    vs = [d.vertex(i) for i in range(n)]
    return closed_poset(matrix(relation_rows(vs, d.lt), n))


ORD_LEAVES = st.sampled_from(["0", "1", "3", "w", "w+2", "w*2", "w^2", "w^2*3+w+1",
                              "w^4+w^2"]).map(lambda text: Ord(o(text)))


FIN_LEAVES = st.one_of(st.integers(0, 6).map(chain), st.integers(0, 6).map(antichain),
                       posets(6)).map(Fin)


def poset_terms(depth):
    leaves = st.one_of(ORD_LEAVES, FIN_LEAVES)
    if depth == 0:
        return leaves
    sub = poset_terms(depth - 1)
    return st.one_of(leaves, st.builds(lambda node, a, b: node(a, b),
                                       st.sampled_from([DSum, LexSum, Prod]), sub, sub))


@given(poset_terms(3), st.one_of(st.integers(0, 12), st.integers(0, 60), st.integers(0, 500)))
@settings(max_examples=150, deadline=None)
def test_batch_denotation_matches_the_pairwise_oracle(t, budget):
    assert denote_prefix(t, budget) == _pairwise_prefix(t, budget)


@given(poset_terms(3), st.integers(0, 40), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_batch_order_matches_the_pairwise_order_on_any_vertex_list(t, budget, rng):
    # a prefix gives every node its leading vertices; a shuffled sample of
    # one does not, so this reaches the general lt_rows(vs) of each node
    d = terms._denote(t)
    vs = d.prefix(budget if d.size is None else min(budget, d.size))
    vs = rng.sample(vs, rng.randrange(len(vs) + 1))
    assert d.lt_rows(vs) == relation_rows(vs, d.lt)


def test_a_2000_vertex_product_prefix_stays_fast():
    # about 0.2 s of CPU on a 2-vCPU x86 machine; the budget leaves more
    # than 2x headroom
    t = parse_term("prod(ord(w), ord(w))")
    start = time.process_time()
    p = denote_prefix(t, 2000)
    cpu = time.process_time() - start
    assert p.n == 2000 and p.successors[0] == (1 << 2000) - 2  # (0, 0) is least
    assert cpu < 1.5, "took %.2fs of CPU (budget 1.5s)" % cpu


def test_term_size():
    assert term_size(Ord(o("w"))) is None
    assert term_size(Prod(Ord(from_int(0)), Ord(o("w")))) == 0
    assert term_size(DSum(Fin(chain(2)), Fin(chain(3)))) == 5
    assert term_size(Prod(Fin(chain(2)), Fin(chain(3)))) == 6


# -- grammar -----------------------------------------------------------------------


def test_parse_term_examples():
    assert parse_term("ord(w)") == Ord(o("w"))
    assert parse_term("dsum(ord(w), fin(chain3))") == DSum(Ord(o("w")), Fin(chain(3)))
    assert parse_term("prod(ord(w+1), ord(w+1))") == Prod(Ord(o("w+1")), Ord(o("w+1")))
    assert parse_term("fin(antichain2)") == Fin(antichain(2))


def test_parse_term_nested_and_whitespace():
    t = parse_term(" lexsum( dsum(ord(w^2), ord(3)) , prod(ord(w), fin(chain2)) ) ")
    assert isinstance(t, LexSum) and isinstance(t.left, DSum) and isinstance(t.right, Prod)
    assert parse_term(render_term(t)) == t


def test_parse_term_from_poset_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"n": 3, "le": [[0, 1], [1, 2]]}')
    assert parse_term("fin(@%s)" % path) == Fin(chain(3))


def test_inline_finite_posets_are_bounded():
    big = MAX_VERTICES
    assert parse_term("fin(antichain%d)" % big) == Fin(antichain(big))
    assert parse_term("fin(chain007)") == Fin(chain(7))
    for body in ("chain%d" % (big + 1), "antichain%d" % (big + 1), "chain" + "9" * 5000):
        with pytest.raises(PosetError, match="at most %d vertices" % big):
            parse_term("fin(%s)" % body)


def test_parse_term_checks_the_whole_text_before_building(monkeypatch):
    with pytest.raises(OrdinalError, match="trailing input"):
        parse_term("fin(@/no/such/file)junk")

    def unexpected(n):
        raise AssertionError("built a poset for a malformed term")

    monkeypatch.setattr(terms, "chain", unexpected)
    with pytest.raises(OrdinalError, match="trailing input"):
        parse_term("dsum(fin(chain5), ord(w)) junk")


@pytest.mark.parametrize(
    "bad",
    ["", "ord(w", "dsum(ord(w))", "prod(ord(w), ord(w)) junk", "fin(triangle3)",
     "dsum(ord(w) ord(w))"],
)
def test_parse_term_rejects_malformed_input(bad):
    with pytest.raises(OrdinalError):
        parse_term(bad)


def test_render_term_round_trips():
    for text in ["ord(w^2+w*3+5)", "fin(chain7)", "fin(antichain2)",
                 "dsum(lexsum(ord(w), ord(1)), prod(ord(w), ord(w)))"]:
        assert render_term(parse_term(text)) == text


def test_render_term_refuses_exotic_finite_posets():
    with pytest.raises(PosetError):
        render_term(Fin(make_poset(3, [(0, 1)])))
