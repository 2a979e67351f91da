import copy
import functools
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from wpolab.cardinals import (
    MAX_LEVEL,
    KOrdinal,
    LevelOverflowError,
    cardinality,
    hartog,
    k_add,
    k_nat_add,
    k_ul_nat_add,
    omega_level,
    parse_k,
    render_k,
)
from wpolab.ordinals import (OMEGA, ONE, ZERO, CnfOrdinal, OrdinalError, from_int, nat_add,
                             parse_ordinal)
from wpolab.oracles import random_ordinal

from cases import K_ORDINALS, ORDINALS, kordinals, random_below, random_kordinal, reference_lt

o = parse_ordinal
W1 = omega_level(1)
W2 = omega_level(2)


def test_canonical_decomposition():
    a = KOrdinal.at_level(2, o("w+1"), KOrdinal.at_level(1, o("3"), o("w*2+5")))
    assert a.level == 2
    assert a.q == o("w+1")
    assert a.r == KOrdinal.at_level(1, o("3"), o("w*2+5"))
    assert a.r.r == KOrdinal.of(o("w*2+5"))


def test_level0_decomposition():
    a = KOrdinal.of(o("w^2+w*3+4"))
    assert a.level == 0
    assert a.q == o("w+3")
    assert a.r == KOrdinal.of(4)


def test_remainder_must_sit_below_level():
    with pytest.raises(OrdinalError):
        KOrdinal.at_level(1, o("2"), W1)
    with pytest.raises(OrdinalError):
        KOrdinal.at_level(0, o("1"), o("w"))


@pytest.mark.parametrize("level", [-1, MAX_LEVEL + 1])
def test_at_level_refuses_a_level_outside_the_scale(level):
    # as omega_level does: omega_10 would render as a W10 that parse_k refuses
    with pytest.raises(LevelOverflowError, match="^omega_%d is outside the modelled scale$"
                       % level):
        KOrdinal.at_level(level, 1)


def test_ordering_is_by_scale_then_tail():
    assert KOrdinal.of(o("w^w")) < W1 < k_add(W1, 1) < KOrdinal.at_level(1, o("2")) < W2
    assert max(W2, KOrdinal.at_level(2, o("1"), W1)) == KOrdinal.at_level(2, o("1"), W1)


def test_hash_agrees_with_equality():
    # a countable KOrdinal equals its CnfOrdinal, so sets and dicts find it
    for x in (ZERO, OMEGA, o("1"), o("w^w*3+7")):
        assert KOrdinal.of(x) == x and hash(KOrdinal.of(x)) == hash(x)
        assert x in {KOrdinal.of(x)} and KOrdinal.of(x) in {x}
    assert W1 in {KOrdinal.at_level(1, o("1"))}
    assert KOrdinal.at_level(1, o("1"), o("w")) not in {W1, OMEGA}


def test_cardinality_and_hartog():
    assert cardinality(KOrdinal.of(5)) == KOrdinal.of(5)
    assert cardinality(KOrdinal.of(o("w^2+1"))) == KOrdinal.of(OMEGA)
    assert cardinality(KOrdinal.at_level(3, o("w*2"), W1)) == omega_level(3)
    assert hartog(KOrdinal.of(5)) == KOrdinal.of(6)
    assert hartog(KOrdinal.of(o("w*7+1"))) == W1
    assert hartog(KOrdinal.at_level(1, o("2"), o("w"))) == W2
    with pytest.raises(LevelOverflowError):
        hartog(omega_level(9))


def test_successor_pred():
    a = KOrdinal.at_level(1, o("2"))
    assert a.succ().pred() == a
    assert a.is_limit and a.succ().is_successor


def test_k_add_absorbs_low_tail():
    assert k_add(KOrdinal.of(o("w+3")), W1) == W1
    assert k_add(W1, KOrdinal.of(o("w"))) == KOrdinal.at_level(1, o("1"), o("w"))
    assert k_add(KOrdinal.at_level(1, o("2"), o("5")), W1) == KOrdinal.at_level(1, o("3"))


def test_k_nat_add_is_scalewise():
    a = KOrdinal.at_level(2, o("w"), KOrdinal.of(o("w+1")))
    b = KOrdinal.at_level(2, o("2"), KOrdinal.at_level(1, o("1"), o("w")))
    s = k_nat_add(a, b)
    assert s == KOrdinal.at_level(2, o("w+2"), KOrdinal.at_level(1, o("1"), o("w*2+1")))


def test_k_ul_nat_add():
    assert k_ul_nat_add(W1, W1) == W1  # omega_1 is a fixpoint (indecomposable)
    assert k_ul_nat_add(omega_level(4), omega_level(4)) == omega_level(4)
    # countable values, checked by hand
    for x, y, want in [("w+1", "w+1", "w*2+1"), ("w*2", "w", "w*2"), ("5", "3", "7")]:
        assert k_ul_nat_add(o(x), o(y)) == KOrdinal.of(o(want))
    # a successor above omega_1 against omega_1
    a = k_add(W1, 1)
    assert k_ul_nat_add(a, W1) == KOrdinal.at_level(1, o("2"))


@pytest.mark.parametrize("a, b, want", [
    # the higher scale comes from b alone
    ("W1*(2)+(5)", "W2*(1)+(0)", "W2*(1)+(0)"),
    # equal lowest scales, a successor coefficient
    ("W1*(w+1)+(0)", "W1*(2)+(0)", "W1*(w+2)+(0)"),
    # successor tails under a scale
    ("W3*(1)+(4)", "W3*(w)+(2)", "W3*(w+1)+(5)"),
    # b's lowest scale lies below a's: b's W1 coefficient counts as 0 + 1
    ("W2*(3)+(W1*(w)+(0))", "W2*(1)+(w^2)", "W2*(4)+(W1*(w)+(0))"),
    # the top scale, with the +1 on b
    ("W9*(1)+(0)", "W9*(2)+(7)", "W9*(3)+(0)"),
])
def test_k_ul_nat_add_frozen_towers(a, b, want):
    assert k_ul_nat_add(parse_k(a), parse_k(b)) == parse_k(want)
    assert k_ul_nat_add(parse_k(b), parse_k(a)) == parse_k(want)


def _lowered(rng, a):
    """A random tower below a nonzero a: its lowest nonzero coefficient
    lowered, with a random tail on the scales below it."""
    coeffs = list(a.coeffs)
    low = min(j for j, c in enumerate(coeffs) if not c.is_zero)
    coeffs[low] = random_below(rng, coeffs[low])
    for j in range(low):
        coeffs[j] = random_ordinal(rng, depth=2) if rng.random() < 0.5 else ZERO
    return KOrdinal(tuple(coeffs))


towers = kordinals(MAX_LEVEL)


@given(towers, towers, st.integers(0, 2**48))
@settings(max_examples=200)
def test_k_ul_nat_add_bounds_every_lower_sum(a, b, seed):
    # a' < a and b' < b give a' (+) b' < the underlined sum of a and b
    rng = random.Random(seed)
    u = k_ul_nat_add(a, b)
    for _ in range(10):
        assert k_nat_add(_lowered(rng, a), _lowered(rng, b)) < u


def test_render_parse_roundtrip():
    vals = [
        KOrdinal.of(o("w^2+3")),
        W1,
        KOrdinal.at_level(2, o("w+1"), KOrdinal.at_level(1, o("3"), o("w"))),
    ]
    for v in vals:
        assert parse_k(render_k(v)) == v
    assert render_k(W1) == "W1*(1)+(0)"
    assert parse_k("w*2+1") == KOrdinal.of(o("w*2+1"))


def test_parse_k_rejects_malformed():
    for bad in ["W1*(0)+(0)", "W10*(1)+(0)", "W1*(w", "W1(1)+(2)"]:
        with pytest.raises(OrdinalError):
            parse_k(bad)


def test_parse_k_reads_the_scale_by_its_digits():
    # leading zeros do not count toward the scale's length; 5000 nines is
    # out of range without converting the run to an int
    assert parse_k("W%s1*(1)+(0)" % ("0" * 5000)) == W1
    with pytest.raises(LevelOverflowError):
        parse_k("W%s*(1)+(0)" % ("9" * 5000))


# -- the order key and the value contract -------------------------------------


def _reference_coeffs(x) -> tuple:
    """x's scale coefficients, a CnfOrdinal lifted by hand."""
    return x.coeffs if isinstance(x, KOrdinal) else (x,) + (ZERO,) * MAX_LEVEL


def _reference_k_lt(a, b) -> bool:
    """The order of towers by its definition, independent of the keys `_k`:
    tuple(reversed(coeffs)) compared lexicographically, the coefficients
    by cases.reference_lt."""
    for x, y in zip(reversed(_reference_coeffs(a)), reversed(_reference_coeffs(b))):
        if x is not y:
            return reference_lt(x, y)
    return False


def _reference_k_cmp(a, b) -> int:
    return _reference_k_lt(b, a) - _reference_k_lt(a, b)


def assert_k_order_agrees(a, b):
    lt, gt = _reference_k_lt(a, b), _reference_k_lt(b, a)
    assert (a < b, a > b, a <= b, a >= b) == (lt, gt, not gt, not lt)
    assert (a == b, a != b) == (not lt and not gt, lt or gt)
    assert max(a, b) is (b if lt else a)
    assert min(a, b) is (b if gt else a)


def assert_k_sort_agrees(values):
    # both sorts are stable, so equal values keep their places in both
    got = sorted(values)
    want = sorted(values, key=functools.cmp_to_key(_reference_k_cmp))
    assert all(x is y for x, y in zip(got, want))
    assert max(values) is functools.reduce(lambda x, y: y if _reference_k_lt(x, y) else x, values)
    assert min(values) is functools.reduce(lambda x, y: y if _reference_k_lt(y, x) else x, values)


def _replaced(a: KOrdinal, j: int, c: CnfOrdinal) -> KOrdinal:
    return KOrdinal(a.coeffs[:j] + (c,) + a.coeffs[j + 1:])


@given(K_ORDINALS, K_ORDINALS)
def test_k_order_agrees_with_the_reference(a, b):
    assert_k_order_agrees(a, b)
    assert_k_order_agrees(b, a)
    assert_k_order_agrees(a, KOrdinal(a.coeffs))  # equal, not the same object


@given(K_ORDINALS, st.integers(0, MAX_LEVEL), ORDINALS, ORDINALS)
def test_k_order_agrees_on_towers_that_differ_at_one_scale(a, j, x, y):
    b, c = _replaced(a, j, x), _replaced(a, j, y)
    assert_k_order_agrees(b, c)
    assert_k_order_agrees(c, b)
    # the lifts and the scale arithmetic build their keys and levels from
    # known parts; the checking constructor finds both again
    for v in (b.succ(), k_add(b, c), k_nat_add(b, c), k_ul_nat_add(b, c), b.r, c.r):
        assert v.level == KOrdinal(v.coeffs).level
        assert_k_order_agrees(v, KOrdinal(v.coeffs))
        assert_k_order_agrees(v, b)


@given(K_ORDINALS, ORDINALS, ORDINALS)
def test_k_order_agrees_with_cnf_operands(a, x, y):
    for k in (a, KOrdinal.of(x), KOrdinal.at_level(0, x, 3)):
        for c in (x, y):
            assert_k_order_agrees(k, c)
            assert_k_order_agrees(c, k)


@given(st.lists(st.one_of(K_ORDINALS, ORDINALS, ORDINALS.map(KOrdinal.of)),
                min_size=1, max_size=12))
def test_k_sort_agrees_with_the_reference(values):
    assert_k_sort_agrees(values)
    assert_k_sort_agrees(values + [copy.copy(v) for v in values])


def test_k_sort_agrees_on_a_scale_ladder():
    # omega_0 .. omega_9 with and without tails, shuffled
    values = [omega_level(k) for k in range(MAX_LEVEL + 1)]
    values += [k_add(v, t) for v in values for t in (ONE, OMEGA, W1)]
    values += [KOrdinal.of(n) for n in range(3)]
    random.Random(2).shuffle(values)
    assert_k_sort_agrees(values)


def test_level_is_the_highest_nonzero_scale():
    assert KOrdinal().level == 0 and KOrdinal().is_zero
    for j in range(MAX_LEVEL + 1):
        for tail in (ZERO, OMEGA):
            coeffs = [tail] + [ZERO] * MAX_LEVEL
            coeffs[j] = nat_add(coeffs[j], ONE)
            a = KOrdinal(tuple(coeffs))
            assert a.level == j and a.succ().level == j and a.r.level == 0
            assert parse_k(render_k(a)).level == j
            if j and tail is ZERO:
                assert a == omega_level(j)


def test_towers_rebuilt_by_pickle_and_deepcopy():
    rng = random.Random(6)
    # coefficients no other test builds, so the rebuilt towers hold new
    # instances made through the constructors, not the ones dumped
    scales = [rng.randint(1, MAX_LEVEL) for _ in range(30)]
    fresh = [k_nat_add(random_kordinal(rng, max_level=MAX_LEVEL),
                       KOrdinal.at_level(j, from_int(10**40 + i)))
             for i, j in enumerate(scales)]
    fresh += [KOrdinal.of(from_int(10**40 + 100 + i)) for i in range(5)]
    texts = [render_k(a) for a in fresh]
    levels = [a.level for a in fresh]
    hashes = [hash(a) for a in fresh]
    dumped = pickle.dumps(fresh)
    probe = weakref.ref(fresh[0].coeffs[scales[0]])
    del fresh
    gc.collect()
    assert probe() is None
    for rebuilt in (pickle.loads(dumped), copy.deepcopy(pickle.loads(dumped))):
        assert [render_k(a) for a in rebuilt] == texts
        assert [a.level for a in rebuilt] == levels
        assert [hash(a) for a in rebuilt] == hashes
        assert all(a == parse_k(t) and a._k == parse_k(t)._k for a, t in zip(rebuilt, texts))
        for a in rebuilt[::3]:
            for b in rebuilt[::2]:
                assert_k_order_agrees(a, b)
        assert_k_sort_agrees(rebuilt)


def test_towers_are_immutable():
    a = KOrdinal.at_level(2, o("w+1"), W1)
    for name, value in (("coeffs", W2.coeffs), ("level", 5), ("_k", W2._k), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    for name in ("coeffs", "level", "_k"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == KOrdinal.at_level(2, o("w+1"), W1) and a.level == 2


@pytest.mark.parametrize("coeffs, message", [
    ((ZERO,) * MAX_LEVEL, "expected 10 scale coefficients"),
    ((ZERO,) * (MAX_LEVEL + 2), "expected 10 scale coefficients"),
    ((3,) + (ZERO,) * MAX_LEVEL, "scale coefficient 3 is not a CNF ordinal"),
    ((ZERO,) * MAX_LEVEL + (True,), "scale coefficient True is not a CNF ordinal"),
    ((ZERO, W1) + (ZERO,) * (MAX_LEVEL - 1),
     r"scale coefficient KOrdinal\(W1\*\(1\)\+\(0\)\) is not a CNF ordinal"),
    (None, "expected 10 scale coefficients"),
    (5, "expected 10 scale coefficients"),
])
def test_constructor_refuses_bad_coefficients(coeffs, message):
    with pytest.raises(OrdinalError, match="^%s$" % message):
        KOrdinal(coeffs)


def test_a_countable_tower_is_not_an_int():
    # == and hash agree: a tower equals no int, as a CnfOrdinal equals none
    assert not KOrdinal.of(3) == 3 and KOrdinal.of(3) != 3 and 3 != KOrdinal.of(3)
    assert not from_int(3) == 3
    assert len({3, KOrdinal.of(3)}) == 2
    assert KOrdinal.of(3) == from_int(3) and len({from_int(3), KOrdinal.of(3)}) == 1


def test_a_tower_compared_with_a_bool_is_unequal():
    assert (KOrdinal.of(1) == True) is False  # noqa: E712
    assert (KOrdinal.of(0) != False) is True  # noqa: E712


@pytest.mark.parametrize("other", ["a", 3, 2.5, None, (ZERO,)])
def test_a_tower_has_no_order_with_other_types(other):
    a = KOrdinal.of(1)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        a < other
    with pytest.raises(TypeError):
        other >= a
    with pytest.raises(TypeError):
        max(a, other)
