import random

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
from wpolab.ordinals import OMEGA, ZERO, OrdinalError, parse_ordinal

from test_bounds import random_below, random_kordinal
from test_ordinals import random_ordinal

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


towers = st.integers(0, 2**48).map(
    lambda s: random_kordinal(random.Random(s), max_level=MAX_LEVEL))


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
