import pytest

from wpolab.cardinals import (
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
    # countable values agree with the CNF-level operation
    from wpolab.ordinals import ul_nat_add

    for x, y in [(o("w+1"), o("w+1")), (o("w*2"), o("w")), (o("5"), o("3"))]:
        assert k_ul_nat_add(x, y) == KOrdinal.of(ul_nat_add(x, y))
    # a successor above omega_1 against omega_1
    a = k_add(W1, 1)
    assert k_ul_nat_add(a, W1) == KOrdinal.at_level(1, o("2"))


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
