"""Tests for the theta operator calculus.

The closed forms in wpolab.bounds are validated three ways: frozen
hand-checked values, soundness sampling (every tuple drawn strictly below
the bounds stays below the claimed sup+, the least strict upper bound),
and agreement with the generic bracket_tilde combinator, which computes
the same suprema by cofinal sampling instead of by formula.
"""

import random

import pytest
from hypothesis import given, strategies as st

from wpolab.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    add,
    nat_add,
    parse_ordinal as o,
    ul_nat_add,
)
from wpolab.cardinals import (
    MAX_LEVEL,
    KOrdinal,
    LevelOverflowError,
    cardinality,
    k_nat_add,
    k_ul_nat_add,
    omega_level,
    parse_k,
)
from wpolab.bounds import (
    BoundOp,
    THETA_PLUS,
    UnsupportedSupremum,
    bracket_plus,
    bracket_tilde,
    equipotent,
    nat_mul_box_sup,
    reduction_identity_check,
    reduction_identity_sides,
    theta_box_sup,
    theta_len,
    theta_plus,
    theta_sharp,
    theta_tilde,
    _top_stratum,
)
from wpolab.oracles import random_ordinal

from cases import K_ORDINALS, kordinals, random_below, random_kordinal

K = KOrdinal.of
W1 = omega_level(1)
W2 = omega_level(2)

kords = kordinals()


# -- theta_plus ---------------------------------------------------------------


def test_theta_plus_examples():
    assert theta_plus(o("w*2+3"), o("w*2+4")) == K(o("w*4+8"))
    assert theta_plus(o("w*2+3"), o("w*2+4")) == theta_plus(o("w*2+4"), o("w*2+3"))
    assert theta_plus(3, 3) == K(4)
    assert theta_plus(3, 4) == K(0)  # non-equipotent finite tuples are gated
    assert theta_plus(o("w"), o("w+5")) == K(o("w+6"))
    assert theta_plus(o("w"), o("w^2+w")) == K(o("w^2+w+1"))
    assert theta_plus(o("w*2"), o("w*3+1"), o("w*5+2")) == K(o("w*30+4"))
    # arity one is the plain successor
    assert theta_plus(o("w^w")) == K(o("w^w+1"))
    assert theta_plus(W1) == parse_k("W1*(1)+(1)")


def test_theta_plus_diagonal_on_initials():
    for kappa in [K(OMEGA)] + [omega_level(k) for k in range(1, 10)]:
        assert theta_plus(kappa, kappa) == kappa.succ()
        assert theta_plus(kappa, kappa, kappa) == kappa.succ()


def test_theta_plus_omega_left_unit():
    # theta_plus(omega, a) = a + 1 for every infinite countable a
    rng = random.Random(7)
    for _ in range(80):
        a = random_ordinal(rng)
        if a.is_finite:
            continue
        assert theta_plus(OMEGA, a) == K(a).succ()


def test_theta_plus_uncountable_remainders():
    # infinite remainders fold into the hartog of the largest one
    a = parse_k("W2*(3)+(W1*(2)+(0))")
    b = parse_k("W2*(5)+(w)")
    assert theta_plus(a, b) == parse_k("W2*(16)+(0)")
    # one level down: remainders stay below the stratum
    c = parse_k("W3*(2)+(W1*(1)+(0))")
    d = parse_k("W3*(4)+(w^2)")
    assert theta_plus(c, d) == parse_k("W3*(8)+(W2*(1)+(0))")
    # all-finite remainders add up
    assert theta_plus(parse_k("W1*(2)+(3)"), parse_k("W1*(w)+(4)")) == parse_k(
        "W1*(w*2)+(8)"
    )


def test_theta_plus_gate():
    assert theta_plus(o("w"), W1) == K(0)
    assert theta_plus(5, o("w")) == K(0)
    assert not equipotent([o("w"), W1])
    assert equipotent([o("w*3+1"), o("w^2")])


@given(kords, kords)
def test_theta_plus_symmetric(a, b):
    assert theta_plus(a, b) == theta_plus(b, a)


@given(kords, kords)
def test_theta_plus_beats_max_and_stays_below_product(a, b):
    if a.is_finite or not equipotent([a, b]):
        return
    v = theta_plus(a, b)
    assert max(a, b) < v
    if a.level == 0:
        from wpolab.ordinals import nat_mul

        cap = KOrdinal.of(nat_mul(a.countable(), b.countable())).succ()
        assert not cap < v


@given(kords, kords, kords)
def test_theta_plus_monotone(a, b, c):
    lo, hi = sorted([a, b])
    if equipotent([lo, c]) and equipotent([hi, c]):
        assert not theta_plus(hi, c) < theta_plus(lo, c)


# -- underlined box suprema over natural sum / product -------------------------


# Every box supremum is its least strict upper bound sup+: attained, at its
# predecessor, exactly when it is a successor.  The natural-sum box
# { x_i < g_i } has sup+ ul_nat_add(g_1, .., g_m).


def test_nat_add_box_sup_examples():
    assert ul_nat_add(o("5")) == o("5")  # attained at 4
    assert ul_nat_add(o("3"), o("4")) == o("6")
    assert ul_nat_add(o("w")) == OMEGA
    assert ul_nat_add(o("w+1"), o("w*2")) == o("w*3")
    assert ul_nat_add(o("w^2+1"), o("w*3")) == o("w^2+w*3")
    # indecomposable bounds absorb each other: x (+) y < w^2 whenever both are
    assert ul_nat_add(o("w^2"), o("w^2")) == o("w^2")


def test_nat_add_box_sup_sound():
    rng = random.Random(21)
    for _ in range(60):
        gs = [random_ordinal(rng, depth=2) for _ in range(rng.randint(1, 3))]
        gs = [g if not g.is_zero else ONE for g in gs]
        bound = ul_nat_add(*gs)
        for _ in range(40):
            xs = [random_below(rng, g) for g in gs]
            s = ZERO
            for x in xs:
                s = nat_add(s, x)
            assert s < bound


def test_nat_mul_box_sup_examples():
    assert nat_mul_box_sup(o("3"), [o("5")]) == o("13")  # attained at 12
    assert nat_mul_box_sup(ONE, [o("w")]) == OMEGA
    # sup{(w+1) (x) Q : Q < w*2} = w^2*2
    assert nat_mul_box_sup(o("w+1"), [o("w*2")]) == o("w^2*2")
    assert nat_mul_box_sup(ONE, [o("w"), o("w")]) == o("w")
    assert nat_mul_box_sup(o("2"), [o("w+1"), o("3")]) == o("w*4+1")


def test_nat_mul_box_sup_sound():
    from wpolab.ordinals import nat_mul

    rng = random.Random(22)
    for _ in range(60):
        fixed = random_ordinal(rng, depth=2)
        if fixed.is_zero:
            fixed = ONE
        qs = []
        for _ in range(rng.randint(1, 2)):
            q = random_ordinal(rng, depth=2)
            while q.is_zero or q == ONE:
                q = random_ordinal(rng, depth=2)
            qs.append(q)
        bound = nat_mul_box_sup(fixed, qs)
        for _ in range(40):
            prod = fixed
            for q in qs:
                x = random_below(rng, q)
                prod = nat_mul(prod, x if not x.is_zero else ONE)
            assert prod < bound


# -- theta_tilde ----------------------------------------------------------------


def test_theta_tilde_frozen():
    assert theta_tilde(o("w"), o("w")) == K(OMEGA)
    assert theta_tilde(o("w+1"), o("w+1")) == K(o("w+1"))
    assert theta_tilde(o("w*2"), o("w*2")) == K(o("w*2"))
    assert theta_tilde(o("w"), o("w*2")) == K(OMEGA)
    assert theta_tilde(4, 7) == K(4)
    assert theta_tilde(o("w*2+4"), o("w*2+5")) == K(o("w*4+8"))
    # a bound past the next initial ordinal saturates the stratum
    assert theta_tilde(o("w*2"), W1) == W1
    assert theta_tilde(W1, W1) == W1
    assert theta_tilde(parse_k("W1*(2)+(0)"), parse_k("W1*(2)+(0)")) == parse_k(
        "W1*(2)+(0)"
    )
    assert theta_tilde(parse_k("W1*(w)+(0)"), parse_k("W1*(2)+(0)")) == parse_k(
        "W1*(w)+(0)"
    )


# Frozen closed-form values, one row per branch of the box supremum: empty
# boxes, single bounds, the finite stratum, the jump to the next initial
# ordinal, attained and unattained product boxes, forced and free limit
# quotients, and every remainder case (finite, omega, countable past omega,
# omega_k itself, past omega_k).  Each theta_sharp row lists the four flag
# combinations (under_first, under_second) = FF, TF, FT, TT.
THETA_TILDE_TABLE = [
    (("0", "w"), "0"),
    (("w", "0"), "0"),
    (("5",), "5"),
    (("w",), "w"),
    (("W1*(2)+(0)",), "W1*(2)+(0)"),
    (("W1*(1)+(3)",), "W1*(1)+(3)"),
    (("4", "7"), "4"),
    (("3", "w*2"), "3"),
    (("w", "w"), "w"),
    (("w+1", "w+1"), "w+1"),
    (("w*2", "w*2"), "w*2"),
    (("w", "w*2"), "w"),
    (("w*2+4", "w*2+5"), "w*4+8"),
    (("w^2", "w*2+1"), "w^2"),
    (("w*3", "w*2+1"), "w*5"),
    (("w^3", "w^2*2"), "w^4"),
    (("w^w", "w^w"), "w^w"),
    (("w^2+w", "w*5+1"), "w^2*5+w"),
    (("w*2", "W1*(1)+(0)"), "W1*(1)+(0)"),
    (("W1*(1)+(0)", "W1*(1)+(0)"), "W1*(1)+(0)"),
    (("w+1", "w*2", "w^2+1"), "w^2+w"),
    (("W1*(1)+(w+3)", "W1*(2)+(5)"), "W1*(3)+(0)"),
    (("W1*(2)+(w)", "W1*(1)+(1)"), "W1*(2)+(w)"),
    (("W1*(2)+(0)", "W1*(3)+(0)"), "W1*(3)+(0)"),
    (("W1*(w)+(0)", "W1*(2)+(0)"), "W1*(w)+(0)"),
    (("W1*(w*2)+(0)", "W1*(w^2+w)+(0)"), "W1*(w^3*2)+(0)"),
    (("W2*(1)+(W1*(2)+(0))", "W2*(2)+(1)"), "W2*(3)+(0)"),
    (("W2*(3)+(W1*(1)+(w))", "W2*(1)+(W1*(1)+(0))"), "W2*(4)+(0)"),
    (("W9*(2)+(0)", "W9*(1)+(1)"), "W9*(2)+(0)"),
    (("W1*(2)+(1)", "W2*(1)+(0)"), "W2*(1)+(0)"),
    (("w*2+1", "w*3", "w^2"), "w^2"),
    (("W1*(1)+(1)", "W1*(1)+(1)", "W1*(1)+(1)"), "W1*(1)+(1)"),
]

THETA_SHARP_TABLE = [
    (("0", "0"), ["1", "0", "0", "0"]),
    (("0", "w"), ["1", "0", "1", "0"]),
    (("2", "2"), ["3", "2", "2", "2"]),
    (("3", "5"), ["4", "3", "4", "3"]),
    (("w", "w"), ["w+1", "w", "w", "w"]),
    (("w", "w*2"), ["w*2+1", "w", "w*2", "w"]),
    (("w*2+3", "w*2+4"), ["w*4+8", "w*4+7", "w*4+7", "w*4+6"]),
    (("w^2", "w*2"), ["w^2*2+1", "w^2", "w^2+w", "w^2"]),
    (("w*2", "w^2+w"), ["w^2*2+w*2+1", "w^2+w*2", "w^2*2+w", "w^2+w"]),
    (("W1*(1)+(0)", "W1*(1)+(0)"),
     ["W1*(1)+(1)", "W1*(1)+(0)", "W1*(1)+(0)", "W1*(1)+(0)"]),
    (("W1*(1)+(w)", "W1*(1)+(w)"),
     ["W1*(2)+(1)", "W1*(2)+(1)", "W1*(2)+(1)", "W1*(1)+(w)"]),
    (("W1*(2)+(w+1)", "W1*(1)+(3)"),
     ["W1*(3)+(1)", "W1*(3)+(1)", "W1*(3)+(1)", "W1*(3)+(1)"]),
    (("W1*(w)+(0)", "W1*(2)+(5)"),
     ["W1*(w*2)+(6)", "W1*(w)+(0)", "W1*(w*2)+(5)", "W1*(w)+(0)"]),
    (("W2*(1)+(0)", "W2*(1)+(W1*(1)+(0))"),
     ["W2*(2)+(1)", "W2*(1)+(0)", "W2*(1)+(W1*(1)+(1))", "W2*(1)+(0)"]),
    (("w^w", "w^2+1"), ["w^(w+1)+2", "w^w", "w^(w+1)+1", "w^w"]),
    (("W1*(3)+(0)", "W1*(3)+(0)"),
     ["W1*(9)+(1)", "W1*(7)+(1)", "W1*(7)+(1)", "W1*(5)+(1)"]),
    (("w*2", "W1*(1)+(0)"),
     ["W1*(1)+(0)", "W1*(1)+(0)", "W1*(1)+(0)", "W1*(1)+(0)"]),
]

SHARP_FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def test_theta_tilde_frozen_table():
    for args, want in THETA_TILDE_TABLE:
        assert theta_tilde(*map(parse_k, args)) == parse_k(want), args


def test_theta_sharp_frozen_table():
    for (a, b), wants in THETA_SHARP_TABLE:
        for (f1, f2), want in zip(SHARP_FLAGS, wants):
            got = theta_sharp(parse_k(a), parse_k(b), under_first=f1, under_second=f2)
            assert got == parse_k(want), (a, b, f1, f2)


def test_theta_sharp_closed_box_is_theta_len_plus_one():
    # with both slots closed the corner (a, b) is the box's maximum, so the
    # sup+ of theta_len over the box is its value there plus one; this pins
    # theta_sharp from below, where the majoration tests only bound it above
    rng = random.Random(1)
    pairs = [(random_kordinal(rng), random_kordinal(rng)) for _ in range(3000)]
    pairs = [(parse_k("W1*(1)+(w)"), W1)] + [p for p in pairs if equipotent(p)]
    for a, b in pairs:
        assert theta_sharp(a, b) == theta_len(a, b).succ(), (a, b)


def test_theta_tilde_attained_iff_successor_corner():
    # sup+ w*4+9: the supremum w*4+8 is attained at the corner (w*2+3, w*2+4)
    assert theta_box_sup([o("w*2+4"), o("w*2+5")]) == K(o("w*4+9"))
    assert theta_plus(o("w*2+3"), o("w*2+4")) == K(o("w*4+8"))
    # limit sup+: not attained
    assert theta_box_sup([o("w"), o("w")]) == K(OMEGA)
    assert theta_box_sup([o("w*2"), W1]) == W1


def test_theta_tilde_sound_countable():
    rng = random.Random(31)
    for _ in range(50):
        bs = [random_ordinal(rng, depth=2) for _ in range(rng.randint(1, 3))]
        bs = [b if not b.is_zero else ONE for b in bs]
        v = theta_tilde(*bs)
        for _ in range(30):
            xs = [random_below(rng, b) for b in bs]
            assert not v < theta_plus(*xs)


def test_theta_tilde_matches_generic_combinator():
    """The closed form and the sampling combinator are independent paths."""
    generic = bracket_tilde(THETA_PLUS)
    rng = random.Random(47)
    cases = [
        (o("w"), o("w")),
        (o("w+1"), o("w+1")),
        (o("w*2"), o("w^2")),
        (o("w^2+w"), o("w*5+1")),
        (o("w^w"), o("w^w")),
        (o("w+1"), o("w*2"), o("w^2+1")),
        (W1.succ(), W1.succ()),
        (parse_k("W1*(2)+(1)"), parse_k("W1*(3)+(1)")),
        (parse_k("W2*(2)+(1)"), parse_k("W2*(1)+(2)")),
    ]
    for _ in range(40):
        cases.append(tuple(random_ordinal(rng, depth=2) for _ in range(2)))
    for bs in cases:
        bs = [K(b) for b in bs]
        if any(b.is_zero for b in bs):
            continue
        assert generic(*bs) == theta_tilde(*bs), bs


def test_theta_tilde_reduces_to_theta_plus_under_bracket():
    """[theta_tilde]^+ agrees with theta_plus everywhere sampled."""
    shifted = bracket_plus(theta_tilde)
    rng = random.Random(53)
    for _ in range(120):
        args = [random_kordinal(rng) for _ in range(rng.randint(1, 3))]
        assert shifted(*args) == theta_plus(*args), args


def test_bracket_plus_finite_example():
    assert bracket_plus(theta_tilde)(3, 3) == K(4)
    assert bracket_plus(theta_tilde)(3, 4) == K(0)


# -- reduction identity ----------------------------------------------------------


def test_reduction_identity_examples():
    assert reduction_identity_check(2, [o("w"), o("w"), o("w")])
    lhs, rhs = reduction_identity_sides([o("w*2+3"), o("w*2+4"), o("w+1")])
    assert lhs == rhs
    # gate: both sides 0
    assert reduction_identity_check(2, [o("w"), W1, o("w")])
    assert reduction_identity_check(
        3, [o("w*2"), o("w*3+1"), o("w*5+2"), o("w^2")]
    )
    assert reduction_identity_check(
        2, [parse_k("W2*(3)+(W1*(2)+(0))"), parse_k("W2*(5)+(w)"), W2]
    )
    with pytest.raises(Exception):
        reduction_identity_check(5, [K(1)] * 6)
    with pytest.raises(Exception):
        reduction_identity_check(2, [K(1)] * 4)


@given(st.lists(kords, min_size=3, max_size=5))
def test_reduction_identity_holds(args):
    lhs, rhs = reduction_identity_sides(args)
    assert lhs == rhs, (args, lhs, rhs)


# -- theta_sharp and the majoration shadow ----------------------------------------


def test_theta_sharp_examples():
    assert theta_sharp(o("w*2+3"), o("w*2+4")) == K(o("w*4+8"))
    assert theta_sharp(o("w"), o("w"), under_first=True, under_second=True) == K(OMEGA)
    assert theta_sharp(o("w"), o("w*2")) == K(o("w*2+1"))


def shadow_sum(x, y):
    return k_ul_nat_add(x, y)


def test_majoration_shadow_split():
    # theta_plus(a' + a'', b) <= theta_sharp(a', b) ul(+) theta_sharp(a'', b)
    from wpolab.cardinals import k_add

    rng = random.Random(61)
    for _ in range(120):
        a1, a2, b = (random_kordinal(rng) for _ in range(3))
        lhs = theta_plus(k_add(a1, a2), b)
        rhs = shadow_sum(theta_sharp(a1, b), theta_sharp(a2, b))
        assert not rhs < lhs, (a1, a2, b, lhs, rhs)


def test_majoration_shadow_underlined():
    # theta_len(a, b) <= theta_sharp(a_, b) ul(+) theta_sharp(a, b_)
    rng = random.Random(67)
    for _ in range(120):
        a, b = random_kordinal(rng), random_kordinal(rng)
        lhs = theta_len(a, b)
        rhs = shadow_sum(
            theta_sharp(a, b, under_first=True),
            theta_sharp(a, b, under_second=True),
        )
        assert not rhs < lhs, (a, b, lhs, rhs)


def test_majoration_shadow_tight_case():
    # equality witness: both sides give w*4+1 here
    lhs = theta_plus(o("w*2"), o("w*2"))
    rhs = shadow_sum(theta_sharp(o("w"), o("w*2")), theta_sharp(o("w"), o("w*2")))
    assert lhs == rhs == K(o("w*4+1"))


# -- generic combinator edges ------------------------------------------------------


def test_bracket_tilde_on_natural_sum():
    """With at least one limit bound, the strict-box sup of (+) is the
    underlined natural sum; the combinator recovers it by pure sampling."""
    tilded = bracket_tilde(BoundOp("nat_add", k_nat_add, monotone=True))
    rng = random.Random(71)
    for _ in range(60):
        a, b = random_ordinal(rng, depth=2), random_ordinal(rng, depth=2)
        if (a.is_zero or a.is_successor) and (b.is_zero or b.is_successor):
            continue
        if a.is_zero or b.is_zero:
            continue
        assert tilded(a, b) == k_ul_nat_add(a, b), (a, b)


def _sampled(f):
    """A monotone operand given by its value at the natural n."""
    return BoundOp("f", lambda a: K(f(a.countable().as_int())), monotone=True)


# each refusal of bracket_tilde, with the input that reaches it
@pytest.mark.parametrize("fn, bounds, message", [
    (BoundOp("min5", lambda a: min(a, K(5)), monotone=True), ["w"],
     "sampled values are not increasing"),
    (_sampled(lambda n: add(OMEGA, n - 3)), ["w"], "sampled shapes did not stabilize"),
    (_sampled(lambda n: o("w*%d+%d" % (n // 2, n))), ["w"],
     "coefficient pattern did not stabilize"),
    (_sampled(lambda n: o("w^%d+%d" % (n // 2, n))), ["w"],
     "exponent pattern did not stabilize"),
    (BoundOp("nat_add", k_nat_add, monotone=True), ["W1*(1)+(1)", "w"],
     "cannot extrapolate uncountable sample values"),
    (bracket_plus(k_nat_add), ["W1*(1)+(1)", "W1*(1)+(1)"],
     "uncountable strata need declared stratum facts"),
    (THETA_PLUS, ["W1*(1)+(1)", "W2*(1)+(1)"],
     "non-equipotent uncountable corner at "
     "[KOrdinal(W1*(1)+(1)), KOrdinal(W2*(1)+(1))]"),
])
def test_bracket_tilde_refusals(fn, bounds, message):
    with pytest.raises(UnsupportedSupremum) as exc:
        bracket_tilde(fn)(*map(parse_k, bounds))
    assert str(exc.value) == message


def test_bracket_tilde_refuses_uncountable_limits():
    generic = bracket_tilde(THETA_PLUS)
    with pytest.raises(UnsupportedSupremum):
        generic(parse_k("W1*(w)+(0)"), W1.succ())
    # a successor corner is exact even on uncountable bounds ...
    assert bracket_tilde(BoundOp("nat_add", k_nat_add, monotone=True))(
        W1.succ(), W1.succ()
    ) == k_nat_add(W1, W1)
    # ... but an uncountable limit bound cannot be sampled
    with pytest.raises(UnsupportedSupremum):
        bracket_tilde(BoundOp("nat_add", k_nat_add, monotone=True))(
            parse_k("W1*(2)+(0)"), W1.succ()
        )
    with pytest.raises(UnsupportedSupremum):
        bracket_tilde(BoundOp("f", lambda a: a))(o("w"))


def test_theta_at_top_of_scale():
    # remainders sit strictly below the stratum, so even at the top scale
    # theta_plus never needs omega_10
    top = omega_level(9)
    assert theta_plus(top, top) == top.succ()
    a = KOrdinal.at_level(9, ONE, omega_level(8))
    assert theta_plus(a, a) == KOrdinal.at_level(9, o("2"))
    with pytest.raises(LevelOverflowError):
        from wpolab.cardinals import hartog

        hartog(a)


def _top_stratum_by_scan(lo):
    return max(k for k in range(MAX_LEVEL + 1) if omega_level(k) < lo)


@given(K_ORDINALS)
def test_top_stratum_matches_the_scan(lo):
    if omega_level(0) < lo:
        assert _top_stratum(lo) == _top_stratum_by_scan(lo)


def test_top_stratum_at_the_scale_boundaries():
    for k in range(MAX_LEVEL + 1):
        w_k = omega_level(k)
        for lo in (w_k, w_k.succ(), KOrdinal.at_level(k, o("2"))):
            if omega_level(0) < lo:  # all but omega_0 itself
                assert _top_stratum(lo) == _top_stratum_by_scan(lo)
    assert [_top_stratum(omega_level(k)) for k in range(1, MAX_LEVEL + 1)] == list(range(MAX_LEVEL))


def test_cardinality_facts_declared_by_theta():
    """The two stratum facts bracket_tilde relies on, checked by sampling."""
    rng = random.Random(83)
    for _ in range(150):
        args = [random_kordinal(rng) for _ in range(rng.randint(2, 3))]
        v = theta_plus(*args)
        if v.is_zero:
            continue
        kappa = cardinality(args[0])
        assert not v < kappa  # at_least_cardinality
        if kappa.is_finite:
            assert v.is_finite
        else:
            from wpolab.cardinals import hartog

            try:
                assert v < hartog(args[0])  # stratum_bounded
            except LevelOverflowError:
                pass
