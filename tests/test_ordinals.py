import contextlib
import copy
import functools
import gc
import itertools
import pickle
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpolab import ordinals as ordinals_module
from wpolab.oracles import (mul_oracle, nat_add_oracle, nat_mul_oracle, normal_form,
                            random_ordinal)
from wpolab.cardinals import MAX_LEVEL, KOrdinal, render_k
from wpolab.ordinals import (
    MAX_NUMERAL_DIGITS,
    OMEGA,
    ONE,
    ZERO,
    CnfOrdinal,
    OrdinalError,
    add,
    cmp,
    euclid_div,
    from_int,
    fund_seq,
    is_indecomposable,
    iter_below,
    left_subtract,
    mul,
    nat_add,
    nat_mul,
    omega_pow,
    parse_ordinal,
    render_ordinal,
    sup_plus,
    ul_nat_add,
)

from cases import omega_times, ordinals, random_below, reference_lt, tower

o = parse_ordinal


SMALL = list(iter_below(2, 2))  # everything below w^3 with coefficients <= 2


# -- grammar -----------------------------------------------------------------


def test_parse_render_examples():
    assert render_ordinal(o("w^(w+1)*2+3")) == "w^(w+1)*2+3"
    assert o("0") == ZERO
    assert o("w") == OMEGA
    assert o("w^2*3+w+1") == add(add(omega_pow(2, 3), OMEGA), ONE)
    assert o("w^w") == omega_pow(OMEGA)


@pytest.mark.parametrize(
    "bad", ["w+w^2", "3+w", "1+2", "w*0", "w^", "0+1", "w++1", "", "w^2+w^2"]
)
def test_parse_rejects_non_canonical(bad):
    with pytest.raises(OrdinalError):
        o(bad)


@given(ordinals())
def test_render_parse_roundtrip(a):
    assert parse_ordinal(render_ordinal(a)) == a


def _reference_render(a: CnfOrdinal) -> str:
    """The renderer without the text cache: every exponent is rendered anew
    and compared through `==`."""
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif exp == OMEGA or exp.is_finite:
            base = "w^%s" % _reference_render(exp)
        else:
            base = "w^(%s)" % _reference_render(exp)
        parts.append(base if coeff == 1 else "%s*%s" % (base, coeff))
    return "+".join(parts)


def _reference_render_k(a: KOrdinal) -> str:
    k = a.level
    if k == 0:
        return _reference_render(a.coeffs[0])
    rest = KOrdinal(a.coeffs[:k] + (ZERO,) * (MAX_LEVEL + 1 - k))
    return "W%d*(%s)+(%s)" % (k, _reference_render(a.coeffs[k]), _reference_render_k(rest))


def assert_render_agrees(values):
    # twice: the first call fills the cache, the second reads it
    for _ in range(2):
        for a in values:
            assert render_ordinal(a) == _reference_render(a) == str(a)


def test_render_agrees_with_the_reference_on_small_values():
    assert_render_agrees(SMALL)
    scaled = [KOrdinal.of(a) for a in SMALL]
    scaled += [KOrdinal((b, ZERO, a) + (ZERO,) * (MAX_LEVEL - 2))
               for a in SMALL[1:] for b in SMALL[::5]]
    for a in scaled:
        assert render_k(a) == _reference_render_k(a)


@given(ordinals(), st.integers(0, 2**32), st.integers(1, 8))
def test_render_agrees_with_the_reference_on_towers(x, seed, height):
    a = tower(x, random.Random(seed), height)
    # the tower's exponents, outermost first, share the text cache with it
    exps = []
    e = a
    while not e.is_zero:
        exps.append(e)
        e = e.leading_exp
    assert_render_agrees([a] + exps)
    assert_render_agrees(exps[::-1])


def test_render_agrees_on_values_rebuilt_by_pickle_and_deepcopy():
    rng = random.Random(4)
    # coefficients no other test builds, so the rebuilt values are new
    # instances with an empty cache
    fresh = [nat_add(random_ordinal(rng), from_int(10**41 + i)) for i in range(40)]
    fresh += [omega_pow(a, 10**41 + 1) for a in fresh[:20]]
    assert_render_agrees(fresh)
    dumped = pickle.dumps(fresh)
    probe = weakref.ref(fresh[0])
    del fresh
    gc.collect()
    assert probe() is None
    for rebuild in (pickle.loads, lambda d: copy.deepcopy(pickle.loads(d))):
        rebuilt = rebuild(dumped)
        assert all(getattr(a, "_text", None) is None for a in rebuilt)
        assert_render_agrees(rebuilt)
        del rebuilt
        gc.collect()


def test_a_coefficient_too_long_to_render_is_refused_every_time():
    long = from_int(10 ** (MAX_NUMERAL_DIGITS + 5))
    inner = add(OMEGA, long)  # w+<long>
    values = [omega_pow(OMEGA, long.as_int()), long, inner,
              add(omega_pow(omega_pow(inner), 2), ONE)]  # w^(w^(w+<long>))*2+1
    for a in values:
        for _ in range(2):
            with pytest.raises(OrdinalError, match="too long to render"):
                render_ordinal(a)
    assert all(getattr(a, "_text", None) is None for a in values)


# -- comparison ---------------------------------------------------------------


def test_cmp_agrees_with_enumeration_order():
    # iter_below yields values in increasing order by construction
    for i, a in enumerate(SMALL):
        for j, b in enumerate(SMALL):
            assert cmp(a, b) == (i > j) - (i < j)


def _reference_cmp(a, b) -> int:
    return reference_lt(b, a) - reference_lt(a, b)


def assert_order_agrees(a, b):
    lt, gt = reference_lt(a, b), reference_lt(b, a)
    assert (a < b, a > b, a <= b, a >= b) == (lt, gt, not gt, not lt)
    assert cmp(a, b) == gt - lt
    assert max(a, b) is (b if lt else a)


def assert_sort_agrees(values):
    assert sorted(values) == sorted(values, key=functools.cmp_to_key(_reference_cmp))
    assert max(values) is functools.reduce(lambda x, y: y if reference_lt(x, y) else x, values)


def test_order_agrees_with_the_reference_on_small_values():
    for a in SMALL:
        for b in SMALL:
            assert_order_agrees(a, b)
    shuffled = SMALL[:]
    random.Random(0).shuffle(shuffled)
    assert_sort_agrees(shuffled)


@given(ordinals(), ordinals(), st.integers(0, 2**32), st.integers(1, 8))
def test_order_agrees_on_values_that_differ_deep_in_an_exponent(x, y, seed, height):
    a, b = tower(x, random.Random(seed), height), tower(y, random.Random(seed), height)
    assert_order_agrees(a, b)
    assert_order_agrees(b, a)


@given(ordinals().filter(lambda a: not a.is_zero), st.integers(1, 10**20))
def test_order_agrees_on_values_that_differ_in_the_last_coefficient(a, coeff):
    b = CnfOrdinal(a.terms[:-1] + ((a.last_exp, coeff),))
    assert_order_agrees(a, b)
    assert_order_agrees(b, a)


@given(ordinals().filter(lambda a: not a.is_zero), st.data())
def test_order_agrees_when_one_value_is_a_proper_prefix(a, data):
    b = CnfOrdinal(a.terms[:data.draw(st.integers(0, len(a.terms) - 1))])
    assert_order_agrees(a, b)
    assert_order_agrees(b, a)


def test_order_agrees_on_values_rebuilt_by_pickle_and_deepcopy():
    rng = random.Random(3)
    # coefficients no other test builds, so the rebuilt values are new
    # instances made through the constructor, not the ones dumped
    fresh = [nat_add(random_ordinal(rng), from_int(10**40 + i)) for i in range(60)]
    fresh += [omega_pow(a, 10**40 + 1) for a in fresh[:20]]
    texts = [render_ordinal(a) for a in fresh]
    dumped = pickle.dumps(fresh)
    probe = weakref.ref(fresh[0])
    del fresh
    gc.collect()
    assert probe() is None
    for rebuilt in (pickle.loads(dumped), copy.deepcopy(pickle.loads(dumped))):
        assert [render_ordinal(a) for a in rebuilt] == texts
        for a in rebuilt:
            for b in rebuilt:
                assert_order_agrees(a, b)
        assert_sort_agrees(rebuilt)


def test_order_agrees_on_a_tower_of_height_500():
    low, high = (tower(from_int(n), random.Random(5), 500) for n in (2, 3))
    towers = [low, high, add(high, ONE), CnfOrdinal(low.terms[:1])]
    for a in towers:
        for b in towers:
            assert_order_agrees(a, b)
    assert_sort_agrees(towers)
    assert low < high


# -- ordinal add / mul ---------------------------------------------------------


def test_add_examples():
    assert add(o("w+3"), o("w*2")) == o("w*3")
    assert add(o("3"), o("w")) == OMEGA
    assert add(o("w"), o("3")) == o("w+3")
    assert add(o("w^2+w"), o("w+1")) == o("w^2+w*2+1")


def test_mul_examples():
    assert mul(o("w+1"), o("w")) == o("w^2")
    assert mul(o("w"), o("w+1")) == o("w^2+w")
    assert mul(o("2"), o("w")) == OMEGA
    assert mul(o("w"), o("2")) == o("w*2")
    assert mul(o("w+2"), o("3")) == o("w*3+2")
    # (w^2+w+1) * (w^w*2+w+3) expanded by hand
    assert mul(o("w^2+w+1"), o("w^w*2+w+3")) == o("w^w*2+w^3+w^2*3+w+1")


@given(ordinals(), ordinals())
@settings(max_examples=300)
def test_mul_matches_oracle(a, b):
    assert mul(a, b) == mul_oracle(a, b)


@given(ordinals(), ordinals(), ordinals())
@settings(max_examples=200)
def test_add_mul_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(ordinals(), ordinals(), ordinals())
@settings(max_examples=200)
def test_mul_left_distributes(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(ordinals(), ordinals())
@settings(max_examples=200)
def test_add_monotone_and_subtract(a, b):
    assert not add(a, b) < a
    if not b < a:
        assert add(a, left_subtract(a, b)) == b


def test_left_subtract_requires_order():
    with pytest.raises(OrdinalError):
        left_subtract(o("w"), o("3"))


# -- euclidean division --------------------------------------------------------


def test_euclid_div_examples():
    q, r = euclid_div(o("w^2+w*3+4"), OMEGA)
    assert (q, r) == (o("w+3"), o("4"))
    q, r = euclid_div(o("w^2"), o("w+1"))
    assert add(mul(o("w+1"), q), r) == o("w^2") and r < o("w+1")
    q, r = euclid_div(o("17"), o("5"))
    assert (q, r) == (o("3"), o("2"))


@given(ordinals(), ordinals())
@settings(max_examples=300)
def test_euclid_div_reconstructs(a, d):
    if d.is_zero:
        return
    q, r = euclid_div(a, d)
    assert add(mul_oracle(d, q), r) == a
    assert r < d


@pytest.mark.parametrize("a, d, q, r", [
    ("w^3+w^2*5+w+1", "w^2*2+w*3", "w+2", "w^2+w+1"),
    ("w^2*4+w", "w^2*2+w*3", "1", "w^2*2+w"),  # finite digit one below g // c
    ("w^(w+2)*3+w^5+7", "w^2+1", "w^(w+2)*3+w^3", "7"),
])
def test_euclid_div_frozen_cases(a, d, q, r):
    assert euclid_div(o(a), o(d)) == (o(q), o(r))


# -- natural operations vs oracles ---------------------------------------------


def test_nat_ops_match_oracles_exhaustively():
    for a, b in itertools.combinations_with_replacement(SMALL, 2):
        assert nat_add(a, b) == nat_add_oracle(a, b)
        assert nat_mul(a, b) == nat_mul_oracle(a, b)


def test_nat_mul_example():
    assert nat_mul(o("w+1"), o("w+1")) == o("w^2+w*2+1")


@given(ordinals(), ordinals(), ordinals())
@settings(max_examples=200)
def test_nat_laws(a, b, c):
    assert nat_add(a, b) == nat_add(b, a)
    assert nat_mul(a, b) == nat_mul(b, a)
    assert nat_add(nat_add(a, b), c) == nat_add(a, nat_add(b, c))
    assert nat_mul(nat_mul(a, b), c) == nat_mul(a, nat_mul(b, c))
    assert nat_mul(a, nat_add(b, c)) == nat_add(nat_mul(a, b), nat_mul(a, c))
    assert not nat_add(a, b) < add(a, b)  # a+b <= a(+)b


# -- underlined natural sum ------------------------------------------------------


def test_ul_nat_add_examples():
    assert ul_nat_add(OMEGA, OMEGA) == OMEGA
    assert ul_nat_add(o("w+1"), o("w+1")) == o("w*2+1")
    assert ul_nat_add(o("5"), o("3")) == o("7")
    assert ul_nat_add(ZERO, o("w")) == ZERO


def test_ul_nat_add_needs_an_argument():
    with pytest.raises(OrdinalError):
        ul_nat_add()


def test_ul_nat_add_fixpoints_are_indecomposables():
    for a in SMALL:
        if a.is_zero:
            continue
        assert (ul_nat_add(a, a) == a) == is_indecomposable(a)


def _below_samples(a, rng, k=12):
    """Strictly smaller sample values, cofinal when a is a limit."""
    outs = []
    if a.is_successor:
        outs.append(a.pred())
    if a.is_limit:
        outs.extend(fund_seq(a, n) for n in range(1, k))
    if not a.is_zero:
        outs.append(ZERO)
    return outs


@given(ordinals(), ordinals())
@settings(max_examples=200)
def test_ul_nat_add_is_strict_bound_of_sampled_sums(a, b):
    u = ul_nat_add(a, b)
    assert not nat_add(a, b) < u  # never exceeds the plain natural sum
    rng = random.Random(0)
    for x in _below_samples(a, rng):
        for y in _below_samples(b, rng):
            assert nat_add(x, y) < u


def test_ul_nat_add_sampling_cofinality():
    # for limit arguments the sampled sums must approach the closed form
    for a, b in [(OMEGA, OMEGA), (o("w*2"), o("w")), (o("w^2"), o("w*3+1"))]:
        u = ul_nat_add(a, b)
        hi = max(
            nat_add(fund_seq(a, n) if a.is_limit else a.pred(),
                    fund_seq(b, n) if b.is_limit else b.pred())
            for n in range(1, 30)
        )
        # the gap below u contains no whole extra term block
        assert hi < u
        assert not ul_nat_add_gap_has_term(hi, u)


def ul_nat_add_gap_has_term(hi, u):
    """True if some v with hi < v*2 <= u ... crude cofinality proxy:
    u is a limit reached by the samples iff u == sup, i.e. no w-power
    fits strictly between hi and u other than u's own tail."""
    return add(hi, omega_pow(u.last_exp)) < u


# -- fundamental sequences -------------------------------------------------------


def test_fund_seq_examples():
    assert fund_seq(OMEGA, 4) == o("4")
    assert fund_seq(o("w^2"), 3) == o("w*3")
    assert fund_seq(o("w^(w+1)"), 2) == o("w^w*2")
    assert fund_seq(o("w^w"), 3) == o("w^3")
    assert fund_seq(o("w*2"), 5) == o("w+5")


@pytest.mark.parametrize("n", [-1, 1.5, 2.0, True, "3", None])
def test_fund_seq_refuses_what_from_int_refuses(n):
    with pytest.raises(OrdinalError):
        from_int(n)
    for a in (OMEGA, o("w^w"), o("w^2")):
        with pytest.raises(OrdinalError, match="^index must be a natural number$"):
            fund_seq(a, n)


@given(ordinals(), st.integers(0, 6))
@settings(max_examples=200)
def test_fund_seq_increasing_and_below(a, n):
    if not a.is_limit:
        return
    assert fund_seq(a, n) < fund_seq(a, n + 1) < a


# -- misc -------------------------------------------------------------------------


def test_sup_plus():
    assert sup_plus([]) == ZERO
    assert sup_plus([o("3"), o("w"), o("w+1")]) == o("w+2")


def test_indecomposable():
    assert is_indecomposable(ONE)
    assert is_indecomposable(OMEGA)
    assert is_indecomposable(o("w^w"))
    assert not is_indecomposable(o("w*2"))
    assert not is_indecomposable(o("w+1"))
    assert not is_indecomposable(ZERO)


# -- interning ----------------------------------------------------------------------


@st.composite
def term_tuples(draw):
    """A valid terms tuple: up to 4 drawn terms in normal form, equal
    exponents' coefficients summed, some too large to be cached ints."""
    pairs = draw(st.lists(st.tuples(ordinals(), st.integers(1, 10**30)), max_size=4))
    return normal_form(pairs).terms


@given(term_tuples())
def test_equal_terms_give_one_instance(terms):
    a = CnfOrdinal(terms)
    assert CnfOrdinal(tuple(list(terms))) is a
    assert a is CnfOrdinal(a.terms) and a == CnfOrdinal(terms)
    assert hash(a) == hash((terms,))


OPERANDS = st.sampled_from([ZERO, ONE]) | ordinals()


@given(OPERANDS, OPERANDS, st.integers(0, 6))
@settings(max_examples=200)
def test_arithmetic_results_are_canonical_and_interned(a, b, n):
    # the public constructor re-checks the terms that arithmetic built
    # unchecked, and must hand back the very same instance
    lo, hi = (a, b) if a <= b else (b, a)
    results = [add(a, b), mul(a, b), nat_add(a, b), nat_mul(a, b),
               left_subtract(lo, hi), ul_nat_add(a, b)]
    if a.is_limit:
        results.append(fund_seq(a, n))
    if not a.is_zero:
        results += [a.minus_last(), *euclid_div(b, a)]
    for x in results:
        assert x is CnfOrdinal(x.terms)


@contextlib.contextmanager
def _counting_mk():
    """The terms of every `_mk` call made inside the block."""
    calls = []
    real = ordinals_module._mk

    def counted(terms):
        calls.append(terms)
        return real(terms)

    with mock.patch.object(ordinals_module, "_mk", counted):
        yield calls


@st.composite
def infinite_exponents(draw):
    """A nonzero ordinal whose exponents are all infinite: w^(w*e)*c terms."""
    pairs = draw(st.lists(st.tuples(ordinals(), st.integers(1, 9)), min_size=1, max_size=4))
    return normal_form([(omega_times(e), c) for e, c in pairs if not e.is_zero]
                       or [(OMEGA, 1)])


@given(ordinals(), st.integers(0, 2**32))
def test_an_absorbed_sum_returns_the_right_operand(b, seed):
    # every term of a lies below b's leading term, so a + b is b
    if b.is_zero:
        b = ONE
    a = random_below(random.Random(seed), omega_pow(b.leading_exp))
    with _counting_mk() as calls:
        assert add(a, b) is b
    assert calls == []


@given(ordinals())
def test_a_natural_product_with_one_returns_the_other_operand(x):
    with _counting_mk() as calls:
        assert nat_mul(ONE, x) is x and nat_mul(x, ONE) is x
    assert calls == []


@given(infinite_exponents())
def test_exponents_that_absorb_the_operation_are_not_reinterned(x):
    # w * w^f*d = w^(1+f)*d and w^f*d = w * w^((-1)+f)*d, with 1+f = (-1)+f = f
    # for an infinite f: each exponent is x's own, and only the product,
    # the quotient and the remainder are interned
    with _counting_mk() as calls:
        p = mul(OMEGA, x)
        q, r = euclid_div(x, OMEGA)
    assert p is x and q is x and r is ZERO
    assert calls == [x.terms, x.terms, ()]


@pytest.mark.parametrize("terms", [
    [(ZERO, 1)],                 # not a tuple
    None,
    3,
    ((ZERO, 1.0),),              # float coefficient (equal to ONE's terms)
    ((ZERO, True),),             # bool coefficient (equal to ONE's terms)
    ((ZERO, 0),),
    ((ZERO, -2),),
    ((ONE, 1), (ONE, 1)),        # exponents must strictly decrease
    ((ZERO, 1), (ONE, 1)),
    ((0, 1),),                   # exponent is not an ordinal
    ((ZERO,),),                  # a term is not a pair
    ((ZERO, 1, 2),),
    ([ZERO, 1],),
])
def test_constructor_rejects_malformed_terms(terms):
    with pytest.raises(OrdinalError):
        CnfOrdinal(terms)


@given(ordinals().filter(lambda a: not a.is_zero), st.data())
def test_constructor_rejects_corrupted_terms(a, data):
    i = data.draw(st.integers(0, len(a.terms) - 1))
    exp, coeff = a.terms[i]
    bad = data.draw(st.sampled_from([
        (exp, float(coeff)), (exp, bool(coeff)), (exp, 0), (exp, -coeff),
        (exp.terms, coeff), (exp,)]))
    variants = [a.terms[:i] + (bad,) + a.terms[i + 1:], list(a.terms)]
    if len(a.terms) > 1:
        variants.append(a.terms[::-1])  # increasing exponents
    for terms in variants:
        with pytest.raises(OrdinalError):
            CnfOrdinal(terms)


def test_omega_pow_still_checks_its_coefficient():
    for coeff in (-1, 1.5, True, False, 0.0):
        with pytest.raises(OrdinalError):
            omega_pow(OMEGA, coeff)
    assert omega_pow(OMEGA, 0) is ZERO and omega_pow(OMEGA, 3) is o("w^w*3")


def test_values_are_immutable():
    a = o("w^2+1")
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(AttributeError):
        del a.terms
    assert a is o("w^2+1")


def test_intern_table_does_not_keep_values_alive():
    gc.collect()
    start = len(ordinals_module._TABLE)
    fresh = [nat_add(omega_pow(from_int(10**6 + i), 7), from_int(10**9 + i))
             for i in range(3000)]
    assert len(ordinals_module._TABLE) >= start + len(fresh)
    del fresh
    gc.collect()
    assert len(ordinals_module._TABLE) <= start + 10


def test_a_stale_callback_keeps_a_reinterned_value_in_the_table():
    # the order within one gc pass: a value dies, the same terms are
    # interned again, and only then does the old ref's callback run
    table = ordinals_module._TABLE
    terms = ((from_int(10**12 + 7), 3),)
    key = hash((terms,))
    a = CnfOrdinal(terms)
    stale = table[key]
    drop = stale.__callback__
    del a
    assert stale() is None
    b = CnfOrdinal(terms)
    assert table[key] is not stale
    drop(stale)
    assert table[key]() is b
    assert CnfOrdinal(terms) is b
    # a dead entry is removed, and a missing one ignored
    del b
    assert key not in table
    table[key] = stale
    drop(stale)
    assert key not in table
    drop(stale)


def test_a_value_in_the_spill_stays_unique_when_its_slot_is_freed():
    # a live decoy planted under b's hash slot stands in for a hash
    # collision, so b goes to the spill
    table, spill = ordinals_module._TABLE, ordinals_module._SPILL
    gc.collect()
    start = len(table) + len(spill)
    decoy = CnfOrdinal(((from_int(10**14 + 3), 5),))  # and its exponent
    terms = ((from_int(10**14 + 1), 2),)
    key = hash((terms,))
    planted = ordinals_module._Ref(decoy, table[hash(decoy)].__callback__)
    planted.key = key
    table[key] = planted
    b = CnfOrdinal(terms)
    assert b.terms == terms and hash(b) == key
    assert table[key] is planted and spill[terms]() is b
    assert CnfOrdinal(terms) is b and CnfOrdinal(decoy.terms) is decoy
    # the planted entry, b, its exponent, the decoy and its exponent
    assert len(table) + len(spill) == start + 5
    # the slot's occupant dies first: b must still be the one instance
    del decoy
    gc.collect()
    assert key not in table
    assert CnfOrdinal(terms) is b and CnfOrdinal(tuple(list(terms))) is b
    assert key not in table and len(table) + len(spill) == start + 2
    del b, terms
    gc.collect()
    assert not spill and len(table) == start


def test_values_freed_in_a_cycle_leave_the_table():
    gc.collect()
    start = len(ordinals_module._TABLE)
    gc.disable()
    try:
        cycle = [nat_add(omega_pow(from_int(10**7 + i), 5), from_int(10**8 + i))
                 for i in range(200)]
        cycle.append(cycle)
        assert len(ordinals_module._TABLE) >= start + 200
        del cycle
        assert len(ordinals_module._TABLE) >= start + 200  # held by the cycle
        gc.collect()
    finally:
        gc.enable()
    assert len(ordinals_module._TABLE) == start


def test_from_int():
    assert from_int(0) is ZERO
    for n in (1, 2, 7, 10**30):
        assert from_int(n) is CnfOrdinal(((ZERO, n),))
        assert from_int(n).as_int() == n
    for bad in (True, False, -1, 2.0, 0.0, "3", None):
        with pytest.raises(OrdinalError):
            from_int(bad)


@pytest.mark.parametrize("text", ["0", "1", "w", "w^(w^w*2+1)*3+w^2+7", "w*" + "9" * 40])
def test_copy_and_pickle_return_the_interned_instance(text):
    a = o(text)
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy([a, (a, 1)])[1][0] is a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a
