import copy
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpolab import ordinals as ordinals_module
from wpolab.oracles import nat_add_oracle, nat_mul_oracle
from wpolab.ordinals import (
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

o = parse_ordinal


def random_ordinal(rng: random.Random, depth: int = 3) -> CnfOrdinal:
    """Random CNF value, biased toward boundary shapes (0, finite, w^e)."""
    roll = rng.random()
    if roll < 0.1:
        return ZERO
    if roll < 0.25:
        return from_int(rng.randint(1, 9))
    nterms = rng.randint(1, 4)
    exps = set()
    while len(exps) < nterms:
        if depth <= 1 or rng.random() < 0.6:
            exps.add(from_int(rng.randint(0, 9)))
        else:
            exps.add(random_ordinal(rng, depth - 1))
    terms = tuple((e, rng.randint(1, 9)) for e in sorted(exps, reverse=True))
    return CnfOrdinal(terms)


def ordinals():
    return st.integers(0, 2**48).map(lambda s: random_ordinal(random.Random(s)))


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


# -- comparison ---------------------------------------------------------------


def test_cmp_agrees_with_enumeration_order():
    # iter_below yields values in increasing order by construction
    for i, a in enumerate(SMALL):
        for j, b in enumerate(SMALL):
            assert cmp(a, b) == (i > j) - (i < j)


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
    assert add(mul(d, q), r) == a
    assert r < d


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
    """A freshly built, valid terms tuple: distinct exponents in decreasing
    order and positive coefficients, some too large to be cached ints."""
    pairs = draw(st.lists(st.tuples(ordinals(), st.integers(1, 10**30)), max_size=4))
    coeffs = {}
    for exp, coeff in pairs:
        coeffs.setdefault(exp, coeff)
    return tuple(sorted(coeffs.items(), key=lambda t: t[0], reverse=True))


@given(term_tuples())
def test_equal_terms_give_one_instance(terms):
    a = CnfOrdinal(terms)
    assert CnfOrdinal(tuple(list(terms))) is a
    assert a is CnfOrdinal(a.terms) and a == CnfOrdinal(terms)
    assert hash(a) == hash((terms,))


@given(ordinals(), ordinals(), st.integers(0, 6))
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
        results += [a.minus_last(), a.trunc_ge(a.last_exp)]
    for x in results:
        assert x is CnfOrdinal(x.terms)


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
    for coeff in (-1, 1.5, True):
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


@pytest.mark.parametrize("text", ["0", "1", "w", "w^(w^w*2+1)*3+w^2+7", "w*" + "9" * 40])
def test_copy_and_pickle_return_the_interned_instance(text):
    a = o(text)
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy([a, (a, 1)])[1][0] is a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a
