"""algebra: seeded batteries over CNF ordinals, scaled W<k> towers and the
theta calculus.

One item parses its inputs and runs the battery below through the public
functions of wpolab.ordinals, wpolab.cardinals and wpolab.bounds.  The
check re-derives every value with the independent arithmetic of
``oracle.py`` from the rendered results.
"""

from __future__ import annotations

import oracle as O
from wpolab import bounds, cardinals, ordinals

# Reduction-identity cost grows with the number of terms of the product
# q_1 (x) ... (x) q_n of the arguments' euclidean quotients by w (the
# product of their term counts), by about its square.  Every round holds
# one item per (arity n, term-count product bin), so that rounds cost
# nearly the same from seed to seed while keeping the heavy tail.
ROUND = [
    (2, (1, 2)), (2, (3, 6)), (2, (7, 16)), (2, (17, 36)),
    (3, (1, 4)), (3, (5, 12)), (3, (13, 32)), (3, (33, 64)),
]


def random_ordinal(rng, depth: int = 3):
    """Exponent depth <= 3, coefficients <= 9, at most 4 terms, biased toward
    successors, limits and multiples of omega."""
    shape = rng.randrange(6)
    if depth == 0 or shape == 0:
        return O.nat(rng.randrange(10))
    if shape == 1:
        return O.term(random_ordinal(rng, depth - 1), rng.randrange(1, 10))
    out = O.ZERO
    for _ in range(rng.randrange(1, 5)):
        out = O.nat_add(out, O.term(random_ordinal(rng, depth - 1), rng.randrange(1, 10)))
    if shape == 2:
        return O.mul(O.OMEGA, out)
    if shape == 3:
        return O.add(out, O.nat(rng.randrange(1, 10)))
    return out


def random_infinite(rng):
    a = random_ordinal(rng)
    return a if not O.is_finite(a) else O.add(O.OMEGA, a)


def random_tower(rng):
    """A countable ordinal lifted onto one of the levels W1..W9, with a
    lower tower (or a countable ordinal) as remainder."""
    t = list(O.tower(random_ordinal(rng)))
    top = rng.randrange(1, O.LEVELS)
    for k in sorted(rng.sample(range(1, top), rng.randrange(min(top - 1, 2) + 1))):
        t[k] = random_infinite(rng)
    t[top] = random_infinite(rng) if rng.randrange(2) else O.nat(rng.randrange(1, 10))
    return tuple(t)


def reduction_args(rng, arity: int, bin_: tuple) -> list:
    """arity + 1 infinite ordinals whose quotient term-count product lies in bin_."""
    while True:
        args = [random_infinite(rng) for _ in range(arity + 1)]
        prod = 1
        for a in args:
            prod *= len(O.div_omega(a)[0])
        if bin_[0] <= prod <= bin_[1]:
            return args


def make_item(rng, arity: int, bin_: tuple) -> dict:
    r = O.render
    a, b, c = (random_ordinal(rng) for _ in range(3))
    big = random_tower(rng)
    same = list(O.tower())
    same[O.level(big)] = random_infinite(rng)
    return {
        "a": r(a), "b": r(b), "c": r(c),
        "A": O.render_tower(big),
        "B": O.render_tower(random_tower(rng) if rng.randrange(2) else tuple(same)),
        "S": O.render_tower(tuple(same)),
        "x": r(random_infinite(rng)), "y": r(random_infinite(rng)),
        "a1": r(random_infinite(rng)), "a2": r(random_infinite(rng)),
        "tup": [r(random_infinite(rng)) for _ in range(rng.choice([2, 3]))],
        "n": arity,
        "red": [r(a) for a in reduction_args(rng, arity, bin_)],
    }


def make_round(rng, workdir, r: int) -> list:
    return [make_item(rng, arity, bin_) for arity, bin_ in ROUND]


def warmup_items(rng, workdir) -> list:
    return [make_item(rng, 2, (1, 2))]


def run(item: dict, call) -> dict:
    po, pk = ordinals.parse_ordinal, cardinals.parse_k
    a = call("ordinals.parse_ordinal", po, item["a"])
    b = call("ordinals.parse_ordinal", po, item["b"])
    c = call("ordinals.parse_ordinal", po, item["c"])
    out = {
        "ab": call("ordinals.nat_add", ordinals.nat_add, a, b),
        "ba": call("ordinals.nat_add", ordinals.nat_add, b, a),
        "mab": call("ordinals.nat_mul", ordinals.nat_mul, a, b),
        "mba": call("ordinals.nat_mul", ordinals.nat_mul, b, a),
    }
    bc = call("ordinals.nat_add", ordinals.nat_add, b, c)
    out["dl"] = call("ordinals.nat_mul", ordinals.nat_mul, a, bc)
    mac = call("ordinals.nat_mul", ordinals.nat_mul, a, c)
    out["dr"] = call("ordinals.nat_add", ordinals.nat_add, out["mab"], mac)
    if not b.is_zero:
        out["div"] = call("ordinals.euclid_div", ordinals.euclid_div, a, b)
    lo, hi = (a, b) if call("ordinals.cmp", ordinals.cmp, a, b) <= 0 else (b, a)
    out["sub"] = (lo, hi, call("ordinals.left_subtract", ordinals.left_subtract, lo, hi))

    A = call("cardinals.parse_k", pk, item["A"])
    B = call("cardinals.parse_k", pk, item["B"])
    S = call("cardinals.parse_k", pk, item["S"])
    out["k_add"] = call("cardinals.k_add", cardinals.k_add, A, B)
    out["k_nat_add"] = call("cardinals.k_nat_add", cardinals.k_nat_add, A, B)
    out["k_ul"] = call("cardinals.k_ul_nat_add", cardinals.k_ul_nat_add, A, B)
    try:
        out["hartog"] = call("cardinals.hartog", cardinals.hartog, A)
    except cardinals.LevelOverflowError:
        out["hartog"] = "overflow"

    x = call("ordinals.parse_ordinal", po, item["x"])
    y = call("ordinals.parse_ordinal", po, item["y"])
    a1 = call("ordinals.parse_ordinal", po, item["a1"])
    a2 = call("ordinals.parse_ordinal", po, item["a2"])
    out["tp_xy"] = call("bounds.theta_plus", bounds.theta_plus, x, y)
    out["tp_AS"] = call("bounds.theta_plus", bounds.theta_plus, A, S)
    out["ts1"] = call("bounds.theta_sharp", bounds.theta_sharp, a1, y)
    out["ts2"] = call("bounds.theta_sharp", bounds.theta_sharp, a2, y)
    split = call("cardinals.k_add", cardinals.k_add, a1, a2)
    out["maj_lhs"] = call("bounds.theta_plus", bounds.theta_plus, split, y)
    out["maj_rhs"] = call("cardinals.k_ul_nat_add", cardinals.k_ul_nat_add,
                          out["ts1"], out["ts2"])
    tup = [call("ordinals.parse_ordinal", po, t) for t in item["tup"]]
    out["tilde"] = call("bounds.theta_tilde", bounds.bracket_plus(bounds.theta_tilde), *tup)
    out["tp_tup"] = call("bounds.theta_plus", bounds.theta_plus, *tup)
    red = [call("ordinals.parse_ordinal", po, t) for t in item["red"]]
    out["red"] = call("bounds.reduction_identity", bounds.reduction_identity_check,
                      item["n"], red)
    return out


def check(item: dict, out: dict) -> list:
    """Names of the checks the outputs fail (empty when all hold)."""
    P, PT = O.parse, O.parse_tower
    ro, rk = ordinals.render_ordinal, cardinals.render_k

    def val(v):
        return P(ro(v))

    def tval(v):
        return PT(rk(v))

    a, b, c = P(item["a"]), P(item["b"]), P(item["c"])
    bad = []
    want = O.nat_add(a, b)
    if not val(out["ab"]) == val(out["ba"]) == want:
        bad.append("nat_add")
    want = O.nat_mul(a, b)
    if not val(out["mab"]) == val(out["mba"]) == want:
        bad.append("nat_mul")
    want = O.nat_mul(a, O.nat_add(b, c))
    if not val(out["dl"]) == val(out["dr"]) == want:
        bad.append("distributivity")
    if b:
        q, r = map(val, out["div"])
        if not (r < b and O.add(O.mul(b, q), r) == a):
            bad.append("euclid_div")
    lo, hi, g = map(val, out["sub"])
    if sorted([lo, hi]) != sorted([a, b]) or lo > hi or O.add(lo, g) != hi:
        bad.append("left_subtract")

    A, B, S = PT(item["A"]), PT(item["B"]), PT(item["S"])
    if tval(out["k_add"]) != O.k_add(A, B):
        bad.append("k_add")
    if tval(out["k_nat_add"]) != O.k_nat_add(A, B):
        bad.append("k_nat_add")
    if tval(out["k_ul"]) != O.k_ul_nat_add(A, B):
        bad.append("k_ul_nat_add")
    if O.level(A) == O.LEVELS - 1:
        if out["hartog"] != "overflow":
            bad.append("hartog")
    elif out["hartog"] == "overflow" or tval(out["hartog"]) != O.hartog(A):
        bad.append("hartog")

    x, y = O.tower(P(item["x"])), O.tower(P(item["y"]))
    a1, a2 = O.tower(P(item["a1"])), O.tower(P(item["a2"]))
    if tval(out["tp_xy"]) != O.theta_plus(x, y):
        bad.append("theta_plus")
    if tval(out["tp_AS"]) != O.theta_plus(A, S):
        bad.append("theta_plus_scaled")
    ts1, ts2 = tval(out["ts1"]), tval(out["ts2"])
    if not (O.t_lt(O.theta_len(a1, y), ts1) and O.t_lt(O.theta_len(a2, y), ts2)):
        bad.append("theta_sharp")
    lhs = O.theta_plus(O.k_add(a1, a2), y)
    rhs = O.k_ul_nat_add(ts1, ts2)
    if tval(out["maj_lhs"]) != lhs or tval(out["maj_rhs"]) != rhs or O.t_lt(rhs, lhs):
        bad.append("majoration")
    tup = [O.tower(P(t)) for t in item["tup"]]
    want = O.theta_plus(*tup)
    if not tval(out["tilde"]) == tval(out["tp_tup"]) == want:
        bad.append("bracket_plus_theta_tilde")
    if out["red"] is not True:
        bad.append("reduction_identity")
    return bad
