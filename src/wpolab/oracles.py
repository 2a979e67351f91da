"""Brute-force oracles and case generators for the tests and `wpolab verify`.

Everything here deliberately avoids the library's own mul, nat_add and
nat_mul code paths: from `ordinals` the oracles take only `CnfOrdinal`, `ZERO`,
`add` and `omega_pow`.  Sums of term sequences are evaluated by ordinal
addition of single terms, the ordinal product by distributing over the
right factor's terms, and the natural operations are recovered from
their order-theoretic maximization characterizations.  The case
generators call no arithmetic: they build values from (exponent,
coefficient) pairs with only `CnfOrdinal`, `ZERO`, `ONE` and `from_int`.
"""

from __future__ import annotations

from functools import lru_cache

from .ordinals import ONE, ZERO, CnfOrdinal, add, from_int, omega_pow


def mul_oracle(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Ordinal product as a left-to-right ordinal sum of one product per
    term of b: a * w^f*d = w^(e1+f)*d for f > 0, and a * d is a with its
    leading coefficient c1 multiplied by d, since the tail of a is
    absorbed by every copy of a but the last.  Every partial product is
    folded in with `add`."""
    if not a.terms or not b.terms:
        return ZERO
    e1, c1 = a.terms[0]
    out = ZERO
    for f, d in b.terms:
        if f.terms:
            out = add(out, omega_pow(add(e1, f), d))
            continue
        out = add(out, omega_pow(e1, c1 * d))
        for t in a.terms[1:]:
            out = add(out, omega_pow(*t))
    return out


def nat_add_oracle(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Hessenberg sum as the maximal ordinal sum over term interleavings.

    Since ordinal addition is strictly increasing in its right argument,
    the maximum over all merges of the two term sequences satisfies
    best(i, j) = max(x_i + best(i+1, j), y_j + best(i, j+1)), so the
    interleaving maximization collapses to a suffix recursion."""
    xs, ys = a.terms, b.terms

    @lru_cache(maxsize=None)
    def best(i: int, j: int) -> CnfOrdinal:
        if i == len(xs) and j == len(ys):
            return ZERO
        out = ZERO
        if i < len(xs):
            out = add(omega_pow(*xs[i]), best(i + 1, j))
        if j < len(ys):
            cand = add(omega_pow(*ys[j]), best(i, j + 1))
            if out < cand:
                out = cand
        return out

    return best(0, 0)


def _fold_term(acc: CnfOrdinal, term) -> CnfOrdinal:
    """Insert one term into acc's term sequence, maximizing the ordinal sum.

    Inserting at position i gives prefix_i + term + suffix_i; the prefix
    and suffix sums are shared across positions."""
    ts = acc.terms
    suffixes = [ZERO] * (len(ts) + 1)
    for i in range(len(ts) - 1, -1, -1):
        suffixes[i] = add(omega_pow(*ts[i]), suffixes[i + 1])
    best = ZERO
    prefix = ZERO
    for i in range(len(ts) + 1):
        v = add(prefix, add(omega_pow(*term), suffixes[i]))
        if best < v:
            best = v
        if i < len(ts):
            prefix = add(prefix, omega_pow(*ts[i]))
    return best


def nat_mul_oracle(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Hessenberg product by full expansion.

    Exponents are combined with the interleaving-maximization sum above and
    the expanded terms are folded in one by one, again by maximization, so
    no canonical-merge code from the library is exercised.
    """
    out = ZERO
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            out = _fold_term(out, (nat_add_oracle(ea, eb), ca * cb))
    return out


@lru_cache(maxsize=None)
def length_by_bad_sequences(n: int, relation: frozenset) -> int:
    """The longest bad sequence of a finite poset, which is n, found the
    slow way: a depth-first search over every sequence of distinct vertices
    x_0.. with no i < j and x_i <= x_j; it builds no linear extension.
    Used to cross-check the finite length engines."""

    def le(i, j):
        return i == j or (i, j) in relation
    best = 0
    stack = [((), frozenset(range(n)))]
    while stack:
        seq, left = stack.pop()
        best = max(best, len(seq))
        for v in left:
            if all(not le(u, v) for u in seq):
                stack.append((seq + (v,), left - {v}))
    return best


# -- case generators ------------------------------------------------------------


def normal_form(pairs) -> CnfOrdinal:
    """The CNF value of (exponent, coefficient) pairs in any order, equal
    exponents' coefficients summed; the public constructor checks it."""
    coeffs: dict = {}
    for e, c in pairs:
        coeffs[e] = coeffs.get(e, 0) + c
    return CnfOrdinal(tuple(sorted(coeffs.items(), key=lambda t: t[0]._key, reverse=True)))


def random_ordinal(rng, depth: int = 3) -> CnfOrdinal:
    """Random CNF ordinal: exponent depth <= 3, coefficients <= 9, at most
    4 terms, biased toward boundary shapes (pure powers, successors,
    multiples of omega)."""
    shape = rng.randrange(6)
    if depth == 0 or shape == 0:
        return from_int(rng.randrange(10))
    pairs = [(random_ordinal(rng, depth - 1), rng.randrange(1, 10))
             for _ in range(1 if shape == 1 else rng.randrange(1, 5))]  # shape 1: a pure power
    if shape == 2:  # multiple of omega: w * w^e*c = w^(1+e)*c, and 1+n = n+1
        pairs = [(from_int(e.as_int() + 1) if e.is_finite else e, c) for e, c in pairs]
    elif shape == 3:  # successor: add to the finite last term
        pairs.append((ZERO, rng.randrange(1, 10)))
    return normal_form(pairs)


def random_countable_infinite(rng) -> CnfOrdinal:
    a = random_ordinal(rng)
    return a if not a.is_finite else normal_form(((ONE, 1),) + a.terms)  # w+n
