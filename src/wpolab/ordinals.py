"""Cantor normal form ordinals below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients; the empty sum is 0.  Values are immutable and hashable.

Values are interned (hash-consed, after Filliatre & Conchon, "Type-safe
modular hash-consing", 2006): there is exactly one live `CnfOrdinal` per
value, so equality is identity and the hash is computed once.  Interning
also builds each value's order key `_key`, the flat tuple
(e1._key, c1, e2._key, c2, ...): Python's lexicographic tuple order on keys
is the CNF order: exponents compare through their own keys, equal
exponents are one interned value with one key object, which the tuple
comparison passes by identity, and a proper prefix is smaller.  So a
comparison runs in C, with no Python frame per exponent level.  The intern
table is a plain dict from the structural hash hash((terms,)) to one keyed
weak reference per live value, so a lookup hashes the terms once; a hit is
confirmed by comparing terms, and a value whose hash slot another live
value holds goes to a small spill dict keyed by its terms.  A value's death
drops its entry.  Arithmetic builds its canonical results through the
unchecked `_mk`; the public constructor validates first.  When a term
helper hands back an operand's own terms tuple (a + b absorbed into b, an
exponent sum with 0), the operation returns that operand through `_mk_or`
instead of hashing and looking it up again.  A value's text is cached in
its `_text` slot by the first `render_ordinal` that succeeds.  Like `ZERO`,
`ONE` and `OMEGA`, the naturals below `_NAT_BOUND` (128) are built once, at
import, and live for the whole run: `from_int` returns them from a tuple.

Ordinal (non-commutative) and natural (Hessenberg) arithmetic both live
here, together with the textual grammar used by the CLI:

    ordinal := "0" | term ("+" term)*
    term    := base ("*" nat)?
    base    := "w" | "w^" atom | nat>=1
    atom    := nat | "w" | "(" ordinal ")"

A bare natural base may only appear as the final term and exponents must
be strictly decreasing; anything else is rejected with a hint.  Spaces are
dropped, other whitespace is an error; all three grammars read `_Scan`.
`_Parser` reads an ordinal in one loop over its terms, with the four rules
folded into it, and calls itself only for a parenthesized exponent.
"""

from __future__ import annotations

import functools
import itertools
import re
import weakref
from _weakref import _remove_dead_weakref
from typing import Iterator


class OrdinalError(ValueError):
    pass


class PosetError(OrdinalError):
    """A poset, poset file or construction request that cannot be built.
    It lives here, beside OrdinalError, so that code can catch it without
    importing the numpy layers; `posets` re-exports it."""


class CnfOrdinal:
    """((exponent, coefficient), ...) with exponents strictly decreasing.

    `CnfOrdinal(terms)` checks its argument and returns the one instance
    of that value; it rejects non-tuples, malformed terms, non-int or
    bool coefficients, coefficients below 1 and exponents that do not
    strictly decrease.
    """

    __slots__ = ("terms", "_hash", "_key", "_text", "__weakref__")
    terms: tuple[tuple["CnfOrdinal", int], ...]

    def __new__(cls, terms: tuple = ()) -> "CnfOrdinal":
        # check types before the table lookup: ((ZERO, 1.0),) and
        # ((ZERO, True),) compare equal to ONE's terms
        if type(terms) is not tuple:
            raise OrdinalError("malformed terms %r" % (terms,))
        prev = None
        for t in terms:
            if type(t) is not tuple or len(t) != 2:
                raise OrdinalError("malformed term %r" % (terms,))
            exp, coeff = t
            if (not isinstance(exp, CnfOrdinal) or not isinstance(coeff, int)
                    or isinstance(coeff, bool)):
                raise OrdinalError("malformed term %r" % (terms,))
            if coeff <= 0:
                raise OrdinalError("coefficients must be positive")
            if prev is not None and not exp._key < prev._key:
                raise OrdinalError("exponents must strictly decrease")
            prev = exp
        return _mk(terms)

    def __setattr__(self, name, value):
        raise AttributeError("CnfOrdinal values are immutable")

    def __delattr__(self, name):
        raise AttributeError("CnfOrdinal values are immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which interns
        return CnfOrdinal, (self.terms,)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] is ZERO)

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] is ZERO

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] is not ZERO

    @property
    def leading_exp(self) -> "CnfOrdinal":
        if not self.terms:
            raise OrdinalError("0 has no leading exponent")
        return self.terms[0][0]

    @property
    def last_exp(self) -> "CnfOrdinal":
        if not self.terms:
            raise OrdinalError("0 has no last exponent")
        return self.terms[-1][0]

    def as_int(self) -> int:
        if not self.is_finite:
            raise OrdinalError("%s is not finite" % self)
        return self.terms[0][1] if self.terms else 0

    def pred(self) -> "CnfOrdinal":
        if not self.is_successor:
            raise OrdinalError("%s is not a successor" % self)
        return self.minus_last()

    def minus_last(self) -> "CnfOrdinal":
        """Drop one unit of the last term's coefficient (any nonzero value)."""
        if not self.terms:
            raise OrdinalError("0 has no last term")
        return _mk(_minus_last(self.terms))

    # -- equality, hashing, comparison, display ------------------------------
    #
    # Interning makes equality identity, and `__eq__` is written out anyway:
    # object's own gives the same answers, but with the orders below defined
    # here it is reached through a slot wrapper, and a mismatch then also
    # tries the other operand, so comparing two tuples that hold different
    # values (as sorting them does) took 38% longer (timeit, Python 3.11.7).
    # The hash stays structural, hash((terms,)): a hash by address would
    # make set and dict orders, and so outputs, differ from run to run.

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return False if isinstance(other, CnfOrdinal) else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    # all four orders spelled out: total_ordering's derived ones cost a
    # second call per comparison
    def __lt__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return self._key < other._key

    def __gt__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return self._key > other._key

    def __le__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return self._key <= other._key

    def __ge__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return self._key >= other._key

    def __str__(self) -> str:
        return render_ordinal(self)

    def __repr__(self) -> str:
        return "CnfOrdinal(%s)" % render_ordinal(self)


class _Ref(weakref.ref):
    """A weak reference to an interned value that knows its table key."""

    __slots__ = ("key",)


# The intern table: hash((terms,)) -> a `_Ref` to the live instance with
# those terms, so an ordinal nothing else refers to is freed.  `_mk` hashes
# the terms once; with an int key the lookup, the store and the removal call
# no `__hash__` per term again.  A hit is confirmed by comparing terms.  A
# value whose slot holds a live value with other terms (a hash collision)
# goes to `_SPILL`, keyed by its terms, and a miss in `_TABLE` looks there
# first, so the value stays unique after the slot's occupant dies.  The two
# dicts together count the live values.  A freed value's callback removes
# its entry only while the entry still holds a dead ref: a value re-interned
# before the old callback ran (say, within one gc pass) keeps its new entry.
# These are the stdlib weak-value dictionary's semantics, minus the
# Python-level `get`, `__setitem__` and removal bookkeeping that dominated
# `_mk`.
_TABLE: "dict[int, _Ref]" = {}
_SPILL: "dict[tuple, _Ref]" = {}
_new = object.__new__
_set_terms = CnfOrdinal.terms.__set__
_set_hash = CnfOrdinal._hash.__set__
_set_key = CnfOrdinal._key.__set__
_set_text = CnfOrdinal._text.__set__


def _drop(r: _Ref, table: dict = _TABLE, remove=_remove_dead_weakref) -> None:
    # bound as defaults, so a callback late in interpreter shutdown, when
    # module globals may be gone, still finds them
    remove(table, r.key)


_drop_spill = functools.partial(_drop, table=_SPILL)


def _mk(terms: tuple) -> CnfOrdinal:
    """The interned value of canonical `terms`, unchecked: for results
    that arithmetic builds in Cantor normal form from interned parts."""
    h = hash((terms,))
    r = _TABLE.get(h)
    v = r() if r is not None else None
    if v is not None:
        if v.terms == terms:
            return v
        table, drop, key = _SPILL, _drop_spill, terms
    else:
        table, drop, key = _TABLE, _drop, h
    if _SPILL:
        r = _SPILL.get(terms)
        v = r() if r is not None else None
        if v is not None:
            return v
    v = _new(CnfOrdinal)
    _set_terms(v, terms)
    _set_hash(v, h)
    k = ()
    for e, c in terms:
        k += (e._key, c)
    _set_key(v, k)
    r = _Ref(v, drop)
    r.key = key
    table[key] = r
    return v


def _mk_or(terms: tuple, v: CnfOrdinal) -> CnfOrdinal:
    """_mk(terms), or v itself when terms is v's own terms tuple, which a
    term helper hands back when the other operand adds nothing."""
    return v if terms is v.terms else _mk(terms)


def _minus_last(terms: tuple) -> tuple:
    """The terms of a nonzero value less one unit of its last term."""
    exp, coeff = terms[-1]
    return terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ())


def _cut(terms: tuple, e: CnfOrdinal) -> int:
    """The number of leading terms with exponent >= e."""
    i = 0
    k = e._key
    for exp, _ in terms:
        if exp._key < k:
            break
        i += 1
    return i


def as_ordinal(x) -> CnfOrdinal:
    """x as a CNF ordinal: a CnfOrdinal itself or a natural number."""
    if isinstance(x, CnfOrdinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    raise OrdinalError("cannot interpret %r as an ordinal" % (x,))


def from_int(n: int) -> CnfOrdinal:
    if type(n) is int:
        if 0 <= n < _NAT_BOUND:
            return _NATS[n]
        if n > 0:
            return _mk(((ZERO, n),))
        raise OrdinalError("ordinals are non-negative")
    # the checking constructor refuses a non-natural such as False, 0.0 or
    # "3", and takes an int subclass
    return CnfOrdinal(((ZERO, n),))


ZERO = CnfOrdinal()
ONE = CnfOrdinal(((ZERO, 1),))
OMEGA = CnfOrdinal(((ONE, 1),))
# the naturals below _NAT_BOUND, built once: `from_int` hands them out, so a
# small natural is not interned, freed and interned again
_NAT_BOUND = 128
_NATS = (ZERO, ONE) + tuple(_mk(((ZERO, n),)) for n in range(2, _NAT_BOUND))


def omega_pow(e, coeff: int = 1) -> CnfOrdinal:
    e = as_ordinal(e)
    if type(coeff) is int and coeff > 0:
        return _mk(((e, coeff),))
    return ZERO if type(coeff) is int and coeff == 0 else CnfOrdinal(((e, coeff),))


def cmp(a, b) -> int:
    a, b = as_ordinal(a), as_ordinal(b)
    return (a._key > b._key) - (a._key < b._key)


# -- ordinal arithmetic ------------------------------------------------------


def _add(xs: tuple, ys: tuple) -> tuple:
    """The terms of the ordinal sum of the term tuples xs and ys (ys nonempty)."""
    e, c = ys[0]
    i = _cut(xs, e)
    if not i:
        return ys
    if xs[i - 1][0] is e:
        return xs[: i - 1] + ((e, xs[i - 1][1] + c),) + ys[1:]
    return xs[:i] + ys


def add(a, b) -> CnfOrdinal:
    """Ordinal sum a + b (absorbs the low tail of a)."""
    a, b = as_ordinal(a), as_ordinal(b)
    if not b.terms:
        return a
    return _mk_or(_add(a.terms, b.terms), b)


def mul(a, b) -> CnfOrdinal:
    """Ordinal product a * b, in one pass over b's terms.

    With w^e1*c1 the leading term of a, a * w^f*d = w^(e1+f)*d for f > 0,
    and a * d = w^e1*(c1*d) + (a's tail) for a finite d: only the leading
    term is multiplied, the tail survives once.  The exponents e1+f
    strictly decrease and stay above e1, so the terms are already in
    normal form."""
    a, b = as_ordinal(a), as_ordinal(b)
    if a.is_zero or b.is_zero:
        return ZERO
    e1, c1 = a.terms[0]
    out = tuple((_mk_or(_add(e1.terms, f.terms), f), d) for f, d in b.terms if f is not ZERO)
    if b.is_successor:
        out += ((e1, c1 * b.terms[-1][1]),) + a.terms[1:]
    return _mk(out)


def _left_sub(xs: tuple, ys: tuple) -> tuple:
    """The terms of g with x + g = y, for the terms xs of x <= y and ys of y."""
    for i, (tx, ty) in enumerate(zip(xs, ys)):
        if tx == ty:
            continue
        if tx[0] is ty[0]:
            # same exponent, y's coefficient is larger
            return ((tx[0], ty[1] - tx[1]),) + ys[i + 1 :]
        return ys[i:]
    return ys[len(xs) :]


def left_subtract(a, b) -> CnfOrdinal:
    """The unique g with a + g = b (requires a <= b)."""
    a, b = as_ordinal(a), as_ordinal(b)
    if b._key < a._key:
        raise OrdinalError("left_subtract needs a <= b")
    return _mk_or(_left_sub(a.terms, b.terms), b)


def euclid_div(a, d) -> tuple[CnfOrdinal, CnfOrdinal]:
    """Quotient/remainder with a = d*q + r and r < d, in one pass.

    With w^e*c the leading term of d, each term w^f*g of a with f > e is
    d * w^((-e)+f)*g exactly, so it gives the quotient term w^((-e)+f)*g.
    The rest r0 of a lies below w^(e+1), so the quotient ends in the
    largest finite m with d*m <= r0, and r = (-(d*m)) + r0."""
    a, d = as_ordinal(a), as_ordinal(d)
    if d.is_zero:
        raise OrdinalError("division by zero")
    e, c = d.terms[0]
    ts = a.terms
    i = 0
    k = e._key
    while i < len(ts) and k < ts[i][0]._key:
        i += 1
    q = [(_mk_or(_left_sub(e.terms, f.terms), f), g) for f, g in ts[:i]]
    r = ts[i:]
    if r and r[0][0] is e:
        # r0 = w^e*g + t and d = w^e*c + u: m = g // c, one less when
        # c*m == g and t < u.  Term tuples compare in CNF order, since
        # tuples compare lexicographically and exponents by their keys.
        g = r[0][1]
        m = g // c
        if c * m == g and r[1:] < d.terms[1:]:
            m -= 1
        if m:
            r = _left_sub(((e, c * m),) + d.terms[1:], r)
            q.append((ZERO, m))
    return _mk(tuple(q)), _mk_or(r, a)


# -- natural (Hessenberg) arithmetic ----------------------------------------


def _merge(xs: tuple, ys: tuple) -> tuple:
    """The terms of the Hessenberg sum of the term tuples xs and ys: merge
    them, adding the coefficients of equal exponents."""
    if not ys:
        return xs
    if not xs:
        return ys
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        ex, cx = xs[i]
        ey, cy = ys[j]
        if ex is ey:
            out.append((ex, cx + cy))
            i += 1
            j += 1
        elif ey._key < ex._key:
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    return tuple(out) + xs[i:] + ys[j:]


def nat_add(a, b) -> CnfOrdinal:
    """Hessenberg sum: merge the two term lists, adding equal exponents."""
    a, b = as_ordinal(a), as_ordinal(b)
    if not b.terms:
        return a
    if not a.terms:
        return b
    return _mk(_merge(a.terms, b.terms))


def nat_mul(a, b) -> CnfOrdinal:
    """Hessenberg product: distribute with nat_add-combined exponents.

    Each row  w^ea*ca (x) b  is already in normal form, because the
    natural sum is strictly increasing in each argument; the rows' terms
    are merged as raw tuples and only the product is interned.  ONE is
    the unit, so a product with it returns the other operand, and an
    exponent sum with 0 returns the other exponent."""
    a, b = as_ordinal(a), as_ordinal(b)
    if a is ONE:
        return b
    if b is ONE:
        return a
    out: tuple = ()
    for ea, ca in a.terms:
        row = tuple((_mk_or(_merge(ea.terms, eb.terms), ea if eb is ZERO else eb), ca * cb)
                    for eb, cb in b.terms)
        out = _merge(out, row)
    return _mk(out)


def is_indecomposable(a) -> bool:
    """a = w^b for some b, i.e. a single term with coefficient 1."""
    a = as_ordinal(a)
    return len(a.terms) == 1 and a.terms[0][1] == 1


def sup_plus(xs) -> CnfOrdinal:
    """Least strict upper bound of a finite set; 0 for the empty set."""
    xs = [as_ordinal(x) for x in xs]
    if not xs:
        return ZERO
    return add(max(xs), ONE)


def ul_nat_add(*xs) -> CnfOrdinal:
    """Underlined natural sum: sup_plus{x_1' (+) ... (+) x_n' : x_i' < x_i}.

    One closed form: with g the largest last exponent, the natural sum of
    the x_i.minus_last() plus w^g.  The ordinal sum drops the terms below
    g, which wash out under the w^g that the limits leave; when every
    argument is a successor, g = 0, nothing is dropped and w^0 adds the 1.
    The result is 0 when some x_i is 0.  Only the result is interned.
    Validated against fund_seq sampling in the tests.
    """
    if not xs:
        raise OrdinalError("ul_nat_add needs at least one argument")
    xs = [as_ordinal(x) for x in xs]
    if ZERO in xs:
        return ZERO
    g = max(x.last_exp for x in xs)
    s: tuple = ()
    for x in xs:
        s = _merge(s, _minus_last(x.terms))
    return _mk(_add(s, ((g, 1),)))


def fund_seq(a, n: int) -> CnfOrdinal:
    """n-th element of the canonical fundamental sequence of a limit ordinal."""
    a = as_ordinal(a)
    if not a.is_limit:
        raise OrdinalError("%s is not a limit ordinal" % a)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise OrdinalError("index must be a natural number")
    exp = a.terms[-1][0]
    prefix = _minus_last(a.terms)
    if exp.is_successor:
        if not n:
            return _mk(prefix)
        step = ((exp.pred(), n),)
    else:
        step = ((fund_seq(exp, n), 1),)
    return _mk(_add(prefix, step))


# -- small ordinals: exhaustive cases for the suites and the criteria --------


def iter_below(max_exp: int, max_coeff: int) -> Iterator[CnfOrdinal]:
    """All ordinals w^max_exp*c_k + ... + c_0 with finite exponents <= max_exp
    and coefficients in 0..max_coeff, in increasing order."""
    for coeffs in itertools.product(range(max_coeff + 1), repeat=max_exp + 1):
        yield _mk(
            tuple(
                (from_int(e), c)
                for e, c in zip(range(max_exp, -1, -1), coeffs)
                if c
            )
        )


# -- grammar -----------------------------------------------------------------


# The deepest nesting the ordinal, scaled W<k> and term grammars accept.
# What recurses once per level of a value's exponent tower: the nested
# order-key tuples, which comparison and every operation that compares
# exponents walk in C; render_ordinal; fund_seq; and the ordinal parser,
# once per "(".  With Python 3.11's default recursion limit of 1000 they
# first raise RecursionError at 994-997 levels of omega_pow nesting, far
# above any parsed value.
MAX_NESTING = 64

# The longest numeral the grammars accept: Python's default limit for
# int-from-text conversion, so a longer digit run is a parse error instead
# of the interpreter's ValueError.
MAX_NUMERAL_DIGITS = 4300


# Error messages echo at most this many characters of the input.
MAX_ECHO = 60


def clip(text: str) -> str:
    """text as an error message echoes it: at most MAX_ECHO characters,
    then '...', so a long input still gives a short one-line message."""
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO] + "..."


_TOKEN = re.compile(r"[0-9]+|.", re.DOTALL)


class _Scan:
    """The tokens of a text, read by index: each ASCII digit run (a token
    that starts with an ASCII digit) and each other character, then the
    sentinel "".  offs[k] is the offset of token k; only error messages
    and `window` read it, so it is built on first use."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]

    @functools.cached_property
    def offs(self) -> list:
        return list(itertools.accumulate(map(len, self.toks), initial=0))

    @functools.cached_property
    def close(self) -> dict:
        """{k: j} for each '(' at token k and the ')' at token j matching it."""
        close, opened = {}, []
        for k, tok in enumerate(self.toks):
            if tok == "(":
                opened.append(k)
            elif tok == ")" and opened:
                close[opened.pop()] = k
        return close

    def window(self, k0: int, k1: int) -> str:
        return self.text[self.offs[k0] : self.offs[k1]]


class _Parser:
    """The ordinal grammar over tokens k0 .. k1 - 1 of a space-free scan."""

    def __init__(self, scan: _Scan, k0: int, k1: int):
        self.scan, self.k0, self.k1 = scan, k0, k1
        self.toks = scan.toks[k0:k1] + [""]

    def error(self, i: int, msg: str) -> OrdinalError:
        s, k0 = self.scan, self.k0
        return OrdinalError(
            "%s at position %d in %r (grammar: w^e*c terms, exponents "
            "decreasing, a bare natural last)"
            % (msg, s.offs[k0 + i] - s.offs[k0], clip(s.window(k0, self.k1))))

    def bad_numeral(self, i: int) -> OrdinalError:
        """The error for token i where a natural number must stand."""
        if "0" <= self.toks[i] < ":":
            return self.error(i + 1, "numeral longer than %d digits" % MAX_NUMERAL_DIGITS)
        return self.error(i, "expected a natural number")

    def parse(self) -> CnfOrdinal:
        v, i = self.ordinal(0, 0)
        if self.toks[i]:
            raise self.error(i, "trailing input")
        return v

    def ordinal(self, i: int, depth: int) -> tuple[CnfOrdinal, int]:
        """The ordinal at token i, inside `depth` parentheses, and the next
        i: one loop over its terms, and one call deeper per parenthesized
        exponent.  A token is a numeral when "0" <= tok < ":", that is when
        it starts with an ASCII digit."""
        toks = self.toks
        tok = toks[i]
        if tok == "0":
            return ZERO, i + 1
        terms = []
        last = None  # the order key of the previous term's exponent
        while True:
            if tok != "w":
                # a bare natural: the last term
                if not "0" <= tok < ":" or len(tok) > MAX_NUMERAL_DIGITS:
                    raise self.bad_numeral(i)
                exp, coeff = ZERO, int(tok)
                i += 1
                if not coeff:
                    raise self.error(i, "'0' may only stand alone")
                if toks[i] == "+":
                    raise self.error(i, "a bare natural must be the final term")
            else:
                if toks[i + 1] != "^":
                    exp = ONE
                    i += 1
                else:
                    i += 2
                    tok = toks[i]
                    if tok == "w":
                        exp = OMEGA
                    elif tok == "(":
                        if depth == MAX_NESTING:
                            raise self.error(i, "parentheses nested deeper than %d" % MAX_NESTING)
                        exp, i = self.ordinal(i + 1, depth + 1)
                        if toks[i] != ")":
                            raise self.error(i, "expected ')'")
                    elif "0" <= tok < ":" and len(tok) <= MAX_NUMERAL_DIGITS:
                        exp = from_int(int(tok))
                    else:
                        raise self.bad_numeral(i)
                    i += 1
                if toks[i] != "*":
                    coeff = 1
                else:
                    i += 1
                    tok = toks[i]
                    if not "0" <= tok < ":" or len(tok) > MAX_NUMERAL_DIGITS:
                        raise self.bad_numeral(i)
                    coeff = int(tok)
                    i += 1
                    if not coeff:
                        raise self.error(i, "zero coefficient is not canonical")
            if last is not None and not exp._key < last:
                raise self.error(i, "non-canonical form: exponents must strictly decrease")
            last = exp._key
            terms.append((exp, coeff))
            if toks[i] != "+":
                return _mk(tuple(terms)), i
            i += 1
            tok = toks[i]


def parse_ordinal(text: str) -> CnfOrdinal:
    scan = _Scan(text.replace(" ", ""))
    return _Parser(scan, 0, len(scan.toks) - 1).parse()


def render_ordinal(a: CnfOrdinal) -> str:
    a = as_ordinal(a)
    text = getattr(a, "_text", None)
    if text is not None:
        return text
    parts = []
    for exp, coeff in a.terms:
        if exp is ZERO:
            parts.append(_numeral(coeff))
            continue
        if exp is ONE:
            base = "w"
        elif exp is OMEGA or exp.is_finite:
            base = "w^" + render_ordinal(exp)
        else:
            base = "w^(%s)" % render_ordinal(exp)
        parts.append(base if coeff == 1 else "%s*%s" % (base, _numeral(coeff)))
    text = "+".join(parts) or "0"
    _set_text(a, text)
    return text


def _numeral(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # Python's int-to-text limit
        raise OrdinalError("a coefficient is too long to render (over %d digits)"
                           % MAX_NUMERAL_DIGITS) from None
