"""Cantor normal form ordinals below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients; the empty sum is 0.  Values are immutable and hashable.

Values are interned (hash-consed, after Filliatre & Conchon, "Type-safe
modular hash-consing", 2006): there is exactly one live `CnfOrdinal` per
value, held in a weak table, so equality is identity, the hash is computed
once, and comparison skips every shared exponent by an `is` test.
Arithmetic builds its canonical results through the unchecked `_mk`; the
public constructor validates first.

Ordinal (non-commutative) and natural (Hessenberg) arithmetic both live
here, together with the textual grammar used by the CLI:

    ordinal := "0" | term ("+" term)*
    term    := base ("*" nat)?
    base    := "w" | "w^" atom | nat>=1
    atom    := nat | "w" | "(" ordinal ")"

A bare natural base may only appear as the final term and exponents must
be strictly decreasing; anything else is rejected with a hint.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterator


class OrdinalError(ValueError):
    pass


class CnfOrdinal:
    """((exponent, coefficient), ...) with exponents strictly decreasing.

    `CnfOrdinal(terms)` checks its argument and returns the one instance
    of that value; it rejects non-tuples, malformed terms, non-int or
    bool coefficients, coefficients below 1 and exponents that do not
    strictly decrease.
    """

    __slots__ = ("terms", "_hash", "__weakref__")
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
            if prev is not None and not _lt(exp, prev):
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
        exp, coeff = self.terms[-1]
        head = self.terms[:-1]
        if coeff > 1:
            head = head + ((exp, coeff - 1),)
        return _mk(head)

    def trunc_ge(self, exp: "CnfOrdinal") -> "CnfOrdinal":
        """Keep only the terms with exponent >= exp."""
        return _mk(self.terms[:_cut(self.terms, exp)])

    # -- equality, hashing, comparison, display ------------------------------
    #
    # Interning makes equality identity.  The hash stays structural,
    # hash((terms,)): a hash by address would make set and dict orders, and
    # so outputs, differ from run to run.

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
        return _lt(self, other)

    def __gt__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return _lt(other, self)

    def __le__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return not _lt(other, self)

    def __ge__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return not _lt(self, other)

    def __str__(self) -> str:
        return render_ordinal(self)

    def __repr__(self) -> str:
        return "CnfOrdinal(%s)" % render_ordinal(self)

    # Convenience operators; the named functions are the primary API.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))


# The intern table: terms -> the one live instance with those terms.  It
# holds its values weakly, so an ordinal nothing else refers to is freed.
_TABLE: "weakref.WeakValueDictionary[tuple, CnfOrdinal]" = weakref.WeakValueDictionary()
_new = object.__new__
_set_terms = CnfOrdinal.terms.__set__
_set_hash = CnfOrdinal._hash.__set__


def _mk(terms: tuple) -> CnfOrdinal:
    """The interned value of canonical `terms`, unchecked: for results
    that arithmetic builds in Cantor normal form from interned parts."""
    v = _TABLE.get(terms)
    if v is None:
        v = _new(CnfOrdinal)
        _set_terms(v, terms)
        _set_hash(v, hash((terms,)))
        _TABLE[terms] = v
    return v


def _lt(a: CnfOrdinal, b: CnfOrdinal) -> bool:
    if a is b:
        return False
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea is not eb:
            return _lt(ea, eb)
        if ca != cb:
            return ca < cb
    return len(a.terms) < len(b.terms)


def _cut(terms: tuple, e: CnfOrdinal) -> int:
    """The number of leading terms with exponent >= e."""
    i = 0
    for exp, _ in terms:
        if _lt(exp, e):
            break
        i += 1
    return i


def _coerce(x) -> CnfOrdinal:
    if isinstance(x, CnfOrdinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    raise OrdinalError("cannot interpret %r as an ordinal" % (x,))


def from_int(n: int) -> CnfOrdinal:
    if n < 0:
        raise OrdinalError("ordinals are non-negative")
    return CnfOrdinal(((ZERO, n),)) if n else ZERO


ZERO = CnfOrdinal()
ONE = CnfOrdinal(((ZERO, 1),))
OMEGA = CnfOrdinal(((ONE, 1),))


def omega_pow(e, coeff: int = 1) -> CnfOrdinal:
    e = _coerce(e)
    if type(coeff) is int and coeff > 0:
        return _mk(((e, coeff),))
    return CnfOrdinal(((e, coeff),)) if coeff else ZERO


def cmp(a, b) -> int:
    a, b = _coerce(a), _coerce(b)
    if _lt(a, b):
        return -1
    return 1 if _lt(b, a) else 0


# -- ordinal arithmetic ------------------------------------------------------


def add(a, b) -> CnfOrdinal:
    """Ordinal sum a + b (absorbs the low tail of a)."""
    a, b = _coerce(a), _coerce(b)
    if not b.terms:
        return a
    e, c = b.terms[0]
    i = _cut(a.terms, e)
    if i and a.terms[i - 1][0] is e:
        return _mk(a.terms[: i - 1] + ((e, a.terms[i - 1][1] + c),) + b.terms[1:])
    return _mk(a.terms[:i] + b.terms)


def mul(a, b) -> CnfOrdinal:
    """Ordinal product a * b (left-distributes over sums in b)."""
    a, b = _coerce(a), _coerce(b)
    if a.is_zero or b.is_zero:
        return ZERO
    out = ZERO
    e1 = a.terms[0][0]
    for f, d in b.terms:
        if f is ZERO:
            # a * d: only the leading term is multiplied, the tail survives once
            head = ((e1, a.terms[0][1] * d),)
            out = add(out, _mk(head + a.terms[1:]))
        else:
            out = add(out, _mk(((add(e1, f), d),)))
    return out


def left_subtract(a, b) -> CnfOrdinal:
    """The unique g with a + g = b (requires a <= b)."""
    a, b = _coerce(a), _coerce(b)
    if _lt(b, a):
        raise OrdinalError("left_subtract needs a <= b")
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta == tb:
            continue
        if ta[0] is tb[0]:
            # same exponent, b's coefficient is larger
            return _mk(((ta[0], tb[1] - ta[1]),) + b.terms[i + 1 :])
        return _mk(b.terms[i:])
    return _mk(b.terms[len(a.terms) :])


def euclid_div(a, d) -> tuple[CnfOrdinal, CnfOrdinal]:
    """Quotient/remainder with a = d*q + r and r < d."""
    a, d = _coerce(a), _coerce(d)
    if d.is_zero:
        raise OrdinalError("division by zero")
    q = ZERO
    r = a
    e = d.leading_exp
    c = d.terms[0][1]
    while not _lt(r, d):
        f, g = r.terms[0]
        if _lt(e, f):
            # d * w^((-e)+f) * g == w^f * g exactly
            qt = omega_pow(left_subtract(e, f), g)
            q = add(q, qt)
            r = left_subtract(_mk(((f, g),)), r)
        else:
            # f == e: the quotient contribution is a maximal finite m
            m = g // c + 1
            while _lt(r, mul(d, from_int(m))):
                m -= 1
            q = add(q, from_int(m))
            r = left_subtract(mul(d, from_int(m)), r)
            break
    return q, r


# -- natural (Hessenberg) arithmetic ----------------------------------------


def nat_add(a, b) -> CnfOrdinal:
    """Hessenberg sum: merge the two term lists, adding equal exponents."""
    a, b = _coerce(a), _coerce(b)
    xs, ys = a.terms, b.terms
    if not ys:
        return a
    if not xs:
        return b
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
        elif _lt(ey, ex):
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    return _mk(tuple(out) + xs[i:] + ys[j:])


def nat_mul(a, b) -> CnfOrdinal:
    """Hessenberg product: distribute with nat_add-combined exponents.

    Each row  w^ea*ca (x) b  is already in normal form, because the
    natural sum is strictly increasing in each argument; the rows are
    merged with nat_add."""
    a, b = _coerce(a), _coerce(b)
    out = ZERO
    for ea, ca in a.terms:
        out = nat_add(out, _mk(tuple((nat_add(ea, eb), ca * cb) for eb, cb in b.terms)))
    return out


def is_indecomposable(a) -> bool:
    """a = w^b for some b, i.e. a single term with coefficient 1."""
    a = _coerce(a)
    return len(a.terms) == 1 and a.terms[0][1] == 1


def sup_plus(xs) -> CnfOrdinal:
    """Least strict upper bound of a finite set; 0 for the empty set."""
    xs = [_coerce(x) for x in xs]
    if not xs:
        return ZERO
    return add(max(xs), ONE)


def ul_nat_add(a, b) -> CnfOrdinal:
    """Underlined natural sum: sup_plus{a' (+) b' : a' < a, b' < b}.

    Closed form by successor/limit case split on each argument; the limit
    cases wash out every term of the other side below the limit's final
    exponent.  Validated against fund_seq sampling in the tests.
    """
    a, b = _coerce(a), _coerce(b)
    if a.is_zero or b.is_zero:
        return ZERO
    if a.is_successor and b.is_successor:
        return add(nat_add(a.pred(), b.pred()), ONE)
    if a.is_successor:  # b is a limit
        g = b.last_exp
        return add(nat_add(a.pred(), b.minus_last()).trunc_ge(g), omega_pow(g))
    if b.is_successor:
        return ul_nat_add(b, a)
    g = max(a.last_exp, b.last_exp)
    return add(nat_add(a.minus_last(), b.minus_last()).trunc_ge(g), omega_pow(g))


def fund_seq(a, n: int) -> CnfOrdinal:
    """n-th element of the canonical fundamental sequence of a limit ordinal."""
    a = _coerce(a)
    if not a.is_limit:
        raise OrdinalError("%s is not a limit ordinal" % a)
    if n < 0:
        raise OrdinalError("index must be non-negative")
    exp, coeff = a.terms[-1]
    prefix = _mk(a.terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ()))
    if exp.is_successor:
        step = omega_pow(exp.pred(), n) if n else ZERO
    else:
        step = omega_pow(fund_seq(exp, n))
    return add(prefix, step)


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
# Comparison and arithmetic recurse once per level of a value's exponent
# tower, and at about 200 levels they exceed Python's default recursion
# limit; every parsed value stays well below that.
MAX_NESTING = 64

# The longest numeral the grammars accept: Python's default limit for
# int-from-text conversion, so a longer digit run is a parse error instead
# of the interpreter's ValueError.
MAX_NUMERAL_DIGITS = 4300
DIGITS = frozenset("0123456789")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str) -> OrdinalError:
        return OrdinalError(
            "%s at position %d in %r (grammar: w^e*c terms with strictly "
            "decreasing exponents, bare naturals only as the final term)"
            % (msg, self.pos, self.text)
        )

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, s: str) -> None:
        if not self.text.startswith(s, self.pos):
            raise self.error("expected %r" % s)
        self.pos += len(s)

    def nat(self) -> int:
        start = self.pos
        while self.peek() in DIGITS:
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a natural number")
        if self.pos - start > MAX_NUMERAL_DIGITS:
            raise self.error("numeral longer than %d digits" % MAX_NUMERAL_DIGITS)
        return int(self.text[start : self.pos])

    def atom(self) -> CnfOrdinal:
        if self.peek() == "(":
            if self.depth == MAX_NESTING:
                raise self.error("parentheses nested deeper than %d" % MAX_NESTING)
            self.depth += 1
            self.eat("(")
            v = self.ordinal()
            self.eat(")")
            self.depth -= 1
            return v
        if self.peek() == "w":
            self.eat("w")
            return OMEGA
        return from_int(self.nat())

    def ordinal(self) -> CnfOrdinal:
        if self.peek() == "0" and not (
            self.pos + 1 < len(self.text) and self.text[self.pos + 1] in DIGITS
        ):
            self.eat("0")
            return ZERO
        terms: list[tuple[CnfOrdinal, int]] = []
        while True:
            exp, coeff = self.term()
            if terms:
                if not _lt(exp, terms[-1][0]):
                    raise self.error(
                        "non-canonical form: exponents must strictly decrease"
                    )
            terms.append((exp, coeff))
            if self.peek() == "+":
                self.eat("+")
                continue
            break
        return CnfOrdinal(tuple(terms))

    def term(self) -> tuple[CnfOrdinal, int]:
        if self.peek() == "w":
            self.eat("w")
            exp = ONE
            if self.peek() == "^":
                self.eat("^")
                exp = self.atom()
            coeff = 1
            if self.peek() == "*":
                self.eat("*")
                coeff = self.nat()
                if coeff == 0:
                    raise self.error("zero coefficient is not canonical")
            return exp, coeff
        n = self.nat()
        if n == 0:
            raise self.error("'0' may only stand alone")
        if self.peek() == "+":
            raise self.error("a bare natural must be the final term")
        return ZERO, n


def parse_ordinal(text: str) -> CnfOrdinal:
    p = _Parser(text.replace(" ", ""))
    v = p.ordinal()
    if p.pos != len(p.text):
        raise p.error("trailing input")
    return v


def render_ordinal(a: CnfOrdinal) -> str:
    a = _coerce(a)
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(_numeral(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif exp == OMEGA or exp.is_finite:
            base = "w^%s" % render_ordinal(exp)
        else:
            base = "w^(%s)" % render_ordinal(exp)
        parts.append(base if coeff == 1 else "%s*%s" % (base, _numeral(coeff)))
    return "+".join(parts)


def _numeral(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # Python's int-to-text limit
        raise OrdinalError("a coefficient is too long to render (over %d digits)"
                           % MAX_NUMERAL_DIGITS) from None
