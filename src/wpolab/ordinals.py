"""Cantor normal form ordinals below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients; the empty sum is 0.  Values are immutable and hashable.

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

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator


class OrdinalError(ValueError):
    pass


@functools.total_ordering
@dataclass(frozen=True)
class CnfOrdinal:
    # ((exponent, coefficient), ...) with exponents strictly decreasing
    terms: tuple[tuple["CnfOrdinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, CnfOrdinal) or not isinstance(coeff, int):
                raise OrdinalError("malformed term %r" % (self.terms,))
            if coeff <= 0:
                raise OrdinalError("coefficients must be positive")
            if prev is not None and not _lt(exp, prev):
                raise OrdinalError("exponents must strictly decrease")
            prev = exp

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def leading_exp(self) -> "CnfOrdinal":
        if self.is_zero:
            raise OrdinalError("0 has no leading exponent")
        return self.terms[0][0]

    @property
    def last_exp(self) -> "CnfOrdinal":
        if self.is_zero:
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
        if self.is_zero:
            raise OrdinalError("0 has no last term")
        exp, coeff = self.terms[-1]
        head = self.terms[:-1]
        if coeff > 1:
            head = head + ((exp, coeff - 1),)
        return CnfOrdinal(head)

    def trunc_ge(self, exp: "CnfOrdinal") -> "CnfOrdinal":
        """Keep only the terms with exponent >= exp."""
        return CnfOrdinal(tuple(t for t in self.terms if not _lt(t[0], exp)))

    def degree(self) -> int:
        """Tower height of the leading exponent (0 for finite ordinals)."""
        if self.is_finite:
            return 0
        return 1 + self.leading_exp.degree()

    # -- comparison / display ----------------------------------------------

    def __lt__(self, other: "CnfOrdinal") -> bool:
        if not isinstance(other, CnfOrdinal):
            return NotImplemented
        return _lt(self, other)

    def __str__(self) -> str:
        return render_ordinal(self)

    def __repr__(self) -> str:
        return "CnfOrdinal(%s)" % render_ordinal(self)

    # Convenience operators; the named functions are the primary API.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))


def _lt(a: CnfOrdinal, b: CnfOrdinal) -> bool:
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea != eb:
            return _lt(ea, eb)
        if ca != cb:
            return ca < cb
    return len(a.terms) < len(b.terms)


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
    if b.is_zero:
        return a
    e = b.leading_exp
    kept = [t for t in a.terms if not _lt(t[0], e)]
    if kept and kept[-1][0] == e:
        exp, coeff = kept[-1]
        kept[-1] = (exp, coeff + b.terms[0][1])
        return CnfOrdinal(tuple(kept) + b.terms[1:])
    return CnfOrdinal(tuple(kept) + b.terms)


def mul(a, b) -> CnfOrdinal:
    """Ordinal product a * b (left-distributes over sums in b)."""
    a, b = _coerce(a), _coerce(b)
    if a.is_zero or b.is_zero:
        return ZERO
    out = ZERO
    e1 = a.leading_exp
    for f, d in b.terms:
        if f.is_zero:
            # a * d: only the leading term is multiplied, the tail survives once
            head = ((e1, a.terms[0][1] * d),)
            out = add(out, CnfOrdinal(head + a.terms[1:]))
        else:
            out = add(out, omega_pow(add(e1, f), d))
    return out


def left_subtract(a, b) -> CnfOrdinal:
    """The unique g with a + g = b (requires a <= b)."""
    a, b = _coerce(a), _coerce(b)
    if _lt(b, a):
        raise OrdinalError("left_subtract needs a <= b")
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta == tb:
            continue
        if ta[0] == tb[0]:
            # same exponent, b's coefficient is larger
            return CnfOrdinal(((ta[0], tb[1] - ta[1]),) + b.terms[i + 1 :])
        return CnfOrdinal(b.terms[i:])
    return CnfOrdinal(b.terms[len(a.terms) :])


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
            r = left_subtract(CnfOrdinal(((f, g),)), r)
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
    acc: dict[CnfOrdinal, int] = {}
    for exp, coeff in a.terms + b.terms:
        acc[exp] = acc.get(exp, 0) + coeff
    return CnfOrdinal(tuple((e, acc[e]) for e in sorted(acc, reverse=True)))


def nat_mul(a, b) -> CnfOrdinal:
    """Hessenberg product: distribute with nat_add-combined exponents."""
    a, b = _coerce(a), _coerce(b)
    out = ZERO
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            out = nat_add(out, omega_pow(nat_add(ea, eb), ca * cb))
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
    prefix = CnfOrdinal(a.terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ()))
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
        yield CnfOrdinal(
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
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a natural number")
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
            self.pos + 1 < len(self.text) and self.text[self.pos + 1].isdigit()
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
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif exp == OMEGA or exp.is_finite:
            base = "w^%s" % render_ordinal(exp)
        else:
            base = "w^(%s)" % render_ordinal(exp)
        parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
    return "+".join(parts)
