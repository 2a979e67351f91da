"""Round trips and fuzzing of the three text grammars.

Valid values must render, parse back to the same value and render to the
same text.  Arbitrary strings over a grammar's alphabet must either parse
or raise OrdinalError/PosetError (exit code 2 in the CLI), never anything
else, and the ordinal and scaled grammars must agree with the reference
descent `_ReferenceParser` on every text.
"""

import itertools
import operator
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wpolab import cardinals
from wpolab.cardinals import KOrdinal, LevelOverflowError, parse_k, render_k
from wpolab.ordinals import (MAX_NESTING, MAX_NUMERAL_DIGITS, OMEGA, ONE, ZERO, CnfOrdinal,
                             OrdinalError, _Scan, clip, cmp, from_int, parse_ordinal,
                             render_ordinal)
from wpolab.posets import PosetError, antichain, chain
from wpolab.terms import DSum, Fin, LexSum, Ord, Prod, parse_term, render_term

from cases import K_ORDINALS, ORDINALS

ORD_ALPHABET = "0123456789w^*+() "
K_ALPHABET = ORD_ALPHABET + "W"
# every letter of ord, fin, dsum, lexsum, prod, chain and antichain
TERM_ALPHABET = ORD_ALPHABET + "acdefhilmnoprstux,@"

# grammar pieces, so that random inputs reach the deeper rules; the digit
# runs at and past the numeral bound reach the length checks in front of int()
LONG_RUNS = ["9" * MAX_NUMERAL_DIGITS, "9" * (MAX_NUMERAL_DIGITS + 1)]
ORD_TOKENS = ["w", "^", "*", "+", "(", ")", " ", "0", "1", "2", "10"] + LONG_RUNS
K_TOKENS = ORD_TOKENS + ["W", "W1", "W9", "W10", "*(", ")+("]
TERM_HEADS = ["ord(", "fin(", "dsum(", "lexsum(", "prod(", "fin(chain", "fin(@"]
TERM_TOKENS = ORD_TOKENS + TERM_HEADS + ["chain", "antichain", "@", ","]


def token_texts(tokens, head=st.just(""), tail=st.just("")):
    return st.tuples(head, st.lists(st.sampled_from(tokens), max_size=12), tail).map(
        lambda parts: parts[0] + "".join(parts[1]) + parts[2])


# inline finite posets have at most 9 vertices, so one edit of a rendered
# term (below) names at most 99, and the fuzzed terms stay small to build
TERMS = st.recursive(
    st.one_of(ORDINALS.map(Ord),
              st.builds(lambda make, n: Fin(make(n)),
                        st.sampled_from([chain, antichain]), st.integers(0, 9))),
    lambda inner: st.builds(lambda node, left, right: node(left, right),
                            st.sampled_from([DSum, LexSum, Prod]), inner, inner),
    max_leaves=6,
)


@st.composite
def edited(draw, values, render, pieces):
    """A rendered value with one character deleted, replaced by a piece,
    or with a piece inserted."""
    text = render(draw(values))
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(pieces))
    return draw(st.sampled_from([text[:i] + text[i + 1:], text[:i] + c + text[i + 1:],
                                 text[:i] + c + text[i:]]))


@given(ORDINALS)
@settings(max_examples=300)
def test_ordinals_round_trip(a):
    text = render_ordinal(a)
    assert parse_ordinal(text) == a
    assert render_ordinal(parse_ordinal(text)) == text


@given(K_ORDINALS)
@settings(max_examples=300)
def test_scaled_ordinals_round_trip(a):
    text = render_k(a)
    assert parse_k(text) == a
    assert render_k(parse_k(text)) == text


@given(TERMS)
@settings(max_examples=300)
def test_terms_round_trip(t):
    text = render_term(t)
    assert render_term(parse_term(text)) == text


@given(st.one_of(st.text(ORD_ALPHABET, max_size=24), token_texts(ORD_TOKENS)))
@settings(max_examples=500)
def test_ordinal_grammar_parses_or_rejects(text):
    try:
        a = parse_ordinal(text)
    except OrdinalError:
        return
    assert parse_ordinal(render_ordinal(a)) == a


@given(st.one_of(st.text(K_ALPHABET, max_size=24), token_texts(K_TOKENS)))
@settings(max_examples=500)
def test_scaled_grammar_parses_or_rejects(text):
    try:
        a = parse_k(text)
    except OrdinalError:
        return
    assert parse_k(render_k(a)) == a


def test_the_deepest_nesting_parses_and_renders_back():
    # w^(w+1) renders with its parentheses, so every level keeps its own
    text = "w^(" * MAX_NESTING + "w+1" + ")" * MAX_NESTING
    a = parse_ordinal(text)
    assert render_ordinal(a) == text
    assert parse_ordinal(text) is a and a == a and cmp(a, a) == 0
    with pytest.raises(OrdinalError, match="nested deeper than %d" % MAX_NESTING):
        parse_ordinal("w^(" + text + ")")


# fin(chainN) closes an N-vertex chain at parse time, so N stays below 100:
# random text has at most 12 characters, and token texts no run of three
# digits short of the numeral bound (a longer run is past every bound)
@given(st.one_of(
    st.text(TERM_ALPHABET, max_size=12),
    token_texts(TERM_TOKENS, st.sampled_from(TERM_HEADS), st.sampled_from(["", ")", "))"]))
    .filter(lambda text: not re.search(
        r"(?<![0-9])[0-9]{3,%d}(?![0-9])" % MAX_NUMERAL_DIGITS, text)),
    edited(TERMS, render_term, TERM_ALPHABET)))
@settings(max_examples=500, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_term_grammar_parses_or_rejects(monkeypatch, tmp_path, text):
    monkeypatch.chdir(tmp_path)  # fin(@file) names resolve in an empty directory
    try:
        t = parse_term(text)
    except (OrdinalError, PosetError):
        return
    assert parse_term(render_term(t)) == t


# -- frozen error messages -------------------------------------------------------------
#
# One input per raise site of the three grammars, with the exception type and
# the exact message.  An ordinal error counts positions in the space-stripped
# text; inside W<k>*(q)+(r) it counts from the start of q or r, and inside
# ord(...) from the stripped body.

_HINT = " (grammar: w^e*c terms, exponents decreasing, a bare natural last)"
_DEEP_TERM = "ord(1)"
for _ in range(65):
    _DEEP_TERM = "dsum(%s,ord(1))" % _DEEP_TERM

ORDINAL_ERRORS = [
    # parse_ordinal
    ("w^(w", OrdinalError, "expected ')' at position 4 in 'w^(w'" + _HINT),
    ("w ^ (w", OrdinalError, "expected ')' at position 4 in 'w^(w'" + _HINT),
    ("w*", OrdinalError, "expected a natural number at position 2 in 'w*'" + _HINT),
    # numerals are ASCII digit runs, not any Unicode digit
    ("w*\u00b2", OrdinalError, "expected a natural number at position 2 in 'w*\u00b2'" + _HINT),
    ("", OrdinalError, "expected a natural number at position 0 in ''" + _HINT),
    ("w\n+1", OrdinalError, "trailing input at position 1 in 'w\\n+1'" + _HINT),
    ("9" * (MAX_NUMERAL_DIGITS + 1), OrdinalError,
     "numeral longer than 4300 digits at position 4301 in '%s...'" % ("9" * 60) + _HINT),
    ("w^(" * 65 + "1" + ")" * 65, OrdinalError,
     "parentheses nested deeper than 64 at position 194 in '%s...'" % ("w^(" * 20) + _HINT),
    ("w*0", OrdinalError, "zero coefficient is not canonical at position 3 in 'w*0'" + _HINT),
    ("w+0", OrdinalError, "'0' may only stand alone at position 3 in 'w+0'" + _HINT),
    ("00", OrdinalError, "'0' may only stand alone at position 2 in '00'" + _HINT),
    ("1+w", OrdinalError,
     "a bare natural must be the final term at position 1 in '1+w'" + _HINT),
    ("w+w^2", OrdinalError, "non-canonical form: exponents must strictly decrease at position 5"
     " in 'w+w^2'" + _HINT),
    ("w)", OrdinalError, "trailing input at position 1 in 'w)'" + _HINT),
    ("w\t", OrdinalError, "trailing input at position 1 in 'w\\t'" + _HINT),
    ("0+1", OrdinalError, "trailing input at position 1 in '0+1'" + _HINT),
]
SCALED_ERRORS = [
    ("W*(1)+(0)", OrdinalError, "malformed scaled ordinal 'W*(1)+(0)' (expected W<k>*(q)+(r))"),
    ("W1*(1)(0)", OrdinalError, "malformed scaled ordinal 'W1*(1)(0)' (expected W<k>*(q)+(r))"),
    ("W1*(1)+(0", OrdinalError, "malformed scaled ordinal 'W1*(1)+(0' (expected W<k>*(q)+(r))"),
    ("W2*(1)+(W1*(1)+0)", OrdinalError,
     "malformed scaled ordinal 'W1*(1)+0' (expected W<k>*(q)+(r))"),
    ("W\u0663*(1)+(0)", OrdinalError,
     "malformed scaled ordinal 'W\u0663*(1)+(0)' (expected W<k>*(q)+(r))"),
    ("W10*(1)+(0)", LevelOverflowError, "scale W10 is outside 1..9"),
    ("W0*(1)+(0)", LevelOverflowError, "scale W0 is outside 1..9"),
    ("W1*(1)+(" * 65 + "0" + ")" * 65, OrdinalError, "scaled forms nested deeper than 64"),
    ("W1*(0)+(0)", OrdinalError, "scaled form needs a nonzero quotient"),
    ("W1*(w+w^2)+(0)", OrdinalError, "non-canonical form: exponents must strictly decrease at"
     " position 5 in 'w+w^2'" + _HINT),
    ("W2 * (1)+(W1*(1)+(w*0))", OrdinalError, "zero coefficient is not canonical at position 3"
     " in 'w*0'" + _HINT),
    ("W1*(1)+(w^(w)", OrdinalError, "expected ')' at position 4 in 'w^(w'" + _HINT),
]
TERM_ERRORS = [
    ("ord", OrdinalError, "expected a term at position 0: 'ord'"),
    ("dsum(ord(1), x)", OrdinalError, "expected a term at position 13: 'x)'"),
    ("ord(w", OrdinalError, "unbalanced parentheses at position 3"),
    (_DEEP_TERM, OrdinalError, "terms nested deeper than 64 at position 320"),
    ("dsum(ord(1) ord(2))", OrdinalError, "expected ',' at position 12 in dsum(...)"),
    ("dsum(ord(1),ord(2) x)", OrdinalError, "trailing input at position 19 in dsum(...)"),
    ("ord(1) x", OrdinalError, "trailing input at position 7: 'x'"),
    ("fin(chain)", OrdinalError, "fin(...) takes chainN, antichainN, or @file, got 'chain'"),
    ("fin(chain2001)", PosetError, "inline fin(chain...) takes at most 2000 vertices; put a"
     " larger poset in a file and use fin(@file)"),
    ("ord( w + w^2 )", OrdinalError, "non-canonical form: exponents must strictly decrease at"
     " position 5 in 'w+w^2'" + _HINT),
    ("\tprod(\nord(1) ,ord(w*0))", OrdinalError,
     "zero coefficient is not canonical at position 3 in 'w*0'" + _HINT),
]


def _test_id(text):
    return text if len(text) <= 24 else text[:21] + "..."


@pytest.mark.parametrize(
    "parse, text, kind, message",
    [(parse_ordinal,) + row for row in ORDINAL_ERRORS]
    + [(parse_k,) + row for row in SCALED_ERRORS]
    + [(parse_term,) + row for row in TERM_ERRORS],
    ids=["ordinal:" + _test_id(t) for t, _, _ in ORDINAL_ERRORS]
    + ["scaled:" + _test_id(t) for t, _, _ in SCALED_ERRORS]
    + ["term:" + _test_id(t) for t, _, _ in TERM_ERRORS])
def test_grammar_error_messages_are_frozen(parse, text, kind, message):
    with pytest.raises(OrdinalError) as info:
        parse(text)
    assert type(info.value) is kind
    assert str(info.value) == message


# -- the reference descent ---------------------------------------------------------------
#
# The recursive descent that `ordinals._Parser` folded into one loop per
# nesting level, one method per rule, kept as an oracle: it reads the
# tokens of the same scan, builds values through the checked constructor
# and counts error positions from offsets of its own.  The texts of the
# frozen tables above reach every raise site.

class _ReferenceParser:
    """ordinal := "0" | term ("+" term)*,  term := base ("*" nat)?,
    base := "w" | "w^" atom | nat>=1,  atom := nat | "w" | "(" ordinal ")"
    over tokens k0 .. k1 - 1 of a space-free scan."""

    def __init__(self, scan: _Scan, k0: int, k1: int):
        self.toks = scan.toks[k0:k1] + [""]
        self.offs = list(itertools.accumulate(map(len, self.toks), initial=0))

    def error(self, i, msg):
        return OrdinalError("%s at position %d in %r%s"
                            % (msg, self.offs[i], clip("".join(self.toks)), _HINT))

    def parse(self):
        v, i = self.ordinal(0, 0)
        if self.toks[i]:
            raise self.error(i, "trailing input")
        return v

    def nat(self, i):
        tok = self.toks[i]
        if not "0" <= tok[:1] <= "9":
            raise self.error(i, "expected a natural number")
        if len(tok) > MAX_NUMERAL_DIGITS:
            raise self.error(i + 1, "numeral longer than %d digits" % MAX_NUMERAL_DIGITS)
        return int(tok), i + 1

    def atom(self, i, depth):
        tok = self.toks[i]
        if tok == "w":
            return OMEGA, i + 1
        if tok != "(":
            n, i = self.nat(i)
            return from_int(n), i
        if depth == MAX_NESTING:
            raise self.error(i, "parentheses nested deeper than %d" % MAX_NESTING)
        v, i = self.ordinal(i + 1, depth + 1)
        if self.toks[i] != ")":
            raise self.error(i, "expected ')'")
        return v, i + 1

    def ordinal(self, i, depth):
        if self.toks[i] == "0":
            return ZERO, i + 1
        terms = []
        while True:
            exp, coeff, i = self.term(i, depth)
            if terms and not exp < terms[-1][0]:
                raise self.error(i, "non-canonical form: exponents must strictly decrease")
            terms.append((exp, coeff))
            if self.toks[i] != "+":
                return CnfOrdinal(tuple(terms)), i
            i += 1

    def term(self, i, depth):
        toks = self.toks
        if toks[i] != "w":
            n, i = self.nat(i)
            if n == 0:
                raise self.error(i, "'0' may only stand alone")
            if toks[i] == "+":
                raise self.error(i, "a bare natural must be the final term")
            return ZERO, n, i
        exp, i = self.atom(i + 2, depth) if toks[i + 1] == "^" else (ONE, i + 1)
        if toks[i] != "*":
            return exp, 1, i
        coeff, i = self.nat(i + 1)
        if coeff == 0:
            raise self.error(i, "zero coefficient is not canonical")
        return exp, coeff, i


def _reference_parse(text):
    """parse_ordinal by the reference descent."""
    scan = _Scan(text.replace(" ", ""))
    return _ReferenceParser(scan, 0, len(scan.toks) - 1).parse()


def _reference_parse_k(text):
    """parse_k with every plain ordinal read by the reference descent."""
    with mock.patch.object(cardinals, "_Parser", _ReferenceParser):
        return parse_k(text)


def _outcome(parse, text):
    """What parse makes of text: its value, or its error's type and message."""
    try:
        return parse(text)
    except OrdinalError as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    """One interned value (a tower of them), or one error type and message."""
    if isinstance(want, KOrdinal):
        return type(got) is KOrdinal and all(map(operator.is_, got.coeffs, want.coeffs))
    return got is want if isinstance(want, CnfOrdinal) else got == want


# rendered values joined by "+", in normal form or not
SUMS = st.lists(ORDINALS.map(render_ordinal), min_size=2, max_size=4).map("+".join)
# towers of parentheses around the nesting bound, closed or not
DEEP_TEXTS = st.tuples(st.integers(MAX_NESTING - 2, MAX_NESTING + 2), st.booleans()).map(
    lambda nb: "w^(" * nb[0] + "w+1" + ")" * (nb[0] - nb[1]))


@given(st.one_of(st.text(ORD_ALPHABET, max_size=24), token_texts(ORD_TOKENS),
                 ORDINALS.map(render_ordinal), edited(ORDINALS, render_ordinal, ORD_TOKENS),
                 SUMS, DEEP_TEXTS, st.sampled_from([row[0] for row in ORDINAL_ERRORS])))
# zero exponents, which no value renders to: w^0 is 1
@example("w^0")
@example("w^0*2")
@example("w^(0)+1")
@example("w^00*3")
@settings(max_examples=500)
def test_the_ordinal_parser_agrees_with_the_reference_descent(text):
    got, want = _outcome(parse_ordinal, text), _outcome(_reference_parse, text)
    assert _same(got, want), (text, got, want)


@given(st.one_of(st.text(K_ALPHABET, max_size=24), token_texts(K_TOKENS),
                 K_ORDINALS.map(render_k), edited(K_ORDINALS, render_k, K_TOKENS),
                 st.sampled_from([row[0] for row in SCALED_ERRORS])))
@settings(max_examples=500)
def test_the_scaled_parser_agrees_with_the_reference_descent(text):
    got, want = _outcome(parse_k, text), _outcome(_reference_parse_k, text)
    assert _same(got, want), (text, got, want)
