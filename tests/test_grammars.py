"""Round trips and fuzzing of the three text grammars.

Valid values must render, parse back to the same value and render to the
same text.  Arbitrary strings over a grammar's alphabet must either parse
or raise OrdinalError/PosetError (exit code 2 in the CLI), never anything
else.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wpolab.cardinals import LevelOverflowError, parse_k, render_k
from wpolab.ordinals import MAX_NUMERAL_DIGITS, OrdinalError, parse_ordinal, render_ordinal
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
def edited_terms(draw):
    """A rendered term with one character deleted, replaced or inserted."""
    text = render_term(draw(TERMS))
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(TERM_ALPHABET))
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


# fin(chainN) closes an N-vertex chain at parse time, so N stays below 100:
# random text has at most 12 characters, and token texts no run of three
# digits short of the numeral bound (a longer run is past every bound)
@given(st.one_of(
    st.text(TERM_ALPHABET, max_size=12),
    token_texts(TERM_TOKENS, st.sampled_from(TERM_HEADS), st.sampled_from(["", ")", "))"]))
    .filter(lambda text: not re.search(
        r"(?<![0-9])[0-9]{3,%d}(?![0-9])" % MAX_NUMERAL_DIGITS, text)),
    edited_terms()))
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
