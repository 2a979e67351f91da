"""Round trips and fuzzing of the three text grammars.

Valid values must render, parse back to the same value and render to the
same text.  Arbitrary strings over a grammar's alphabet must either parse
or raise OrdinalError/PosetError (exit code 2 in the CLI), never anything
else.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wpolab.cardinals import MAX_LEVEL, KOrdinal, parse_k, render_k
from wpolab.ordinals import ZERO, CnfOrdinal, OrdinalError, from_int, parse_ordinal, render_ordinal
from wpolab.posets import PosetError, antichain, chain
from wpolab.terms import DSum, Fin, LexSum, Ord, Prod, parse_term, render_term

ORD_ALPHABET = "0123456789w^*+() "
K_ALPHABET = ORD_ALPHABET + "W"
# every letter of ord, fin, dsum, lexsum, prod, chain and antichain
TERM_ALPHABET = ORD_ALPHABET + "acdefhilmnoprstux,@"

# grammar pieces, so that random inputs reach the deeper rules
ORD_TOKENS = ["w", "^", "*", "+", "(", ")", " ", "0", "1", "2", "10"]
K_TOKENS = ORD_TOKENS + ["W", "W1", "W9", "W10", "*(", ")+("]
TERM_HEADS = ["ord(", "fin(", "dsum(", "lexsum(", "prod(", "fin(chain", "fin(@"]
TERM_TOKENS = ORD_TOKENS + TERM_HEADS + ["chain", "antichain", "@", ","]


def token_texts(tokens, head=st.just(""), tail=st.just("")):
    return st.tuples(head, st.lists(st.sampled_from(tokens), max_size=12), tail).map(
        lambda parts: parts[0] + "".join(parts[1]) + parts[2])


def _normal_form(terms) -> CnfOrdinal:
    """The CNF value of (exponent, coefficient) pairs, keeping the first
    coefficient drawn for each exponent."""
    coeffs = {}
    for exp, coeff in terms:
        coeffs.setdefault(exp, coeff)
    return CnfOrdinal(tuple(sorted(coeffs.items(), key=lambda t: t[0], reverse=True)))


ORDINALS = st.recursive(
    st.integers(0, 20).map(from_int),
    lambda inner: st.lists(st.tuples(inner, st.integers(1, 20)),
                           min_size=1, max_size=4).map(_normal_form),
    max_leaves=10,
)

K_ORDINALS = st.dictionaries(st.integers(0, MAX_LEVEL), ORDINALS, max_size=3).map(
    lambda cs: KOrdinal(tuple(cs.get(k, ZERO) for k in range(MAX_LEVEL + 1))))

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
# random text has at most 12 characters, and token texts no run of three digits
@given(st.one_of(
    st.text(TERM_ALPHABET, max_size=12),
    token_texts(TERM_TOKENS, st.sampled_from(TERM_HEADS), st.sampled_from(["", ")", "))"]))
    .filter(lambda text: not re.search(r"[0-9]{3}", text)),
    edited_terms()))
@settings(max_examples=500, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_term_grammar_parses_or_rejects(monkeypatch, tmp_path, text):
    monkeypatch.chdir(tmp_path)  # fin(@file) names resolve in an empty directory
    try:
        t = parse_term(text)
    except (OrdinalError, PosetError):
        return
    assert parse_term(render_term(t)) == t
