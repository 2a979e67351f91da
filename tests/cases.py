"""Case generators and Hypothesis strategies shared by the test modules,
`reference_lt`, the CNF order by its definition, and the finite orders.

Values are built by `oracles.normal_form` and the value constructors,
never by the arithmetic they check; random ordinals come from
`oracles.random_ordinal`, as in `wpolab verify`.  The finite-order
section holds the tests' one reachability model, `reach`, and builds its
posets from it, so no poset generator runs `posets._close`.
"""

import random

import numpy as np
from hypothesis import strategies as st

from wpolab.cardinals import MAX_LEVEL, KOrdinal
from wpolab.oracles import normal_form, random_ordinal
from wpolab.ordinals import OMEGA, ONE, ZERO, CnfOrdinal, from_int, parse_ordinal
from wpolab.posets import FinPoset


def _normal_form(pairs) -> CnfOrdinal:
    """`normal_form` of the pairs whose coefficient is not 0."""
    return normal_form([(e, c) for e, c in pairs if c])


def ordinals():
    """`oracles.random_ordinal` of a drawn seed."""
    return st.integers(0, 2**48).map(lambda s: random_ordinal(random.Random(s)))


# ordinals that shrink term by term: up to 4 terms, coefficients up to 20
ORDINALS = st.recursive(
    st.integers(0, 20).map(from_int),
    lambda inner: st.lists(st.tuples(inner, st.integers(1, 20)),
                           min_size=1, max_size=4).map(normal_form),
    max_leaves=10,
)

K_ORDINALS = st.dictionaries(st.integers(0, MAX_LEVEL), ORDINALS, max_size=3).map(
    lambda cs: KOrdinal(tuple(cs.get(k, ZERO) for k in range(MAX_LEVEL + 1))))


def random_below(rng, b: CnfOrdinal) -> CnfOrdinal:
    """A random ordinal below b > 0, from b's terms: it keeps a prefix of
    them, lowers the next one's coefficient (maybe to 0) and adds a tail
    below that term's power of w."""
    k = rng.randrange(len(b.terms))
    e, c = b.terms[k]
    pairs = list(b.terms[:k]) + [(e, rng.randrange(c))]
    # the tail: each exponent drawn below the one before, coefficients 1..5;
    # its first term is likely, so that a power of w rarely gives 0
    more = 0.9
    while not e.is_zero and rng.random() < more:
        e = random_below(rng, e)
        pairs.append((e, rng.randint(1, 5)))
        more = 0.5
    return _normal_form(pairs)


def random_kordinal(rng, max_level=2) -> KOrdinal:
    """A tower whose top scale is at most max_level, level 0 three times as
    likely as each other, and each scale below it nonzero 40% of the time."""
    lv = rng.choice([0] * 3 + list(range(1, max_level + 1)))
    coeffs = [ZERO] * (MAX_LEVEL + 1)
    coeffs[lv] = random_ordinal(rng, depth=2)
    while coeffs[lv].is_zero:
        coeffs[lv] = random_ordinal(rng, depth=2)
    for j in range(lv):
        if rng.random() < 0.4:
            coeffs[j] = random_ordinal(rng, depth=2)
    return KOrdinal(tuple(coeffs))


def kordinals(max_level=2):
    return st.integers(0, 2**48).map(lambda s: random_kordinal(random.Random(s), max_level))


_W3, _W3_TIMES_2 = parse_ordinal("w^3"), parse_ordinal("w^3*2")


def ordinal_sum(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """a + b from terms: b absorbs a's terms below its leading exponent, and
    a term of a at that exponent adds its coefficient to b's first."""
    if b.is_zero:
        return a
    lead = b.terms[0][0]
    return normal_form([t for t in a.terms if t[0] >= lead] + list(b.terms))


def random_small_ordinal(rng) -> CnfOrdinal:
    """A random nonzero ordinal below w^3*2."""
    alpha = random_below(rng, _W3_TIMES_2)
    while alpha.is_zero:
        alpha = random_below(rng, _W3_TIMES_2)
    return alpha


def random_infinite(rng) -> CnfOrdinal:
    """w + x for a random x below w^3."""
    return ordinal_sum(OMEGA, random_below(rng, _W3))


def omega_times(x: CnfOrdinal) -> CnfOrdinal:
    """w*x from x's terms: w * w^e*c = w^(1+e)*c, where 1+e is e+1 for a
    finite e and e itself otherwise."""
    return normal_form([(from_int(e.as_int() + 1) if e.is_finite else e, c)
                        for e, c in x.terms])


INDICES = tuple(map(parse_ordinal, ("1", "2", "w", "w*2", "w+1")))


def random_index(rng) -> CnfOrdinal:
    """One of INDICES: the small ordinals that mixing and the block sums
    take as parameters."""
    return rng.choice(INDICES)


def random_blocks(rng) -> list:
    """1 to 3 (left, right) block types for `decompinver_witness`: a pair
    w*i, w*j of random indices, or one type x twice, x finite or w + x."""
    blocks = []
    for _ in range(rng.randrange(1, 4)):
        if rng.randrange(2):
            blocks.append((omega_times(random_index(rng)), omega_times(random_index(rng))))
        else:
            x = rng.choice([from_int(rng.randrange(1, 5)), random_infinite(rng)])
            blocks.append((x, x))
    return blocks


def random_common_chunk(rng) -> tuple:
    """alpha = w + x and the target (w + g, alpha + g) that extends
    sierpinskisation(alpha) by a common chunk g, g in 1..5 or w + x."""
    alpha = random_infinite(rng)
    g = rng.choice([from_int(rng.randrange(1, 6)), random_infinite(rng)])
    return alpha, (ordinal_sum(OMEGA, g), ordinal_sum(alpha, g))


# exponents: naturals up to 4, w*k+m (k <= 2, m <= 3), w^2 and w^w
EXPONENTS = st.one_of(
    st.integers(0, 4).map(from_int),
    st.tuples(st.integers(1, 2), st.integers(0, 3)).map(
        lambda km: _normal_form([(ONE, km[0]), (ZERO, km[1])])),
    st.sampled_from(["w^2", "w^w"]).map(parse_ordinal))


@st.composite
def shallow_ordinals(draw):
    """An infinite ordinal of up to 3 terms with coefficients up to 4 and
    exponents from EXPONENTS; w is added in front of a finite one."""
    exps = draw(st.sets(EXPONENTS, min_size=1, max_size=3))
    alpha = normal_form([(e, draw(st.integers(1, 4))) for e in exps])
    return alpha if not alpha.is_finite else ordinal_sum(OMEGA, alpha)


def tower(x: CnfOrdinal, rng, height: int) -> CnfOrdinal:
    """x under `height` levels of w^(.)*c + n, with c and n drawn from rng:
    two towers with one rng seed differ only where x does."""
    for _ in range(height):
        x = _normal_form([(x, rng.randint(1, 3)), (ZERO, rng.randint(0, 2))])
    return x


def reference_lt(a: CnfOrdinal, b: CnfOrdinal) -> bool:
    """The CNF order by its definition, independent of the order keys: the
    first term where a and b differ decides, by its exponent (recursively)
    and then its coefficient; a proper prefix is smaller."""
    if a is b:
        return False
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea is not eb:
            return reference_lt(ea, eb)
        if ca != cb:
            return ca < cb
    return len(a.terms) < len(b.terms)


# -- finite orders -----------------------------------------------------------------


def relation(n: int, pairs) -> np.ndarray:
    """The n x n bool matrix with m[i, j] iff (i, j) is in pairs."""
    m = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        m[i, j] = True
    return m


def bitsets(m: np.ndarray) -> list:
    """The rows of a bool matrix as successor bitsets: bit j of row i iff
    m[i, j], packed by numpy."""
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in np.asarray(m, dtype=bool)]


def matrix(rows: list, n: int) -> np.ndarray:
    """The n x n bool matrix of the successor bitsets rows, bit by bit."""
    return np.array([[row >> j & 1 for j in range(n)] for row in rows],
                    dtype=bool).reshape(len(rows), n)


def reach(m: np.ndarray) -> np.ndarray:
    """Strict reachability along m: R <- R or R.R, by int64 products, until
    it stops growing.  A vertex on a cycle reaches itself."""
    r = np.asarray(m, dtype=bool)
    while True:
        grown = r | (r.astype(np.int64) @ r.astype(np.int64) > 0)
        if (grown == r).all():
            return grown
        r = grown


def cycle_steps(m: np.ndarray, v: int) -> int | None:
    """The fewest steps of a closed walk through v along m, the first power
    of m with v on its diagonal, or None when v lies on no cycle."""
    step = np.asarray(m, dtype=np.int64)
    ends = step[v]
    for steps in range(1, len(step) + 1):
        if ends[v]:
            return steps
        ends = (ends @ step > 0).astype(np.int64)
    return None


def closed_poset(m: np.ndarray) -> FinPoset:
    """The FinPoset of `reach(m)`, its bitsets packed here: the order that
    make_poset builds from m's pairs, without posets._close."""
    r = reach(m)
    if r.diagonal().any():
        raise ValueError("closed_poset needs an acyclic relation")
    return FinPoset(len(r), tuple(bitsets(r)))


def random_dag(rng, n: int, density: float) -> list:
    """Generating pairs of a random order on n vertices: each forward pair
    i < j with probability density, under a random relabelling."""
    perm = rng.sample(range(n), n)
    return [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]


@st.composite
def posets(draw, n_max: int):
    """A poset on at most n_max vertices: forward pairs i < j under a random
    permutation, closed by `closed_poset`."""
    n = draw(st.integers(0, n_max))
    perm = draw(st.permutations(range(n)))
    forward = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.sets(st.sampled_from(forward))) if forward else set()
    return closed_poset(relation(n, [(perm[i], perm[j]) for i, j in pairs]))
