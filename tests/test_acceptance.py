"""Acceptance criteria: one test (and one pass/fail line) per criterion.

Each test prints a `criterion N` line with its budget and elapsed time so
the tee'd run log shows the full scorecard.
"""

import gc
import itertools
import random
import time
from functools import lru_cache

from wpolab import oracles
from wpolab.bounds import bracket_plus, reduction_identity_check, theta_plus, theta_tilde
from wpolab.cardinals import KOrdinal
from wpolab.constructions import mixing_poset, prefix_audit, sierpinskisation
from wpolab.ordinals import (
    ONE,
    ZERO,
    add,
    euclid_div,
    from_int,
    iter_below,
    left_subtract,
    mul,
    nat_add,
    nat_mul,
    omega_pow,
    parse_ordinal,
    ul_nat_add,
)
from wpolab.posets import intersect, length_recursive, make_poset
from wpolab.oracles import random_countable_infinite, random_ordinal
from wpolab.suites import run_suite


def o(text):
    return parse_ordinal(text)


OMEGA = o("w")


class budget:
    def __init__(self, number, label, seconds=None):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.monotonic()
        self.cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, *rest):
        wall = time.monotonic() - self.start
        cpu = time.process_time() - self.cpu_start
        status = "PASS" if exc_type is None else "FAIL"
        limit = " (budget %ds)" % self.seconds if self.seconds else ""
        print("criterion %2d %s: %s [%.1fs wall, %.1fs cpu%s]"
              % (self.number, status, self.label, wall, cpu, limit))
        if exc_type is None and self.seconds is not None:
            # budgets are runtime budgets; cpu time keeps them meaningful
            # on a machine shared with other load
            assert cpu < self.seconds, (
                "criterion %d exceeded its %ds budget: %.1fs cpu"
                % (self.number, self.seconds, cpu))


def _pair_laws(a, b):
    assert nat_add(a, b) == nat_add(b, a)
    assert nat_mul(a, b) == nat_mul(b, a)
    if not b.is_zero:
        q, r = euclid_div(a, b)
        assert r < b and add(mul(b, q), r) == a
    lo, hi = (a, b) if a <= b else (b, a)
    assert add(lo, left_subtract(lo, hi)) == hi


def _triple_laws(a, b, c):
    assert nat_add(nat_add(a, b), c) == nat_add(a, nat_add(b, c))
    assert nat_mul(nat_mul(a, b), c) == nat_mul(a, nat_mul(b, c))
    assert nat_mul(a, nat_add(b, c)) == nat_add(nat_mul(a, b), nat_mul(a, c))
    d = omega_pow(c)  # indecomposable left factor distributes ordinal mul
    assert ul_nat_add(d, d) == d
    assert mul(d, nat_add(a, b)) == nat_add(mul(d, a), mul(d, b))


def test_criterion_01_ordinal_laws():
    with budget(1, "ordinal laws, exhaustive small + 10^3 random", 30):
        small = list(iter_below(2, 2))
        na, nm = {}, {}  # pairwise tables shared by the triple checks
        for a, b in itertools.product(small, repeat=2):
            _pair_laws(a, b)
            na[a, b], nm[a, b] = nat_add(a, b), nat_mul(a, b)
        for c in small:
            d = omega_pow(c)  # indecomposable: ordinal mul distributes
            assert ul_nat_add(d, d) == d
            dmul = {x: mul(d, x) for x in small}
            for a, b in itertools.product(small, repeat=2):
                assert nat_add(na[a, b], c) == nat_add(a, na[b, c])
                assert nat_mul(nm[a, b], c) == nat_mul(a, nm[b, c])
                assert nat_mul(a, na[b, c]) == nat_add(nm[a, b], nm[a, c])
                assert mul(d, na[a, b]) == nat_add(dmul[a], dmul[b])
        rng = random.Random(10**3)
        pool = [random_ordinal(rng) for _ in range(10**3)]
        for i in range(0, len(pool) - 2, 3):
            _pair_laws(pool[i], pool[i + 1])
            _triple_laws(pool[i], pool[i + 1], pool[i + 2])


def test_criterion_02_oracle_agreement():
    # the oracle grid allocates millions of short-lived ordinals; keep the
    # garbage left over from earlier tests out of its collection cycles
    gc.collect()
    gc.freeze()
    try:
        _oracle_agreement()
    finally:
        gc.unfreeze()


def _oracle_agreement():
    with budget(2, "natural ops match brute-force oracles below w^4", 60):
        add_oracle = lru_cache(maxsize=None)(oracles.nat_add_oracle)

        @lru_cache(maxsize=None)
        def mul_oracle(a, b):
            # expansion product, peeling one unit of b's last term at a
            # time so partial products are shared across the pair grid;
            # commutativity lets both orders of a pair share one entry
            if b < a:
                a, b = b, a
            if b.is_zero:
                return ZERO
            out = mul_oracle(a, b.minus_last())
            eb = b.terms[-1][0]
            for ea, ca in a.terms:
                out = oracles._fold_term(out, (add_oracle(ea, eb), ca))
            return out

        ords = list(iter_below(3, 3))
        for i, a in enumerate(ords):
            for b in ords[i:]:  # both operations are commutative (criterion 1)
                assert nat_add(a, b) == add_oracle(a, b)
                assert nat_mul(a, b) == mul_oracle(a, b)


def test_criterion_03_theta_diagonal_initials():
    with budget(3, "theta_plus(kappa, kappa) = kappa + 1 across the scale"):
        for k in range(10):
            kappa = KOrdinal.at_level(k, ONE)
            assert theta_plus(kappa, kappa) == kappa.succ()


def test_criterion_04_theta_omega_left_unit():
    with budget(4, "theta_plus(w, alpha) = alpha + 1 on 10^3 random alpha"):
        rng = random.Random(4)
        for _ in range(10**3):
            a = random_countable_infinite(rng)
            assert theta_plus(OMEGA, a) == KOrdinal.of(add(a, ONE))


def test_criterion_05_reduction_identities():
    with budget(5, "[theta_tilde]+ = theta_plus and reduction identities"):
        rng = random.Random(5)
        shifted = bracket_plus(theta_tilde)
        for _ in range(10**3):
            n = rng.randint(1, 3)
            if rng.randrange(4) == 0:  # an equipotent finite tuple
                args = [from_int(rng.randrange(1, 9)) for _ in range(n)]
            else:
                args = [random_countable_infinite(rng) for _ in range(n)]
            assert shifted(*args) == theta_plus(*args), args
        for n in (2, 3):
            for _ in range(200):
                args = [random_countable_infinite(rng) for _ in range(n + 1)]
                assert reduction_identity_check(n, args), (n, args)


def test_criterion_06_finite_poset_engines():
    with budget(6, "length engines agree on <=4 vertices; disjoint-union and "
                   "product rules on <=3-vertex pairs", 120):
        # all 1+1+3+19+219 posets on <= 4 vertices, then all 24*24 pairs
        # of posets on <= 3 vertices
        report = run_suite("finite_poset_oracle", 243 + 576, 0)
        assert report.passed, report.failures


def test_criterion_07_intersections_of_five_element_orders():
    with budget(7, "all 14400 pairs of linear orders on 5 elements have "
                   "intersection length 5; strict sup 6 = theta_plus(5,5)"):
        orders = [
            make_poset(5, [(p[i], p[j]) for i in range(5) for j in range(i + 1, 5)])
            for p in itertools.permutations(range(5))
        ]
        assert len(orders) ** 2 == 14400
        for a in orders:
            for b in orders:
                assert length_recursive(intersect(a, b)) == 5
        assert theta_plus(from_int(5), from_int(5)) == KOrdinal.of(from_int(6))


def test_criterion_08_sierpinskisation_audits():
    with budget(8, "sierpinskisation prefix audits at N=500"):
        for text in ("w", "w*2", "w^2+w*3+5"):
            report = prefix_audit(sierpinskisation(o(text)), 500)
            assert report.passed, (text, report.failures())
        s = sierpinskisation(OMEGA)  # identity case: a chain exactly
        vs = s.prefix(100)
        assert all(s.lt(x, y) for x in vs for y in vs if x < y)


def test_criterion_09_mixing_audits():
    with budget(9, "mixing prefix audits at N=1000 with window sections "
                   "and projection monotonicity"):
        for a, b, window in ((1, 1, (1, 1)), ("w", "w", (3, 3)), ("w*2", "w*3", (3, 3))):
            aa = o(a) if isinstance(a, str) else from_int(a)
            bb = o(b) if isinstance(b, str) else from_int(b)
            report = prefix_audit(mixing_poset(aa, bb), 1000, window=window)
            assert report.passed, (a, b, report.failures())
            assert report.checks["bi_functional"][0]
            assert report.checks["window_sections"][0]
            assert report.checks["projection_monotone"][0]


def test_criterion_10_minoration_meets_theta():
    with budget(10, "minoration certificate + 1 = theta_plus on 100 random pairs"):
        report = run_suite("minoration_meets_theta", 100, 10)
        assert report.passed, report.failures


def test_criterion_11_majoration_shadow():
    with budget(11, "majoration shadow inequalities on 500 random tuples"):
        report = run_suite("majoration_shadow", 500, 11)
        assert report.passed, report.failures
