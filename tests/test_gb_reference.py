"""The Groebner engine against reference copies of its earlier code.

The first reference is the pair update and selection loop the engine had
before its pairs were kept in a heap with cached lcms and support masks,
copied unchanged together with the reduction it called.  Its seed step
follows the engine's: the seeds join in ascending order of leading term
(a stable sort), each reduced against the entries so far, and a seed that
reduces to zero is skipped.  Its selection follows the engine's rule, the
normal strategy under every order: the pair of least lcm in the order, with
ties broken by the pair's indices.  The engine must process the same pairs
in the same order, so a complete run must end with the same entry list and
the same active set.  An entry is (lt, lt, lc, terms, top degree), the
engine's reducer tuple; the engine's entries hold packed monomials, so they
are decoded before the comparison.  Unbounded runs on random ideals can
take minutes, so the random draws keep the reference's degree bound as a
filter: a draw is kept only if the bounded reference run selected no pair
whose lcm has a larger degree, that is, if it is the complete run.

The second is `reduce_poly` as it was before it shared the engine's
reduction loop and memoised the integer form of each basis polynomial,
copied unchanged together with `_int_clear`, the conversion to primitive
integer form it called; `_int_clear` reads the coefficients through
`sorted_terms()` and the reference builds polynomials with `ring.poly`, since
`Polynomial` no longer stores Fractions.  Both select the first divisor in
list order, so the residue and every cofactor must be equal.

The third is the nonzerodivisor test the checks used before
`is_nonzerodivisor`: v is a nonzerodivisor on R/I iff I contains (I : v).
The two must give the same verdict.

Last, since the reduced basis is unique, padding a generator set with
redundant generators (scaled ones, monomial multiples and sums) must leave
the basis that `buchberger` returns unchanged.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

import lmlab.groebner as groebner
from lmlab.blowup import build_M_chart
from lmlab.groebner import (
    BuchbergerRun,
    GBTimeout,
    Ideal,
    MembershipCertificate,
    buchberger,
    ideal_contains,
    ideal_equal,
    is_nonzerodivisor,
    quotient,
)
from lmlab.lattice import normal_form
from lmlab.localmodel import (
    _naive_relations,
    block_substitution,
    build_naive_chart_ideal,
    build_U_ideals,
    named_matrix,
    x_ring,
)
from lmlab.quadric import build_linked_chart_ideal
from lmlab.poly import Block, GrevLex, Lex, PolyError, PolyRing, parse_poly
from reference_orders import exp_key

GRID = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]


# ---------------------------------------------------------------- reference


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _mono_divides(a, b):
    # does a divide b
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _primitive(terms):
    if not terms:
        return terms
    g = 0
    for v in terms.values():
        g = gcd(g, v)
        if g == 1:
            return terms
    return {e: v // g for e, v in terms.items()}


class _Engine:
    """Shared monomial-key memo plus deadline bookkeeping for one computation."""

    def __init__(self, key_fn, deadline=None):
        self.key_fn = key_fn
        self.memo = {}
        self.deadline = deadline
        self._tick = 0

    def key(self, e):
        got = self.memo.get(e)
        if got is None:
            got = self.memo[e] = self.key_fn(e)
        return got

    def check_time(self, every=256):
        self._tick += 1
        if self.deadline is not None and self._tick % every == 0:
            until, seconds = self.deadline
            if time.monotonic() > until:
                raise GBTimeout(seconds)

    def lead(self, terms):
        key = self.key
        best = None
        bk = None
        for e in terms:
            ke = key(e)
            if bk is None or ke > bk:
                bk, best = ke, e
        return best

    # -- fraction-free full normal form

    def nf(self, terms, reducers):
        """Normal form of an integer term dict against (lt, lc, terms) reducers."""
        work = dict(terms)
        done = set()
        key = self.key
        steps = 0
        while True:
            self.check_time()
            best = None
            bk = None
            for e in work:
                if e in done:
                    continue
                ke = key(e)
                if bk is None or ke > bk:
                    bk, best = ke, e
            if best is None:
                break
            hit = None
            for red in reducers:
                if _mono_divides(red[0], best):
                    hit = red
                    break
            if hit is None:
                done.add(best)
                continue
            lte, ltc, td = hit
            c = work[best]
            g0 = gcd(c, ltc)
            mw = ltc // g0
            mg = c // g0
            if mw != 1:
                for k2 in work:
                    work[k2] *= mw
            shift = tuple(a - b for a, b in zip(best, lte))
            for ge, gc in td.items():
                ne = _mono_mul(ge, shift)
                s = work.get(ne, 0) - mg * gc
                if s:
                    work[ne] = s
                else:
                    work.pop(ne, None)
            steps += 1
            if steps % 64 == 0:
                work = _primitive(work)
        return _primitive(work)

    def spoly(self, e1, c1, t1, e2, c2, t2):
        lcm_exp = _mono_lcm(e1, e2)
        g0 = gcd(c1, c2)
        m1 = c2 // g0
        m2 = c1 // g0
        s1 = tuple(a - b for a, b in zip(lcm_exp, e1))
        s2 = tuple(a - b for a, b in zip(lcm_exp, e2))
        out = {}
        for ge, gc in t1.items():
            ne = _mono_mul(ge, s1)
            out[ne] = out.get(ne, 0) + m1 * gc
        for ge, gc in t2.items():
            ne = _mono_mul(ge, s2)
            s = out.get(ne, 0) - m2 * gc
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return _primitive(out)


def _update(f, G, B, ih, eng):
    """Gebauer-Moeller pair update; G active indices, B dict pair -> lcm."""
    lt_h = f[ih][0]

    C = sorted(G)
    D = []
    lcm_h = {ig: _mono_lcm(lt_h, f[ig][0]) for ig in G}
    while C:
        ig = C.pop(0)
        coprime = _mono_mul(lt_h, f[ig][0]) == lcm_h[ig]
        divided = any(
            _mono_divides(lcm_h[ip], lcm_h[ig]) and lcm_h[ip] != lcm_h[ig]
            for ip in C
        ) or any(
            _mono_divides(lcm_h[ip], lcm_h[ig]) and lcm_h[ip] != lcm_h[ig]
            for ip in D
        )
        if coprime or not divided:
            D.append(ig)
    E = [ig for ig in D if _mono_mul(lt_h, f[ig][0]) != lcm_h[ig]]

    B_new = {}
    for (i, j), l in sorted(B.items()):
        lti, ltj = f[i][0], f[j][0]
        if (
            not _mono_divides(lt_h, l)
            or _mono_lcm(lti, lt_h) == l
            or _mono_lcm(ltj, lt_h) == l
        ):
            B_new[(i, j)] = l
    for ig in sorted(E):
        i, j = min(ig, ih), max(ig, ih)
        B_new[(i, j)] = _mono_lcm(f[i][0], f[j][0])

    G_new = {ig for ig in G if not _mono_divides(lt_h, f[ig][0])}
    G_new.add(ih)
    return G_new, B_new


def _entry(h, eng):
    """The entry of reduced terms h: (lt, lt, lc, terms, top degree)."""
    lt = eng.lead(h)
    return (lt, lt, h[lt], h, max(sum(e) for e in h))


def _groebner_int(int_gens, eng, degree_bound=None):
    """Run Buchberger; return (entries list, active index list, partial flag).

    The pair of least lcm in the order is selected first.  The run stops,
    partial, at the first selected pair whose lcm has a degree above
    `degree_bound`: it can no longer be the complete run, and on the
    truncated basis the reductions that follow can grow without bound.
    """
    f = []
    seen = {}
    seeds = []
    for terms in int_gens:
        if not terms:
            continue
        fro = frozenset(terms.items())
        if fro in seen:
            continue
        seen[fro] = True
        seeds.append(terms)
    # seed deterministically, smallest leading term first; the sort is
    # stable, so seeds with equal leading terms keep the generators' order
    seeds.sort(key=lambda t: eng.key(eng.lead(t)))

    G = set()
    B = {}
    for terms in seeds:
        # reduced against the entries so far
        h = eng.nf(terms, [f[g][1:4] for g in sorted(G)])
        if not h:
            continue
        ih = len(f)
        f.append(_entry(h, eng))
        G, B = _update(f, G, B, ih, eng)

    while B:
        eng.check_time(every=1)
        (i, j) = min(B, key=lambda ij: (eng.key(B[ij]), ij))
        lcm = B.pop((i, j))
        if degree_bound is not None and sum(lcm) > degree_bound:
            return f, sorted(G), True
        s = eng.spoly(*f[i][1:4], *f[j][1:4])
        if not s:
            continue
        reducers = [f[g][1:4] for g in sorted(G)]
        h = eng.nf(s, reducers)
        if not h:
            continue
        ih = len(f)
        f.append(_entry(h, eng))
        G, B = _update(f, G, B, ih, eng)

    return f, sorted(G), False


def _int_clear(p):
    """Clear denominators and content; return (terms dict exp->int, scale).

    scale is the rational r with p = r * (integer form); the integer form has
    positive leading coefficient under p's ring order.
    """
    if p.is_zero:
        return {}, Fraction(1)
    coeffs = dict(p.sorted_terms())
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd(den, c.denominator)
    terms = {e: int(c * den) for e, c in coeffs.items()}
    g = 0
    for v in terms.values():
        g = gcd(g, v)
    if g > 1:
        terms = {e: v // g for e, v in terms.items()}
    key = exp_key(p.ring)
    lead = max(terms, key=key)
    sign = 1
    if terms[lead] < 0:
        sign = -1
        terms = {e: -v for e, v in terms.items()}
    return terms, Fraction(sign * g, den)


def reference(ideal, order=None, degree_bound=None):
    ring = ideal.ring if order is None else ideal.ring.with_order(order)
    eng = _Engine(exp_key(ring))
    int_gens = [_int_clear(g.cast(ring))[0] for g in ideal.generators]
    return _groebner_int(int_gens, eng, degree_bound)


def reduce_poly(p, basis):
    """Full normal form plus certificate against an ordered basis list.

    Divisor selection is first-match in list order; the normal form has no
    term divisible by any basis leading term.
    """
    basis = list(basis)
    ring = p.ring
    for b in basis:
        if b.ring != ring:
            raise PolyError("ring mismatch between polynomial and basis")
    eng = _Engine(exp_key(ring))
    reducers = []
    scales = []
    for b in basis:
        if b.is_zero:
            reducers.append(None)
            scales.append(Fraction(1))
            continue
        terms, r = _int_clear(b)
        lt = eng.lead(terms)
        reducers.append((lt, terms[lt], terms))
        scales.append(r)

    pt, pr = _int_clear(p)
    # tracked fraction-free reduction: M * p_int = sum(C_i g_i) + R
    work = dict(pt)
    cof = [dict() for _ in basis]
    M = 1
    done = set()
    key = eng.key
    while True:
        eng.check_time()
        best = None
        bk = None
        for e in work:
            if e in done:
                continue
            ke = key(e)
            if bk is None or ke > bk:
                bk, best = ke, e
        if best is None:
            break
        hit = -1
        for idx, red in enumerate(reducers):
            if red is not None and _mono_divides(red[0], best):
                hit = idx
                break
        if hit < 0:
            done.add(best)
            continue
        lte, ltc, td = reducers[hit]
        c = work[best]
        g0 = gcd(c, ltc)
        mw = ltc // g0
        mg = c // g0
        if mw != 1:
            M *= mw
            for k2 in work:
                work[k2] *= mw
            for cd in cof:
                for k2 in cd:
                    cd[k2] *= mw
        shift = tuple(a - b for a, b in zip(best, lte))
        cof[hit][shift] = cof[hit].get(shift, 0) + mg
        for ge, gc in td.items():
            ne = _mono_mul(ge, shift)
            s = work.get(ne, 0) - mg * gc
            if s:
                work[ne] = s
            else:
                work.pop(ne, None)

    # p = pr * p_int; cofactor against original b_i needs the 1/scale_i
    cofactors = []
    for cd, r in zip(cof, scales):
        q = ring.poly({e: Fraction(v) for e, v in cd.items() if v})
        cofactors.append(q * (pr / (M * r)))
    residue = ring.poly({e: Fraction(v) for e, v in work.items() if v}) * (pr / M)
    cert = MembershipCertificate(tuple(basis), tuple(cofactors), residue)
    return residue, cert


# -------------------------------------------------------------------- tests


def assert_same_run(ideal, order=None, degree_bound=None):
    """The complete engine run equals the reference run.

    A degree bound only filters the draws: a reference run that leaves a pair
    above it is not complete, and the draw is rejected.
    """
    f, active, partial = reference(ideal, order, degree_bound)
    if partial:
        reject()
    run = BuchbergerRun(ideal, order)
    run.complete()
    # the engine packs each exponent vector into an int; decode before comparing
    pk = run._packing
    entries = [
        (pk.exponents(pk.order_word(x)), pk.exponents(lt), lc, pk.unpack(t), top)
        for x, lt, lc, t, top in run.entries
    ]
    assert entries == f
    assert sorted(run.active) == active
    assert all(run.active[i] is run.entries[i] for i in active)


@pytest.mark.parametrize("d,delta", GRID)
def test_same_run_on_U_and_small(d, delta):
    U, small = build_U_ideals(normal_form(d, delta))
    assert_same_run(U)
    assert_same_run(small)


def _elimination_ideal_at_5_1():
    """The ideal H of complete-mode za1 at 5:1 (Y = -X^t) and the block order
    on its non-Z entries in x_ring order: the elimination basis that complete
    mode computed before it proved its claims from a retraction."""
    nf = normal_form(5, 1)
    xr = x_ring(nf)
    X = named_matrix(xr.var, "x", nf.d)
    H = list(_naive_relations(nf, X, [[-v for v in col] for col in zip(*X)], xr.var("pi")))
    z_entries = {"x_%d_%d" % ab for _, ab in nf.z_cells}
    targets = [v for v in xr.variables if v != "pi" and v not in z_entries]
    return Ideal(xr, H), Block(targets)


def test_same_run_on_x_ring_ideal_under_the_elimination_order():
    assert_same_run(*_elimination_ideal_at_5_1())


def test_same_run_on_block_elimination_of_M_chart():
    nf = normal_form(6, 2)
    s, t = nf.Delta[0], nf.DeltaC[0]
    ideal = build_M_chart(nf, s, t).full
    removed = {"x_%d" % i for i in nf.DeltaC} | {"y_%d" % j for j in nf.Delta}
    order = Block([v for v in ideal.ring.variables if v in removed])
    assert_same_run(ideal, order=order)


_exponents = st.tuples(*[st.integers(0, 2)] * 3)
_polys = st.dictionaries(_exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
_orders = st.sampled_from([Lex(), GrevLex(), Block(["x"]), Block(["y", "z"], Lex(), GrevLex())])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gens=st.lists(_polys, min_size=1, max_size=4),
    order=_orders,
    bound=st.integers(2, 6),
)
def test_same_run_on_small_ideals(gens, order, bound):
    R = PolyRing(["x", "y", "z"], order)
    ideal = Ideal(R, [R.poly({e: Fraction(c) for e, c in g.items()}) for g in gens])
    assert_same_run(ideal, degree_bound=bound)


# ---------------------------------------------------------------- reduction


def assert_same_reduction(p, basis):
    want_r, want = reduce_poly(p, basis)
    got_r, got = groebner.reduce_poly(p, basis)
    assert got_r == want_r
    assert got.basis == want.basis
    assert len(got.cofactors) == len(want.cofactors)
    assert all(a == b for a, b in zip(got.cofactors, want.cofactors))
    assert got.verify(p)


def test_same_reduction_of_za1_images():
    nf = normal_form(6, 2)
    psi = block_substitution(nf)
    _, small = build_U_ideals(nf)
    basis = list(small.gb())
    images = [psi(g) for g in build_naive_chart_ideal(nf).generators]
    images = [img for img in images if not img.is_zero]
    # a variable added to each image leaves a nonzero residue
    shifted = [img + img.ring.var(img.ring.variables[k % 5]) for k, img in enumerate(images[:40])]
    for _ in range(2):  # the second pass reads the memoised basis
        for p in images + shifted:
            assert_same_reduction(p, basis)


_coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))
_qpolys = st.dictionaries(_exponents, _coeffs, min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gens=st.lists(_qpolys, min_size=1, max_size=4),
    order=_orders,
    bound=st.integers(2, 5),
    p=_qpolys,
    q=_qpolys,
)
def test_same_reduction_against_reduced_bases(gens, order, bound, p, q):
    R = PolyRing(["x", "y", "z"], order)
    ideal = Ideal(R, [R.poly(g) for g in gens])
    assume(not reference(ideal, degree_bound=bound)[2])  # complete within the bound
    basis = list(buchberger(ideal)[0])
    f = R.poly(p) * basis[-1] + R.poly(q)
    for _ in range(2):
        assert_same_reduction(f, basis)
        assert_same_reduction(R.poly(p), basis)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gens=st.lists(_qpolys, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=7),
    order=_orders,
    p=_qpolys,
    q=_qpolys,
)
def test_same_reduction_against_unreduced_lists(gens, picks, order, p, q):
    # non-monic entries, repeated and zero ones: the cofactors depend on
    # which entry is taken first
    R = PolyRing(["x", "y", "z"], order)
    pool = [R.poly(g) for g in gens] + [R.zero()]
    basis = [pool[k % len(pool)] for k in picks]
    f = R.poly(p) * pool[0] + R.poly(q)
    for _ in range(2):
        assert_same_reduction(f, basis)


# ---------------------------------------------------------- nonzerodivisors


def assert_same_nzd_verdict(ideal, v):
    want = ideal_contains(ideal, quotient(ideal, v))
    assert is_nonzerodivisor(ideal, v) == want
    return want


def with_zero_divisor(ideal, v):
    """I + (v (x - 7)), x the first other variable: v becomes a zero divisor."""
    ring = ideal.ring
    x = ring.var(next(name for name in ring.variables if ring.var(name) != v))
    return Ideal(ring, list(ideal.generators) + [v * (x - 7)])


@pytest.mark.parametrize("d,delta", [inst for inst in GRID if inst[0] <= 6])
def test_same_nzd_verdict_for_lambda_at_every_pivot(d, delta):
    nf = normal_form(d, delta)
    for s in nf.Delta:
        for t in nf.DeltaC:
            ideal = build_M_chart(nf, s, t).full
            lam = ideal.ring.var("lambda")
            assert assert_same_nzd_verdict(ideal, lam), (s, t)
            assert not assert_same_nzd_verdict(with_zero_divisor(ideal, lam), lam), (s, t)


@pytest.mark.parametrize("d,delta", GRID)
def test_same_nzd_verdict_for_pi_on_linked_pins_and_flatness_chart(d, delta):
    nf = normal_form(d, delta)
    U, _ = build_U_ideals(nf)
    ideals = [U]
    ideals += [
        build_linked_chart_ideal(nf, i, j).chart for i in nf.DeltaC for j in nf.Delta
    ]
    for ideal in ideals:
        pi = ideal.ring.var("pi")
        assert assert_same_nzd_verdict(ideal, pi)
        assert not assert_same_nzd_verdict(with_zero_divisor(ideal, pi), pi)


def test_same_nzd_verdict_on_unit_and_zero_ideal():
    R = PolyRing(["x", "y"])
    for gens in (["1"], ["2*x - 2*x + 3"], []):
        assert assert_same_nzd_verdict(Ideal(R, gens), R.var("y"))


def test_nzd_test_needs_a_variable():
    R = PolyRing(["x", "y"])
    for v in ("x + y", "2*x", "x*y"):
        with pytest.raises(PolyError):
            is_nonzerodivisor(Ideal(R, ["x^2"]), parse_poly(v, R))


# multilinear, so that the reference's lex bases stay small
_ml_exponents = st.tuples(*[st.integers(0, 1)] * 3)
_ml_polys = st.dictionaries(_ml_exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gens=st.lists(_ml_polys, min_size=1, max_size=3),
    order=_orders,
    k=st.integers(0, 2),
    zero_divisor=st.booleans(),
)
def test_same_nzd_verdict_on_small_ideals(gens, order, k, zero_divisor):
    R = PolyRing(["x", "y", "z"], order)
    ideal = Ideal(R, [R.poly({e: Fraction(c) for e, c in g.items()}) for g in gens])
    v = R.var(R.variables[k])
    if zero_divisor:
        ideal = with_zero_divisor(ideal, v)
    assert_same_nzd_verdict(ideal, v)


_solved_parts = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3).filter(bool), max_size=2
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gens=st.lists(_ml_polys, min_size=0, max_size=2),
    f=_solved_parts,
    c=st.integers(-3, 3).filter(bool),
    order=_orders,
    solved=st.integers(0, 3),
    k=st.integers(0, 3),
    zero_divisor=st.booleans(),
)
# the reference side's quotient once ran for minutes here, selecting pairs by
# sugar under the block order
@example(
    gens=[{(1, 0, 0): 2, (0, 0, 0): 1, (0, 1, 1): 3}, {(0, 0, 1): -1, (1, 0, 1): -3, (1, 1, 0): 2}],
    f={(1, 2, 2): -3, (0, 1, 1): -2},
    c=2,
    order=Block(["y", "z"], Lex(), GrevLex()),
    solved=2,
    k=3,
    zero_divisor=True,
)
def test_same_nzd_verdict_after_substitution(gens, f, c, order, solved, k, zero_divisor):
    # generators c*x + f, with f free of x and of degree at least 2, are
    # substituted away unless x is the variable under test
    assume(solved != k)
    R = PolyRing(["w", "x", "y", "z"], order)
    others = [n for n in R.variables if n != R.variables[solved]]

    def poly(terms, names):
        return R.poly({
            tuple(e[names.index(n)] if n in names else 0 for n in R.variables): Fraction(a)
            for e, a in terms.items()
        })

    f = {e: a for e, a in f.items() if e != (1, 1, 0)}  # so that nothing cancels
    tail = poly(f, others) + R.var(others[0]) * R.var(others[1])
    ideal = Ideal(R, [c * R.var(R.variables[solved]) + tail])
    ideal = Ideal(R, list(ideal.generators) + [poly(g, ["x", "y", "z"]) for g in gens])
    v = R.var(R.variables[k])
    if zero_divisor:
        ideal = with_zero_divisor(ideal, v)
    assert len(groebner._solve_linear(ideal, (R.variables[k],)).ring.variables) < 4
    assert is_nonzerodivisor(ideal, v) == ideal_equal(quotient(ideal, v), ideal)


# ---------------------------------------------------------- redundant seeds


def _padded(gens, scale, monomial, pairs):
    """The generators, then each scaled and each times the monomial, then
    the sum of each given pair of them: the same ideal, with redundant
    seeds."""
    return (
        list(gens)
        + [g * scale for g in gens]
        + [g * monomial for g in gens]
        + [gens[i] + gens[j] for i, j in pairs]
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gens=st.lists(_ml_polys, min_size=1, max_size=4),
    order=_orders,
    scale=_coeffs,
    monomial=_ml_exponents,
    rnd=st.randoms(use_true_random=False),
)
def test_redundant_seeds_leave_the_basis(gens, order, scale, monomial, rnd):
    R = PolyRing(["x", "y", "z"], order)
    gens = [R.poly({e: Fraction(c) for e, c in g.items()}) for g in gens]
    pairs = combinations(range(len(gens)), 2)
    pad = _padded(gens, scale, R.poly({monomial: Fraction(1)}), pairs)
    rnd.shuffle(pad)
    assert buchberger(Ideal(R, pad))[0] == buchberger(Ideal(R, gens))[0]


def test_redundant_seeds_leave_the_elimination_basis_at_5_1():
    ideal, order = _elimination_ideal_at_5_1()
    run = BuchbergerRun(ideal, order)
    basis = run.complete()
    # 325 generators give 224 seeds; each reduced against the entries so far,
    # they leave no entry beyond the 25 of the reduced basis
    assert (len(ideal.generators), len(run._seeds)) == (325, 224)
    assert len(run.entries) == len(basis) == 25
    gens = list(ideal.generators)
    neighbours = zip(range(len(gens) - 1), range(1, len(gens)))
    pad = _padded(gens, Fraction(-3, 2), ideal.ring.var("pi"), neighbours)
    assert buchberger(Ideal(ideal.ring, pad[::-1]), order)[0] == basis
