"""Buchberger-based ideal arithmetic over Q.

The engine works on denominator-cleared integer coefficient dicts
(fraction-free reduction with periodic content normalization), which keeps
the hot loops on machine/big ints instead of Fraction objects.  Public
results are monic polynomials with exact rational cofactor certificates.

Pairs (Gebauer & Moeller, JSC 1988).  A pair (i, j), i < j, of basis
entries waits in a heap keyed by (sugar, i, j) and is selected smallest key
first.  It stores its lcm, the lcm's degree and its support mask (Bachmann &
Schoenemann's short exponent vector: bit k set iff variable k occurs) when
it is created.  Masks reject most divisibility candidates, here and in the
reducer scan of the normal form, before the exact test.  When entry h joins:

- criterion B drops a waiting pair (i, j) if lt(h) divides lcm(i, j) and
  that lcm differs from lcm(i, h) and from lcm(j, h);
- criterion M drops the new pair (g, h) if another lcm(g', h) properly
  divides lcm(g, h); new pairs with equal lcms are all kept;
- the product criterion drops (g, h) if lt(g) and lt(h) are coprime.

A new pair's sugar is at least that of the pair whose reduction produced
it, so sugar never decreases along the selection order.  A run bounded by b
therefore stops in the state every run passes through after its pairs of
sugar <= b, and `BuchbergerRun.advance` resumes from there: advancing one
run through bounds 2, 3, 4 gives exactly the bases of fresh bounded runs.
Each call to `advance` (and each `buchberger` call) has its own timeout_s
budget, counted from its start; a step that times out keeps the pair it was
reducing, so the run stays consistent.

Reduction.  `reduce_poly` and the Buchberger loop share `_Engine.nf`.  The
integer form of a basis polynomial is computed once and kept on it
(`_prepared`), so reductions against one cached basis prepare it once.  The
first reducer in list order that divides the current term is used, and zero
basis entries never reduce.  With cofactors tracked, nf keeps
M * p = sum(C_i g_i) + r and never divides out content, which would rescale
M and every C_i.

Basis cache.  Inside a `basis_cache()` block, `buchberger` keeps the result
of every complete run, keyed by the ring with its order and the set of the
generators' primitive integer forms: the reduced basis is unique, so the
generators' order, scaling and repetition do not matter.  Degree-bounded
runs and runs that time out are never stored, and leaving the block
restores the previous state.  The cache sits inside `buchberger` so that
`Ideal.gb`, `eliminate`, `intersect`, `radical_member` and `krull_dim` all
share it; `BuchbergerRun` used directly is not cached.  The suite opens one
block per instance.

Nonzerodivisors.  `is_nonzerodivisor(I, v)` needs no ideal quotient.  It
homogenizes the grevlex basis of I with a fresh h and computes the reduced
basis of I^h under graded reverse lex with v last and h next to last; v is a
nonzerodivisor on R/I iff v divides none of its leading monomials (Bayer and
Stillman: in(J : v) = in(J) : v for homogeneous J and v last; v is a
nonzerodivisor on S/I^h iff on R/I).  v last is what the criterion needs;
h next to last halves the run on the resolution charts against h after pi.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter

from .poly import (
    Block,
    GrevLex,
    ParseError,
    PolyError,
    PolyRing,
    Polynomial,
    order_from_name,
    parse_poly,
    _grevlex_positions,
)

__all__ = [
    "BuchbergerRun",
    "GBTimeout",
    "Ideal",
    "MembershipCertificate",
    "basis_cache",
    "buchberger",
    "reduce_poly",
    "ideal_member",
    "ideal_equal",
    "ideal_contains",
    "eliminate",
    "quotient",
    "is_nonzerodivisor",
    "radical_member",
    "intersect",
    "krull_dim",
    "write_ideal_text",
    "read_ideal_text",
]


class GBTimeout(PolyError):
    """Raised when a Groebner computation exceeds its deadline."""

    def __init__(self, seconds, where="buchberger"):
        super().__init__("%s exceeded the %.1f s budget" % (where, seconds))
        self.seconds = seconds
        self.where = where


def _deadline(timeout_s):
    if timeout_s is None:
        return None
    return (time.monotonic() + timeout_s, float(timeout_s))


# ------------------------------------------------- integer representation


def _int_clear(p):
    """Clear denominators and content; return (terms dict exp->int, scale).

    scale is the rational r with p = r * (integer form); the integer form has
    positive leading coefficient under p's ring order.
    """
    if p.is_zero:
        return {}, Fraction(1)
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    terms = {e: int(c * den) for e, c in p.terms.items()}
    g = 0
    for v in terms.values():
        g = gcd(g, v)
    if g > 1:
        terms = {e: v // g for e, v in terms.items()}
    key = p.ring.exp_key
    lead = max(terms, key=key)
    sign = 1
    if terms[lead] < 0:
        sign = -1
        terms = {e: -v for e, v in terms.items()}
    return terms, Fraction(sign * g, den)


def _primitive(terms):
    if not terms:
        return terms
    g = 0
    for v in terms.values():
        g = gcd(g, v)
        if g == 1:
            return terms
    return {e: v // g for e, v in terms.items()}


def _to_poly(ring, terms, scale=1):
    """The polynomial scale * terms of an integer term dict."""
    return Polynomial(ring, {e: Fraction(v) * scale for e, v in terms.items() if v})


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


def _mask(e):
    """Support bitmask: bit k is set iff variable k occurs in e.

    If a divides b then _mask(a) & ~_mask(b) == 0, so a nonzero value rejects
    a divisor candidate before the exact test.
    """
    m = 0
    for k, x in enumerate(e):
        if x:
            m |= 1 << k
    return m


def _reducer(entry):
    """(lt, lc, terms, mask of lt) for an (lt, lc, terms, ...) entry."""
    lt, lc, terms = entry[:3]
    return lt, lc, terms, _mask(lt)


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

    def nf(self, terms, reducers, cofactors=None):
        """Normal form of an integer term dict against `_reducer` tuples.

        The first reducer in list order whose leading term divides the
        current term is used; the mask test only skips non-divisors.  With
        `cofactors`, one dict per reducer, the loop also records the
        multipliers: it returns (result, M) with
        M * terms = sum(C_i * reducer_i) + result, and never removes content,
        which would have to rescale M and every C_i.
        """
        work = dict(terms)
        done = set()
        key = self.key
        steps = 0
        M = 1
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
            outside = ~_mask(best)
            for hit, red in enumerate(reducers):
                if not red[3] & outside and _mono_divides(red[0], best):
                    break
            else:
                done.add(best)
                continue
            lte, ltc, td, _ = red
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
            if cofactors is None:
                steps += 1
                if steps % 64 == 0:
                    work = _primitive(work)
                continue
            if mw != 1:
                M *= mw
                for cd in cofactors:
                    for k2 in cd:
                        cd[k2] *= mw
            cd = cofactors[hit]
            cd[shift] = cd.get(shift, 0) + mg
        if cofactors is None:
            return _primitive(work)
        return work, M

    def spoly(self, lcm_exp, e1, c1, t1, e2, c2, t2):
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


# ------------------------------------------------------------- buchberger


class BuchbergerRun:
    """One Buchberger computation that advances through rising degree bounds.

    `entries` lists every basis element found, as (lt, lc, terms, sugar);
    `active` holds the indices of those whose leading term no later element
    divides.  Advancing to bound b leaves exactly the state a fresh run
    bounded by b ends in (see the module docstring), and advancing further
    continues it.
    """

    def __init__(self, ideal, order=None):
        ring = ideal.ring if order is None else ideal.ring.with_order(order)
        eng = _Engine(ring.exp_key)
        seen = set()
        seeds = []
        for g in ideal.generators:
            terms, _ = _int_clear(g.cast(ring))
            if not terms:
                continue
            fro = frozenset(terms.items())
            if fro in seen:
                continue
            seen.add(fro)
            seeds.append(terms)
        # seed deterministically, biggest leading term first
        seeds.sort(key=lambda t: eng.key(eng.lead(t)), reverse=True)
        self.ring = ring
        # the reduced basis of a complete run depends on nothing else
        self.key = (ring, frozenset(seen))
        self.eng = eng
        self.entries = []
        self.active = set()
        self._seeds = seeds
        self._lt_info = []  # (mask, degree) of each entry's leading term
        self._pairs = {}  # live pair (i, j) -> (lcm, lcm degree, lcm mask)
        self._queue = []  # (sugar, i, j); pairs no longer live are skipped
        self._reducers = None

    @property
    def partial(self):
        """True iff pairs above the last degree bound are still waiting."""
        return bool(self._pairs)

    def advance(self, degree_bound=None, timeout_s=None):
        """Process every pair of sugar <= degree_bound (all if None).

        timeout_s budgets this step alone.  On GBTimeout the pair being
        reduced stays queued, so the run can be advanced again.  Returns the
        reduced basis as a tuple of monic polynomials, and the partial flag.
        """
        eng = self.eng
        eng.deadline = _deadline(timeout_s)
        for terms in self._seeds:
            lt = eng.lead(terms)
            self._add((lt, terms[lt], terms, max(sum(e) for e in terms)))
        self._seeds = []
        f, pairs, queue = self.entries, self._pairs, self._queue
        while queue:
            sug, i, j = queue[0]
            pair = pairs.get((i, j))
            if pair is None:
                heapq.heappop(queue)
                continue
            eng.check_time(every=1)
            if degree_bound is not None and sug > degree_bound:
                break
            lti, lci, ti, _ = f[i]
            ltj, lcj, tj, _ = f[j]
            h = eng.spoly(pair[0], lti, lci, ti, ltj, lcj, tj)
            if h:
                if self._reducers is None:
                    self._reducers = [_reducer(f[g]) for g in sorted(self.active)]
                h = eng.nf(h, self._reducers)
            heapq.heappop(queue)
            del pairs[(i, j)]
            if h:
                lt = eng.lead(h)
                self._add((lt, h[lt], h, sug))
        kept = _interreduce([f[i] for i in sorted(self.active)], eng)
        return tuple(_to_poly(self.ring, en[2]).monic() for en in kept), self.partial

    def _add(self, entry):
        """Append an entry and apply the Gebauer-Moeller update for it."""
        f, info, pairs = self.entries, self._lt_info, self._pairs
        ih = len(f)
        lt_h, _, _, sug_h = entry
        m_h = _mask(lt_h)
        d_h = sum(lt_h)
        f.append(entry)
        info.append((m_h, d_h))

        # criterion B: drop (i, j) if lt_h divides its lcm and differs from
        # the lcms of (i, h) and (j, h); the lcm of (i, h) divides lcm(i, j),
        # so equal degree means equal lcm
        dead = []
        for (i, j), (l, dl, ml) in pairs.items():
            if m_h & ~ml or not _mono_divides(lt_h, l):
                continue
            if (
                sum(_mono_lcm(f[i][0], lt_h)) != dl
                and sum(_mono_lcm(f[j][0], lt_h)) != dl
            ):
                dead.append((i, j))
        for ij in dead:
            del pairs[ij]

        # criterion M: the pair (g, h) is kept iff no other lcm properly
        # divides lcm(g, h).  That set does not depend on the order of the
        # tests.  A proper divisor has smaller degree, and if one exists, one
        # that no lcm properly divides exists too, so each degree is tested
        # against the minimal lcms of smaller degree.  Coprime pairs (product
        # criterion) serve as divisors and are then dropped; pairs with equal
        # lcms are all kept.
        cands = []
        for ig in self.active:
            m_g = info[ig][0]
            l = _mono_lcm(lt_h, f[ig][0])
            cands.append((sum(l), ig, l, m_g | m_h, not m_g & m_h))
        cands.sort()
        minimal = []
        queue = self._queue
        for dl, group in groupby(cands, key=itemgetter(0)):
            fresh = []
            for _, ig, l, ml, coprime in group:
                if any(
                    not mm & ~ml and _mono_divides(lm, l) for lm, mm in minimal
                ):
                    continue
                fresh.append((l, ml))
                if coprime:
                    continue
                sug = max(f[ig][3] + dl - info[ig][1], sug_h + dl - d_h)
                pairs[(ig, ih)] = (l, dl, ml)
                heapq.heappush(queue, (sug, ig, ih))
            minimal += fresh

        self.active = {
            ig
            for ig in self.active
            if m_h & ~info[ig][0] or not _mono_divides(lt_h, f[ig][0])
        }
        self.active.add(ih)
        self._reducers = None


def _interreduce(entries, eng):
    """Minimalize leading terms, then fully reduce tails; canonical order."""
    entries = sorted(entries, key=lambda en: eng.key(en[0]))
    kept = []
    for en in entries:
        if not any(_mono_divides(k[0], en[0]) for k in kept):
            kept.append(en)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = [_reducer(kept[k]) for k in range(len(kept)) if k != idx]
            t = eng.nf(kept[idx][2], others)
            if t != kept[idx][2]:
                changed = True
                if not t:
                    kept.pop(idx)
                    break
                lt = eng.lead(t)
                kept[idx] = (lt, t[lt], t, kept[idx][3])
    kept.sort(key=lambda en: eng.key(en[0]))
    return kept


_cache = None  # key of a complete run -> its result, inside basis_cache()


@contextmanager
def basis_cache():
    """Within the block, `buchberger` computes each complete basis once.

    The block starts empty, and leaving it, also by an exception, restores
    whatever was active before.
    """
    global _cache
    saved, _cache = _cache, {}
    try:
        yield
    finally:
        _cache = saved


def buchberger(ideal, order=None, degree_bound=None, timeout_s=None):
    """Reduced Groebner basis of the ideal under the given (or ring) order.

    With degree_bound set, S-pairs above the sugar bound are dropped and the
    basis is flagged partial: sound for certifying membership on reduction to
    zero, never for non-membership.  Returns (tuple of monic polys, partial).
    Inside `basis_cache()` a complete basis is looked up by the ring and the
    set of the generators' primitive integer forms; a run that times out
    stores nothing.
    """
    run = BuchbergerRun(ideal, order)
    if degree_bound is not None or _cache is None:
        return run.advance(degree_bound, timeout_s)
    got = _cache.get(run.key)
    if got is None:
        got = _cache[run.key] = run.advance(None, timeout_s)
    return got


# ------------------------------------------------------------ certificates


@dataclass(frozen=True)
class MembershipCertificate:
    """Exact identity p = sum(cofactor_i * basis_i) + residue."""

    basis: tuple
    cofactors: tuple
    residue: Polynomial

    def verify(self, p):
        acc = p.ring.zero()
        for c, b in zip(self.cofactors, self.basis):
            acc = acc + c * b.cast(p.ring)
        acc = acc + self.residue
        return acc == p

    @property
    def is_member(self):
        return self.residue.is_zero


def _prepared(b):
    """(reducer, scale) of a basis polynomial, memoised on it.

    reducer is (lt, lc, terms, mask of lt) of b's integer form and scale the
    rational r with b = r * (integer form).  A zero b gets mask -1, which no
    term's mask contains, so it never reduces.
    """
    if b._int is None:
        terms, r = _int_clear(b)
        if terms:
            lt = max(terms, key=b.ring.exp_key)
            b._int = ((lt, terms[lt], terms, _mask(lt)), r)
        else:
            b._int = ((None, 0, terms, -1), r)
    return b._int


def reduce_poly(p, basis, timeout_s=None):
    """Full normal form plus certificate against an ordered basis list.

    Divisor selection is first-match in list order; the normal form has no
    term divisible by any basis leading term.
    """
    basis = tuple(basis)
    ring = p.ring
    for b in basis:
        if b.ring != ring:
            raise PolyError("ring mismatch between polynomial and basis")
    prepared = [_prepared(b) for b in basis]
    eng = _Engine(ring.exp_key, _deadline(timeout_s))
    pt, pr = _int_clear(p)
    # tracked fraction-free reduction: M * p_int = sum(C_i g_i) + R, and
    # p = pr * p_int, so the cofactor of b_i = r_i * g_i is pr * C_i / (M r_i)
    cof = [{} for _ in basis]
    work, M = eng.nf(pt, [red for red, _ in prepared], cof)
    cofactors = tuple(
        _to_poly(ring, cd, pr / (M * r)) if cd else ring.zero()
        for cd, (_, r) in zip(cof, prepared)
    )
    residue = _to_poly(ring, work, pr / M)
    return residue, MembershipCertificate(basis, cofactors, residue)


# ------------------------------------------------------------------ ideals


class Ideal:
    """Generator list in a ring, with a cached reduced Groebner basis."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_poly(g, ring)
            g = g.cast(ring)
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = None

    def gb(self, timeout_s=None):
        """Reduced Groebner basis under the ring order, cached."""
        if self._gb is None:
            basis, _ = buchberger(self, timeout_s=timeout_s)
            for g in self.generators:
                r, _ = reduce_poly(g, basis, timeout_s=timeout_s)
                if not r.is_zero:
                    raise PolyError("internal error: generator fails to reduce")
            self._gb = basis
        return self._gb

    def with_order(self, order):
        ring = self.ring.with_order(order)
        return Ideal(ring, [g.cast(ring) for g in self.generators])

    def __repr__(self):
        return "Ideal(%d gens in QQ[%s])" % (
            len(self.generators),
            ", ".join(self.ring.variables),
        )


def ideal_member(p, ideal, timeout_s=None):
    """Membership via normal form against the cached reduced GB."""
    basis = ideal.gb(timeout_s=timeout_s)
    residue, cert = reduce_poly(p.cast(ideal.ring), list(basis), timeout_s=timeout_s)
    return residue.is_zero, cert


def ideal_contains(big, small, timeout_s=None):
    """True iff every generator of `small` lies in `big`."""
    basis = big.gb(timeout_s=timeout_s)
    for g in small.generators:
        r, _ = reduce_poly(g.cast(big.ring), list(basis), timeout_s=timeout_s)
        if not r.is_zero:
            return False
    return True


def ideal_equal(I, J, timeout_s=None):
    if set(I.ring.variables) != set(J.ring.variables):
        raise PolyError("ideal comparison across different variable sets")
    Jc = Ideal(I.ring, [g.cast(I.ring) for g in J.generators]) if J.ring != I.ring else J
    return ideal_contains(I, Jc, timeout_s) and ideal_contains(Jc, I, timeout_s)


def eliminate(I, vars_to_remove, timeout_s=None):
    """Generators of I intersected with the subring without the given variables."""
    removed = tuple(v for v in I.ring.variables if v in set(vars_to_remove))
    if not removed:
        return Ideal(I.ring, I.generators)
    order = Block(removed)
    basis, _ = buchberger(I, order=order, timeout_s=timeout_s)
    sub = I.ring.restrict([v for v in I.ring.variables if v not in set(removed)])
    kept = []
    for g in basis:
        if not (g.variables_used() & set(removed)):
            kept.append(g.cast(sub))
    return Ideal(sub, kept)


def _fresh_name(ring, stem):
    name = stem
    k = 0
    while name in ring.index:
        k += 1
        name = "%s%d" % (stem, k)
    return name


def intersect(I, J, timeout_s=None):
    """I cap J via the (t I + (1 - t) J) elimination trick."""
    if I.ring.variables != J.ring.variables:
        J = Ideal(I.ring, [g.cast(I.ring) for g in J.generators])
    t = _fresh_name(I.ring, "t_isect")
    ext = I.ring.extend([t])
    tv = ext.var(t)
    gens = [tv * g.cast(ext) for g in I.generators]
    gens += [(ext.one() - tv) * g.cast(ext) for g in J.generators]
    E = eliminate(Ideal(ext, gens), [t], timeout_s=timeout_s)
    return Ideal(I.ring, [g.cast(I.ring) for g in E.generators])


def _exact_div(h, f, timeout_s=None):
    r, cert = reduce_poly(h, [f], timeout_s=timeout_s)
    if not r.is_zero:
        raise PolyError("inexact division in ideal quotient")
    return cert.cofactors[0]


def quotient(I, f, timeout_s=None):
    """(I : f) = {g : g f in I} via the intersection trick."""
    f = f.cast(I.ring)
    if f.is_zero:
        raise PolyError("quotient by zero")
    J = intersect(I, Ideal(I.ring, [f]), timeout_s=timeout_s)
    gens = [_exact_div(h, f, timeout_s) for h in J.generators]
    return Ideal(I.ring, gens)


@dataclass(frozen=True)
class _RevLexLast:
    """Graded reverse lex with the named variables weighted least, in turn.

    `_RevLexLast(("v", "h"))` compares v last and h next to last; the other
    variables keep their grevlex weights.  Private to `is_nonzerodivisor`.
    """

    last: tuple

    def key_fn(self, variables):
        rest = [i for i, x in enumerate(variables) if x not in self.last]
        rev = tuple(variables.index(x) for x in self.last) + tuple(
            rest[p] for p in _grevlex_positions([variables[i] for i in rest])
        )

        def key(exp):
            return (sum(exp), tuple(-exp[p] for p in rev))

        return key


def is_nonzerodivisor(I, v, timeout_s=None):
    """True iff the variable v is a nonzerodivisor on R/I.

    Decided from the leading monomials of the complete reduced basis of the
    homogenization I^h, without an ideal quotient; the module docstring
    gives the argument.
    """
    v = v.cast(I.ring)
    if len(v.terms) != 1 or v.total_degree() != 1 or v.lc() != 1:
        raise PolyError("nonzerodivisor test needs a variable, got %s" % v)
    (name,) = v.variables_used()
    if isinstance(I.ring.order, GrevLex):
        basis = I.gb(timeout_s=timeout_s)
    else:
        basis, _ = buchberger(I, order=GrevLex(), timeout_s=timeout_s)
    h = _fresh_name(I.ring, "h")
    ring = PolyRing(I.ring.variables + (h,), _RevLexLast((name, h)))
    gens = []
    for g in basis:
        deg = g.total_degree()
        gens.append(Polynomial(ring, {e + (deg - sum(e),): c for e, c in g.terms.items()}))
    hbasis, partial = buchberger(Ideal(ring, gens), timeout_s=timeout_s)
    if partial:
        raise PolyError("internal error: partial basis in the nonzerodivisor test")
    k = ring.index[name]
    return not any(b.lm()[k] for b in hbasis)


def radical_member(p, I, timeout_s=None):
    """Rabinowitsch test: p in rad(I) iff 1 in I + (1 - t p)."""
    p = p.cast(I.ring)
    t = _fresh_name(I.ring, "t_rab")
    ext = I.ring.extend([t])
    tv = ext.var(t)
    gens = [g.cast(ext) for g in I.generators]
    gens.append(ext.one() - tv * p.cast(ext))
    basis, _ = buchberger(Ideal(ext, gens), timeout_s=timeout_s)
    return len(basis) == 1 and basis[0] == ext.one()


def krull_dim(I, timeout_s=None):
    """Dimension of V(I) over Q via independent sets modulo leading terms."""
    basis = I.gb(timeout_s=timeout_s)
    n = I.ring.nvars
    if not basis:
        return n
    supports = []
    for g in basis:
        if g.total_degree() == 0:
            return -1
        supports.append(frozenset(i for i, e in enumerate(g.lm()) if e))
    # keep only minimal supports
    supports = sorted(set(supports), key=lambda s: (len(s), sorted(s)))
    minimal = []
    for s in supports:
        if not any(m <= s for m in minimal):
            minimal.append(s)

    memo = {}

    def search(excluded):
        live = [s for s in minimal if not (s & excluded)]
        if not live:
            return n - len(excluded)
        key = excluded
        got = memo.get(key)
        if got is not None:
            return got
        s = min(live, key=lambda s: (len(s), sorted(s)))
        best = -1
        for v in sorted(s):
            best = max(best, search(excluded | frozenset([v])))
        memo[key] = best
        return best

    return search(frozenset())


# --------------------------------------------------------- .ideal format

IDEAL_HEADER = "# lmlab-ideal v1"


def write_ideal_text(ideal, sort_generators=True):
    """Canonical `.ideal` text: header, ring, order, one gen line each."""
    lines = [IDEAL_HEADER]
    lines.append("ring QQ [%s]" % ", ".join(ideal.ring.variables))
    order = ideal.ring.order
    if isinstance(order, Block):
        lines.append(
            "order block [%s] %s %s"
            % (",".join(order.eliminated), order.order1.name, order.order2.name)
        )
    else:
        lines.append("order %s" % order.name)
    gens = list(ideal.generators)
    if sort_generators:
        key = ideal.ring.exp_key
        gens.sort(key=lambda g: key(g.lm()))
    for g in gens:
        lines.append("gen %s" % g)
    return "\n".join(lines) + "\n"


def read_ideal_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != IDEAL_HEADER:
        raise ParseError("missing `%s` header" % IDEAL_HEADER, 0)
    if len(lines) < 3:
        raise ParseError("truncated ideal file", 0)
    ring_line, order_line = lines[1], lines[2]
    if not (ring_line.startswith("ring QQ [") and ring_line.endswith("]")):
        raise ParseError("malformed ring line: %r" % ring_line, 1)
    inner = ring_line[len("ring QQ [") : -1].strip()
    variables = [v.strip() for v in inner.split(",")] if inner else []
    if not order_line.startswith("order "):
        raise ParseError("malformed order line: %r" % order_line, 2)
    tokens = order_line[len("order ") :].split()
    if tokens[0] == "block":
        if len(tokens) != 4 or not (tokens[1].startswith("[") and tokens[1].endswith("]")):
            raise ParseError("malformed block order: %r" % order_line, 2)
        elim = [v for v in tokens[1][1:-1].split(",") if v]
        order = Block(elim, order_from_name(tokens[2]), order_from_name(tokens[3]))
    elif tokens[0] in ("lex", "grevlex") and len(tokens) == 1:
        order = order_from_name(tokens[0])
    else:
        raise ParseError("unknown order token: %r" % order_line, 2)
    ring = PolyRing(variables, order)
    gens = []
    for idx, ln in enumerate(lines[3:]):
        if not ln.startswith("gen "):
            raise ParseError("expected `gen` line, found %r" % ln, idx + 3)
        try:
            gens.append(parse_poly(ln[4:], ring))
        except ParseError as exc:
            raise ParseError(
                "line %d, column %d: %s" % (idx + 4, exc.position + 1, exc),
                exc.position,
            ) from exc
    return Ideal(ring, gens)
