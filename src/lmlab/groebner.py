"""Buchberger-based ideal arithmetic over Q.

The engine works on the integer numerators that `Polynomial.terms` holds
(fraction-free reduction with periodic content normalization); a result is
built from numerators and a denominator by the `Polynomial` constructor.
Public results are monic polynomials with exact rational cofactor
certificates.

Order words (Monagan & Pearce, CASC 2007).  Inside the engine each monomial
is one int, its order word, whose integer order is the ring's monomial order,
so the leading term of a term dict is its `max`.  The layout is that of
`poly._Packing`: fields of w bits, each with a guard bit on top that a
monomial keeps clear and M = 2^(w - 1) - 1 below it.  Each order names its
word groups (`word_groups`), from the most significant field down:

- lex: x_1, ..., x_n in ring order;
- grevlex: the degree, then M - x for each variable from the smallest up
  (grevlex is lex on (deg, -x_n, ..., -x_1); pi, always the smallest, first);
- a block order: the fields of the order on the eliminated variables, then
  those of the order on the others, each graded group with its own degree;
- `_RevLexLast`: grevlex in its own order of comparison.

Below them all, in the lowest field, sits the total degree: it cannot change
the order, since the fields above decide every comparison of distinct
monomials, and `word & dmask` reads it.  M - x is `M ^ x`, so XOR with `flip`
(M in every complemented field) undoes the complements.  A product is one
addition less the word of the monomial 1 (`one`, the complement mask), and
a shift is `t + (b - a)`.  Divisibility and lcms run on exponent words: the
order word XOR `flip`, masked to the variable fields and the total degree.
Then a divides b iff `not (b - a) & guard`, since a field of b below that of a
borrows and sets its guard bit; the lcm reads which field is larger off the
guard bits of `(a | guard) - b`, and sums its fields for the degree.  The
group degrees are filled in, each summed off one product as the lcm's
degree is, only when an lcm becomes the shift of an S-polynomial or a
pair's selection key.  The width w is 16 bits unless twice the largest
degree of the input does not fit below a guard; then it doubles until it
does.  A packing depends on nothing but the variables, the order and the
width, so the last 1,024 made are shared.  Every reduction step and
S-polynomial checks that the degree of the terms it makes stays below
2^(w - 1); past that it raises PolyError, so no field ever wraps.  A
polynomial's words are grevlex words of the same width rule (see `poly`),
so on a grevlex ring the engine's packing is the polynomial's, and it takes
`Polynomial.terms` as they are and builds its results from its own words.
Under another order or width, `_Packing.convert` puts the words of its input
into the engine's packing, and the `Polynomial` constructor puts the
engine's words into the polynomial's own.  Nothing in the engine compares
exponent tuples.

Pairs (Gebauer & Moeller, JSC 1988).  A pair (i, j), i < j, of basis
entries waits in a heap keyed by (order word of its lcm, i, j) and is
selected smallest key first, until no pair is left: Buchberger's normal
strategy, under every order.  The pair stores the exponent word of its lcm
when it is created.  Under grevlex and `_RevLexLast` the top field of an
order word is its degree, so the selection is degree-first there.  The
engine once selected by the degree a pair would have after homogenizing
(Giovini, Mora, Niesi, Robbiano and Traverso, ISSAC 1991).  Under grevlex
that differs only on inhomogeneous input, and it measured no gain on the
charts; under lex and block orders it stops tracking degree, and selecting
by it walked down a Euclid-like chain of remainders whose coefficients grew
without bound.  When entry h joins:

- criterion B drops a waiting pair (i, j) if lt(h) divides lcm(i, j) and
  that lcm differs from lcm(i, h) and from lcm(j, h);
- criterion M drops the new pair (g, h) if another lcm(g', h) properly
  divides lcm(g, h); new pairs with equal lcms are all kept;
- the product criterion drops (g, h) if lt(g) and lt(h) are coprime.

Deadline.  Inside a `deadline(seconds)` block the Groebner operations
(`buchberger`, `reduce_poly` and everything built on them) share one budget,
counted from the block's start: once it is spent, the next deadline check
(before each S-pair, and every 256 steps of a reduction) raises GBTimeout and
the computation is abandoned.  `check_deadline` is that one check, also for
exact loops outside the engine (za1's relations under its two ring maps).
A nested block can shorten the deadline but never extend it, and leaving a
block restores the previous one.  The suite opens one block per named check
and instance.

Reduction.  `reduce_poly` and the Buchberger loop share `_Engine.nf`, which
reduces numerators against (exponent word of lt, lt, lc, numerators, top
degree) reducers.  The first reducer in list order whose leading term passes
the guard test is used, and zero basis entries (exponent word `never`) never
reduce.  nf keeps the live terms apart from the finished ones: `max` over
the live terms gives the next one, an irreducible one moves to the
remainder, and a fraction-free rescale by the lead coefficient touches only
the live terms.  Each finished term and cofactor step keeps the product M
of the rescales made before it and is multiplied by the later ones, the
final M over its own, once at the end.  With cofactors tracked, nf keeps
M * P = sum(C_i B_i) + R on the numerators and never divides out content,
which would rescale M and every C_i.  A `MembershipCertificate` from
`_reduce` holds the packed C_i and builds the cofactor polynomials the first
time `cofactors` is read (by `verify`, a test or a failure detail); a
membership test whose certificate is never read builds none.  Membership
in an ideal is `ideal_member(p, I)`, against the cached `I.gb()`, whose
reducer tuples are built once and cached beside it, and
`first_nonmember(polys, I)` is the certificate of the first of polys that
it finds outside I, or None; `reduce_poly` on an explicit list is for bases
that are not an ideal's, such as a single divisor.

Basis check.  `Ideal.gb` checks every new ideal against its basis, also
when `buchberger` found that basis in the memo: each distinct primitive form
of its generators, normalized as the seeds of a run are, must reduce to
zero.  The check reads only whether a residue is zero, so it reduces without
cofactors, on one engine under the enclosing deadline; the reducers of the
basis are packed again, wider, when a generator does not fit them.
`ideal_contains` tests the generators of one ideal against the basis of
another the same way.

Instance memo.  Inside a `memo()` block, `once(key, make)` returns the first
value `make()` gave for the key, and outside one it calls `make()` each time;
a `make()` that raises (a GBTimeout, a bad pivot's LatticeError) stores
nothing, and leaving the block restores the previous memo.  `buchberger`
keys a run by its ring with the order, the packing width and the set of the
generators' primitive integer forms (numerators over their content, leading
coefficient positive): the reduced basis is unique, so the generators'
order, scaling and repetition do not matter, and `Ideal.gb`, `eliminate`,
`intersect`, `radical_member` and `krull_dim` all share it.  `blowup`'s
chart builders key a chart by (builder name, nf, s, t).  The suite opens one
block per instance.

Nonzerodivisors.  `is_nonzerodivisor(I, v)` needs no ideal quotient.  It
first substitutes away every variable that a generator solves for.  While
some generator is g = c x + f, with c a nonzero constant, x not v, f free of
x and g of degree at least 2, the first such generator (and in it the first
such x in ring order) is dropped, x becomes -f/c in the other generators,
and x leaves the ring.  Each step is the isomorphism R/I -> R'/I' that sends
x to -f/c and every other variable to itself: R/(g) is isomorphic to R' =
Q[the other variables], and the images of the other generators generate I'
(I' is I when nothing is substituted).  It fixes v, so v is a nonzerodivisor
on R/I iff on R'/I'.  A linear g, such as a pin x - 1, stays: a leading term
of degree 1 costs a run next to nothing, and staying in R lets the test
share the grevlex basis of I with the other claims on I.  The test then
homogenizes the grevlex basis of I' with a fresh h and computes the reduced
basis of I'^h under graded reverse lex with v last and h next to last; v is
a nonzerodivisor on R'/I' iff v divides none of its leading monomials (Bayer
and Stillman: in(J : v) = in(J) : v for homogeneous J and v last; v is a
nonzerodivisor on S/I'^h iff on R'/I').  v last is what the criterion needs.
h goes next to last: on the full resolution charts, before they were
substituted down, that halved the run against h after pi.
"""

from __future__ import annotations

import heapq
import time
from collections import namedtuple
from contextlib import contextmanager
from functools import wraps
from itertools import chain, groupby
from math import gcd
from operator import itemgetter

from .poly import (
    Block,
    GrevLex,
    Lex,
    ParseError,
    PolyError,
    PolyRing,
    Polynomial,
    UnknownVariableError,
    parse_poly,
    _MIN_WIDTH,
    _grevlex_positions,
    _packing,
    _width,
)

__all__ = [
    "GBTimeout",
    "Ideal",
    "MembershipCertificate",
    "buchberger",
    "deadline",
    "check_deadline",
    "memo",
    "once",
    "reduce_poly",
    "ideal_member",
    "first_nonmember",
    "ideal_equal",
    "ideal_contains",
    "eliminate",
    "eliminates_to",
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

    def __init__(self, seconds):
        super().__init__("buchberger exceeded the %.1f s budget" % seconds)


_until = None  # (monotonic deadline, budget in s) inside deadline(), else None


@contextmanager
def deadline(seconds):
    """Within the block, Groebner operations share a budget of `seconds`.

    None sets no budget of its own.  Inside another block the earlier of the
    two deadlines holds; leaving the block, also by an exception, restores
    whatever was active before.
    """
    global _until
    saved = _until
    if seconds is not None:
        until = time.monotonic() + seconds
        if saved is None or until < saved[0]:
            _until = (until, float(seconds))
    try:
        yield
    finally:
        _until = saved


def check_deadline():
    """Raise GBTimeout once the active deadline has passed."""
    if _until is not None and time.monotonic() > _until[0]:
        raise GBTimeout(_until[1])


# ------------------------------------------------------------ order words

def _packing_for(ring, degree):
    """The packing of a ring for input of this degree.

    The field width is 16 bits unless twice the degree does not fit below a
    guard bit; then it doubles until it does (`poly._width`).  Under grevlex
    it is the packing of the ring's polynomials of that degree.
    """
    return _packing(ring.variables, ring.order, _width(degree, _MIN_WIDTH))


# ------------------------------------------------------ integer forms


def _primitive(terms):
    if not terms:
        return terms
    g = 0
    for v in terms.values():
        g = gcd(g, v)
        if g == 1:
            return terms
    return {e: v // g for e, v in terms.items()}


def _primitive_forms(pk, generators):
    """The distinct primitive forms of nonzero generators, packed by `pk`.

    A form is the numerators over their content, with a positive leading
    coefficient, so it ignores how a generator is scaled.  Returns the set
    of the forms as frozensets of their items, and the forms in the order
    of their first generators.
    """
    seen = set()
    forms = []
    for g in generators:
        terms = _primitive(g.packing.convert(g.terms, pk))
        if terms[max(terms)] < 0:
            terms = {e: -v for e, v in terms.items()}
        fro = frozenset(terms.items())
        if fro not in seen:
            seen.add(fro)
            forms.append(terms)
    return seen, forms


def _divisors(ring, basis, degree):
    """The packing of the basis and its reducers.

    A reducer is (exponent word of lt, lt, lc, terms, top degree), with lt
    the order word of the leading term.  The packing is chosen for the
    largest of `degree` and the degrees of the basis.  A zero entry gets the
    exponent word `never`, which divides no monomial, so it never reduces.
    """
    pk = _packing_for(ring, max([degree] + [b.total_degree() for b in basis]))
    dm = pk.dmask
    out = []
    for b in basis:
        if b.is_zero:
            out.append((pk.never, 0, 0, {}, 0))
        else:
            terms = b.packing.convert(b.terms, pk)
            lt = max(terms)
            out.append((pk.exponent_word(lt), lt, terms[lt], terms, max(map(dm.__and__, terms))))
    return pk, out


class _Engine:
    """Packing and deadline checks for one computation."""

    def __init__(self, packing):
        self._packing = packing
        self._tick = -1  # the first check reads the clock

    def check_time(self, every=256):
        """Raise GBTimeout once the active deadline passed.

        The clock is read on the first call and then every `every` calls, so
        a short reduction on a fresh engine still looks at it.
        """
        self._tick += 1
        if _until is not None and self._tick % every == 0:
            check_deadline()

    # -- fraction-free full normal form

    def nf(self, terms, reducers, cofactors=False):
        """Normal form of a packed integer term dict against reducers.

        A reducer is (exponent word of lt, lt, lc, terms, top degree of its
        terms).  The first reducer in list order whose leading term divides
        the current term is used.  The live terms are kept apart from the
        finished ones, which no later step can reach: the next term is the
        largest live one, and a rescale by the lead coefficient touches only
        the live terms.  M is the product of the rescales so far; a finished
        term and a cofactor step keep the M of their time and are brought to
        the final scale once, at the end.

        With `cofactors` the loop returns (result, M, C) with
        M * terms = sum(C_i * reducer_i) + result, C one dict of order words
        per reducer, and never removes content, which would have to rescale
        M and every C_i.
        """
        pk = self._packing
        guard, flip, emask, dm, limit = pk.guard, pk.flip, pk.emask, pk.dmask, pk.limit
        live = dict(terms)
        done, trail = {}, []  # order word -> (value, M); (reducer, shift, mg, M)
        M = 1
        steps = 0
        while live:
            self.check_time()
            best = max(live)
            eb = (best ^ flip) & emask
            for hit, red in enumerate(reducers):
                if not (eb - red[0]) & guard:
                    break
            else:
                done[best] = (live.pop(best), M)
                continue
            _, lte, ltc, td, top = red
            shift = best - lte
            top += shift & dm
            if top > limit:
                raise pk.overflow(top)
            c = live[best]
            g0 = gcd(c, ltc)
            mw = ltc // g0
            mg = c // g0
            if mw != 1:
                live = {e: v * mw for e, v in live.items()}
                M *= mw
            for ge, gc in td.items():
                ne = ge + shift
                s = live.get(ne, 0) - mg * gc
                if s:
                    live[ne] = s
                else:
                    del live[ne]
            if cofactors:
                trail.append((hit, shift, mg, M))
                continue
            steps += 1
            if steps % 64 == 0:
                # divide out the content of the live and the finished terms,
                # both at the scale M, which then starts again from 1
                done = {e: v * (M // m) for e, (v, m) in done.items()}
                M = 1
                g = 0
                for v in chain(live.values(), done.values()):
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    live = {e: v // g for e, v in live.items()}
                    done = {e: v // g for e, v in done.items()}
                done = {e: (v, 1) for e, v in done.items()}
        result = {e: v * (M // m) for e, (v, m) in done.items()}
        if not cofactors:
            return _primitive(result)
        cof = [{} for _ in reducers]
        one = pk.one
        for hit, shift, mg, m in trail:
            cof[hit][shift + one] = mg * (M // m)
        return result, M, cof

    def spoly(self, lcm, e1, c1, t1, e2, c2, t2):
        """The S-polynomial of two entries, given the exponent word of their lcm."""
        pk = self._packing
        dm = pk.dmask
        dl = lcm & dm
        # fields below 2^(width - 1) add without a carry, so the degree of a
        # sum is the sum of the degrees
        top = max(
            max(map(dm.__and__, t1)) + dl - (e1 & dm),
            max(map(dm.__and__, t2)) + dl - (e2 & dm),
        )
        if top > pk.limit:
            raise pk.overflow(top)
        lcm = pk.order_word(lcm)
        s1 = lcm - e1
        s2 = lcm - e2
        g0 = gcd(c1, c2)
        m1 = c2 // g0
        m2 = c1 // g0
        out = {}
        for ge, gc in t1.items():
            ne = ge + s1
            out[ne] = out.get(ne, 0) + m1 * gc
        for ge, gc in t2.items():
            ne = ge + s2
            s = out.get(ne, 0) - m2 * gc
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return _primitive(out)


# ------------------------------------------------------------- buchberger


class BuchbergerRun:
    """One Buchberger computation, run to completion by `complete`.

    The seeds are the distinct primitive forms of the generators.  They join
    in ascending order of leading term, each first reduced against the
    entries so far (Gebauer & Moeller, JSC 1988): a seed that reduces to zero
    adds no entry, and any other joins reduced.  The memo key `key` is taken
    from the unreduced seeds.  `entries` lists every basis element found as
    its reducer (see `_divisors`); `active` maps the index of each entry
    whose leading term no later entry divides to that same tuple, in index
    order: the reducers of the next S-polynomial.
    """

    def __init__(self, ideal, order=None):
        ring = ideal.ring if order is None else ideal.ring.with_order(order)
        pk = _packing_for(ring, max((g.total_degree() for g in ideal.generators), default=0))
        # the seeds, and so the memo key, ignore how each generator is scaled
        seen, seeds = _primitive_forms(pk, ideal.generators)
        # seed deterministically, smallest leading term first; a stable sort,
        # so seeds with equal leading terms keep the generators' order
        seeds.sort(key=max)
        self.ring = ring
        # the reduced basis depends on nothing else
        self.key = (ring, pk.width, frozenset(seen))
        self.eng = _Engine(pk)
        self._packing = pk
        self.entries = []
        self.active = {}
        self._seeds = seeds
        self._pairs = {}  # live pair (i, j) -> the exponent word of its lcm
        self._queue = []  # (order word of the lcm, i, j); dead pairs are skipped

    def complete(self):
        """Process every pair; return the reduced basis as monic polynomials."""
        eng = self.eng
        for terms in self._seeds:
            h = eng.nf(terms, self.active.values())
            if h:
                self._add(h)
        f, pairs, queue = self.entries, self._pairs, self._queue
        while queue:
            _, i, j = heapq.heappop(queue)
            lcm = pairs.pop((i, j), None)
            if lcm is None:
                continue
            eng.check_time(every=1)
            h = eng.spoly(lcm, *f[i][1:4], *f[j][1:4])
            h = h and eng.nf(h, self.active.values())
            if h:
                self._add(h)
        kept = _interreduce(self.active.values(), eng)
        return tuple(Polynomial(self.ring, t, lc, self._packing) for _, _, lc, t, _ in kept)

    def _add(self, h):
        """Append the entry of the reduced terms h and apply the
        Gebauer-Moeller update for it."""
        f, pairs, pk = self.entries, self._pairs, self._packing
        guard, dm, lcm = pk.guard, pk.dmask, pk.lcm
        ih = len(f)
        lt_h = max(h)
        x_h = pk.exponent_word(lt_h)
        entry = (x_h, lt_h, h[lt_h], h, max(map(dm.__and__, h)))
        f.append(entry)

        # criterion B: drop (i, j) if lt_h divides its lcm and differs from
        # the lcms of (i, h) and (j, h)
        dead = []
        for (i, j), l in pairs.items():
            if (l - x_h) & guard:
                continue
            if lcm(f[i][0], x_h) != l and lcm(f[j][0], x_h) != l:
                dead.append((i, j))
        for ij in dead:
            del pairs[ij]

        # criterion M: the pair (g, h) is kept iff no other lcm properly
        # divides lcm(g, h).  That set does not depend on the order of the
        # tests.  A proper divisor has smaller degree, and if one exists, one
        # that no lcm properly divides exists too, so each degree is tested
        # against the minimal lcms of smaller degree.  Coprime pairs (product
        # criterion: the lcm is the product) serve as divisors and are then
        # dropped; pairs with equal lcms are all kept.
        cands = []
        for ig, red in self.active.items():
            l = lcm(x_h, red[0])
            cands.append((l & dm, ig, l, l == x_h + red[0]))
        cands.sort()
        minimal = []
        queue = self._queue
        for _, group in groupby(cands, key=itemgetter(0)):
            fresh = []
            for _, ig, l, coprime in group:
                if any(not (l - lm) & guard for lm in minimal):
                    continue
                fresh.append(l)
                if coprime:
                    continue
                pairs[(ig, ih)] = l
                heapq.heappush(queue, (pk.order_word(l), ig, ih))
            minimal += fresh

        self.active = {
            ig: red for ig, red in self.active.items() if (red[0] - x_h) & guard
        }
        self.active[ih] = entry


def _interreduce(reducers, eng):
    """Minimalize leading terms, then fully reduce tails; canonical order.

    Takes and returns reducers (see `_divisors`), in ascending order of
    leading term.  No kept leading term divides another, so reduction keeps
    every leading term, and one pass leaves each tail reduced against all of
    them.
    """
    guard, dm = eng._packing.guard, eng._packing.dmask
    kept = []
    for red in sorted(reducers, key=itemgetter(1)):
        if all((red[0] - k[0]) & guard for k in kept):
            kept.append(red)
    for idx in range(len(kept)):
        x, lt = kept[idx][:2]
        t = eng.nf(kept[idx][3], kept[:idx] + kept[idx + 1 :])
        kept[idx] = (x, lt, t[lt], t, max(map(dm.__and__, t)))
    return kept


_memo = None  # key -> value made once, inside memo()


@contextmanager
def memo():
    """Within the block, `once` makes each value once per key.

    The block starts empty, and leaving it, also by an exception, restores
    whatever was active before.
    """
    global _memo
    saved, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = saved


def once(key, make):
    """`make()`, made once per key inside `memo()` and on each call outside it.

    A `make()` that raises stores nothing.
    """
    if _memo is None:
        return make()
    if key not in _memo:
        _memo[key] = make()
    return _memo[key]


def _once_per_memo(builder):
    """The builder, building inside `memo()` one value per tuple of arguments:
    later calls share its object, and the bases and reducers its ideals cache.
    """

    @wraps(builder)
    def build(*args):
        return once((builder.__name__,) + args, lambda: builder(*args))

    return build


def buchberger(ideal, order=None):
    """Reduced Groebner basis of the ideal under the given (or ring) order.

    Returns (tuple of monic polys, False).  Every run is complete, so the
    second value is always False; it stays because the benchmark tracer
    (`bench/tracer.py`) reads it.  Inside `memo()` a basis is computed once
    per ring and set of the generators' primitive integer forms.
    """
    run = BuchbergerRun(ideal, order)
    return once(run.key, run.complete), False


# ------------------------------------------------------------ certificates


class MembershipCertificate:
    """Exact identity p = sum(cofactor_i * basis_i) + residue.

    A reduction hands over its cofactors packed, as (packing, one dict of
    order words per basis entry, common denominator M den(p)); `cofactors`
    builds the polynomials from them the first time it is read, so a
    membership test whose certificate is never read builds none.
    """

    __slots__ = ("basis", "residue", "_cofactors", "_packed")

    def __init__(self, basis, cofactors, residue, packed=None):
        self.basis = tuple(basis)
        self.residue = residue
        self._cofactors = None if cofactors is None else tuple(cofactors)
        self._packed = packed

    @property
    def cofactors(self):
        if self._cofactors is None:
            # the cofactor of b_i = B_i / den(b_i) is C_i den(b_i) / (M den(p))
            pk, cof, den = self._packed
            ring = self.residue.ring
            self._cofactors = tuple(
                Polynomial(ring, {e: v * b.den for e, v in cd.items()}, den, pk)
                for cd, b in zip(cof, self.basis)
            )
            self._packed = None
        return self._cofactors

    def verify(self, p):
        acc = p.ring.zero()
        for c, b in zip(self.cofactors, self.basis):
            acc = acc + c * b.cast(p.ring)
        acc = acc + self.residue
        return acc == p

    @property
    def is_member(self):
        return self.residue.is_zero


def reduce_poly(p, basis):
    """Full normal form plus certificate against an ordered basis list.

    Divisor selection is first-match in list order; the normal form has no
    term divisible by any basis leading term.
    """
    basis = tuple(basis)
    for b in basis:
        if b.ring != p.ring:
            raise PolyError("ring mismatch between polynomial and basis")
    return _reduce(p, basis, _divisors(p.ring, basis, p.total_degree()))


def _reduce(p, basis, divisors):
    """`reduce_poly(p, basis)`, given `_divisors` of the basis.

    If p does not fit their packing, the basis is packed again, wider.
    """
    ring = p.ring
    pk, reducers = divisors
    if not pk.holds(p.total_degree()):
        pk, reducers = _divisors(ring, basis, p.total_degree())
    # tracked fraction-free reduction of the numerators: M * P = sum(C_i B_i)
    # + R with p = P / den(p), so the residue is R / (M den(p))
    work, M, cof = _Engine(pk).nf(p.packing.convert(p.terms, pk), reducers, cofactors=True)
    den = M * p.den
    residue = Polynomial(ring, work, den, pk)
    return residue, MembershipCertificate(basis, None, residue, (pk, cof, den))


# ------------------------------------------------------------------ ideals


class Ideal:
    """Generator list in a ring, with a cached reduced Groebner basis."""

    __slots__ = ("ring", "generators", "_gb", "_divisors")

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
        self._divisors = None

    def gb(self):
        """Reduced Groebner basis under the ring order, cached.

        Its `_divisors` are cached beside it, so that the membership tests
        against the ideal share them.
        """
        if self._gb is None:
            basis, _ = buchberger(self)
            divisors = _divisors(self.ring, basis, 0)
            if not _all_reduce(self.ring, self.generators, basis, divisors):
                raise PolyError("internal error: generator fails to reduce")
            self._gb, self._divisors = basis, divisors
        return self._gb

    def __repr__(self):
        return "Ideal(%d gens in QQ[%s])" % (
            len(self.generators),
            ", ".join(self.ring.variables),
        )


def _all_reduce(ring, polys, basis, divisors):
    """True iff every nonzero poly of the ring reduces to zero against the basis.

    Each distinct primitive form (see `_primitive_forms`) is reduced once,
    without cofactors, against `divisors`, the `_divisors` of the basis,
    packed again wider if a poly does not fit them; one engine reads the
    enclosing deadline.
    """
    pk, reducers = divisors
    degree = max((p.total_degree() for p in polys), default=0)
    if not pk.holds(degree):
        pk, reducers = _divisors(ring, basis, degree)
    eng = _Engine(pk)
    return not any(eng.nf(terms, reducers) for terms in _primitive_forms(pk, polys)[1])


def ideal_member(p, ideal):
    """Membership via normal form against the cached reduced GB."""
    basis = ideal.gb()
    residue, cert = _reduce(p.cast(ideal.ring), basis, ideal._divisors)
    return residue.is_zero, cert


def first_nonmember(polys, ideal):
    """The certificate of the first of `polys` outside `ideal`, or None.

    `polys` is consumed lazily and only up to that first non-member, whose
    nonzero residue is a claim's witness.
    """
    for p in polys:
        ok, cert = ideal_member(p, ideal)
        if not ok:
            return cert
    return None


def ideal_contains(big, small):
    """True iff every generator of `small` lies in `big`."""
    basis = big.gb()
    return _all_reduce(big.ring, [g.cast(big.ring) for g in small.generators], basis, big._divisors)


def ideal_equal(I, J):
    if set(I.ring.variables) != set(J.ring.variables):
        raise PolyError("ideal comparison across different variable sets")
    Jc = Ideal(I.ring, [g.cast(I.ring) for g in J.generators]) if J.ring != I.ring else J
    return ideal_contains(I, Jc) and ideal_contains(Jc, I)


def _basis_under(I, order):
    """The reduced basis of I under `order`; the cached `I.gb()` if it is I's."""
    if I.ring.order == order:
        return I.gb()
    return buchberger(I, order=order)[0]


def eliminate(I, vars_to_remove):
    """Generators of I intersected with the subring without the given variables.

    The basis is that of `Block(removed)`, the removed variables in ring
    order; an ideal whose ring has that order already lends its `gb()`.
    """
    removed = tuple(v for v in I.ring.variables if v in set(vars_to_remove))
    if not removed:
        return Ideal(I.ring, I.generators)
    basis = _basis_under(I, Block(removed))
    sub = I.ring.restrict([v for v in I.ring.variables if v not in set(removed)])
    kept = []
    for g in basis:
        if not (g.variables_used() & set(removed)):
            kept.append(g.cast(sub))
    return Ideal(sub, kept)


def eliminates_to(I, removed, J):
    """True iff eliminating the variables `removed` from I gives exactly J.

    J lives in a ring of the variables of I that are not removed.
    """
    return ideal_equal(Ideal(J.ring, eliminate(I, removed).generators), J)


def _fresh_name(ring, stem):
    name = stem
    k = 0
    while name in ring.index:
        k += 1
        name = "%s%d" % (stem, k)
    return name


def intersect(I, J):
    """I cap J via the (t I + (1 - t) J) elimination trick."""
    if I.ring.variables != J.ring.variables:
        J = Ideal(I.ring, [g.cast(I.ring) for g in J.generators])
    t = _fresh_name(I.ring, "t_isect")
    ext = I.ring.extend([t])
    tv = ext.var(t)
    gens = [tv * g.cast(ext) for g in I.generators]
    gens += [(ext.one() - tv) * g.cast(ext) for g in J.generators]
    E = eliminate(Ideal(ext, gens), [t])
    return Ideal(I.ring, [g.cast(I.ring) for g in E.generators])


def _exact_div(h, f):
    r, cert = reduce_poly(h, [f])
    if not r.is_zero:
        raise PolyError("inexact division in ideal quotient")
    return cert.cofactors[0]


def quotient(I, f):
    """(I : f) = {g : g f in I} via the intersection trick."""
    f = f.cast(I.ring)
    if f.is_zero:
        raise PolyError("quotient by zero")
    J = intersect(I, Ideal(I.ring, [f]))
    gens = [_exact_div(h, f) for h in J.generators]
    return Ideal(I.ring, gens)


class _RevLexLast(namedtuple("_RevLexLast", "last")):
    """Graded reverse lex with the named variables weighted least, in turn.

    `_RevLexLast(("v", "h"))` compares v last and h next to last; the other
    variables keep their grevlex weights.  Private to `is_nonzerodivisor`.
    """

    __slots__ = ()

    def _positions(self, variables):
        """The variables in the order of comparison, v first."""
        rest = [i for i, x in enumerate(variables) if x not in self.last]
        return tuple(variables.index(x) for x in self.last) + tuple(
            rest[p] for p in _grevlex_positions([variables[i] for i in rest])
        )

    def word_groups(self, variables):
        """One graded group in the order of comparison (see `Lex.word_groups`)."""
        return ((True, self._positions(variables)),)


def _linear_variable(g, keep):
    """Index of the first variable x in ring order, other than the one at
    index `keep`, with g = c x + f for a constant c and f free of x, if g
    has degree at least 2; else None."""
    if g.total_degree() < 2:
        return None
    exps = g.numerators()
    used = [0] * g.ring.nvars
    for e in exps:
        for i, a in enumerate(e):
            if a:
                used[i] += 1
    found = [e.index(1) for e in exps if sum(e) == 1]
    return min((i for i in found if i != keep and used[i] == 1), default=None)


def _substitute(q, i, image):
    """q with the variable at index i replaced by `image`, which is free of it."""
    parts = {}
    for e, c in q.numerators().items():
        parts.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1 :]] = c
    if list(parts) == [0]:
        return q
    out = q.ring.zero()
    for a, terms in parts.items():
        out = out + q.ring.from_numerators(terms, q.den) * image**a
    return out


def _solve_linear(I, keep):
    """I with every variable that a generator solves for substituted away.

    While some generator is c x + f (see `_linear_variable`, with x not the
    variable named `keep`), the first one in generator order is dropped, x
    becomes -f/c in the others, and x leaves the ring.  Returns I itself when
    no generator has that form, else an ideal of the variables left (in
    grevlex).  The module docstring says why this keeps the nonzerodivisor
    verdict for `keep`, and why linear generators stay.
    """
    ring = I.ring
    keep = ring.index[keep]
    gens = list(I.generators)
    solved = set()
    k = 0
    while k < len(gens):
        i = _linear_variable(gens[k], keep)
        if i is None:
            k += 1
            continue
        g = gens.pop(k)
        exps = g.numerators()
        x = tuple(int(j == i) for j in range(ring.nvars))
        # g = (c x + f) / den, so x = -f / c
        image = ring.from_numerators({e: -v for e, v in exps.items() if e != x}, exps[x])
        gens = [h for h in (_substitute(q, i, image) for q in gens) if h]
        solved.add(ring.variables[i])
        k = 0
    if not solved:
        return I
    return Ideal(ring.restrict([v for v in ring.variables if v not in solved]), gens)


def is_nonzerodivisor(I, v):
    """True iff the variable v is a nonzerodivisor on R/I.

    Decided from the leading monomials of the complete reduced basis of the
    homogenization I^h, without an ideal quotient, after the variables that
    the generators solve for are substituted away; the module docstring
    gives the argument.
    """
    v = v.cast(I.ring)
    if len(v.terms) != 1 or v.total_degree() != 1 or v.lc() != 1:
        raise PolyError("nonzerodivisor test needs a variable, got %s" % v)
    (name,) = v.variables_used()
    I = _solve_linear(I, name)
    basis = _basis_under(I, GrevLex())
    h = _fresh_name(I.ring, "h")
    ring = PolyRing(I.ring.variables + (h,), _RevLexLast((name, h)))
    gens = []
    for g in basis:
        deg = g.total_degree()
        terms = {e + (deg - sum(e),): c for e, c in g.numerators().items()}
        gens.append(ring.from_numerators(terms, g.den))
    hbasis, _ = buchberger(Ideal(ring, gens))
    k = ring.index[name]
    return not any(b.lm()[k] for b in hbasis)


def radical_member(p, I):
    """Rabinowitsch test: p in rad(I) iff 1 in I + (1 - t p)."""
    p = p.cast(I.ring)
    t = _fresh_name(I.ring, "t_rab")
    ext = I.ring.extend([t])
    tv = ext.var(t)
    gens = [g.cast(ext) for g in I.generators]
    gens.append(ext.one() - tv * p.cast(ext))
    basis, _ = buchberger(Ideal(ext, gens))
    return len(basis) == 1 and basis[0] == ext.one()


def krull_dim(I):
    """Dimension of V(I) over Q via independent sets modulo leading terms."""
    basis = I.gb()
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

    found = {}

    def search(excluded, live):
        # live: the minimal supports disjoint from excluded, still in the
        # order of `minimal`, so the first is the least
        if not live:
            return n - len(excluded)
        got = found.get(excluded)
        if got is not None:
            return got
        best = -1
        for v in sorted(live[0]):
            best = max(best, search(excluded | {v}, [s for s in live if v not in s]))
        found[excluded] = best
        return best

    return search(frozenset(), minimal)


# --------------------------------------------------------- .ideal format

IDEAL_HEADER = "# lmlab-ideal v1"
# the orders an order line names, alone or as the two parts of a block order
_PLAIN_ORDERS = {order.name: order for order in (Lex(), GrevLex())}


def write_ideal_text(ideal):
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
    pk = _packing_for(ideal.ring, max((g.total_degree() for g in ideal.generators), default=0))
    for g in sorted(ideal.generators, key=lambda g: pk.monomial(g.lm())):
        lines.append("gen %s" % g)
    return "\n".join(lines) + "\n"


def read_ideal_text(text):
    """Parse `.ideal` text; a ParseError names the line and a column in it.

    Lines are numbered from 1 as they stand in the text, blank ones included.
    A header, ring or order error is at the column where the bad part starts
    (0-based); a `gen` error is at its column in the polynomial text.
    """
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != IDEAL_HEADER:
        first = lines[0][0] if lines else 1
        raise ParseError("line %d: missing `%s` header" % (first, IDEAL_HEADER), 0)
    if len(lines) < 3:
        raise ParseError("line %d: truncated ideal file" % (len(text.splitlines()) + 1), 0)
    (ring_no, ring_line), (order_no, order_line) = lines[1], lines[2]
    if not (ring_line.startswith("ring QQ [") and ring_line.endswith("]")):
        raise ParseError("line %d: malformed ring line: %r" % (ring_no, ring_line), 0)
    inner = ring_line[len("ring QQ [") : -1].strip()
    variables = [v.strip() for v in inner.split(",")] if inner else []
    if not order_line.startswith("order "):
        raise ParseError("line %d: malformed order line: %r" % (order_no, order_line), 0)
    spec = order_line[len("order ") :].lstrip()
    at = len(order_line) - len(spec)
    tokens = spec.split()
    if tokens[0] == "block":
        elim = tokens[1][1:-1].split(",") if len(tokens) == 4 else []
        if (
            len(tokens) != 4
            or not (tokens[1].startswith("[") and tokens[1].endswith("]"))
            or not set(tokens[2:]) <= _PLAIN_ORDERS.keys()
            or len(set(elim)) != len(elim) or not set(elim) <= set(variables)
        ):
            raise ParseError("line %d: malformed block order: %r" % (order_no, spec), at)
        order = Block(elim, _PLAIN_ORDERS[tokens[2]], _PLAIN_ORDERS[tokens[3]])
    elif tokens[0] in _PLAIN_ORDERS and len(tokens) == 1:
        order = _PLAIN_ORDERS[tokens[0]]
    else:
        raise ParseError("line %d: unknown order token: %r" % (order_no, spec), at)
    try:
        ring = PolyRing(variables, order)
    except PolyError as exc:
        raise ParseError("line %d: %s" % (ring_no, exc), 0) from exc
    gens = []
    for n, ln in lines[3:]:
        if not ln.startswith("gen "):
            raise ParseError("line %d: expected `gen` line, found %r" % (n, ln), 0)
        try:
            gens.append(parse_poly(ln[4:], ring))
        except (ParseError, UnknownVariableError) as exc:
            raise ParseError(
                "line %d, column %d: %s" % (n, exc.position + 1, exc.message),
                exc.position,
            ) from exc
    return Ideal(ring, gens)
