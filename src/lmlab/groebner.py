"""Buchberger-based ideal arithmetic over Q.

The engine works on the integer numerators that `Polynomial.terms` holds
(fraction-free reduction with periodic content normalization); a result is
built from numerators and a denominator by the `Polynomial` constructor.
Public results are monic polynomials with exact rational cofactor
certificates.

Packed monomials (Monagan & Pearce, CASC 2007).  Inside the engine each
exponent vector is one int: variable k occupies a field of w bits starting
at bit k w, and the total degree sits above all n fields, from bit n w.  The
top bit of every field is a guard that a packed monomial keeps clear, and
`guard` is the int with every guard bit set.  Then a product or a shift is
one `+` or `-`, the degree is `p >> n w`, and a divides b iff
`not (b - a) & guard`: a field of b below that of a borrows, which sets its
guard bit.  The lcm reads which field is larger off the guard bits of
`(a | guard) - b`.  The width w is 16 bits unless twice the largest degree of
the input does not fit below a guard; then it doubles until it does.  Every
reduction step and S-polynomial checks that the degree of the terms it makes
stays below 2^(w - 1); past that it raises PolyError, so no field ever wraps.
Exponent tuples are packed and unpacked only at the edges: the seeds of a
run, the reducers of a basis (`_divisors`), the polynomial that `_reduce`
reduces, and the polynomials that `BuchbergerRun.complete` and `_reduce`
return.  The monomial order is `_Engine.key`, the ring's key of the unpacked
vector, memoised on the packed int.

Pairs (Gebauer & Moeller, JSC 1988).  A pair (i, j), i < j, of basis
entries waits in a heap keyed by (sugar, i, j) and is selected smallest key
first, until no pair is left.  It stores its packed lcm when it is created.
When entry h joins:

- criterion B drops a waiting pair (i, j) if lt(h) divides lcm(i, j) and
  that lcm differs from lcm(i, h) and from lcm(j, h);
- criterion M drops the new pair (g, h) if another lcm(g', h) properly
  divides lcm(g, h); new pairs with equal lcms are all kept;
- the product criterion drops (g, h) if lt(g) and lt(h) are coprime.

Deadline.  Inside a `deadline(seconds)` block the Groebner operations
(`buchberger`, `reduce_poly` and everything built on them) share one budget,
counted from the block's start: once it is spent, the next deadline check
(before each S-pair, and every 256 steps of a reduction) raises GBTimeout and
the computation is abandoned.  A nested block can shorten the deadline but
never extend it, and leaving a block restores the previous one.  The suite
opens one block per named check and instance.

Reduction.  `reduce_poly` and the Buchberger loop share `_Engine.nf`, which
reduces numerators against (lt, lc, numerators, top degree) tuples.  The
first reducer in list order whose leading term passes the guard test is
used, and zero basis entries never reduce.  With cofactors tracked, nf keeps
M * P = sum(C_i B_i) + R on the numerators and never divides out content,
which would rescale M and every C_i.  Membership in an ideal is
`ideal_member(p, I)`, against the cached `I.gb()`, whose reducer tuples are
built once and cached beside it; `reduce_poly` on an explicit list is for
bases that are not an ideal's, such as a single divisor.

Basis cache.  Inside a `basis_cache()` block, `buchberger(ideal, order)`
keeps the result of every run, keyed by the ring with its order and the set
of the generators' primitive integer forms (numerators divided by their
content, signed so that the leading coefficient is positive): the reduced
basis is unique, so the generators' order, scaling and repetition do not
matter.  A run that times out is never stored, and leaving the block
restores the previous state.  The cache sits inside `buchberger` so that
`Ideal.gb`, `eliminate`, `intersect`, `radical_member` and `krull_dim` all
share it.  The suite opens one block per instance.

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
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
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
    _grevlex_positions,
)

__all__ = [
    "GBTimeout",
    "Ideal",
    "MembershipCertificate",
    "basis_cache",
    "buchberger",
    "deadline",
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


# ------------------------------------------------------ packed monomials

_STRUCT_CODES = {16: "H", 32: "I", 64: "Q"}  # widths struct packs
_MIN_WIDTH = 16  # bits per field unless the input needs wider ones


class _WideFields:
    """`struct.Struct`'s `pack` and `unpack_from` for widths without a code."""

    def __init__(self, nvars, nbytes):
        self.nvars, self.nbytes = nvars, nbytes

    def pack(self, *exps):
        return b"".join(x.to_bytes(self.nbytes, "little") for x in exps)

    def unpack_from(self, data):
        k = self.nbytes
        return tuple(int.from_bytes(data[i : i + k], "little") for i in range(0, self.nvars * k, k))


class _Packing:
    """Exponent vectors of one ring as ints (see the module docstring).

    Variable k occupies bits [k w, (k + 1) w) for the field width w, whose
    top bit is a guard that a packed monomial keeps clear, and the total
    degree sits above every field, from bit `nw`.  A ring without variables
    keeps one empty field, so that `guard` is never 0.
    """

    def __init__(self, nvars, degree):
        # twice the input's degree must fit below a guard bit
        width = _MIN_WIDTH
        while 2 * degree >= 1 << (width - 1):
            width *= 2
        fields = max(nvars, 1)
        self.width = width
        self.limit = (1 << (width - 1)) - 1  # largest degree a monomial may reach
        self.nw = fields * width
        self._all = (1 << self.nw) - 1  # every field
        self._ones = self._all // ((1 << width) - 1)  # bit 0 of each field
        self.guard = self._ones << (width - 1)
        self._nbytes = (fields + 1) * width // 8  # the fields and the degree
        code = _STRUCT_CODES.get(width)
        if code:
            self._fields = struct.Struct("<%d%s" % (nvars, code))
        else:
            self._fields = _WideFields(nvars, width // 8)

    def holds(self, degree):
        """True iff the width rule admits input of this degree."""
        return 2 * degree <= self.limit

    def overflow(self, degree):
        return PolyError(
            "degree %d overflows the %d-bit exponent fields" % (degree, self.width)
        )

    def monomial(self, e):
        return int.from_bytes(self._fields.pack(*e), "little") | sum(e) << self.nw

    def pack(self, terms):
        """{exponent tuple: c} -> {packed int: c}; `monomial` on each key."""
        enc, nw = self._fields.pack, self.nw
        return {int.from_bytes(enc(*e), "little") | sum(e) << nw: c for e, c in terms.items()}

    def unpack(self, terms):
        """{packed int: c} -> {exponent tuple: c}."""
        dec, nbytes = self._fields.unpack_from, self._nbytes
        return {dec(m.to_bytes(nbytes, "little")): c for m, c in terms.items()}

    def exponents(self, m):
        return self._fields.unpack_from(m.to_bytes(self._nbytes, "little"))

    def lcm(self, a, b):
        guard, width = self.guard, self.width
        m = ((a | guard) - b) & guard  # the guard of field k is set iff a_k >= b_k
        m -= m >> (width - 1)  # the value bits of those fields
        f = (a & m) | (b & (self._all ^ m))
        # the top field of f * ones sums the fields; the sum is below 2^width
        deg = (f * self._ones >> (self.nw - width)) & ((1 << width) - 1)
        return f | deg << self.nw


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


def _divisors(ring, basis, degree):
    """The packing of the basis and its (lt, lc, terms, top degree) reducers.

    The packing is chosen for the largest of `degree` and the degrees of the
    basis.  A zero entry gets the leading term `guard`, which fails the guard
    test against every monomial, so it never reduces.
    """
    pk = _Packing(ring.nvars, max([degree] + [b.total_degree() for b in basis]))
    out = []
    for b in basis:
        if b.is_zero:
            out.append((pk.guard, 0, {}, 0))
        else:
            terms = pk.pack(b.terms)
            lt = pk.monomial(b.lm())
            out.append((lt, terms[lt], terms, max(terms) >> pk.nw))
    return pk, out


class _Engine:
    """Order-key memo, packing and deadline checks for one computation."""

    def __init__(self, key_fn, packing):
        self.key_fn = key_fn
        self._packing = packing
        self.memo = {}
        self._tick = -1  # the first check reads the clock

    def key(self, m):
        got = self.memo.get(m)
        if got is None:
            got = self.memo[m] = self.key_fn(self._packing.exponents(m))
        return got

    def check_time(self, every=256):
        """Raise GBTimeout once the active deadline passed.

        The clock is read on the first call and then every `every` calls, so
        a short reduction on a fresh engine still looks at it.
        """
        self._tick += 1
        if _until is not None and self._tick % every == 0:
            until, seconds = _until
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
        """Normal form of a packed integer term dict against reducers.

        A reducer is (lt, lc, terms, top degree of its terms).  The first
        reducer in list order whose leading term divides the current term is
        used.  With `cofactors`, one dict per reducer, the loop also records
        the multipliers: it returns (result, M) with
        M * terms = sum(C_i * reducer_i) + result, and never removes content,
        which would have to rescale M and every C_i.
        """
        pk = self._packing
        guard, nw, limit = pk.guard, pk.nw, pk.limit
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
            for hit, red in enumerate(reducers):
                if not (best - red[0]) & guard:
                    break
            else:
                done.add(best)
                continue
            lte, ltc, td, top = red
            shift = best - lte
            top += shift >> nw
            if top > limit:
                raise pk.overflow(top)
            c = work[best]
            g0 = gcd(c, ltc)
            mw = ltc // g0
            mg = c // g0
            if mw != 1:
                for k2 in work:
                    work[k2] *= mw
            for ge, gc in td.items():
                ne = ge + shift
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

    def spoly(self, lcm, e1, c1, t1, e2, c2, t2):
        pk = self._packing
        nw = pk.nw
        s1 = lcm - e1
        s2 = lcm - e2
        # fields below 2^(width - 1) add without a carry, so the degree of a
        # sum is the sum of the degrees
        top = max((max(t1) + s1) >> nw, (max(t2) + s2) >> nw)
        if top > pk.limit:
            raise pk.overflow(top)
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

    `entries` lists every basis element found, as (lt, lc, terms, sugar) in
    packed form; `active` maps the index of each entry whose leading term no
    later entry divides to its (lt, lc, terms, top degree) reducer, in index
    order: the reducers of the next S-polynomial.
    """

    def __init__(self, ideal, order=None):
        ring = ideal.ring if order is None else ideal.ring.with_order(order)
        pk = _Packing(ring.nvars, max((g.total_degree() for g in ideal.generators), default=0))
        eng = _Engine(ring.exp_key, pk)
        seen = set()
        seeds = []
        for g in ideal.generators:
            # primitive, with a positive leading coefficient: the seeds, and
            # so the cache key, ignore how each generator is scaled
            terms = _primitive(pk.pack(g.terms))
            if terms[eng.lead(terms)] < 0:
                terms = {e: -v for e, v in terms.items()}
            fro = frozenset(terms.items())
            if fro in seen:
                continue
            seen.add(fro)
            seeds.append(terms)
        # seed deterministically, biggest leading term first
        seeds.sort(key=lambda t: eng.key(eng.lead(t)), reverse=True)
        self.ring = ring
        # the reduced basis depends on nothing else
        self.key = (ring, pk.width, frozenset(seen))
        self.eng = eng
        self._packing = pk
        self.entries = []
        self.active = {}
        self._seeds = seeds
        self._pairs = {}  # live pair (i, j) -> its packed lcm
        self._queue = []  # (sugar, i, j); pairs no longer live are skipped

    def complete(self):
        """Process every pair; return the reduced basis as monic polynomials."""
        eng, pk = self.eng, self._packing
        for terms in self._seeds:
            lt = eng.lead(terms)
            self._add((lt, terms[lt], terms, max(terms) >> pk.nw))
        f, pairs, queue = self.entries, self._pairs, self._queue
        while queue:
            sug, i, j = heapq.heappop(queue)
            lcm = pairs.pop((i, j), None)
            if lcm is None:
                continue
            eng.check_time(every=1)
            h = eng.spoly(lcm, *f[i][:3], *f[j][:3])
            h = h and eng.nf(h, self.active.values())
            if h:
                lt = eng.lead(h)
                self._add((lt, h[lt], h, sug))
        kept = _interreduce(self.active.values(), eng)
        return tuple(Polynomial(self.ring, pk.unpack(t), lc) for _, lc, t, _ in kept)

    def _add(self, entry):
        """Append an entry and apply the Gebauer-Moeller update for it."""
        f, pairs, pk = self.entries, self._pairs, self._packing
        guard, nw, lcm = pk.guard, pk.nw, pk.lcm
        ih = len(f)
        lt_h, lc_h, t_h, sug_h = entry
        d_h = lt_h >> nw
        f.append(entry)

        # criterion B: drop (i, j) if lt_h divides its lcm and differs from
        # the lcms of (i, h) and (j, h)
        dead = []
        for (i, j), l in pairs.items():
            if (l - lt_h) & guard:
                continue
            if lcm(f[i][0], lt_h) != l and lcm(f[j][0], lt_h) != l:
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
            l = lcm(lt_h, red[0])
            cands.append((l >> nw, ig, l, l == lt_h + red[0]))
        cands.sort()
        minimal = []
        queue = self._queue
        for dl, group in groupby(cands, key=itemgetter(0)):
            fresh = []
            for _, ig, l, coprime in group:
                if any(not (l - lm) & guard for lm in minimal):
                    continue
                fresh.append(l)
                if coprime:
                    continue
                sug = max(f[ig][3] + dl - (f[ig][0] >> nw), sug_h + dl - d_h)
                pairs[(ig, ih)] = l
                heapq.heappush(queue, (sug, ig, ih))
            minimal += fresh

        self.active = {
            ig: red for ig, red in self.active.items() if (red[0] - lt_h) & guard
        }
        self.active[ih] = (lt_h, lc_h, t_h, max(t_h) >> nw)


def _interreduce(reducers, eng):
    """Minimalize leading terms, then fully reduce tails; canonical order.

    Takes and returns (lt, lc, terms, top degree) reducers, in ascending
    order of leading term.  No kept leading term divides another, so
    reduction keeps every leading term, and one pass leaves each tail reduced
    against all of them.
    """
    guard, nw = eng._packing.guard, eng._packing.nw
    kept = []
    for red in sorted(reducers, key=lambda red: eng.key(red[0])):
        if all((red[0] - k[0]) & guard for k in kept):
            kept.append(red)
    for idx in range(len(kept)):
        lt = kept[idx][0]
        t = eng.nf(kept[idx][2], kept[:idx] + kept[idx + 1 :])
        kept[idx] = (lt, t[lt], t, max(t) >> nw)
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


def buchberger(ideal, order=None):
    """Reduced Groebner basis of the ideal under the given (or ring) order.

    Returns (tuple of monic polys, False).  Every run is complete, so the
    second value is always False; it stays because the benchmark tracer
    (`bench/tracer.py`) reads it.  Inside `basis_cache()` the basis is looked
    up by the ring and the set of the generators' primitive integer forms; a
    run that times out stores nothing.
    """
    run = BuchbergerRun(ideal, order)
    if _cache is None:
        return run.complete(), False
    got = _cache.get(run.key)
    if got is None:
        got = _cache[run.key] = run.complete()
    return got, False


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
    cof = [{} for _ in basis]
    # tracked fraction-free reduction of the numerators: M * P = sum(C_i B_i)
    # + R with p = P / den(p) and b_i = B_i / den(b_i), so the cofactor of
    # b_i is C_i den(b_i) / (M den(p)) and the residue R / (M den(p))
    work, M = _Engine(ring.exp_key, pk).nf(pk.pack(p.terms), reducers, cof)
    den = M * p.den
    cofactors = tuple(
        Polynomial(ring, {e: v * b.den for e, v in pk.unpack(cd).items()}, den)
        for cd, b in zip(cof, basis)
    )
    residue = Polynomial(ring, pk.unpack(work), den)
    return residue, MembershipCertificate(basis, cofactors, residue)


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
            for g in self.generators:
                r, _ = _reduce(g, basis, divisors)
                if not r.is_zero:
                    raise PolyError("internal error: generator fails to reduce")
            self._gb, self._divisors = basis, divisors
        return self._gb

    def __repr__(self):
        return "Ideal(%d gens in QQ[%s])" % (
            len(self.generators),
            ", ".join(self.ring.variables),
        )


def ideal_member(p, ideal):
    """Membership via normal form against the cached reduced GB."""
    basis = ideal.gb()
    residue, cert = _reduce(p.cast(ideal.ring), basis, ideal._divisors)
    return residue.is_zero, cert


def ideal_contains(big, small):
    """True iff every generator of `small` lies in `big`."""
    basis = big.gb()
    for g in small.generators:
        r, _ = _reduce(g.cast(big.ring), basis, big._divisors)
        if not r.is_zero:
            return False
    return True


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


def is_nonzerodivisor(I, v):
    """True iff the variable v is a nonzerodivisor on R/I.

    Decided from the leading monomials of the complete reduced basis of the
    homogenization I^h, without an ideal quotient; the module docstring
    gives the argument.
    """
    v = v.cast(I.ring)
    if len(v.terms) != 1 or v.total_degree() != 1 or v.lc() != 1:
        raise PolyError("nonzerodivisor test needs a variable, got %s" % v)
    (name,) = v.variables_used()
    basis = _basis_under(I, GrevLex())
    h = _fresh_name(I.ring, "h")
    ring = PolyRing(I.ring.variables + (h,), _RevLexLast((name, h)))
    gens = []
    for g in basis:
        deg = g.total_degree()
        gens.append(
            Polynomial(ring, {e + (deg - sum(e),): c for e, c in g.terms.items()}, g.den)
        )
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
    key = ideal.ring.exp_key
    for g in sorted(ideal.generators, key=lambda g: key(g.lm())):
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
