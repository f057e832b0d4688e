"""Sparse multivariate polynomials over Q with exact arbitrary-precision arithmetic.

A polynomial is integer numerators over one common denominator: `terms` maps
each monomial, as one int, its order word, to a nonzero int, and `den` is a
positive int sharing no factor with all of them; the zero polynomial has
den 1.  That form is canonical, so equal polynomials have equal `terms` and
`den`, and all arithmetic runs on ints.  `coefficient`, `lc` and
`sorted_terms` give the coefficients as `fractions.Fraction`;
`numerators` gives the numerators by exponent tuple, and
`PolyRing.from_numerators` builds a polynomial from them.  All values are
immutable after construction and safe to share.

Order words (Monagan & Pearce, CASC 2007).  A `_Packing` stores each
monomial of a list of variables as one int whose integer order is a
monomial order; its docstring gives the layout.  The words of a polynomial
are graded reverse lex words of its ring's variables, whatever the ring's
order, in `packing`: 16-bit fields unless twice its degree does not fit
below a guard bit, then the width doubles until it does (`_width`), the
Groebner engine's rule.  So the engine takes `terms` as they are on a
grevlex ring, and the width is fixed by the degree: equal polynomials have
equal words, and `==` and `hash` compare words without decoding them.  A
product of larger degree than its factors' fields hold is formed in wider
ones, a sum or a derivative whose degree drops gets narrower ones, and no
field ever wraps.  Rings that differ only in their order share their
words, so `cast` between them reuses `terms`.  The top field of a grevlex
word is the total degree, so the largest word is the grevlex leading term
and has the largest degree (`total_degree`).  A ring under another order
sorts the words by those of its own order (`lm`, `sorted_terms`).

A product adds words: the word of m1 m2 is w1 + w2 - one, with one the word
of the monomial 1.  Two single terms of one ring and packing multiply
first, with no other test, when twice their degree fits the fields.  When
one factor is a single term, the product is one dict comprehension: a
monomial maps distinct words to distinct words and nonzero ints have
nonzero products, so no term collides or cancels.  Sums and differences
share one merge loop, which forms no common denominator when both are 1.
`derivative` and `variables_used` read the variable fields in place;
printing, `numerators`, `cast` to other variables and `RingMap.apply`
decode words to exponent tuples.
`PolyRing.point` normalises a rational point once, to a common denominator
and integer numerators; `Polynomial.at` evaluates at it in integers,
decoding the polynomial on its first call only, so many polynomials can
share one point, and `evaluate` is `at` of the point of its dict.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import attrgetter, itemgetter

__all__ = [
    "PolyError",
    "ParseError",
    "UnknownVariableError",
    "Lex",
    "GrevLex",
    "Block",
    "PolyRing",
    "Polynomial",
    "RingMap",
    "parse_poly",
    "jacobian",
    "minors",
]

BASE_VARIABLE = "pi"


class PolyError(Exception):
    pass


class ParseError(PolyError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.message, self.position = message, position


class UnknownVariableError(PolyError):
    def __init__(self, name, position=None):
        self.message = "unknown variable %r" % name
        at = "" if position is None else " (at position %d)" % position
        super().__init__(self.message + at)
        self.name, self.position = name, position


# ----------------------------------------------------------------- orders


def _grevlex_positions(variables):
    # The base variable `pi` always carries the least grevlex weight, i.e. it
    # is compared last no matter where it sits in the display order.
    main = [i for i, v in enumerate(variables) if v != BASE_VARIABLE]
    tail = [i for i, v in enumerate(variables) if v == BASE_VARIABLE]
    return tuple(reversed(main + tail))


class Lex:
    """Lexicographic order on the ring's listed variables, first is biggest."""

    name = "lex"

    def word_groups(self, variables):
        """The layout of this order's words (see `_Packing`).

        A tuple of (graded, positions) groups, most significant first: a
        graded group stores its degree, then M - x for each position, and
        an ungraded one x for each position.  Lex is one ungraded group in
        ring order.
        """
        return ((False, tuple(range(len(variables)))),)

    def __eq__(self, other):
        return isinstance(other, Lex)

    def __hash__(self):
        return hash("lex")

    def __repr__(self):
        return "lex"


class GrevLex:
    """Graded reverse lexicographic order; `pi` is weighted last."""

    name = "grevlex"

    def word_groups(self, variables):
        """One graded group, the variables from the smallest up (grevlex is
        lex on (deg, -x_n, ..., -x_1)), so pi first (see `Lex.word_groups`)."""
        return ((True, _grevlex_positions(variables)),)

    def __eq__(self, other):
        return isinstance(other, GrevLex)

    def __hash__(self):
        return hash("grevlex")

    def __repr__(self):
        return "grevlex"


class Block:
    """Elimination order: compare on the eliminated block first.

    A monomial containing an eliminated variable beats every monomial free of
    them, so leading terms certify membership in the subring.
    """

    name = "block"

    def __init__(self, eliminated, order1=None, order2=None):
        self.eliminated = tuple(eliminated)
        self.order1 = order1 or GrevLex()
        self.order2 = order2 or GrevLex()

    def word_groups(self, variables):
        """The groups of the order on the eliminated variables, then those of
        the order on the others (see `Lex.word_groups`)."""
        elim = set(self.eliminated)
        out = ()
        for order, inside in ((self.order1, True), (self.order2, False)):
            pos = tuple(i for i, v in enumerate(variables) if (v in elim) == inside)
            groups = order.word_groups(tuple(variables[i] for i in pos))
            out += tuple((graded, tuple(pos[p] for p in g)) for graded, g in groups)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Block)
            and self.eliminated == other.eliminated
            and self.order1 == other.order1
            and self.order2 == other.order2
        )

    def __hash__(self):
        return hash(("block", self.eliminated, self.order1, self.order2))

    def __repr__(self):
        return "block [%s] %r %r" % (
            ",".join(self.eliminated),
            self.order1,
            self.order2,
        )


# ------------------------------------------------------------- order words

_STRUCT_CODES = {16: "H", 32: "I", 64: "Q"}  # widths struct packs
_MIN_WIDTH = 16  # bits per field unless the degree needs wider ones


def _width(degree, least=_MIN_WIDTH):
    """The field width for monomials of this degree: `least` bits unless
    twice the degree does not fit below a guard bit; then it doubles until
    it does."""
    width = least
    while 2 * degree >= 1 << (width - 1):
        width *= 2
    return width


class _WideFields:
    """`struct.Struct`'s `pack` and `unpack_from` for widths without a code."""

    def __init__(self, nfields, nbytes):
        self.nfields, self.nbytes = nfields, nbytes

    def pack(self, *fields):
        return b"".join(x.to_bytes(self.nbytes, "little") for x in fields)

    def unpack_from(self, data):
        k = self.nbytes
        return tuple(int.from_bytes(data[i : i + k], "little") for i in range(0, self.nfields * k, k))


def _getter(indices):
    """`itemgetter(*indices)`, returning a tuple also for one or no index."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda t: (t[i],)
    return lambda t: ()


class _Packing:
    """The order words of one list of variables under one order and width.

    The fields, w bits each, hold from the most significant down: for each
    word group of the order (`word_groups`) its degree and then M - x (a
    graded group) or just x (an ungraded one) for its variables, in the
    group's order; last, in the lowest field, the total degree.  The top bit
    of each field is a guard bit that a monomial keeps clear, and
    M = 2^(w - 1) - 1 fills the rest, so M - x is `M ^ x`, and XOR with
    `flip` (M in every complemented field) undoes the complements.  The
    degree fields cannot change the order, since the fields of the
    variables decide every comparison of distinct monomials.  A product is
    one addition less the word of the monomial 1 (`one`, which is `flip`).
    The exponent word of an order word undoes the complements and keeps
    only the variable fields and the total degree; the Groebner engine reads
    divisibility and lcms off exponent words.  Exponent tuples are packed
    with `struct` and `itemgetter`, the group degrees summed.
    """

    def __init__(self, variables, order, width):
        n = len(variables)
        self.key = (variables, order, width)
        groups = order.word_groups(variables)
        # each field, most significant first, as an index into the exponent
        # tuple extended by the degrees of the groups short of the whole ring
        # and by the total degree, and whether it holds M - x
        proper = [pos for graded, pos in groups if graded and len(pos) < n]
        total = n + len(proper)
        picks, flipped = [], []
        for graded, pos in groups:
            if graded:
                picks.append(n + proper.index(pos) if len(pos) < n else total)
                flipped.append(False)
            picks += pos
            flipped += [graded] * len(pos)
        picks.append(total)
        flipped.append(False)
        nfields = len(picks)
        code = _STRUCT_CODES.get(width)
        if code:
            fields = struct.Struct("<%d%s" % (nfields, code))
        else:
            fields = _WideFields(nfields, width // 8)
        self._enc, self._dec = fields.pack, fields.unpack_from
        # struct reads the fields least significant first
        lsb = picks[::-1]
        self._pick = _getter(lsb)
        slot = {k: i for i, k in enumerate(lsb)}
        self._vars = _getter(tuple(slot[k] for k in range(n)))

        def mask(values):  # the word with these values in its fields
            return int.from_bytes(fields.pack(*values), "little")

        variable = [k < n for k in lsb]
        value = (1 << width) - 1
        self.width = width
        self.limit = (1 << (width - 1)) - 1  # largest degree a monomial may reach
        self.dmask = value  # the total degree, in the lowest field
        self.shifts = tuple(slot[k] * width for k in range(n))  # of each variable's field
        self.flip = mask([self.limit if f else 0 for f in flipped[::-1]])
        self.one = self.flip  # the word of the monomial 1
        self.vmask = mask([value if v else 0 for v in variable])
        self.emask = self.vmask | value
        # the guard bits of the variable fields and a bit above every field:
        # `never`, the exponent word of a zero entry, sets that bit in
        # `e - never` for every exponent word e, so it divides nothing
        self.never = 1 << nfields * width
        self.guard = mask([self.limit + 1 if v else 0 for v in variable]) | self.never
        self._ones = mask([1] * nfields)  # bit 0 of each field
        self._top = (nfields - 1) * width
        self._nbytes = nfields * width // 8
        if proper:
            sums = [_getter(pos) for pos in proper]
            self._extend = lambda e: e + tuple([sum(g(e)) for g in sums]) + (sum(e),)
        else:
            self._extend = lambda e: e + (sum(e),)
        # each graded group's variable fields, and the shift of its degree field
        self._groups = [
            (
                mask([value if k in pos else 0 for k in lsb]),
                slot[n + proper.index(pos) if len(pos) < n else total] * width,
            )
            for graded, pos in groups
            if graded
        ]

    def holds(self, degree):
        """True iff the engine's width rule admits input of this degree
        (see `groebner._packing_for`)."""
        return 2 * degree <= self.limit

    def overflow(self, degree):
        return PolyError(
            "degree %d overflows the %d-bit exponent fields" % (degree, self.width)
        )

    def monomial(self, e):
        """The order word of an exponent tuple."""
        return int.from_bytes(self._enc(*self._pick(self._extend(e))), "little") ^ self.flip

    def pack(self, terms):
        """{exponent tuple: c} -> {order word: c}; `monomial` on each key.

        A monomial of degree past `limit` raises PolyError.
        """
        top = max(map(sum, terms), default=0)
        if top > self.limit:
            raise self.overflow(top)
        enc, pick, extend, flip = self._enc, self._pick, self._extend, self.flip
        return {
            int.from_bytes(enc(*pick(extend(e))), "little") ^ flip: c for e, c in terms.items()
        }

    def unpack(self, terms):
        """{order word: c} -> {exponent tuple: c}."""
        dec, get, flip, nbytes = self._dec, self._vars, self.flip, self._nbytes
        return {get(dec((m ^ flip).to_bytes(nbytes, "little"))): c for m, c in terms.items()}

    def exponents(self, m):
        """The exponent tuple of an order word."""
        return self._vars(self._dec((m ^ self.flip).to_bytes(self._nbytes, "little")))

    def convert(self, terms, other):
        """{order word: c} -> the same terms in the words of `other`, a
        packing of the same variables; a degree past its `limit` raises
        PolyError.  The dict itself when the layouts are equal."""
        if other is self or other.key == self.key:
            return terms
        top = max(map(self.dmask.__and__, terms), default=0)
        if top > other.limit:
            raise other.overflow(top)
        dec, get, flip, nbytes = self._dec, self._vars, self.flip, self._nbytes
        enc, pick, extend, oflip = other._enc, other._pick, other._extend, other.flip
        return {
            int.from_bytes(enc(*pick(extend(get(dec((m ^ flip).to_bytes(nbytes, "little")))))), "little")
            ^ oflip: c
            for m, c in terms.items()
        }

    def exponent_word(self, m):
        """The exponent word of an order word: x in each variable field, the
        total degree in the lowest field, every other field 0."""
        return (m ^ self.flip) & self.emask

    def order_word(self, x):
        """The order word of an exponent word: the group degrees filled in.

        A group's degree is the sum of its variable fields, read off the top
        field of their product with `_ones` as in `lcm`.
        """
        ones, top, dm = self._ones, self._top, self.dmask
        for gmask, shift in self._groups:
            x |= ((x & gmask) * ones >> top & dm) << shift
        return x ^ self.flip

    def lcm(self, a, b):
        """The lcm of two exponent words, as an exponent word."""
        guard, width = self.guard, self.width
        m = ((a | guard) - b) & guard & self.vmask  # the guard of field k is set iff a_k >= b_k
        m -= m >> (width - 1)  # the value bits of those fields
        f = (a & m) | (b & (self.vmask ^ m))
        # the top field of f * ones sums the fields; the sum is below 2^width
        return f | (f * self._ones >> self._top) & self.dmask


# a packing holds nothing but its layout, so the recent ones are shared
_packing = lru_cache(maxsize=1024)(_Packing)


# ------------------------------------------------------------------ rings


class PolyRing:
    """A polynomial ring over Q: an ordered variable list plus monomial order.

    `packing`, built on first use, holds the words of the ring's
    polynomials up to degree 2^14 - 1: graded reverse lex on its variables,
    16-bit fields, whatever the order.  A polynomial of larger degree has
    the words of `packing_for` its degree.
    """

    __slots__ = ("variables", "order", "index", "_hash", "packing")

    def __init__(self, variables, order=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PolyError("duplicate variable names: %r" % (variables,))
        for v in variables:
            if not v or not (v[0].isalpha()) or not all(
                c.isalnum() or c == "_" for c in v
            ):
                raise PolyError("invalid variable name %r" % v)
        self.variables = variables
        self.order = order if order is not None else GrevLex()
        self.index = {v: i for i, v in enumerate(variables)}
        self._hash = hash((variables, self.order))

    def __getattr__(self, name):
        # called only while the slot is empty: build it on first use
        if name != "packing":
            raise AttributeError(name)
        self.packing = _packing(self.variables, GrevLex(), _MIN_WIDTH)
        return self.packing

    def packing_for(self, degree):
        """The packing of the ring's polynomials of this total degree:
        `packing` unless twice the degree passes its limit, else the grevlex
        packing as wide as `_width` says."""
        pk = self.packing
        if 2 * degree <= pk.limit:
            return pk
        return _packing(self.variables, GrevLex(), _width(degree))

    def _sort_key(self, pk):
        """None under grevlex, where the words of pk sort in the ring order;
        else the key that maps them to the words of the ring's order."""
        if isinstance(self.order, GrevLex):
            return None
        own = _packing(self.variables, self.order, pk.width)
        return lambda m: own.monomial(pk.exponents(m))

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Polynomial(self, {}, 1)

    def one(self):
        return Polynomial(self, {self.packing.one: 1}, 1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {self.packing.one: c.numerator}, c.denominator)

    def var(self, name):
        if name not in self.index:
            raise UnknownVariableError(name)
        pk = self.packing
        # one more in both degree fields, the top and the lowest, and one
        # less in the field M - x of the variable
        word = pk.one + (1 << pk._top) + 1 - (1 << pk.shifts[self.index[name]])
        return Polynomial(self, {word: 1}, 1)

    def from_numerators(self, numerators, den=1):
        """The polynomial of a dict from exponent tuple to nonzero int numerator,
        over the denominator `den`."""
        pk = self.packing_for(max(map(sum, numerators), default=0))
        return Polynomial(self, pk.pack(numerators), den, pk)

    def poly(self, terms):
        """The polynomial of a dict from exponent to rational coefficient."""
        coeffs = {tuple(exp): Fraction(c) for exp, c in terms.items()}
        den = lcm(*(c.denominator for c in coeffs.values()))
        return self.from_numerators(
            {e: c.numerator * (den // c.denominator) for e, c in coeffs.items() if c}, den
        )

    def point(self, assignment):
        """A rational point, given as a dict from variable name, normalised once
        for `Polynomial.at`: the common denominator of its coordinates and
        their integer numerators over it, in ring order."""
        vals = []
        for v in self.variables:
            if v not in assignment:
                raise UnknownVariableError(v)
            vals.append(Fraction(assignment[v]))
        den = lcm(*(q.denominator for q in vals))
        return den, [q.numerator * (den // q.denominator) for q in vals]

    def renaming(self, target, names):
        """The isomorphism onto `target` that renames each variable v to
        names[v], as a function on polynomials; None unless `names` maps the
        variables one to one onto those of `target`.  The words of both are
        grevlex words of as many variables, so it moves their fields as they
        are, complements and degrees included, and decodes no monomial.
        """
        images = [names.get(v) for v in self.variables]
        if set(images) != set(target.variables) or len(images) != target.nvars:
            return None
        at = {v: i for i, v in enumerate(images)}
        movers = {}  # width -> (target packing, the field permutation)

        def rename(f):
            if f.ring != self:
                raise PolyError("polynomial not in the renamed ring")
            pk, w = f.packing, f.packing.width
            if w not in movers:
                to = _packing(target.variables, GrevLex(), w)
                perm = list(range(pk._nbytes * 8 // w))
                for k, v in enumerate(target.variables):
                    perm[to.shifts[k] // w] = pk.shifts[at[v]] // w
                movers[w] = to, _getter(perm)
            to, get = movers[w]
            dec, enc, n = pk._dec, to._enc, pk._nbytes
            terms = {int.from_bytes(enc(*get(dec(m.to_bytes(n, "little")))), "little"): c
                     for m, c in f.terms.items()}
            return Polynomial(target, terms, f.den, to)

        return rename

    def with_order(self, order):
        if order == self.order:
            return self
        return PolyRing(self.variables, order)

    def extend(self, new_variables):
        return PolyRing(self.variables + tuple(new_variables), self.order)

    def restrict(self, keep):
        kept = tuple(v for v in self.variables if v in set(keep))
        return PolyRing(kept, GrevLex())

    def __eq__(self, other):
        # most comparisons are of a ring with itself: no variable is compared
        return self is other or (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PolyRing(QQ[%s], %r)" % (", ".join(self.variables), self.order)


# ------------------------------------------------------------ polynomials


class Polynomial:
    """Immutable sparse polynomial: integer numerators `terms` over `den`.

    The constructor makes the pair canonical (den > 0, no common factor of
    den and all numerators, den 1 for zero); `terms` must map the word of
    each monomial in `packing` to a nonzero int, and `den` must be a
    nonzero int.  `packing` is any packing of the ring's variables, of any
    order and width, `ring.packing` if None; words in any other than
    `ring.packing_for` their degree are converted into it, so that equal
    polynomials have equal words.
    """

    __slots__ = ("ring", "terms", "den", "packing", "_st", "_num", "_factors")

    def __init__(self, ring, terms, den, packing=None):
        if den != 1:
            g = gcd(den, *terms.values())
            if den < 0:
                g = -g
            if g != 1:
                terms = {e: v // g for e, v in terms.items()}
                den //= g
        if packing is None:
            packing = ring.packing
        elif packing is not ring.packing:
            # under a block order or _RevLexLast the largest word need not
            # have the largest degree
            own = ring.packing_for(max(map(packing.dmask.__and__, terms), default=0))
            if own is not packing:
                terms, packing = packing.convert(terms, own), own
        self.ring = ring
        self.terms = terms
        self.den = den
        self.packing = packing
        self._st = None
        self._num = None
        self._factors = None

    # -- basic structure

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        # zero is falsy, as for int and Fraction
        return bool(self.terms)

    def _sorted_words(self):
        if self._st is None:
            key = self.ring._sort_key(self.packing)
            self._st = sorted(self.terms, key=key, reverse=True)
        return self._st

    def _lead(self):
        """The word of the leading term."""
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        key = self.ring._sort_key(self.packing)
        return max(self.terms) if key is None else max(self.terms, key=key)

    def numerators(self):
        """The numerators over `den` by exponent tuple.

        The terms are decoded on the first call and the dict is kept, and
        shared, for the next: it must not be changed.
        """
        if self._num is None:
            self._num = self.packing.unpack(self.terms)
        return self._num

    def sorted_terms(self):
        """(exponent, Fraction coefficient) pairs in descending ring order."""
        terms, den, exponents = self.terms, self.den, self.packing.exponents
        return [(exponents(m), Fraction(terms[m], den)) for m in self._sorted_words()]

    def lm(self):
        return self.packing.exponents(self._lead())

    def lc(self):
        return Fraction(self.terms[self._lead()], self.den)

    def total_degree(self):
        # the largest word, the grevlex leading term, has the largest degree
        if not self.terms:
            return -1
        return max(self.terms) & self.packing.dmask

    def coefficient(self, exp):
        return Fraction(self.numerators().get(tuple(exp), 0), self.den)

    def variables_used(self):
        pk = self.packing
        flip, dm = pk.flip, pk.dmask
        seen = 0  # a variable's field is nonzero here iff some term has it
        for m in self.terms:
            seen |= m ^ flip
        return {v for v, s in zip(self.ring.variables, pk.shifts) if seen >> s & dm}

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise PolyError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def _merge(self, other, sign):
        """self + sign * other, for sign 1 or -1.

        The numerators of the summand with more terms are copied, scaled to
        the common denominator, and those of the other are added into them,
        in the words of the wider packing of the two.
        """
        if other.__class__ is not Polynomial or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        pk = self.packing
        big, small = self.terms, other.terms
        if other.packing is not pk:
            if other.packing.width > pk.width:
                pk = other.packing
            big, small = self.packing.convert(big, pk), other.packing.convert(small, pk)
        if self.den == 1 == other.den:
            den, mb, ms = 1, 1, sign
        else:
            den = lcm(self.den, other.den)
            mb, ms = den // self.den, sign * (den // other.den)
        if len(big) < len(small):
            big, mb, small, ms = small, ms, big, mb
        out = {e: v * mb for e, v in big.items()} if mb != 1 else dict(big)
        for exp, c in small.items():
            c *= ms
            s = out.get(exp)
            if s is None:
                out[exp] = c
            else:
                s += c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return Polynomial(self.ring, out, den, pk)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.ring, {e: -c for e, c in self.terms.items()}, self.den, self.packing
        )

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if (
            other.__class__ is Polynomial
            and len(self.terms) == 1 == len(other.terms)
            and other.ring is self.ring
            and other.packing is self.packing
        ):
            # two monomials, as in every product of the naive relations on
            # variables: one word sum, when twice its degree fits the fields
            ((w1, c1),) = self.terms.items()
            ((w2, c2),) = other.terms.items()
            pk = self.packing
            if 2 * ((w1 & pk.dmask) + (w2 & pk.dmask)) <= pk.limit:
                return Polynomial(self.ring, {w1 + w2 - pk.one: c1 * c2}, self.den * other.den, pk)
        # a Polynomial is tested first: isinstance against Fraction goes
        # through its ABC machinery
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self.ring.zero()
            n = other.numerator
            return Polynomial(
                self.ring,
                {e: k * n for e, k in self.terms.items()},
                self.den * other.denominator,
                self.packing,
            )
        if other.ring is not self.ring and other.ring != self.ring:
            raise PolyError("ring mismatch")
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero()
        pk = self.packing
        dm = pk.dmask
        # a word's lowest field is its degree, and the largest word, the
        # grevlex leading term, has the largest; the degree of a product is
        # the sum of the degrees
        top = (max(a) & dm) + (max(b) & dm)
        if other.packing is not pk or 2 * top > pk.limit:
            # mixed widths, or a product too large for these fields, which
            # must never wrap: both factors in the product's own packing
            pk = self.ring.packing_for(self.total_degree() + other.total_degree())
            a, b = self.packing.convert(a, pk), other.packing.convert(b, pk)
        one = pk.one
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial times b: distinct words stay distinct and nonzero
            # numerators have nonzero products, so nothing collides or cancels
            ((w1, c1),) = a.items()
            w1 -= one
            if len(b) == 1:
                ((w2, c2),) = b.items()
                out = {w1 + w2: c1 * c2}
            else:
                out = {w1 + w2: c1 * c2 for w2, c2 in b.items()}
            return Polynomial(self.ring, out, self.den * other.den, pk)
        out = {}
        for w1, c1 in a.items():
            w1 -= one
            for w2, c2 in b.items():
                w = w1 + w2
                s = out.get(w)
                if s is None:
                    out[w] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[w] = s
                    else:
                        del out[w]
        return Polynomial(self.ring, out, self.den * other.den, pk)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a natural number")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self):
        if self.is_zero:
            return self
        # (terms / den) / (terms[lm] / den) = terms / terms[lm]
        return Polynomial(self.ring, self.terms, self.terms[self._lead()], self.packing)

    # -- calculus and evaluation

    def derivative(self, varname):
        i = self.ring.index.get(varname)
        if i is None:
            raise UnknownVariableError(varname)
        pk = self.packing
        shift, limit, dm = pk.shifts[i], pk.limit, pk.dmask
        # x_i - 1 raises its field M - x_i by one; both degree fields, the
        # top and the lowest, drop by one
        step = (1 << shift) - (1 << pk._top) - 1
        # distinct monomials with x_i > 0 have distinct derivatives
        out = {}
        for m, c in self.terms.items():
            e = (m >> shift & dm) ^ limit
            if e:
                out[m + step] = c * e
        return Polynomial(self.ring, out, self.den, pk)

    def evaluate(self, assignment):
        """Evaluate at a rational point given as a dict from variable name."""
        return self.at(self.ring.point(assignment))

    def at(self, point):
        """The value, a Fraction, at a point made by `self.ring.point`.

        The sum is taken in integers over the point's common denominator;
        each term is brought to the top degree by powers of that denominator,
        and one Fraction is built at the end.  The terms are decoded on the
        first call, to (numerator, degree, (index, exponent) of each
        variable in it), and kept for the next: the oracle evaluates the
        trace form at each of its samples.
        """
        factors = self._factors
        if factors is None:
            factors = self._factors = [
                (c, sum(e), tuple((i, k) for i, k in enumerate(e) if k))
                for e, c in self.numerators().items()
            ]
        den, nums = point
        top = max(self.total_degree(), 0)
        den_pow = [den**k for k in range(top + 1)]
        total = 0
        for t, deg, used in factors:
            for i, k in used:
                t *= nums[i] ** k
            total += t * den_pow[top - deg]
        return Fraction(total, self.den * den_pow[top])

    def cast(self, ring):
        """Re-express in a ring containing all used variables (by name)."""
        if ring == self.ring:
            return self
        if ring.variables == self.ring.variables:
            # only the order differs: the words stay as they are
            return Polynomial(ring, self.terms, self.den, self.packing)
        pos = []
        for v in self.ring.variables:
            pos.append(ring.index.get(v, -1))
        out = {}
        for exp, c in self.numerators().items():
            nexp = [0] * ring.nvars
            for i, e in enumerate(exp):
                if e:
                    if pos[i] < 0:
                        raise UnknownVariableError(self.ring.variables[i])
                    nexp[pos[i]] = e
            out[tuple(nexp)] = c
        return ring.from_numerators(out, self.den)

    # -- comparisons and printing

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = self.ring.const(other)
            else:
                return NotImplemented
        # rings of the same variables share their words, and the packing of
        # a polynomial is fixed by its degree
        return (
            self.ring.variables == other.ring.variables
            and self.den == other.den
            and self.packing.width == other.packing.width
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.variables, self.den, frozenset(self.terms.items())))

    def __str__(self):
        if self.is_zero:
            return "0"
        pieces = []
        for exp, c in self.sorted_terms():
            mono = monomial_str(self.ring, exp)
            a = abs(c)
            if mono == "1":
                body = coeff_str(a)
            elif a == 1:
                body = mono
            else:
                body = "%s*%s" % (coeff_str(a), mono)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "<%s>" % self


def coeff_str(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def monomial_str(ring, exp):
    parts = []
    for v, e in zip(ring.variables, exp):
        if e == 1:
            parts.append(v)
        elif e:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts) if parts else "1"


# ----------------------------------------------------------------- parser

_TOKEN_OPS = set("+-*^()/")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % c, i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text, ring):
        self.toks = _tokenize(text)
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1] or "end"), tok[2])
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2])
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self):
        # factor := '-' factor | atom ['^' int]: a leading minus binds looser
        # than '^', so -x^2 is -(x^2)
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        p = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            p = p**int(tok[1])
        return p

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            num = int(tok[1])
            # rational literal extension: integer '/' natural
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int")
                if not int(den[1]):
                    raise ParseError("zero denominator", den[2])
                return self.ring.const(Fraction(num, int(den[1])))
            return self.ring.const(num)
        if tok[0] == "ident":
            self.take()
            if tok[1] not in self.ring.index:
                raise UnknownVariableError(tok[1], tok[2])
            return self.ring.var(tok[1])
        if tok[0] == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        raise ParseError("expected a term, found %r" % (tok[1] or "end"), tok[2])


def parse_poly(text, ring):
    """Parse an expression into canonical sparse form; printing round-trips."""
    return _Parser(text, ring).parse()


# --------------------------------------------------------------- matrices
# A matrix is a list of rows, of polynomials or, where a caller evaluates at a
# point, of ints.


def _det(m, rows, cols):
    # cofactor expansion along the first row, ending at a d - b c; fine at
    # chart scale.  The sum starts from an entry times 0, so int rows work
    # too; an entry or a sub-determinant that is zero adds no term
    r0 = m[rows[0]]
    if len(rows) == 1:
        return r0[cols[0]]
    if len(rows) == 2:
        # a product with a zero factor is not formed; with both skipped the
        # minor is an entry times 0: the int 0, or the ring's zero
        r1 = m[rows[1]]
        a, b, c, d = r0[cols[0]], r0[cols[1]], r1[cols[0]], r1[cols[1]]
        if b and c:
            return a * d - b * c if a and d else -(b * c)
        return a * d if a and d else a * 0
    acc = r0[cols[0]] * 0
    rest = rows[1:]
    for k, c in enumerate(cols):
        e = r0[c]
        if not e:
            continue
        sub = _det(m, rest, cols[:k] + cols[k + 1 :])
        if not sub:
            continue
        term = e * sub
        acc = acc + (term if k % 2 == 0 else -term)
    return acc


def minors(m, k):
    """All k x k minors of the rows m, row-index lexicographic then
    column-index lexicographic; none when k exceeds either side.

    The 2 x 2 minors are formed here, over each pair of rows, as `_det`
    forms them."""
    if k < 1:
        raise PolyError("minor size out of range")
    if k == 2:
        cols = list(combinations(range(len(m[0]) if m else 0), 2))
        out = []
        for r0, r1 in combinations(m, 2):
            for i, j in cols:
                a, b, c, d = r0[i], r0[j], r1[i], r1[j]
                if b and c:
                    out.append(a * d - b * c if a and d else -(b * c))
                else:
                    out.append(a * d if a and d else a * 0)
        return out
    return [
        _det(m, rs, cs)
        for rs in combinations(range(len(m)), k)
        for cs in combinations(range(len(m[0])), k)
    ]


def jacobian(polys, variables):
    """Rows of formal partials, entry (i, j) = d polys[i] / d variables[j]."""
    polys = list(polys)
    variables = list(variables)
    if not polys or not variables:
        raise PolyError("jacobian needs at least one polynomial and one variable")
    ring = polys[0].ring
    for v in variables:
        if v not in ring.index:
            raise UnknownVariableError(v)
    return [[p.derivative(v) for v in variables] for p in polys]


# ------------------------------------------------------------- ring maps


class RingMap:
    """A Q-algebra homomorphism determined by per-variable images."""

    __slots__ = ("source", "target", "images", "_powers")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = dict(images)
        for name, img in self.images.items():
            if name not in source.index:
                raise UnknownVariableError(name)
            if img.ring != target:
                raise PolyError("image of %r lives in the wrong ring" % name)
        self._powers = {}

    def _power(self, i, e):
        key = (i, e)
        got = self._powers.get(key)
        if got is None:
            name = self.source.variables[i]
            if name not in self.images:
                raise UnknownVariableError(name)
            got = self.images[name] ** e
            self._powers[key] = got
        return got

    def apply(self, p):
        if p.ring != self.source:
            raise PolyError("polynomial not in the map's source ring")
        # the image of each monomial, then their sum over one denominator
        images = []
        for exp, c in p.numerators().items():
            t = None
            for i, e in enumerate(exp):
                if e:
                    q = self._power(i, e)
                    t = q if t is None else t * q
            images.append((c, t if t is not None else self.target.one()))
        den = lcm(*(t.den for _, t in images))
        # in the words of the widest image; a narrower one is converted
        pk = max((t.packing for _, t in images), key=attrgetter("width"), default=self.target.packing)
        out = {}
        for c, t in images:
            k = c * (den // t.den)
            for e, v in t.packing.convert(t.terms, pk).items():
                out[e] = out.get(e, 0) + k * v
        return Polynomial(self.target, {e: v for e, v in out.items() if v}, den * p.den, pk)

    def __call__(self, p):
        if isinstance(p, str):
            p = self.source.var(p)
        return self.apply(p)
