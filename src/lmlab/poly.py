"""Sparse multivariate polynomials over Q with exact arbitrary-precision arithmetic.

A polynomial is integer numerators over one common denominator: `terms` maps
each exponent tuple (aligned with the ring's variable list) to a nonzero int,
and `den` is a positive int sharing no factor with all of them; the zero
polynomial has den 1.  That form is canonical, so equal polynomials have equal
`terms` and `den`, and all arithmetic runs on ints.  `coefficient`, `lc` and
`sorted_terms` give the coefficients as `fractions.Fraction`.  All values are
immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "PolyError",
    "ParseError",
    "UnknownVariableError",
    "Lex",
    "GrevLex",
    "Block",
    "PolyRing",
    "Polynomial",
    "PolyMatrix",
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

    def key_fn(self, variables):
        def key(exp):
            return exp

        return key

    def __eq__(self, other):
        return isinstance(other, Lex)

    def __hash__(self):
        return hash("lex")

    def __repr__(self):
        return "lex"


class GrevLex:
    """Graded reverse lexicographic order; `pi` is weighted last."""

    name = "grevlex"

    def key_fn(self, variables):
        rev = _grevlex_positions(variables)

        def key(exp):
            return (sum(exp), tuple(-exp[p] for p in rev))

        return key

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

    def key_fn(self, variables):
        elim = set(self.eliminated)
        first = tuple(v for v in variables if v in elim)
        second = tuple(v for v in variables if v not in elim)
        pos1 = tuple(i for i, v in enumerate(variables) if v in elim)
        pos2 = tuple(i for i, v in enumerate(variables) if v not in elim)
        key1 = self.order1.key_fn(first)
        key2 = self.order2.key_fn(second)

        def key(exp):
            return (
                key1(tuple(exp[p] for p in pos1)),
                key2(tuple(exp[p] for p in pos2)),
            )

        return key

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


# ------------------------------------------------------------------ rings


class PolyRing:
    """A polynomial ring over Q: an ordered variable list plus monomial order."""

    __slots__ = ("variables", "order", "index", "exp_key", "_hash", "_zero_exp")

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
        self.exp_key = self.order.key_fn(variables)
        self._zero_exp = (0,) * len(variables)
        self._hash = hash((variables, self.order))

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Polynomial(self, {}, 1)

    def one(self):
        return Polynomial(self, {self._zero_exp: 1}, 1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {self._zero_exp: c.numerator}, c.denominator)

    def var(self, name):
        if name not in self.index:
            raise UnknownVariableError(name)
        exp = [0] * self.nvars
        exp[self.index[name]] = 1
        return Polynomial(self, {tuple(exp): 1}, 1)

    def poly(self, terms):
        """The polynomial of a dict from exponent to rational coefficient."""
        coeffs = {tuple(exp): Fraction(c) for exp, c in terms.items()}
        den = lcm(*(c.denominator for c in coeffs.values()))
        return Polynomial(
            self,
            {e: c.numerator * (den // c.denominator) for e, c in coeffs.items() if c},
            den,
        )

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
        return (
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
    den and all numerators, den 1 for zero); `terms` must map each exponent
    to a nonzero int and `den` must be a nonzero int.
    """

    __slots__ = ("ring", "terms", "den", "_st")

    def __init__(self, ring, terms, den):
        if den != 1:
            g = gcd(den, *terms.values())
            if den < 0:
                g = -g
            if g != 1:
                terms = {e: v // g for e, v in terms.items()}
                den //= g
        self.ring = ring
        self.terms = terms
        self.den = den
        self._st = None

    # -- basic structure

    @property
    def is_zero(self):
        return not self.terms

    def _sorted_exps(self):
        if self._st is None:
            self._st = sorted(self.terms, key=self.ring.exp_key, reverse=True)
        return self._st

    def sorted_terms(self):
        """(exponent, Fraction coefficient) pairs in descending ring order."""
        terms, den = self.terms, self.den
        return [(e, Fraction(terms[e], den)) for e in self._sorted_exps()]

    def lm(self):
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        return self._sorted_exps()[0]

    def lc(self):
        return Fraction(self.terms[self.lm()], self.den)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exp):
        return Fraction(self.terms.get(tuple(exp), 0), self.den)

    def variables_used(self):
        used = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(self.ring.variables[i])
        return used

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise PolyError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self, other
        if len(big.terms) < len(small.terms):
            big, small = small, big
        den = lcm(big.den, small.den)
        mb, ms = den // big.den, den // small.den
        out = {e: v * mb for e, v in big.terms.items()} if mb != 1 else dict(big.terms)
        for exp, c in small.terms.items():
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
        return Polynomial(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            n = other.numerator
            return Polynomial(
                self.ring, {e: k * n for e, k in self.terms.items()}, self.den * other.denominator
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exp = tuple(map(sum, zip(e1, e2)))
                s = out.get(exp)
                if s is None:
                    out[exp] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[exp] = s
                    else:
                        del out[exp]
        return Polynomial(self.ring, out, self.den * other.den)

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
        return Polynomial(self.ring, self.terms, self.terms[self.lm()])

    # -- calculus and evaluation

    def derivative(self, varname):
        i = self.ring.index.get(varname)
        if i is None:
            raise UnknownVariableError(varname)
        # distinct exponents with exp[i] > 0 have distinct derivatives
        out = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                out[exp[:i] + (e - 1,) + exp[i + 1 :]] = c * e
        return Polynomial(self.ring, out, self.den)

    def evaluate(self, assignment):
        """Evaluate at a rational point given as a dict from variable name.

        The sum is taken in integers over the point's common denominator;
        each term is brought to the top degree by powers of that denominator,
        and one Fraction is built at the end.
        """
        vals = []
        for v in self.ring.variables:
            if v not in assignment:
                raise UnknownVariableError(v)
            vals.append(Fraction(assignment[v]))
        den = lcm(*(q.denominator for q in vals))
        nums = [q.numerator * (den // q.denominator) for q in vals]
        top = max(map(sum, self.terms), default=0)
        den_pow = [den**k for k in range(top + 1)]
        total = 0
        for exp, t in self.terms.items():
            deg = 0
            for n, e in zip(nums, exp):
                if e:
                    t *= n**e
                    deg += e
            total += t * den_pow[top - deg]
        return Fraction(total, self.den * den_pow[top])

    def cast(self, ring):
        """Re-express in a ring containing all used variables (by name)."""
        if ring == self.ring:
            return self
        pos = []
        for v in self.ring.variables:
            pos.append(ring.index.get(v, -1))
        out = {}
        for exp, c in self.terms.items():
            nexp = [0] * ring.nvars
            for i, e in enumerate(exp):
                if e:
                    if pos[i] < 0:
                        raise UnknownVariableError(self.ring.variables[i])
                    nexp[pos[i]] = e
            out[tuple(nexp)] = c
        return Polynomial(ring, out, self.den)

    # -- comparisons and printing

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = self.ring.const(other)
            else:
                return NotImplemented
        return (
            self.ring.variables == other.ring.variables
            and self.den == other.den
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


class PolyMatrix:
    """A rows x cols matrix of polynomials sharing one ring, row-major."""

    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(self, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise PolyError("entry count does not match shape")
        if not entries:
            raise PolyError("empty matrix")
        ring = entries[0].ring
        for e in entries:
            if e.ring != ring:
                raise PolyError("matrix entries must share one ring")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.ring = ring

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0])
        flat = [e for row in rows_of_entries for e in row]
        return cls(rows, cols, flat)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self):
        out = [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        return PolyMatrix(self.cols, self.rows, out)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PolyError("shape mismatch")
        return PolyMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return PolyMatrix(self.rows, self.cols, [a * other for a in self.entries])
        if self.cols != other.rows:
            raise PolyError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = self.ring.zero()
                for k in range(self.cols):
                    e = ri[k]
                    if not e.is_zero:
                        f = other[k, j]
                        if not f.is_zero:
                            acc = acc + e * f
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, out)

    __rmul__ = __mul__

    def trace(self):
        if self.rows != self.cols:
            raise PolyError("trace of non-square matrix")
        acc = self.ring.zero()
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def det(self):
        if self.rows != self.cols:
            raise PolyError("determinant of non-square matrix")
        return _det(self, list(range(self.rows)), list(range(self.cols)))

    def submatrix(self, rows, cols):
        out = [self[i, j] for i in rows for j in cols]
        return PolyMatrix(len(rows), len(cols), out)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return "PolyMatrix[%s]" % body


def _det(m, rows, cols):
    # cofactor expansion along the first row; fine at chart scale
    if len(rows) == 1:
        return m[rows[0], cols[0]]
    acc = m.ring.zero()
    r0 = rows[0]
    rest = rows[1:]
    for k, c in enumerate(cols):
        e = m[r0, c]
        if e.is_zero:
            continue
        sub = _det(m, rest, cols[:k] + cols[k + 1 :])
        term = e * sub
        acc = acc + (term if k % 2 == 0 else -term)
    return acc


def _subsets(n, k):
    # k-subsets of range(n) in lexicographic order
    idx = list(range(k))
    while True:
        yield tuple(idx)
        for i in reversed(range(k)):
            if idx[i] != i + n - k:
                break
        else:
            return
        idx[i] += 1
        for j in range(i + 1, k):
            idx[j] = idx[j - 1] + 1


def minors(m, k):
    """All k x k minors, row-index lexicographic then column-index lexicographic."""
    if k < 1 or k > min(m.rows, m.cols):
        if k > min(m.rows, m.cols):
            return []
        raise PolyError("minor size out of range")
    out = []
    for rs in _subsets(m.rows, k):
        for cs in _subsets(m.cols, k):
            out.append(_det(m, list(rs), list(cs)))
    return out


def jacobian(polys, variables):
    """Matrix of formal partials, entry (i, j) = d polys[i] / d variables[j]."""
    polys = list(polys)
    variables = list(variables)
    if not polys or not variables:
        raise PolyError("jacobian needs at least one polynomial and one variable")
    ring = polys[0].ring
    for v in variables:
        if v not in ring.index:
            raise UnknownVariableError(v)
    rows = [[p.derivative(v) for v in variables] for p in polys]
    return PolyMatrix.from_rows(rows)


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
        for exp, c in p.terms.items():
            t = None
            for i, e in enumerate(exp):
                if e:
                    q = self._power(i, e)
                    t = q if t is None else t * q
            images.append((c, t if t is not None else self.target.one()))
        den = lcm(*(t.den for _, t in images))
        out = {}
        for c, t in images:
            k = c * (den // t.den)
            for e, v in t.terms.items():
                out[e] = out.get(e, 0) + k * v
        return Polynomial(self.target, {e: v for e, v in out.items() if v}, den * p.den)

    def __call__(self, p):
        if isinstance(p, str):
            p = self.source.var(p)
        return self.apply(p)
