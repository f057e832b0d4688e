"""Parser, printing, and polynomial algebra tests."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lmlab.poly import (
    Lex,
    ParseError,
    PolyMatrix,
    PolyRing,
    Polynomial,
    RingMap,
    UnknownVariableError,
    coeff_str,
    jacobian,
    minors,
    monomial_str,
    parse_poly,
)


def ring(*names, order=None):
    return PolyRing(names, order)


def test_parse_minor_expression():
    R = ring("z_1_1", "z_1_2", "z_2_1", "z_2_2")
    p = parse_poly("z_1_1*z_2_2 - z_1_2*z_2_1", R)
    assert p == R.var("z_1_1") * R.var("z_2_2") - R.var("z_1_2") * R.var("z_2_1")


def test_parse_constant_times_pi():
    R = ring("pi")
    assert parse_poly("-4*pi", R) == R.var("pi") * (-4)


def test_parse_square_expansion():
    R = ring("x_1_1")
    x = R.var("x_1_1")
    # hand expansion oracle
    assert parse_poly("(x_1_1 + 1)^2", R) == x**2 + 2 * x + 1


def test_parse_rational_literal():
    R = ring("x")
    assert parse_poly("1/2*x", R) == R.var("x") * Fraction(1, 2)


def test_parse_error_carries_position():
    R = ring("x")
    with pytest.raises(ParseError) as err:
        parse_poly("x + + 2", R)
    assert err.value.position == 4


def test_zero_denominator_is_a_parse_error():
    R = ring("x")
    with pytest.raises(ParseError) as err:
        parse_poly("x + 1/0", R)
    assert err.value.position == 6


def test_unknown_variable_named():
    R = ring("x")
    with pytest.raises(UnknownVariableError) as err:
        parse_poly("x + y", R)
    assert err.value.name == "y"


def test_print_parse_roundtrip_canonical():
    R = ring("pi", "z_1_1", "z_1_2")
    cases = [
        "z_1_1^2 - 1/2*z_1_2 + 3*pi",
        "-z_1_1*z_1_2 + 2*pi",
        "0",
        "7",
        "-1/3",
    ]
    for text in cases:
        p = parse_poly(text, R)
        again = parse_poly(str(p), R)
        assert again.terms == p.terms
        assert str(again) == str(p)


def test_leading_minus_binds_looser_than_power():
    R = ring("x", "y")
    x, y = R.var("x"), R.var("y")
    assert parse_poly("-x^2 + y", R) == -(x**2) + y
    assert parse_poly("x*-y^2", R) == -(x * y**2)
    assert parse_poly("-2^2*x", R) == -4 * x
    assert parse_poly("(-x)^2", R) == x**2
    assert parse_poly("--x^3", R) == x**3
    assert parse_poly("-1/2*x^2", R) == x**2 * Fraction(-1, 2)


# -- ring laws, exercised on random sparse polynomials

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda c: c != 0)


@st.composite
def polys(draw, nvars=3, max_terms=4, max_exp=3):
    R = PolyRing(["x", "y", "pi"])
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[exp] = draw(coeffs)
    return R.poly(terms)


@settings(max_examples=100, deadline=None)
@given(
    polys(max_exp=1),
    st.tuples(st.integers(2, 4), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: sum(e) >= 4
    ),
)
def test_print_parse_roundtrip_with_negative_leading_power(rest, exp):
    # the leading term -x^a*..., a >= 2, has larger degree than every term of
    # rest, so the printed text starts with a minus and a squared variable
    f = rest.ring.poly({exp: Fraction(-1)}) + rest
    text = str(f)
    assert text.startswith("-x^")
    assert parse_poly(text, f.ring) == f


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert (f + g) * h == f * h + g * h


def test_substitute_basic_chart_relation():
    src = PolyRing(["u", "v", "pi"])
    dst = PolyRing(["S", "T", "y", "pi"])
    m = RingMap(
        src,
        dst,
        {
            "u": -dst.var("y") * dst.var("T"),
            "v": dst.var("S") * dst.var("y"),
            "pi": dst.var("pi"),
        },
    )
    p = src.var("u") * src.var("v") - src.var("pi")
    img = m(p)
    expected = -dst.var("S") * dst.var("T") * dst.var("y") ** 2 - dst.var("pi")
    assert img == expected


def test_substitute_identity():
    R = ring("x", "y")
    m = RingMap(R, R, {v: R.var(v) for v in R.variables})
    p = R.var("x") + R.var("y")
    assert m(p) == p


def test_substitute_unmapped_variable():
    R = ring("x", "y")
    m = RingMap(R, R, {"x": R.var("x")})
    with pytest.raises(UnknownVariableError):
        m(R.var("y"))


@settings(max_examples=20, deadline=None)
@given(polys(), polys())
def test_substitute_is_multiplicative(f, g):
    # oracle: compare at images directly; equality of polynomials is exact
    R = f.ring
    dst = PolyRing(["x", "y", "pi"])
    m = RingMap(
        R,
        dst,
        {
            "x": dst.var("x") + dst.var("y"),
            "y": dst.var("y") * dst.var("x") - 1,
            "pi": dst.var("pi") ** 2,
        },
    )
    assert m(f * g) == m(f) * m(g)
    assert m(f + g) == m(f) + m(g)
    assert m(R.one()) == dst.one()


# -- evaluation


def reference_evaluate(p, assignment):
    """Term-by-term Fraction evaluation, as Polynomial.evaluate did it before
    it summed in integers over common denominators; copied unchanged except
    that it reads the Fraction coefficients through sorted_terms()."""
    vals = []
    for v in p.ring.variables:
        if v not in assignment:
            raise UnknownVariableError(v)
        vals.append(Fraction(assignment[v]))
    total = Fraction(0)
    for exp, c in p.sorted_terms():
        t = c
        for val, e in zip(vals, exp):
            if e:
                t *= val**e
        total += t
    return total


point_values = st.one_of(
    st.integers(-7, 7),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
)


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=6, max_exp=4), st.fixed_dictionaries(
    {"x": point_values, "y": point_values, "pi": point_values}))
def test_evaluate_matches_fraction_reference(f, point):
    got = f.evaluate(point)
    assert type(got) is Fraction
    assert got == reference_evaluate(f, point)


def test_evaluate_zero_constant_and_missing_variable():
    R = ring("x", "y")
    point = {"x": Fraction(-2, 3), "y": 0}
    zero = R.zero().evaluate(point)
    assert type(zero) is Fraction and zero == 0
    const = R.const(Fraction(-5, 7)).evaluate(point)
    assert type(const) is Fraction and const == Fraction(-5, 7)
    p = parse_poly("1/2*x^2*y - 3*x + 1/5", R)
    assert p.evaluate(point) == reference_evaluate(p, point) == Fraction(11, 5)
    with pytest.raises(UnknownVariableError) as err:
        p.evaluate({"x": 1})
    assert err.value.name == "y"


def test_jacobian_examples():
    R = ring("u", "v", "pi")
    J = jacobian([R.var("u") * R.var("v") - R.var("pi")], ["u", "v", "pi"])
    assert J.row(0) == [R.var("v"), R.var("u"), R.const(-1)]

    R2 = ring("x", "y")
    J2 = jacobian([R2.var("x") ** 2 + R2.var("y") ** 2], ["x", "y"])
    assert J2.row(0) == [2 * R2.var("x"), 2 * R2.var("y")]


def test_jacobian_trace_form_entry():
    # T for the (5,1) chart: z_1_1 z_1_4 + z_1_2 z_1_3; derivative wrt z_1_1
    R = ring("pi", "z_1_1", "z_1_2", "z_1_3", "z_1_4")
    T = parse_poly("z_1_1*z_1_4 + z_1_2*z_1_3", R)
    assert jacobian([T], ["z_1_1"]).row(0) == [R.var("z_1_4")]


@settings(max_examples=20, deadline=None)
@given(polys(), polys())
def test_jacobian_linearity(f, g):
    vs = ["x", "y", "pi"]
    a = jacobian([f + g], vs)
    b = jacobian([f], vs) + jacobian([g], vs)
    assert a == b


def _generic(ring_obj, names):
    return PolyMatrix.from_rows(
        [[ring_obj.var(n) for n in row] for row in names]
    )


def test_minors_generic_2x2():
    R = ring("a", "b", "c", "d")
    m = _generic(R, [["a", "b"], ["c", "d"]])
    [det] = minors(m, 2)
    assert det == R.var("a") * R.var("d") - R.var("b") * R.var("c")


def test_minors_of_single_row_empty():
    R = PolyRing(["z_1_%d" % j for j in range(1, 5)])
    m = PolyMatrix.from_rows([[R.var("z_1_%d" % j) for j in range(1, 5)]])
    assert minors(m, 2) == []


def test_minors_count_2x4():
    R = PolyRing(["z_%d_%d" % (i, j) for i in (1, 2) for j in range(1, 5)])
    m = PolyMatrix.from_rows(
        [[R.var("z_%d_%d" % (i, j)) for j in range(1, 5)] for i in (1, 2)]
    )
    assert len(minors(m, 2)) == 6


def test_minors_enumeration_order():
    R = ring("a", "b", "c", "d", "e", "f")
    m = _generic(R, [["a", "b", "c"], ["d", "e", "f"]])
    out = minors(m, 2)
    # row-lex then column-lex: (12|12), (12|13), (12|23)
    assert out[0] == R.var("a") * R.var("e") - R.var("b") * R.var("d")
    assert out[1] == R.var("a") * R.var("f") - R.var("c") * R.var("d")
    assert out[2] == R.var("b") * R.var("f") - R.var("c") * R.var("e")


def test_lex_order_leading_terms():
    R = ring("x", "y", order=Lex())
    p = parse_poly("y^3 + x", R)
    assert p.lm() == (1, 0)


def test_grevlex_weights_pi_last():
    # pi carries the least weight even when listed first
    R = ring("pi", "z")
    p = parse_poly("pi*z + z^2", R)
    assert p.lm() == (0, 2)
    assert str(p) == "z^2 + pi*z"


# -- integer numerators over one denominator, against a Fraction reference


class FractionPolynomial:
    """A polynomial as a dict from exponent to nonzero Fraction.

    The arithmetic, `monic`, `derivative`, `cast`, equality and printing are
    Polynomial's as they were before it stored integer numerators over one
    denominator, copied unchanged apart from building this class.
    """

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @classmethod
    def of(cls, p):
        return cls(p.ring, dict(p.sorted_terms()))

    def sorted_terms(self):
        key = self.ring.exp_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __add__(self, other):
        big, small = (self.terms, other.terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for exp, c in small.items():
            s = out.get(exp)
            if s is None:
                out[exp] = c
            else:
                s = s + c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return FractionPolynomial(self.ring, out)

    def __neg__(self):
        return FractionPolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return FractionPolynomial(self.ring, {})
            return FractionPolynomial(self.ring, {e: k * c for e, k in self.terms.items()})
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
                    s = s + c1 * c2
                    if s:
                        out[exp] = s
                    else:
                        del out[exp]
        return FractionPolynomial(self.ring, out)

    def monic(self):
        if not self.terms:
            return self
        c = self.sorted_terms()[0][1]
        if c == 1:
            return self
        return self * (Fraction(1) / c)

    def derivative(self, varname):
        i = self.ring.index.get(varname)
        out = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                nexp = exp[:i] + (e - 1,) + exp[i + 1 :]
                s = out.get(nexp, Fraction(0)) + c * e
                if s:
                    out[nexp] = s
                elif nexp in out:
                    del out[nexp]
        return FractionPolynomial(self.ring, out)

    def cast(self, ring):
        pos = []
        for v in self.ring.variables:
            pos.append(ring.index.get(v, -1))
        out = {}
        for exp, c in self.terms.items():
            nexp = [0] * ring.nvars
            for i, e in enumerate(exp):
                if e:
                    nexp[pos[i]] = e
            out[tuple(nexp)] = c
        return FractionPolynomial(ring, out)

    def __eq__(self, other):
        return self.ring.variables == other.ring.variables and self.terms == other.terms

    def __str__(self):
        if not self.terms:
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


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    if p.is_zero:
        assert p.den == 1


def assert_matches(p, ref):
    assert_canonical(p)
    assert FractionPolynomial.of(p) == ref
    assert str(p) == str(ref)


# negative numerators and denominators of several sizes, so that sums and
# products meet unequal denominators and cancel some of them
mixed_coeffs = st.fractions(min_value=-7, max_value=7, max_denominator=12).filter(bool)
scalars = st.one_of(st.integers(-6, 6), mixed_coeffs)


@st.composite
def mixed_polys(draw):
    R = PolyRing(["x", "y", "pi"])
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    return R.poly(draw(st.dictionaries(exps, mixed_coeffs, max_size=5)))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2), st.integers(-40, 40).filter(bool)),
    st.integers(-36, 36).filter(bool),
)
def test_constructor_makes_the_pair_canonical(numerators, den):
    R = PolyRing(["x", "y"])
    p = Polynomial(R, numerators, den)
    assert_canonical(p)
    assert p == R.poly({e: Fraction(v, den) for e, v in numerators.items()})
    assert all(p.coefficient(e) == Fraction(v, den) for e, v in numerators.items())


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), mixed_polys(), scalars)
def test_arithmetic_matches_fraction_reference(f, g, c):
    rf, rg = FractionPolynomial.of(f), FractionPolynomial.of(g)
    assert_matches(f, rf)
    assert_matches(f + g, rf + rg)
    assert_matches(f - g, rf - rg)
    assert_matches(f * g, rf * rg)
    assert_matches(f * c, rf * c)
    assert_matches(c * f, rf * c)
    assert_matches(-f, -rf)
    assert_matches(f.monic(), rf.monic())
    for v in f.ring.variables:
        assert_matches(f.derivative(v), rf.derivative(v))
    wide = PolyRing(["pi", "t", "y", "x"])
    assert_matches(f.cast(wide), rf.cast(wide))
    assert_matches(f.cast(wide).cast(f.ring), rf)
    # equality and hash are those of the rational polynomial
    assert (f == g) == (rf == rg)
    same = (f + g) - g
    assert same == f and hash(same) == hash(f)
    if c:
        assert (f * c) * (1 / Fraction(c)) == f
    point = {"x": Fraction(-3, 4), "y": 2, "pi": Fraction(5, 6)}
    assert f.evaluate(point) == reference_evaluate(f, point)
