"""Parser, printing, and polynomial algebra tests."""

import random
from fractions import Fraction
from operator import add
from itertools import combinations, permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from lmlab.lattice import normal_form
from lmlab.localmodel import _rank_one_samples, big_ring, block_substitution, trace_form
from lmlab.poly import (
    Block,
    GrevLex,
    Lex,
    ParseError,
    PolyError,
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
from reference_orders import exp_key


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


def test_zero_is_falsy():
    # as for int and Fraction: only zero is falsy
    R = ring("x", "y")
    assert not R.zero() and not (R.var("x") - R.var("x"))
    assert R.one() and R.var("y") and R.const(Fraction(-1, 3)) and R.var("x") * 0 + 1
    assert not R.var("x") * 0


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
    with pytest.raises(UnknownVariableError) as err:
        R.point({"y": 1})
    assert err.value.name == "x"


def test_jacobian_examples():
    R = ring("u", "v", "pi")
    J = jacobian([R.var("u") * R.var("v") - R.var("pi")], ["u", "v", "pi"])
    assert J[0] == [R.var("v"), R.var("u"), R.const(-1)]

    R2 = ring("x", "y")
    J2 = jacobian([R2.var("x") ** 2 + R2.var("y") ** 2], ["x", "y"])
    assert J2[0] == [2 * R2.var("x"), 2 * R2.var("y")]


def test_jacobian_trace_form_entry():
    # T for the (5,1) chart: z_1_1 z_1_4 + z_1_2 z_1_3; derivative wrt z_1_1
    R = ring("pi", "z_1_1", "z_1_2", "z_1_3", "z_1_4")
    T = parse_poly("z_1_1*z_1_4 + z_1_2*z_1_3", R)
    assert jacobian([T], ["z_1_1"])[0] == [R.var("z_1_4")]


@settings(max_examples=20, deadline=None)
@given(polys(), polys())
def test_jacobian_linearity(f, g):
    vs = ["x", "y", "pi"]
    [a] = jacobian([f + g], vs)
    [bf], [bg] = jacobian([f], vs), jacobian([g], vs)
    assert a == [u + v for u, v in zip(bf, bg)]


def _generic(ring_obj, names):
    return [[ring_obj.var(n) for n in row] for row in names]


def test_minors_generic_2x2():
    R = ring("a", "b", "c", "d")
    m = _generic(R, [["a", "b"], ["c", "d"]])
    [det] = minors(m, 2)
    assert det == R.var("a") * R.var("d") - R.var("b") * R.var("c")
    # the za1 oracle takes minors of int rows
    assert minors([[3, 5], [7, 2]], 2) == [3 * 2 - 5 * 7]


@pytest.mark.parametrize("zeros", range(16))
def test_minors_2x2_with_zero_entries(zeros):
    # the leaf skips a product with a zero factor, and still returns a d - b c
    # as the type of its rows: the int 0 for int rows, the ring's zero for
    # polynomial rows
    R = ring("a", "b", "c", "d")
    ints = [3, 5, 7, 2]
    polys = [R.var(v) + 1 for v in "abcd"]
    for values, zero in ((ints, 0), (polys, R.zero())):
        a, b, c, d = (zero if zeros >> k & 1 else v for k, v in enumerate(values))
        [det] = minors([[a, b], [c, d]], 2)
        assert det == a * d - b * c
        assert type(det) is type(values[0])
        if type(det) is Polynomial:
            assert det.ring == R


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3), (5, 5)])
def test_two_by_two_minors_are_the_cofactor_determinants(shape):
    # minors(m, 2) forms its minors over row pairs; each must be _det's, of
    # the same type: the int 0 for int rows, the ring's zero for polynomial
    # rows, also where the rows hold 0 and 1 entries
    from lmlab.poly import _det

    rng = random.Random(sum(shape))
    R = ring("a", "b", "c")
    entries = [R.zero(), R.one(), R.var("a"), R.var("b") - 2, R.var("a") * R.var("c")]
    nrows, ncols = shape
    for _ in range(40):
        ints = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(ncols)] for _ in range(nrows)]
        polys = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        for rows in (ints, polys):
            got = minors(rows, 2)
            want = [
                _det(rows, rs, cs)
                for rs in combinations(range(nrows), 2)
                for cs in combinations(range(ncols), 2)
            ]
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
    assert minors([], 2) == [] and minors([[R.var("a"), 1]], 2) == []


def test_minors_3x3_int_determinant():
    # expansion along the first row skips its zero entry
    [det] = minors([[2, 0, 1], [1, 3, 2], [1, 1, 4]], 3)
    assert det == 2 * (3 * 4 - 2 * 1) + 1 * (1 * 1 - 3 * 1)
    assert type(det) is int


def _leibniz(m, zero):
    total = zero
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


@pytest.mark.parametrize("k", [3, 4])
def test_minors_with_zero_entries_and_zero_sub_determinants(k):
    # the cofactor expansion skips an entry whose sub-determinant is zero,
    # and still returns the type of its rows: the int 0 for int rows, the
    # ring's zero for polynomial rows
    rng = random.Random(k)
    R = ring("a", "b", "c")
    for trial in range(60):
        ints = [[rng.choice([0, 0, 0, 1, -1, 2, 3]) for _ in range(k)] for _ in range(k)]
        if trial % 3 == 0:
            ints[-1] = list(ints[-2])  # equal rows: zero sub-determinants
        if trial == 0:
            ints = [[0] * k for _ in range(k)]
        polys = [
            [v * (R.var(rng.choice("abc")) + rng.choice([0, 1])) if v else R.zero() for v in row]
            for row in ints
        ]
        for rows, zero in ((ints, 0), (polys, R.zero())):
            [det] = minors(rows, k)
            assert det == _leibniz(rows, zero)
            assert type(det) is type(rows[0][0] * 0)
            if type(det) is Polynomial:
                assert det.ring == R
            # the (k - 1) x (k - 1) minors, each against its own submatrix
            want = [
                _leibniz([[rows[i][j] for j in cs] for i in rs], zero)
                for rs in combinations(range(k), k - 1)
                for cs in combinations(range(k), k - 1)
            ]
            assert minors(rows, k - 1) == want


def test_minors_size_out_of_range():
    assert minors([[1, 2], [3, 4]], 3) == []
    with pytest.raises(PolyError):
        minors([[1, 2], [3, 4]], 0)


def test_minors_of_single_row_empty():
    R = PolyRing(["z_1_%d" % j for j in range(1, 5)])
    m = [[R.var("z_1_%d" % j) for j in range(1, 5)]]
    assert minors(m, 2) == []
    assert minors([[1, 2, 3, 4]], 2) == []


def test_minors_count_2x4():
    R = PolyRing(["z_%d_%d" % (i, j) for i in (1, 2) for j in range(1, 5)])
    m = [[R.var("z_%d_%d" % (i, j)) for j in range(1, 5)] for i in (1, 2)]
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
        key = exp_key(self.ring)
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
    # single terms are drawn on their own too, so that products take the
    # monomial branch of __mul__ from either side
    R = PolyRing(["x", "y", "pi"])
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    return R.poly(draw(st.one_of(
        st.dictionaries(exps, mixed_coeffs, min_size=1, max_size=1),
        st.dictionaries(exps, mixed_coeffs, max_size=5),
    )))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2), st.integers(-40, 40).filter(bool)),
    st.integers(-36, 36).filter(bool),
)
def test_constructor_makes_the_pair_canonical(numerators, den):
    R = PolyRing(["x", "y"])
    p = Polynomial(R, R.packing.pack(numerators), den)
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


# -- products and evaluation at the scale of the za1 rings


def exps_poly(R, terms):
    """R.poly of a dict from monomial text ("pi*x_1_6^2", or "1") to
    coefficient, built without a product of polynomials."""
    out = {}
    for mono, c in terms.items():
        exp = [0] * R.nvars
        for factor in mono.split("*") if mono != "1" else ():
            name, _, e = factor.partition("^")
            exp[R.index[name]] = int(e or 1)
        out[tuple(exp)] = Fraction(c)
    return R.poly(out)


def test_products_in_the_big_ring_match_fraction_reference():
    R = big_ring(normal_form(6, 3))
    assert R.nvars == 73
    mono = exps_poly(R, {"pi*x_1_6*y_2_3^2": Fraction(-3, 4)})
    p = exps_poly(R, {"x_1_6^2": Fraction(1, 2), "pi*y_6_6": Fraction(-5, 3),
                      "x_2_1*y_2_3": 7, "1": Fraction(-2, 9)})
    q = exps_poly(R, {"x_1_6^2": Fraction(1, 2), "pi*y_6_6": Fraction(5, 3),
                      "x_2_1": Fraction(-1, 3)})
    rm, rp, rq = (FractionPolynomial.of(f) for f in (mono, p, q))
    assert_matches(mono * p, rm * rp)
    assert_matches(p * mono, rm * rp)
    assert_matches(mono * mono, rm * rm)
    assert len((mono * p).terms) == len(p.terms)
    # the cross terms of 1/2*x_1_6^2 and 5/3*pi*y_6_6 cancel to zero
    pq = p * q
    assert_matches(pq, rp * rq)
    assert exps_poly(R, {"pi*x_1_6^2*y_6_6": 1}).lm() not in pq.numerators()


def test_shared_point_evaluates_every_x_image_as_the_reference():
    nf = normal_form(6, 3)
    psi = block_substitution(nf)
    R = psi.target
    T = trace_form(nf, R)
    (a, b), = _rank_one_samples(nf, 1, 7)
    assign = {"z_%d_%d" % (i + 1, j + 1): ai * bj
              for i, ai in enumerate(a) for j, bj in enumerate(b)}
    assign["pi"] = 0
    assign["pi"] = -T.evaluate(assign) / 2
    point = R.point(assign)
    images = [img for name, img in psi.images.items() if name.startswith("x_")]
    assert len(images) == 36
    for img in images:
        got = img.at(point)
        assert type(got) is Fraction
        assert got == img.evaluate(assign) == reference_evaluate(img, assign)


def test_coerce_accepts_an_equal_ring_and_rejects_another_order():
    R = ring("x", "y")
    same = ring("x", "y")
    assert same is not R and same == R
    x, y = R.var("x"), same.var("y")
    assert x + y == parse_poly("x + y", R)
    assert x - y == parse_poly("x - y", R)
    assert x * y == parse_poly("x*y", R)
    # sums and differences with denominators other than 1, across the two
    # ring objects and within one
    f, g = parse_poly("1/2*x - 5/3*y^2", R), parse_poly("3/4*y^2 + 1/6", same)
    assert str(f + g) == "-11/12*y^2 + 1/2*x + 1/6"
    assert str(f - g) == "-29/12*y^2 + 1/2*x - 1/6"
    assert str(g - f) == "29/12*y^2 - 1/2*x + 1/6"
    assert (f + g).ring is R and (g + f).ring is same
    assert f + parse_poly("5/3*y^2 - 1/2*x", R) == 0
    assert str(x + 3 * y - parse_poly("3*y - 1/2", same)) == "x + 1/2"
    lex_y = ring("x", "y", order=Lex()).var("y")
    for op in (x.__add__, x.__sub__, x.__mul__):
        with pytest.raises(PolyError, match="ring mismatch"):
            op(lex_y)


def test_cast_to_another_order_keeps_the_terms():
    # a ring with the same variables in the same order, under another order:
    # the exponent tuples are reused, and only the ordering of terms changes
    R = PolyRing(["x", "y", "z"])
    p = parse_poly("x*y^2 - 3/2*z^3 + y", R)
    lex = R.with_order(Lex())
    q = p.cast(lex)
    assert q.ring is lex and q.terms is p.terms and q.den == p.den
    assert str(q) == "x*y^2 + y - 3/2*z^3"
    assert q.cast(R) == p and str(q.cast(R)) == str(p)
    # a reordered variable list still rebuilds every exponent
    swapped = p.cast(PolyRing(["z", "y", "x"]))
    assert swapped.terms is not p.terms and str(swapped) == "-3/2*z^3 + y^2*x + y"


# -- order words, against the tuple-keyed representation they replaced


class TuplePolynomial:
    """Integer numerators by exponent tuple over one denominator.

    The constructor, `_merge` and `__mul__` are Polynomial's as they were
    before its terms were keyed by order words, copied unchanged apart from
    building this class; the order of terms is the tuple key of the ring's
    order (`reference_orders.exp_key`).
    """

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

    def _merge(self, other, sign):
        den = lcm(self.den, other.den)
        big, mb = self.terms, den // self.den
        small, ms = other.terms, sign * (den // other.den)
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
        return TuplePolynomial(self.ring, out, den)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((e1, c1),) = a.items()
            out = {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
            return TuplePolynomial(self.ring, out, self.den * other.den)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exp = tuple(map(add, e1, e2))
                s = out.get(exp)
                if s is None:
                    out[exp] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[exp] = s
                    else:
                        del out[exp]
        return TuplePolynomial(self.ring, out, self.den * other.den)

    def __pow__(self, n):
        result = TuplePolynomial(self.ring, {(0,) * self.ring.nvars: 1}, 1)
        for _ in range(n):
            result = result * self
        return result

    def sorted_terms(self):
        key = exp_key(self.ring)
        return [(e, Fraction(self.terms[e], self.den)) for e in sorted(self.terms, key=key, reverse=True)]

    def lm(self):
        return max(self.terms, key=exp_key(self.ring))

    def __str__(self):
        return str(FractionPolynomial(self.ring, dict(self.sorted_terms())))


def assert_same(p, ref):
    assert p.ring is ref.ring
    assert (p.numerators(), p.den) == (ref.terms, ref.den)
    assert_canonical(p)


_WORD_RINGS = [
    PolyRing(["x", "y", "pi"], order)
    for order in (Lex(), GrevLex(), Block(["y"]), Block(["x", "pi"], Lex(), GrevLex()))
]


@st.composite
def numerator_pairs(draw, ring):
    # now and then an exponent whose products need words wider than 16 bits
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.just(9000))] * ring.nvars)
    nums = draw(st.one_of(
        st.dictionaries(exps, st.integers(-9, 9).filter(bool), min_size=1, max_size=1),
        st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=5),
    ))
    den = draw(st.integers(1, 12))
    return Polynomial(ring, ring.packing.pack(nums), den), TuplePolynomial(ring, nums, den)


@st.composite
def word_cases(draw):
    ring = draw(st.sampled_from(_WORD_RINGS))
    return ring, draw(numerator_pairs(ring)), draw(numerator_pairs(ring))


@settings(max_examples=100, deadline=None)
@given(word_cases(), st.integers(0, 3), st.sampled_from(_WORD_RINGS))
def test_order_words_match_the_tuple_reference(case, n, other):
    ring, (f, rf), (g, rg) = case
    assert_same(f, rf)
    assert_same(f + g, rf + rg)
    assert_same(f - g, rf - rg)
    assert_same(f * g, rf * rg)
    assert_same(g * f, rf * rg)
    assert_same(f**n, rf**n)
    for p, ref in ((f, rf), (f * g, rf * rg)):
        assert p.sorted_terms() == ref.sorted_terms()
        assert str(p) == str(ref)
        if ref.terms:
            assert p.lm() == ref.lm()
            assert p.lc() == Fraction(ref.terms[ref.lm()], ref.den)
            assert p.total_degree() == max(map(sum, ref.terms))
        # another order of the same variables keeps the words: equality and
        # the hash are those of the polynomial, and the terms sort anew
        q = p.cast(other)
        assert q.terms is p.terms
        assert q == p and hash(q) == hash(p)
        assert q.sorted_terms() == TuplePolynomial(other, ref.terms, ref.den).sorted_terms()
        assert q.cast(ring) == p and str(q.cast(ring)) == str(p)


def test_a_product_past_the_field_limit_widens():
    # 16-bit words hold degree 2^14 - 1; a larger product gets wider words,
    # as the Groebner engine's would, and never wraps into another word
    R = ring("x", "y")
    x, y = R.var("x"), R.var("y")
    assert R.packing.width == 16 and R.packing.limit == 2**15 - 1
    top = x ** (2**14 - 1)
    assert top.packing is R.packing
    for wide, lm, width in (
        (top * x, (2**14, 0), 32),  # two monomials
        (y * (top + y), (2**14 - 1, 1), 32),  # a monomial and a sum
        ((top + y) * (x + 1), (2**14, 0), 32),  # two sums
        (x ** (2**31), (2**31, 0), 64),
    ):
        assert wide.packing.width == width
        assert wide.lm() == lm and wide.total_degree() == sum(lm)
    assert ((top + y) * (x + 1)).numerators() == {
        (2**14, 0): 1, (2**14 - 1, 0): 1, (1, 1): 1, (0, 1): 1
    }
    # two one-term polynomials of one ring and packing whose degree sum
    # passes 16,383 leave the monomial fast path for the widening one
    for (e1, c1), (e2, c2) in (
        (((9000, 2), Fraction(-3, 4)), ((7382, 0), Fraction(10, 9))),
        (((2**14 - 1, 0), Fraction(1)), ((0, 1), Fraction(-7, 2))),
    ):
        f, g = R.poly({e1: c1}), R.poly({e2: c2})
        assert f.packing is g.packing is R.packing
        rf, rg = (TuplePolynomial(R, p.numerators(), p.den) for p in (f, g))
        assert_same(f * g, rf * rg)
        assert (f * g).packing.width == 32
    # a polynomial's words are fixed by its degree: a wide sum or
    # derivative whose degree drops is narrowed, so equality and the hash
    # see one set of words
    narrowed = (top * x + y) - top * x
    assert narrowed.packing is R.packing and narrowed == y and hash(narrowed) == hash(y)
    assert (top * x).derivative("x") == 2**14 * top
    assert (x**20000) ** 2 == x**40000 and hash((x**20000) ** 2) == hash(x**40000)
    assert str(x**40000 - y) == "x^40000 - y"
    # a ring map sums images of mixed widths in the widest
    m = RingMap(R, R, {"x": x**10000, "y": y + 1})
    assert m(x**2 + x * y) == x**20000 + x**10000 * y + x**10000


@pytest.mark.parametrize("order", [GrevLex(), Lex(), Block(["a", "b"])])
def test_renaming_moves_word_fields_as_the_ring_map_renames(order):
    # a renaming onto a ring of other names, other order and another place
    # for pi equals the ring map that sends each variable to its new name, at
    # 16-bit and wider words; a map that is not one to one onto the target's
    # variables is no renaming
    R = PolyRing(["a", "pi", "b", "c"], order)
    S = PolyRing(["pi", "w", "u", "t"])
    names = {"a": "u", "pi": "pi", "b": "t", "c": "w"}
    rename = R.renaming(S, names)
    ring_map = RingMap(R, S, {v: S.var(n) for v, n in names.items()})
    rng = random.Random(5)
    for top in (5, 5, 2**14, 2**31):
        f = R.poly({tuple(rng.randint(0, top) for _ in range(4)): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
                    for _ in range(6)})
        f = f + R.const(Fraction(7, 3))
        g = rename(f)
        assert g == ring_map(f) and g.ring == S
        assert g.packing.width == f.packing.width
        assert str(g) == str(ring_map(f))
    assert rename(R.zero()).is_zero
    with pytest.raises(PolyError):
        rename(S.var("u"))
    assert R.renaming(S, dict(names, c="u")) is None
    assert R.renaming(S, {"a": "u", "pi": "pi", "b": "t"}) is None
    assert R.renaming(PolyRing(["pi", "w", "u", "t", "s"]), names) is None
