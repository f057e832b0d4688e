"""Order words in the Groebner engine.

The engine stores each monomial as one int, its order word, whose integer
order is the ring's monomial order (`poly._Packing`, built by
`groebner._packing_for`).  The references are the tuple key
`reference_orders.exp_key` and the tuple-monomial code the engine used
before, copied unchanged: the
order of words, products, shifts, divisibility, lcms and degrees must agree
with them for every order kind.
The field width is chosen from the input, so large exponents still reduce,
and a run that outgrows its fields raises PolyError instead of wrapping.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmlab.groebner as groebner
from lmlab.groebner import (
    BuchbergerRun,
    Ideal,
    buchberger,
    ideal_contains,
    ideal_member,
    reduce_poly,
)
from lmlab.poly import Block, GrevLex, Lex, PolyError, PolyRing, parse_poly
from reference_orders import exp_key


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


# -------------------------------------------------------------------- orders

_VARIABLES = ["x", "y", "pi", "z", "w"]
_PLAIN = [Lex(), GrevLex()]
# every order kind: the plain orders, a block order for each pair of
# sub-orders, and the order of the nonzerodivisor test; the block order on
# x also eliminates every variable of the one-variable ring, whose words
# then hold an always-empty graded group just above the total degree
_ORDERS = _PLAIN + [Block(["y", "z"], o1, o2) for o1, o2 in product(_PLAIN, repeat=2)]
_ORDERS += [Block(["x"], Lex(), GrevLex())]
_ORDERS += [groebner._RevLexLast(("z", "x")), groebner._RevLexLast(("pi",))]


def _ring(n, order):
    """The first n variables under the order, restricted to them."""
    variables = _VARIABLES[:n]
    if isinstance(order, Block):
        order = Block([v for v in order.eliminated if v in variables], order.order1, order.order2)
    elif isinstance(order, groebner._RevLexLast):
        last = tuple(v for v in order.last if v in variables)
        order = groebner._RevLexLast(last) if last else GrevLex()
    return PolyRing(variables, order)


@st.composite
def _monomial_pairs(draw):
    n = draw(st.integers(1, 5))
    top = draw(st.sampled_from([3, 300, 40000]))
    exps = st.tuples(*[st.integers(0, top)] * n)
    a, b = draw(exps), draw(exps)
    if draw(st.booleans()):
        # make a divide b now and then
        b = _mono_mul(a, b)
    return a, b


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("order", _ORDERS, ids=repr)
def test_word_order_is_the_ring_order(order):
    rng = random.Random(5)
    for n in range(1, 6):
        ring = _ring(n, order)
        pk = groebner._packing_for(ring, 3 * n)
        exps = sorted({tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(200)})
        by_key = sorted(exps, key=exp_key(ring))
        assert [pk.exponents(w) for w in sorted(map(pk.monomial, exps))] == by_key
        # the lead term of a packed polynomial is its largest word
        terms = pk.pack({e: 1 for e in exps})
        assert pk.exponents(max(terms)) == by_key[-1]
        # divisibility and lcms on every layout, borrows out of the total
        # degree included
        some = exps[:: max(1, len(exps) // 30)]
        for a, b in product(some, repeat=2):
            XA, XB = (pk.exponent_word(pk.monomial(e)) for e in (a, b))
            assert (not (XB - XA) & pk.guard) == _mono_divides(a, b)
            lcm = pk.monomial(_mono_lcm(a, b))
            assert pk.lcm(XA, XB) == pk.exponent_word(lcm)


@settings(max_examples=300, deadline=None)
@given(pair=_monomial_pairs(), order=st.sampled_from(_ORDERS))
def test_packed_operations_match_the_tuple_helpers(pair, order):
    a, b = pair
    ring = _ring(len(a), order)
    pk = groebner._packing_for(ring, max(sum(a), sum(b)))
    A, B = pk.monomial(a), pk.monomial(b)
    XA, XB = pk.exponent_word(A), pk.exponent_word(B)
    guard, dm = pk.guard, pk.dmask
    # the int order is the ring order, and the words round-trip
    assert (A < B) == (exp_key(ring)(a) < exp_key(ring)(b))
    assert (A == B) == (a == b)
    assert pk.exponents(A) == a
    assert pk.unpack(pk.pack({a: 3, b: -1})) == {a: 3, b: -1}
    assert pk.order_word(XA) == A
    # the total degree sits in the lowest field of both kinds of word
    assert A & dm == XA & dm == sum(a)
    # a product is one addition, less the word of the monomial 1
    assert pk.monomial((0,) * len(a)) == pk.one
    assert A + B - pk.one == pk.monomial(_mono_mul(a, b))
    # divisibility is a guard test on exponent words
    assert (not (XB - XA) & guard) == _mono_divides(a, b)
    assert (not (XA - XB) & guard) == _mono_divides(b, a)
    if _mono_divides(a, b):
        # the shift of a division moves any term by the quotient
        q = tuple(y - x for x, y in zip(a, b))
        assert B - A + pk.one == pk.monomial(q)
        assert pk.one + (B - A) == pk.monomial(q)
        assert A + (B - A) == B
        assert not _mask(a) & ~_mask(b)
    # the lcm, its degree and its order word
    L = pk.lcm(XA, XB)
    lcm = _mono_lcm(a, b)
    assert L == pk.lcm(XB, XA) == pk.exponent_word(pk.monomial(lcm))
    assert L & dm == sum(lcm)
    assert pk.order_word(L) == pk.monomial(lcm)
    # the product criterion: the lcm is the product iff the supports are disjoint
    assert (L == XA + XB) == (not _mask(a) & _mask(b))


def test_width_is_chosen_from_the_input():
    R = PolyRing(["x", "y", "z"])
    assert groebner._packing_for(R, 10).width == 16
    assert groebner._packing_for(R, 16383).width == 16
    assert groebner._packing_for(R, 16384).width == 32
    assert groebner._packing_for(R, 40000).width == 32
    assert groebner._packing_for(R.with_order(Lex()), 3).flip == 0
    # widths struct has no code for are converted field by field
    for order in (Lex(), GrevLex(), Block(["y"])):
        ring = PolyRing(["x", "y"], order)
        wide = groebner._packing_for(ring, 2**70)
        assert wide.width == 128
        e = (2**70, 5)
        assert wide.exponents(wide.monomial(e)) == e
        assert wide.unpack(wide.pack({e: 2, (0, 1): 1})) == {e: 2, (0, 1): 1}
        exps = [(1, 0), (0, 1), (2, 0), (0, 2**70), e]
        assert sorted(exps, key=exp_key(ring)) == sorted(exps, key=wide.monomial)
    # a ring without variables has the one monomial 1, and `never`, the
    # exponent word of a zero basis entry, divides it no more than any other
    for order in (Lex(), GrevLex()):
        empty = groebner._packing_for(PolyRing([], order), 0)
        one = empty.monomial(())
        assert one == empty.one and empty.exponents(one) == ()
        assert (empty.exponent_word(one) - empty.never) & empty.guard
        assert not (empty.exponent_word(one) - empty.exponent_word(one)) & empty.guard
    pk = groebner._packing_for(R, 4)
    assert (pk.exponent_word(pk.monomial((4, 4, 4))) - pk.never) & pk.guard


def test_exponent_of_40000_reduces():
    R = PolyRing(["x", "y"])
    x, y = R.var("x"), R.var("y")
    p = parse_poly("x^40000*y + y^2", R)
    r, cert = reduce_poly(p, [x**2 - y])
    assert r == y**20001 + y**2
    assert cert.verify(p)
    # a run packs its generators wide enough
    run = BuchbergerRun(Ideal(R, ["x^40000 - y", "x - 1"]))
    assert run._packing.width == 32
    assert run.complete() == (y - 1, x - 1)
    # an ideal's cached reducers are packed again, wider, for a large member
    I = Ideal(R, ["x^2 - y"])
    assert I.gb() == (x**2 - y,)
    member, cert = ideal_member(x**40000 - y**20000, I)
    assert member and cert.verify(x**40000 - y**20000)
    assert not ideal_member(x**40001 - y**20000, I)[0]


def test_generator_check_packs_wider_than_its_basis():
    # the basis (y - 1, x - 1) fits 16-bit fields and its reducers are
    # cached so; the check of the generator x^40000 - y packs them wider
    R = PolyRing(["x", "y"])
    x, y = R.var("x"), R.var("y")
    I = Ideal(R, ["x^40000 - y", "x - 1", "2*x - 2"])
    assert I.gb() == (y - 1, x - 1)
    assert I._divisors[0].width == 16
    # and so does ideal_contains, which tests generators the same way
    J = Ideal(R, ["x^2 - y"])
    assert ideal_contains(J, Ideal(R, [x**40000 - y**20000, x**2 - y]))
    assert not ideal_contains(J, Ideal(R, [x**2 - y, x**40001 - y**20000]))


def test_zero_entries_never_reduce():
    R = PolyRing(["x", "y"])
    x, y = R.var("x"), R.var("y")
    r, cert = reduce_poly(x**2 * y + 1, [R.zero(), x - y, R.zero()])
    assert r == y**3 + 1
    assert cert.cofactors[0].is_zero and cert.cofactors[2].is_zero
    # in a ring without variables too
    C = PolyRing([])
    r, cert = reduce_poly(C.const(3), [C.zero()])
    assert r == C.const(3) and cert.verify(C.const(3))
    assert reduce_poly(C.const(3), [C.zero(), C.const(2)])[0].is_zero


def test_outgrowing_the_fields_raises(monkeypatch):
    R = PolyRing(["x", "y", "z"], Lex())
    gens = ["x - y^20", "y - z^20"]
    # with the usual width the lex basis is x - z^400, y - z^20
    basis, _ = buchberger(Ideal(R, gens))
    assert [str(g) for g in basis] == ["y - z^20", "x - z^400"]
    monkeypatch.setattr(groebner, "_MIN_WIDTH", 8)  # largest degree 127
    run = BuchbergerRun(Ideal(R, gens))
    assert run._packing.width == 8
    with pytest.raises(PolyError, match="overflows the 8-bit"):
        run.complete()
    # a run that stays inside the fields still ends with the reduced basis
    small, _ = buchberger(Ideal(R, ["x - y^2", "y - z^2"]))
    assert [str(g) for g in small] == ["y - z^2", "x - z^4"]
    # a reduction that outgrows them raises too
    with pytest.raises(PolyError, match="overflows the 8-bit"):
        reduce_poly(parse_poly("x^60", R), [parse_poly("x - y^3", R)])
    # and so does an S-polynomial whose lcm is too large, before its order
    # word is built
    pk = groebner._packing_for(PolyRing(["x", "y"]), 0)
    eng = groebner._Engine(pk)
    xs, ys = pk.monomial((100, 0)), pk.monomial((0, 100))
    lcm = pk.lcm(pk.exponent_word(xs), pk.exponent_word(ys))
    assert lcm & pk.dmask == 200
    with pytest.raises(PolyError, match="overflows the 8-bit"):
        eng.spoly(lcm, xs, 1, {xs: 1, pk.one: 1}, ys, 1, {ys: 1, pk.one: 1})
