"""Packed monomials in the Groebner engine.

The engine stores each exponent vector as one int (`groebner._Packing`).  The
reference is the tuple-monomial code the engine used before, copied
unchanged: packed products, shifts, divisibility, lcms, degrees and order
keys must agree with it.  The field width is chosen from the input, so large
exponents still reduce, and a run that outgrows its fields raises PolyError
instead of wrapping.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmlab.groebner as groebner
from lmlab.groebner import BuchbergerRun, Ideal, buchberger, ideal_member, reduce_poly
from lmlab.poly import Block, GrevLex, Lex, PolyError, PolyRing, parse_poly


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


# -------------------------------------------------------------------- tests

_VARIABLES = ["x", "y", "pi", "z", "w"]
_ORDERS = [Lex(), GrevLex(), Block(["y", "z"]), Block(["x"], Lex(), GrevLex())]


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


@settings(max_examples=300, deadline=None)
@given(pair=_monomial_pairs(), order=st.sampled_from(_ORDERS))
def test_packed_operations_match_the_tuple_helpers(pair, order):
    a, b = pair
    n = len(a)
    ring = PolyRing(_VARIABLES[:n], order)
    pk = groebner._Packing(n, max(sum(a), sum(b)))
    A, B = pk.monomial(a), pk.monomial(b)
    guard, nw = pk.guard, pk.nw
    assert pk.exponents(A) == a
    assert pk.unpack(pk.pack({a: 3, b: -1})) == {a: 3, b: -1}
    # degree, product and lcm
    assert A >> nw == sum(a)
    assert A + B == pk.monomial(_mono_mul(a, b))
    assert pk.lcm(A, B) == pk.monomial(_mono_lcm(a, b)) == pk.lcm(B, A)
    # divisibility, and the shift of a division
    assert (not (B - A) & guard) == _mono_divides(a, b)
    assert (not (A - B) & guard) == _mono_divides(b, a)
    if _mono_divides(a, b):
        assert B - A == pk.monomial(tuple(y - x for x, y in zip(a, b)))
        assert not _mask(a) & ~_mask(b)
    # the product criterion: the lcm is the product iff the supports are disjoint
    assert (pk.lcm(A, B) == A + B) == (not _mask(a) & _mask(b))
    # the order key reads the unpacked vector
    eng = groebner._Engine(ring.exp_key, pk)
    assert eng.key(A) == ring.exp_key(a)
    assert (eng.key(A) < eng.key(B)) == (ring.exp_key(a) < ring.exp_key(b))


def test_width_is_chosen_from_the_input():
    assert groebner._Packing(3, 10).width == 16
    assert groebner._Packing(3, 16383).width == 16
    assert groebner._Packing(3, 16384).width == 32
    assert groebner._Packing(3, 40000).width == 32
    # widths struct has no code for are converted field by field
    wide = groebner._Packing(2, 2**70)
    assert wide.width == 128
    e = (2**70, 5)
    assert wide.exponents(wide.monomial(e)) == e
    # a ring without variables keeps a nonzero guard
    empty = groebner._Packing(0, 0)
    assert empty.guard and empty.exponents(empty.monomial(())) == ()


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
    # and so does an S-polynomial whose lcm is too large
    pk = groebner._Packing(2, 0)
    eng = groebner._Engine(PolyRing(["x", "y"]).exp_key, pk)
    xs, ys = pk.monomial((100, 0)), pk.monomial((0, 100))
    with pytest.raises(PolyError, match="overflows the 8-bit"):
        eng.spoly(pk.lcm(xs, ys), xs, 1, {xs: 1, 0: 1}, ys, 1, {ys: 1, 0: 1})
