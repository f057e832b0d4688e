"""Cross-check of reduced bases against sympy's Groebner bases over QQ.

Grevlex bases are compared on the charts and on random small ideals; lex and
block bases on random small ideals.  Each lmlab run is inside a deadline, so
that an engine stall fails and names its example instead of hanging the
suite, and sympy runs under the same budget.  A random draw on which sympy
runs out is rejected, since it leaves no reference; lmlab running out where
sympy finishes still fails.
sympy is a test extra, not a dependency of lmlab; the module is skipped
without it.
"""

import signal
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, reject, settings, strategies as st

sympy = pytest.importorskip("sympy")

from lmlab.groebner import GBTimeout, Ideal, buchberger, deadline  # noqa: E402
from lmlab.lattice import normal_form  # noqa: E402
from lmlab.localmodel import build_U_ideals  # noqa: E402
from lmlab.poly import BASE_VARIABLE, Block, GrevLex, Lex, PolyRing  # noqa: E402


def sympy_order(ring):
    """lmlab's grevlex is sympy's grevlex on the other variables, then pi."""
    names = list(ring.variables)
    return [v for v in names if v != BASE_VARIABLE] + [v for v in names if v == BASE_VARIABLE]


# lex, block orders with a lex block, and block orders of grevlex blocks
_ORDERS = [
    Lex(),
    Block(["y", "z"], Lex(), GrevLex()),
    Block(["x"], Lex(), GrevLex()),
    Block(["x"], GrevLex(), Lex()),
    Block(["y"]),
    Block(["x", "y"]),
]


def _sympy_block(order, names):
    """sympy's names, in its order of comparison, and its order for one block."""
    if isinstance(order, Lex):
        return list(names), sympy.polys.orderings.lex
    # lmlab's grevlex weighs pi last wherever it is listed
    return sympy_order(PolyRing(names)), sympy.polys.orderings.grevlex


def sympy_names_and_order(ring):
    """The generators and the monomial order that give sympy lmlab's order."""
    order = ring.order
    if not isinstance(order, Block):
        return _sympy_block(order, ring.variables)
    first = [v for v in ring.variables if v in order.eliminated]
    second = [v for v in ring.variables if v not in order.eliminated]
    names1, o1 = _sympy_block(order.order1, first)
    names2, o2 = _sympy_block(order.order2, second)
    k = len(names1)
    return names1 + names2, sympy.polys.orderings.ProductOrder(
        (o1, lambda m: m[:k]), (o2, lambda m: m[k:])
    )


def monic_set(polys):
    """Each basis element as a frozenset of (exponents by name, coefficient), made monic."""
    out = set()
    for terms, lead in polys:
        out.add(frozenset((e, c / lead) for e, c in terms.items()))
    return out


BUDGET_S = 5


def lmlab_basis(ideal):
    with deadline(BUDGET_S):
        basis, partial = buchberger(ideal)
    assert not partial
    names = ideal.ring.variables
    return monic_set(
        ({tuple(sorted(zip(names, e))): c for e, c in g.sorted_terms()}, g.lc())
        for g in basis
    )


def sympy_basis(ideal):
    names, order = sympy_names_and_order(ideal.ring)
    gens = sympy.symbols(names)
    pos = [ideal.ring.index[v] for v in names]
    polys = [
        sympy.Poly.from_dict(
            {tuple(e[p] for p in pos): sympy.Rational(c.numerator, c.denominator)
             for e, c in g.sorted_terms()},
            *gens, domain="QQ",
        )
        for g in ideal.generators
    ]
    G = sympy.groebner(polys, *gens, order=order, domain="QQ")
    out = []
    for p in G.polys:
        terms = {
            tuple(sorted(zip(names, m))): Fraction(int(c.p), int(c.q))
            for m, c in p.terms()
        }
        lc = p.LC(order=order)
        out.append((terms, Fraction(int(lc.p), int(lc.q))))
    return monic_set(out)


@pytest.mark.parametrize("d,delta", [(5, 1), (5, 2)])
def test_chart_bases_match_sympy(d, delta):
    U, small = build_U_ideals(normal_form(d, delta))
    for ideal in (U, small):
        theirs = _within_budget(sympy_basis, ideal)
        assert theirs is not None, "sympy ran out of its budget on a chart"
        assert lmlab_basis(ideal) == theirs


def test_pi_is_ordered_last_whatever_its_position():
    # with pi listed first, the leading term of x + pi must still be x
    R = PolyRing(["pi", "x", "y"])
    ideal = Ideal(R, ["x + pi", "y^2 - pi*x"])
    assert lmlab_basis(ideal) == sympy_basis(ideal)
    assert sympy_order(R) == ["x", "y", "pi"]


small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(
    lambda c: c != 0
)


@st.composite
def small_ideals(draw):
    names = draw(st.sampled_from([["x", "y"], ["x", "y", "z"], ["pi", "x", "y"]]))
    R = PolyRing(names)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exp = tuple(draw(st.integers(0, 2)) for _ in names)
            terms[exp] = draw(small_coeffs)
        gens.append(R.poly(terms))
    return Ideal(R, gens)


@settings(max_examples=25, deadline=None)
@given(small_ideals())
def test_small_ideals_match_sympy(ideal):
    _assert_matches_within_budget(ideal)


_exps = st.tuples(*[st.integers(0, 2)] * 4)
_gens = st.lists(st.dictionaries(_exps, small_coeffs, min_size=1, max_size=3), min_size=1, max_size=3)


def test_sympy_names_follow_the_block_order():
    R = PolyRing(["pi", "x", "y", "z"], Block(["x", "pi"], GrevLex(), Lex()))
    names, _ = sympy_names_and_order(R)
    assert names == ["x", "pi", "y", "z"]


# a failing example is reported as drawn: shrinking it would rerun a stall
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(order=st.sampled_from(_ORDERS), gens=_gens)
# selecting pairs by sugar under this block order of grevlex blocks ran past
# any budget, its coefficients past 500,000 bits
@example(
    order=Block(["x", "y"]),
    gens=[
        {(0, 1, 1, 2): Fraction(-1, 2), (1, 1, 0, 2): Fraction(-1), (1, 2, 1, 2): Fraction(-2, 3)},
        {(1, 1, 2, 2): Fraction(3), (2, 0, 1, 0): Fraction(-2), (1, 1, 1, 2): Fraction(4, 3)},
        {(0, 0, 0, 0): Fraction(-2), (2, 0, 0, 2): Fraction(-5, 2), (0, 0, 1, 0): Fraction(3)},
    ],
)
def test_lex_and_block_bases_match_sympy(order, gens):
    R = PolyRing(["w", "x", "y", "z"], order)
    _assert_matches_within_budget(Ideal(R, [R.poly(g) for g in gens]))


def _assert_matches_within_budget(ideal):
    """lmlab's basis equals sympy's, each computed within BUDGET_S seconds."""
    try:
        ours = lmlab_basis(ideal)
    except GBTimeout:
        ours = None
    theirs = _within_budget(sympy_basis, ideal)
    if theirs is None:
        # no reference to compare with: the draw is hard for sympy, and for
        # lmlab too if it ran out as well
        reject()
    assert ours is not None, "lmlab ran out of its budget where sympy finished"
    assert ours == theirs


class _OutOfBudget(Exception):
    pass


def _within_budget(f, *args):
    """f(*args), or None once it runs past BUDGET_S seconds (a SIGALRM timer)."""

    def expire(signum, frame):
        raise _OutOfBudget

    saved = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return f(*args)
    except _OutOfBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)
