"""Cross-check of reduced grevlex bases against sympy's Groebner bases over QQ.

sympy is not a dependency of lmlab; the module is skipped without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from lmlab.groebner import Ideal, buchberger  # noqa: E402
from lmlab.lattice import normal_form  # noqa: E402
from lmlab.localmodel import build_U_ideals  # noqa: E402
from lmlab.poly import BASE_VARIABLE, PolyRing  # noqa: E402


def sympy_order(ring):
    """lmlab's grevlex is sympy's grevlex on the other variables, then pi."""
    names = list(ring.variables)
    return [v for v in names if v != BASE_VARIABLE] + [v for v in names if v == BASE_VARIABLE]


def monic_set(polys):
    """Each basis element as a frozenset of (exponents by name, coefficient), made monic."""
    out = set()
    for terms, lead in polys:
        out.add(frozenset((e, c / lead) for e, c in terms.items()))
    return out


def lmlab_basis(ideal):
    basis, partial = buchberger(ideal)
    assert not partial
    names = ideal.ring.variables
    return monic_set(
        ({tuple(sorted(zip(names, e))): c for e, c in g.sorted_terms()}, g.lc())
        for g in basis
    )


def sympy_basis(ideal):
    names = sympy_order(ideal.ring)
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
    G = sympy.groebner(polys, *gens, order="grevlex", domain="QQ")
    out = []
    for p in G.polys:
        terms = {
            tuple(sorted(zip(names, m))): Fraction(int(c.p), int(c.q))
            for m, c in p.terms()
        }
        lc = p.LC(order="grevlex")
        out.append((terms, Fraction(int(lc.p), int(lc.q))))
    return monic_set(out)


@pytest.mark.parametrize("d,delta", [(5, 1), (5, 2)])
def test_chart_bases_match_sympy(d, delta):
    U, small = build_U_ideals(normal_form(d, delta))
    for ideal in (U, small):
        assert lmlab_basis(ideal) == sympy_basis(ideal)


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
    assert lmlab_basis(ideal) == sympy_basis(ideal)
