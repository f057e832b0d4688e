"""Tuple sort keys of the monomial orders, the reference for order words.

`exp_key(ring)` is the key on exponent tuples that `PolyRing.exp_key` was
before polynomials were stored as order words: its order on tuples is the
ring's monomial order.  The engine and `Polynomial` compare words; the tests
check the words against these keys.
"""

from lmlab.groebner import _RevLexLast
from lmlab.poly import BASE_VARIABLE, Block, GrevLex, Lex


def _grevlex_positions(variables):
    # pi always carries the least grevlex weight, wherever it is listed
    main = [i for i, v in enumerate(variables) if v != BASE_VARIABLE]
    tail = [i for i, v in enumerate(variables) if v == BASE_VARIABLE]
    return tuple(reversed(main + tail))


def _graded(rev):
    def key(exp):
        return (sum(exp), tuple(-exp[p] for p in rev))

    return key


def key_fn(order, variables):
    """The tuple key of `order` on exponent tuples of `variables`."""
    if isinstance(order, Lex):
        return lambda exp: exp
    if isinstance(order, GrevLex):
        return _graded(_grevlex_positions(variables))
    if isinstance(order, _RevLexLast):
        rest = [i for i, x in enumerate(variables) if x not in order.last]
        return _graded(
            tuple(variables.index(x) for x in order.last)
            + tuple(rest[p] for p in _grevlex_positions([variables[i] for i in rest]))
        )
    if isinstance(order, Block):
        elim = set(order.eliminated)
        pos1 = tuple(i for i, v in enumerate(variables) if v in elim)
        pos2 = tuple(i for i, v in enumerate(variables) if v not in elim)
        key1 = key_fn(order.order1, tuple(variables[i] for i in pos1))
        key2 = key_fn(order.order2, tuple(variables[i] for i in pos2))
        return lambda exp: (key1(tuple(exp[p] for p in pos1)), key2(tuple(exp[p] for p in pos2)))
    raise TypeError("no tuple key for %r" % (order,))


def exp_key(ring):
    """The tuple key of the ring's order."""
    return key_fn(ring.order, ring.variables)
