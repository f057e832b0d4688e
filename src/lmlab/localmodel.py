"""The distinguished affine chart of the local model and its presentations.

Builds the naive chart ideal from the matrix relations, the reduced
presentations in the Z variables, the determinantal chart cut out by the
trace quadric, and the block-substitution section that proves them equal.
All charts live over Q[pi, ...] with the special fiber at pi = 0.

The naive relations on (X, Y) are defined once, in _naive_relations, over
any ring.  A ring map commutes with them, so za1 evaluates that one function
wherever it needs them: on the variables of the big ring for the naive
ideal, at the section's entries under two ring maps, over the product ring
of the samples for the rank-one oracle, and at Y = -X^t in x_ring for
complete mode.  Where Y = -X^t by value, the minors of Y are those of X,
transposed, and are not computed again; the four quadratic forms are
symmetric, so only their upper triangles are formed.  At the Segre point
and at the oracle's samples X has rank one, and each block is decided from
its factors a X = c r^t before it is formed (see _naive_relations).

Membership in small = (minors of Z, q Z), q = T + 2 pi, needs no basis.
small = (Z) meet U with U = (minors, q): for c q + m in (Z), m in the
minors, c lies in the prime (Z), as q does not.  f lies in U iff
f(-T/2, Z) lies in the ideal of the minors, the kernel of the Segre map
z_ij -> u_i v_j (Hochster and Eagon, Amer. J. Math. 93, 1971; De Concini,
Eisenbud and Procesi, Invent. Math. 56, 1980), under which T = ab/2 with
a = sum u_i u_{delta+1-i} and b = sum v_j v_{m+1-j}.  So f lies in small
iff f(pi, Z = 0) = 0 and f(pi = -ab/4, Z = u v^t) = 0, or, with u doubled,
f(pi = -ab, Z = 2 u v^t) = 0 (_small_maps): both maps then have integer
coefficients, and the argument divides only by 2.  Sound mode maps the
section's entries once and evaluates the relations there, passing over
Z = 0 where X and Y vanish, as every naive relation lies in (X, Y); only a
failing relation gets small's basis, for the normal form in its report.

Complete mode computes no basis over x_ring.  The naive relations at
Y = -X^t in x_ring solve every non-Z entry round by round, each by a
generator c x + f with f in the Z entries and the earlier rounds; the
solutions compose to a retraction phi onto Q[pi, Z] whose kernel lies in
the ideal H of those relations, so H meets Q[pi, Z] in the ideal of
phi(H), which the same two maps and a linear span compare with small (see
_verify_complete).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm
from operator import add, floordiv, mul, neg, sub

# buchberger is not called here, but bench/test_bench.py requires this module
# to bind it so that the tracer's re-binding coverage is exercised
from .groebner import buchberger  # noqa: F401
from .groebner import Ideal, _once_per_memo, check_deadline, first_nonmember, ideal_equal, \
    ideal_member, is_nonzerodivisor, quotient
from .lattice import LatticeError
from .poly import PolyRing, RingMap, minors
from .report import FAIL, PASS, checking

__all__ = [
    "z_ring",
    "big_ring",
    "z_matrix",
    "build_naive_chart_ideal",
    "trace_form",
    "build_U_ideals",
    "build_DT_ideal",
    "block_substitution",
    "verify_presentation",
    "verify_annihilator",
    "flatness_and_dimension",
]

HALF = Fraction(1, 2)


# -------------------------------------------------------------- ring setup


def z_ring(nf):
    names = ["pi"] + [
        "z_%d_%d" % (i, j)
        for i in range(1, nf.delta + 1)
        for j in range(1, nf.d - nf.delta + 1)
    ]
    return PolyRing(names)


def big_ring(nf):
    d = nf.d
    names = ["pi"]
    names += ["x_%d_%d" % (i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    names += ["y_%d_%d" % (i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    return PolyRing(names)


def x_ring(nf):
    d = nf.d
    names = ["pi"]
    names += ["x_%d_%d" % (i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    return PolyRing(names)


def z_matrix(nf, ring):
    """The delta x (d - delta) matrix Z of the chart variables, as a list of rows."""
    return [[ring.var("z_%d_%d" % (i, j)) for j in range(1, nf.d - nf.delta + 1)]
            for i in range(1, nf.delta + 1)]


def named_matrix(entry, stem, d):
    """The d x d matrix, as a list of rows, of entry("stem_a_b")."""
    return [[entry("%s_%d_%d" % (stem, a, b)) for b in range(1, d + 1)]
            for a in range(1, d + 1)]


# ------------------------------------------------------------ naive chart


def _mat_mul(A, B, zero):
    """A B for matrices given as lists of rows.

    A product with a zero factor is skipped and one by the int 1 is not
    formed; an entry whose products are all skipped is `zero`.  The nonzero
    entries of each row of A are collected once (S1 and S2 are 0/1 partial
    permutations).
    """
    n = len(B[0])
    out = []
    for row in A:
        nz = _nonzero(row, B)
        out.append([_dot(nz, j, zero) for j in range(n)])
    return out


def _sym_mul(A, B, zero):
    """A B, as _mat_mul forms it, for square A B known to be symmetric.

    Only the entries with j >= i are formed; each is also entry (j, i).
    """
    n = len(B[0])
    P = [[zero] * n for _ in A]
    for i, row in enumerate(A):
        nz = _nonzero(row, B)
        for j in range(i, n):
            P[i][j] = P[j][i] = _dot(nz, j, zero)
    return P


def _nonzero(row, B):
    """(a is the int 1, a, row k of B) for each nonzero entry a = row[k]."""
    return [(a.__class__ is int and a == 1, a, B[k]) for k, a in enumerate(row) if a]


def _dot(nz, j, zero):
    """Entry j of the row of a product, from the `_nonzero` triples of its row."""
    acc = None
    for one, a, brow in nz:
        b = brow[j]
        if b:
            t = b if one else a * b
            acc = t if acc is None else acc + t
    return zero if acc is None else acc


def _mat_add(A, B, c=1):
    """A + c B for matrices given as lists of rows.

    An entry whose b is zero is a itself, and for c = 1 no product c b is
    formed.
    """
    if c == 1:
        return [[a + b if b else a for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
    return [[a + c * b if b else a for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _entries(M):
    return (v for row in M for v in row)


def _minus_transpose(M):
    return [[-v for v in col] for col in zip(*M)]


def _rank_one(M):
    """Factors (a, c, r) with a M = c r^t if the matrix M has rank at most one, else None.

    M is a list of rows over a domain.  With a = M[p][q] the first nonzero
    entry, c column q and r row p, the rank is at most one iff every 2x2
    minor through that entry vanishes, M[i][j] a = M[i][q] M[p][j]: then
    each row is M[i][q] / a times row p.  The zero matrix gives its entry,
    column and row through (0, 0), all zero.

    Over Z^n (_Zn entries) each sample is factored on its own int matrix and
    the factors are gathered, so a is 0 exactly at the samples where M is
    zero; a sample of rank two gives None.
    """
    if M[0][0].__class__ is _Zn:
        m, per = len(M[0]), []
        for vals in zip(*(v.v for v in _entries(M))):
            f = _rank_one([vals[k : k + m] for k in range(0, len(vals), m)])
            if f is None:
                return None
            per.append(f)
        a, c, r = zip(*per)
        return _Zn(list(a)), [_Zn(list(v)) for v in zip(*c)], [_Zn(list(v)) for v in zip(*r)]
    for p, row in enumerate(M):
        for q, a in enumerate(row):
            if a:
                c = [r[q] for r in M]
                if all(v * a == ci * rj for ci, r in zip(c, M) for rj, v in zip(row, r)):
                    return a, c, row
                return None
    return M[0][0], [r[0] for r in M], M[0]


def _quadratic_blocks(A, P, Q, pi, forms, f, zero):
    """The entries of A^t (M A) + k N A with N = P + pi Q, for each (M, k) in
    `forms`, M being P or Q.

    P A, Q A and N A = P A + pi Q A are formed once, on first use, and
    A^t (M A) by _sym_mul.  Given factors f = (a, c, r) of A, a A = c r^t
    over a domain, a block B is decided first: a^2 B = w r^t with
    w = (c^t M c) r + k a N c.  If w = 0 then B = 0, yielded as the ring's
    zero and not formed; else a != 0, and r holds a as an entry, so B != 0.
    Over Z^n this holds at each sample.
    """
    formed = None
    if f is not None:
        a, c, r = f
        col = [[v] for v in c]
        PC, QC = _mat_mul(P, col, zero), _mat_mul(Q, col, zero)  # columns
        NC = _mat_add(PC, QC, pi)
    for M, k in forms:
        if f is not None:
            s = _mat_mul([c], PC if M is P else QC, zero)[0][0]
            ka = k * a
            if not any(s * ri + ka * ni for ri, (ni,) in zip(r, NC)):
                yield from repeat(zero, len(A) * len(A))
                continue
        if formed is None:
            PA, QA = _mat_mul(P, A, zero), _mat_mul(Q, A, zero)
            formed = [list(col) for col in zip(*A)], _mat_add(PA, QA, pi)
        At, NA = formed
        yield from _entries(_mat_add(_sym_mul(At, PA if M is P else QA, zero), NA, k))


def _naive_relations(nf, X, Y, pi, L=1, domain=False):
    """The naive chart relations on (pi, X, Y), in generator order.

    X and Y are lists of rows over any ring that holds pi.  Yields the
    entries of Y + X^t, of X^t Y, the 2x2 minors of X and of Y, then the
    entries of X^t S1 X - 2 pi S X, X^t S2 X + 2 S X, Y^t S1 Y + 2 sy and
    Y^t S2 Y - 2 pi sy, with S = S1 + pi S2 and sy = (S2 + pi S1) Y.  A ring
    map commutes with it, so it gives the image of every generator wherever
    X, Y and pi are sent.

    Given (L X, L Y, L pi), each relation comes out times the power of L that
    clears it: L for Y + X^t, L^3 for X^t S1 X - 2 pi S X and
    Y^t S2 Y - 2 pi sy (their quadratic terms use L S1 and L S2), L^2 for the
    rest.  With integer L X, L Y and L pi every value is an integer, zero
    exactly when the relation is.

    Where Y + X^t is zero entry by entry, Y = -X^t: that block is yielded as
    the ring's zero, and the minors of Y as the X-minor objects, transposed
    (the minor of -X^t at rows (i, j) and columns (k, l) is that of X at rows
    (k, l) and columns (i, j)).  S1 and S2 are symmetric, so X^t (L S1 X),
    X^t (S2 X), Y^t (S1 Y) and Y^t (L S2 Y) are formed by _sym_mul.

    Over a domain, or over Z^n (`domain`), a matrix of rank at most one is
    factored once by _rank_one, a X = c r^t, and each block of a factored
    matrix is decided from a short vector before it is formed: its minors
    are zero; X^t Y is zero iff c . c' = 0, with (a', c', r') the factors of
    Y (a a' X^t Y = (c . c') r r'^t), which are (a, -r, c) at Y = -X^t; and
    each quadratic block by _quadratic_blocks.  A block decided zero is
    yielded as the ring's zero; every other block is formed as without
    `domain`, so the values are the same either way.
    """
    d = len(X)
    Xt = [list(col) for col in zip(*X)]
    LS1 = [[L * v for v in row] for row in nf.S1]
    LS2 = [[L * v for v in row] for row in nf.S2]
    zero = pi * 0  # the ring's zero, or the int 0
    skew_sum = _mat_add(Y, Xt)
    skew = not any(_entries(skew_sum))
    yield from ([zero] * (d * d) if skew else _entries(skew_sum))
    fx = _rank_one(X) if domain else None
    if skew:
        fy = None if fx is None else (fx[0], [-v for v in fx[2]], fx[1])
    else:
        fy = _rank_one(Y) if domain else None
    factored = fx is not None and fy is not None
    if factored and not _mat_mul([fx[1]], [[v] for v in fy[1]], zero)[0][0]:
        yield from repeat(zero, d * d)
    else:
        yield from _entries(_mat_mul(Xt, Y, zero))
    n = comb(d, 2)
    mx = minors(X, 2) if fx is None else [zero] * (n * n)
    yield from mx
    if skew:
        yield from (mx[c * n + r] for r in range(n) for c in range(n))
    else:
        yield from minors(Y, 2) if fy is None else repeat(zero, n * n)
    yield from _quadratic_blocks(X, LS1, nf.S2, pi, ((LS1, -2 * pi), (nf.S2, 2)), fx, zero)
    yield from _quadratic_blocks(Y, LS2, nf.S1, pi, ((nf.S1, 2), (LS2, -2 * pi)), fy, zero)


def build_naive_chart_ideal(nf):
    """The naive chart ideal: the relations of _naive_relations on (X, Y)."""
    ring = big_ring(nf)
    X, Y = (named_matrix(ring.var, stem, nf.d) for stem in "xy")
    return Ideal(ring, _naive_relations(nf, X, Y, ring.var("pi")))


def _diagonal_block(nf, Z):
    """The Delta x Delta block A of the section, from the parity split of Z.

    Same parity: Z = [B1|B2] and A = B2 J B1^t Jdelta.  Mixed parity:
    Z = [B1|E|B2], whose middle column E is X column d // 2 + 1 (left out of
    Delta), and A = (B2 J B1^t + E E^t / 2) Jdelta.  J is the antidiagonal
    of the width of B1 and B2, Jdelta that of size delta.  A product with an
    antidiagonal on the right reverses the columns.
    """
    m = nf.d - nf.delta
    side = m // 2
    zero = Z[0][0] * 0  # the ring's zero
    B1t = list(zip(*(row[:side] for row in Z)))
    B2J = [row[m - side :][::-1] for row in Z]
    inner = _mat_mul(B2J, B1t, zero)
    if nf.parity_case == "II":
        E = [[row[side]] for row in Z]
        inner = _mat_add(inner, _mat_mul(E, list(zip(*E)), zero), HALF)
    return [row[::-1] for row in inner]


def _closed_sum(Z):
    """The sum of Z[i][m-1-j] Z[delta-1-i][j] over every entry, which is 2 T(Z)."""
    delta, m = len(Z), len(Z[0])
    acc = Z[0][0].ring.zero()
    for i in range(delta):
        for j in range(m):
            acc = acc + Z[i][m - 1 - j] * Z[delta - 1 - i][j]
    return acc


def trace_form(nf, ring=None):
    """The trace quadric T(Z), half the closed sum."""
    return _closed_sum(z_matrix(nf, ring or z_ring(nf))) * HALF


@_once_per_memo
def build_U_ideals(nf):
    """Reduced presentations: U = (minors, T+2pi); small = (minors, (T+2pi).Z).

    Built once per nf inside `groebner.memo()`.
    """
    ring = z_ring(nf)
    Z = z_matrix(nf, ring)
    T = trace_form(nf, ring)
    quad = T + 2 * ring.var("pi")
    mins = minors(Z, 2)
    return Ideal(ring, mins + [quad]), Ideal(ring, mins + [quad * e for e in _entries(Z)])


def build_DT_ideal(nf):
    """The determinantal chart: minors plus the full sum set to -4 pi."""
    ring = z_ring(nf)
    Z = z_matrix(nf, ring)
    gens = minors(Z, 2) + [_closed_sum(Z) + 4 * ring.var("pi")]
    return Ideal(ring, gens)


# ------------------------------------------------------ block substitution


def _psi_x_images(nf, ring):
    """Images of every x entry under the section into the Z variables.

    D = -Jm Z^t Jdelta Z / 2 and C = -Jm Z^t Jdelta A / 2, with Jm and Jdelta
    the antidiagonals of sizes d - delta and delta: Jm on the left reverses
    the rows of Z^t, Jdelta on the right its columns.
    """
    Z = z_matrix(nf, ring)
    A = _diagonal_block(nf, Z)
    W = [[-HALF * v for v in col[::-1]] for col in reversed(list(zip(*Z)))]
    D = _mat_mul(W, Z, ring.zero())
    C = _mat_mul(W, A, ring.zero())

    pos_d = {a: i for i, a in enumerate(nf.Delta)}
    pos_c = {b: j for j, b in enumerate(nf.DeltaC)}
    images = {}
    for a in range(1, nf.d + 1):
        for b in range(1, nf.d + 1):
            if a in pos_d:
                img = Z[pos_d[a]][pos_c[b]] if b in pos_c else A[pos_d[a]][pos_d[b]]
            else:
                img = D[pos_c[a]][pos_c[b]] if b in pos_c else C[pos_c[a]][pos_d[b]]
            images[(a, b)] = img
    return images


def block_substitution(nf):
    """The section of the inclusion Q[pi, Z] -> Q[pi, X, Y].

    Fixes pi, is the identity on the Z positions of X, expresses every other
    block entry polynomially in Z, and sends Y to -X^t.
    """
    source = big_ring(nf)
    target = z_ring(nf)
    x_images = _psi_x_images(nf, target)
    images = {"pi": target.var("pi")}
    for (a, b), img in x_images.items():
        images["x_%d_%d" % (a, b)] = img
        images["y_%d_%d" % (a, b)] = -x_images[(b, a)]
    return RingMap(source, target, images)


# ------------------------------------------------------------ verification


def _rank_one_samples(nf, count, seed):
    rng = random.Random(seed)
    delta, m = nf.delta, nf.d - nf.delta
    samples = []
    for _ in range(count):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(delta)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
        samples.append((a, b))
    return samples


class _Zn:
    """An element of the product ring Z^n: `v`, a list of one int per sample.

    +, - and * act coordinatewise, also against an int, and so does
    negation.  It is true when some coordinate is nonzero, so
    _naive_relations and minors skip a product only where it is zero at
    every sample.  The coordinates are a list, not a tuple: the interpreter
    keeps up to 2,000 freed tuples of each length up to 20 for reuse, which
    the oracle's thousands of short-lived elements would fill.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        if other.__class__ is _Zn:
            return _Zn(list(map(add, self.v, other.v)))
        return _Zn(list(map(add, self.v, repeat(other))))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is _Zn:
            return _Zn(list(map(sub, self.v, other.v)))
        return _Zn(list(map(sub, self.v, repeat(other))))

    def __rsub__(self, other):
        return _Zn(list(map(sub, repeat(other), self.v)))

    def __mul__(self, other):
        if other.__class__ is _Zn:
            return _Zn(list(map(mul, self.v, other.v)))
        return _Zn(list(map(mul, self.v, repeat(other))))

    __rmul__ = __mul__

    def __neg__(self):
        return _Zn(list(map(neg, self.v)))

    def __bool__(self):
        return any(self.v)


def _scaled_at_samples(ring, X, points):
    """(L X, L pi, L) over Z^n, for a matrix X over `ring` and n points of
    `ring.point`, with L_s the least positive int that clears X and pi at
    point s.

    With D_s the common denominator of point s, K the largest degree of the
    entries (at least 1) and c the lcm of their denominators, c D_s^K clears
    them all: each entry times it is summed in ints, term by term, from
    the products of the points' numerators.  Every coordinate is then
    divided by the gcd of its values there and c D_s^K, which leaves L_s.
    """
    dens, nums = zip(*points)
    coords = [_Zn(list(v)) for v in zip(*nums)]  # the numerators of each variable
    top = max(1, *(v.total_degree() for v in _entries(X)))
    c = lcm(*(v.den for v in _entries(X)))
    den_pow = [_Zn([1] * len(dens))]
    for _ in range(top):
        den_pow.append(den_pow[-1] * _Zn(list(dens)))
    monomials = {}

    def scaled(p):
        acc = den_pow[0] * 0
        for e, k in p.numerators().items():
            t = monomials.get(e)
            if t is None:
                t = den_pow[top - sum(e)]
                for x, j in zip(coords, e):
                    for _ in range(j):
                        t = t * x
                monomials[e] = t
            acc = acc + t * (k * (c // p.den))
        return acc

    LX = [[scaled(v) for v in row] for row in X]
    pi = den_pow[top - 1] * coords[ring.index["pi"]] * c
    L = den_pow[top] * c
    g = list(map(gcd, L.v, pi.v, *(v.v for v in _entries(LX))))
    return ([[_Zn(list(map(floordiv, v.v, g))) for v in row] for row in LX],
            _Zn(list(map(floordiv, pi.v, g))), _Zn(list(map(floordiv, L.v, g))))


def _oracle_points(nf, ring, count, seed):
    """The rank-one samples Z = a b^t with pi = -T(Z)/2, each normalised once
    by `ring`.point."""
    delta, m = nf.delta, nf.d - nf.delta
    T = trace_form(nf, ring)
    points = []
    for a, b in _rank_one_samples(nf, count, seed):
        assign = {"z_%d_%d" % (i, j): a[i - 1] * b[j - 1]
                  for i in range(1, delta + 1) for j in range(1, m + 1)}
        assign["pi"] = 0
        assign["pi"] = -T.evaluate(assign) / 2
        points.append(ring.point(assign))
    return points


def _oracle_failures(nf, psi, count, seed):
    """The number of rank-one samples at which psi does not kill the naive chart.

    The samples are those of _oracle_points, evaluated together over the
    product ring Z^n of the n samples (_Zn): psi's x-images become the
    matrix L X, with L_s the least positive int that clears X and pi at
    sample s (see _scaled_at_samples), and Y = -X^t, as block_substitution
    defines it.  _naive_relations on (L X, -(L X)^t, L pi) at L then holds
    at each coordinate s the ints that it gives at sample s alone: each
    relation times a power of L_s != 0, zero exactly when the relation is.
    Each coordinate is a domain, so the blocks are decided from factors
    taken sample by sample (`domain`).  psi is a ring map, so a relation is
    nonzero at a sample exactly when psi of that generator is: a sample
    fails iff some relation is nonzero at its coordinate, and the count
    equals that of evaluating every image psi(g) at every sample.
    """
    ring = psi.target
    points = _oracle_points(nf, ring, count, seed)
    X = named_matrix(psi.images.__getitem__, "x", nf.d)
    LX, pi, L = _scaled_at_samples(ring, X, points)
    failed = set()
    for r in _naive_relations(nf, LX, _minus_transpose(LX), pi, L, domain=True):
        if r:
            failed.update(s for s, v in enumerate(r.v) if v)
            if len(failed) == len(points):
                break
    return len(failed)


def _small_maps(nf, ring):
    """The two ring maps out of `ring` = Q[pi, Z] whose kernels meet in small.

    The first sets Z = 0, into Q[pi].  The second is the Segre
    parametrization Z = 2 u v^t, pi = -ab, into Q[u, v], with
    a = sum u_i u_{delta+1-i} and b = sum v_j v_{m+1-j}, m = d - delta: there
    T(Z) = 2ab, so T + 2 pi goes to 0.  The factor 2 doubles u, an
    automorphism of Q[u, v] that keeps the kernel, and makes every
    coefficient of both maps an integer.
    """
    delta, m = nf.delta, nf.d - nf.delta
    line = PolyRing(["pi"])
    at_zero = dict.fromkeys(ring.variables, line.zero())
    at_zero["pi"] = line.var("pi")
    uv = PolyRing(["u_%d" % i for i in range(1, delta + 1)] + ["v_%d" % j for j in range(1, m + 1)])
    u = [uv.var("u_%d" % i) for i in range(1, delta + 1)]
    v = [uv.var("v_%d" % j) for j in range(1, m + 1)]
    a = sum((x * y for x, y in zip(u, reversed(u))), uv.zero())
    b = sum((x * y for x, y in zip(v, reversed(v))), uv.zero())
    segre = {"z_%d_%d" % (i + 1, j + 1): 2 * x * y
             for i, x in enumerate(u) for j, y in enumerate(v)}
    segre["pi"] = -(a * b)
    return RingMap(ring, line, at_zero), RingMap(ring, uv, segre)


def _mapped(maps, M):
    """The matrix M, as a list of rows, under each of the maps."""
    return [[[f(v) for v in row] for row in M] for f in maps]


def _first_outside_small(nf, points):
    """The index of the first naive relation at the points outside small, or None.

    `points` holds (X, Y, pi) under each of the two maps of _small_maps: a
    relation lies in small iff it is zero under both.  Both maps go to
    domains, so the blocks of a matrix of rank at most one are decided from
    its factors (`domain` of _naive_relations).  A point where X and Y are
    zero is passed over, since every naive relation lies in (X, Y).  The
    active groebner deadline is checked before each relation.
    """
    runs = [_naive_relations(nf, X, Y, pi, domain=True) for X, Y, pi in points
            if any(_entries(X)) or any(_entries(Y))]
    for k, values in enumerate(zip(*runs)):
        check_deadline()
        if any(values):
            return k
    return None


def _outside_span(vectors, targets):
    """The targets outside the Q-linear span of `vectors`, polynomials of one ring.

    Row reduction: each kept row leads with a monomial that no other kept
    row leads with.
    """
    rows = {}  # leading monomial -> the row

    def reduce(p):
        while p and p.lm() in rows:
            check_deadline()
            row = rows[p.lm()]
            p = p - row * (p.lc() / row.lc())
        return p

    for p in vectors:
        p = reduce(p)
        if p:
            rows[p.lm()] = p
    return [t for t in targets if reduce(t)]


ORACLE_SAMPLES = 20


def verify_presentation(nf, mode="sound", seed=7):
    """Check that the section kills the naive chart ideal, then some.

    First, trace_form's T must be the trace of the section's block A (the
    x_a_a images, a in Delta).  sound: every generator maps into small, by
    the naive relations at the section's x-images (and y-images, unless
    Y = -X^t by value) under the two maps of _small_maps; a failing one is
    reported with the normal form of its image modulo small's basis.  A
    seeded rank-one evaluation oracle re-checks the section's own images
    exactly (see _oracle_failures).  Under the Segre map and at the oracle's
    samples the section's X has rank one, so each block of the relations is
    decided there from the factors of X and formed only if it is nonzero;
    the values, and so the report, are those of forming every block.
    complete: also prove that the naive ideal contracts to exactly small in
    Q[pi, Z] and that the section is onto (see _verify_complete).
    """
    instance = {"d": nf.d, "delta": nf.delta, "mode": mode}
    with checking("za1", instance) as report:
        naive = build_naive_chart_ideal(nf)
        psi = block_substitution(nf)
        if trace_form(nf, psi.target) != sum(psi.images["x_%d_%d" % (a, a)] for a in nf.Delta):
            report.fail("block_trace", False)
        _, small = build_U_ideals(nf)
        maps = _small_maps(nf, psi.target)
        X, Y = (named_matrix(psi.images.__getitem__, stem, nf.d) for stem in "xy")
        skew = Y == _minus_transpose(X)
        mapped = _mapped(maps, X)
        mapped_y = [_minus_transpose(M) for M in mapped] if skew else _mapped(maps, Y)
        pis = [f(psi.images["pi"]) for f in maps]
        failed = _first_outside_small(nf, zip(mapped, mapped_y, pis))
        reduced_zero = len(naive.generators)
        if failed is not None:
            reduced_zero, g = failed, naive.generators[failed]
            report.fail("offending_generator", str(g))
            report.details["residue"] = str(ideal_member(psi(g), small)[1].residue)
        report.details["generators"] = len(naive.generators)
        report.details["reduced_to_zero"] = reduced_zero

        if report.status == PASS:
            bad = _oracle_failures(nf, psi, ORACLE_SAMPLES, seed)
            report.details["oracle_samples"] = ORACLE_SAMPLES
            if bad:
                report.fail("oracle_failures", bad)

        if report.status == PASS and mode == "complete":
            _verify_complete(nf, psi, small, report, (maps, mapped) if skew else None)
    return report


def _solving_chain(H, ring, known):
    """For each target, a generator of H that solves for it, round by round.

    A generator solves for x when x occurs in it only as a term c x (c a
    nonzero rational) and each other variable it uses is pi, a name in
    `known` or a target of an earlier round.  The support of each distinct
    generator with a linear term, and its variables of that form, are read
    once.  Returns the rounds, each a dict from target name to
    (generator, c); the first generator in H order wins, and a target in no
    round is unsolved.
    """
    index = {}  # id of a generator -> (generator, support, {i: c of x_i})
    for g in H:
        # only a generator with a linear term can solve for a variable
        if id(g) in index:
            continue
        exps = g.numerators()
        if not any(sum(e) == 1 for e in exps):
            continue
        support, units, nonlinear = set(), {}, set()
        for e, c in exps.items():
            used = [i for i, k in enumerate(e) if k]
            support.update(used)
            if len(used) == 1 and e[used[0]] == 1:
                units[used[0]] = Fraction(c, g.den)
            else:
                nonlinear.update(used)
        index[id(g)] = (g, support, {i: c for i, c in units.items() if i not in nonlinear})
    done = {ring.index[v] for v in known} | {ring.index["pi"]}
    rounds = []
    while True:
        found = {}
        for g, support, units in index.values():
            rest = support - done
            if len(rest) == 1:
                (i,) = rest
                if i in units and i not in found:
                    found[i] = (g, units[i])
        if not found:
            return rounds
        rounds.append({ring.variables[i]: gc for i, gc in found.items()})
        done.update(found)


def _retraction(nf, xr, rounds, target):
    """The images in `target` = Q[pi, Z] of the retraction phi that the rounds solve.

    phi fixes pi and sends each Z-position entry to its z variable; a target
    solved by c x + f goes to -phi(f)/c, where f uses only the variables of
    earlier rounds.  Each x - phi(x) lies in the ideal of the generators.
    """
    images = {"pi": target.var("pi")}
    for (i, j), (a, b) in nf.z_cells:
        images["x_%d_%d" % (a, b)] = target.var("z_%d_%d" % (i, j))
    for found in rounds:
        phi = RingMap(xr, target, images)
        for name, (g, c) in found.items():
            images[name] = phi(g - c * xr.var(name)) * (-1 / c)
    return images


def _verify_complete(nf, psi, small, report, proof=None):
    """The naive ideal contracts to `small` in Q[pi, Z], and the section is onto.

    H is the naive ideal at Y = -X^t, _naive_relations evaluated at (X, -X^t)
    in x_ring, and E its intersection with Q[pi, Z], the Z-position entries
    read as Z.  Every target x (a non-Z entry) must be solved by a generator
    c x + f of H (see _solving_chain), or the claim fails under
    `unsolved_targets`.  The solutions compose to a retraction phi onto
    Q[pi, Z] with each x - phi(x) in H, so E is the ideal of phi(H).  phi(X)
    goes through the maps of _small_maps; an entry with phi(x) = psi(x)
    takes psi's images from `proof`, sound mode's (maps, mapped psi(X)) when
    it proved the relations at (psi(X), -psi(X)^t), else mapped here.  Then:

    - E in small: by sound mode's proof if no map separates phi(X) from
      psi(X), else by the relations at the mapped phi(X)
      (`contraction_failures` names the first relation of H that fails);
    - small in E: each generator of `small` lies in the Q-linear span of the
      phi(g) of weighted degree at most 3, or in their ideal by its basis
      (`unreached_small_generators` lists those in neither);
    - onto: with E = small, x - psi(x) lies in H iff no map separates phi(x)
      from psi(x) (`surjectivity_failures`).

    E's reduced basis is `small.gb()` renamed, since the renaming of z_ij to
    its x entry keeps the variable order; `contraction_generators` counts it.
    """
    xr = x_ring(nf)
    X = named_matrix(xr.var, "x", nf.d)
    H = list(_naive_relations(nf, X, _minus_transpose(X), xr.var("pi")))
    report.details["x_ring_generators"] = sum(1 for g in H if not g.is_zero)
    z_of_x = {"x_%d_%d" % ab: "z_%d_%d" % ij for ij, ab in nf.z_cells}
    targets = [v for v in xr.variables if v != "pi" and v not in z_of_x]
    rounds = _solving_chain(H, xr, z_of_x)
    unsolved = sorted(set(targets).difference(*rounds))
    if unsolved:
        report.fail("unsolved_targets", unsolved)
        return
    phi = _retraction(nf, xr, rounds, small.ring)
    Xpsi = named_matrix(psi.images.__getitem__, "x", nf.d)
    if proof is None:
        maps = _small_maps(nf, small.ring)
        at_psi = _mapped(maps, Xpsi)
    else:
        maps, at_psi = proof
    at_phi = [
        [[w if u == v else f(u) for u, v, w in zip(*rows)]
         for rows in zip(named_matrix(phi.__getitem__, "x", nf.d), Xpsi, M)]
        for f, M in zip(maps, at_psi)
    ]
    names = list(_entries(named_matrix(str, "x", nf.d)))
    moved = {name for M, N in zip(at_phi, at_psi)
             for name, u, v in zip(names, _entries(M), _entries(N)) if u != v}

    # E in small
    if proof is None or moved:
        pis = [f(phi["pi"]) for f in maps]
        points = [(M, _minus_transpose(M), p) for M, p in zip(at_phi, pis)]
        failed = _first_outside_small(nf, points)
        if failed is not None:
            report.fail("contraction_failures", [str(H[failed])])
            return

    # small in E, from the images of weighted degree at most 3
    weight = [max(phi[v].total_degree(), 0) for v in xr.variables]
    to_z = RingMap(xr, small.ring, phi)
    seen, low = set(), []
    for g in H:
        if g.is_zero or id(g) in seen:
            continue
        seen.add(id(g))
        if max(sum(map(mul, weight, e)) for e in g.numerators()) <= 3:
            low.append(to_z(g))
    outside = _outside_span(low, small.generators)
    if outside:
        reached = Ideal(small.ring, low)
        unreached = [str(g) for g in outside if not ideal_member(g, reached)[0]]
        if unreached:
            report.fail("unreached_small_generators", unreached)
            return

    wrong_x = [name for name in names if name in moved and name not in z_of_x]
    # a y entry is certified by its linear relation y + x^t only where the
    # section sends it to minus the image of the transposed x entry
    wrong_y = [
        name
        for row in zip(
            named_matrix(str, "y", nf.d),
            named_matrix(psi.images.__getitem__, "y", nf.d),
            _minus_transpose(Xpsi),
        )
        for name, u, v in zip(*row)
        if u != v
    ]
    failures = sorted(wrong_x + wrong_y)
    report.details["surjectivity_certified"] = len(targets) - len(wrong_x)
    report.details["surjectivity_targets"] = len(targets)
    # the remaining big-ring variables are certified exactly: the Z-position
    # entries are fixed by the section, the y entries at minus the transposed
    # x images reduce by their linear relation, and pi maps to itself
    report.details["surjectivity_trivial"] = len(z_of_x) + nf.d * nf.d - len(wrong_y) + 1
    if failures:
        report.fail("surjectivity_failures", failures)
        return

    at = [xr.index[v] for v in z_of_x]
    if at != sorted(at):
        raise LatticeError("the Z positions of the normal form are not in x_ring order")
    report.details["contraction_generators"] = len(small.gb())


def verify_annihilator(nf):
    """The annihilator of the trace quadric in the naive chart is (Z)."""
    instance = {"d": nf.d, "delta": nf.delta}
    with checking("annihilator", instance) as report:
        _, small = build_U_ideals(nf)
        ring = small.ring
        T = trace_form(nf, ring)
        quad = T + 2 * ring.var("pi")
        ann = quotient(small, quad)
        zideal = Ideal(ring, [ring.var(v) for v in ring.variables if v != "pi"])
        if not ideal_equal(ann, zideal):
            report.fail("annihilator", [str(g) for g in ann.generators])
            miss = first_nonmember(zideal.generators, ann) or first_nonmember(
                ann.generators, zideal
            )
            if miss is not None:
                report.details["witness"] = str(miss.residue)
    return report


def flatness_and_dimension(chart, expected_rel_dim):
    """pi-nonzerodivisor proxy for flatness plus the Krull dimension count.

    The report's instance is empty; the caller names the chart.
    """
    from .groebner import krull_dim

    with checking("flatness-dims", {}) as report:
        report.require("flat", is_nonzerodivisor(chart, chart.ring.var("pi")))
        dim = krull_dim(chart)
        report.details["dim"] = dim
        report.details["expected_dim"] = expected_rel_dim + 1
        if dim != expected_rel_dim + 1:
            report.status = FAIL
    return report
