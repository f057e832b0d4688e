"""The distinguished affine chart of the local model and its presentations.

Builds the naive chart ideal from the matrix relations, the reduced
presentations in the Z variables, the determinantal chart cut out by the
trace quadric, and the block-substitution section that proves them equal.
All charts live over Q[pi, ...] with the special fiber at pi = 0.

The naive relations on (X, Y) are defined once, in _naive_relations, over
any ring.  A ring map commutes with them, so za1 evaluates that one function
wherever it needs them: on the variables of the big ring for the naive
ideal, on the normal forms of the section's entries for sound mode, in
integers for the rank-one oracle, and at Y = -X^t in x_ring for complete
mode.  The last three have Y = -X^t, which _naive_relations tests by value:
there the minors of Y are those of X, transposed, and are not computed
again.  The four quadratic forms are symmetric, as S1 and S2 are, so only
their upper triangles are formed.

Sound mode first reduces the section's d^2 x-images modulo the small ideal
(and its y-images too, if they are not -X^t); an entry below the degree of
every leading term of its basis is already a normal form and is kept as it
is.  An entry and its normal form differ by a member of the ideal, so the
relations at the normal forms lie in the ideal exactly when the images
psi(g) do, and have the same normal form as they have: the proof and any
failing residue are those of the images themselves, from much smaller
polynomials.  Each relation value is reduced once: a value equal to one
that has reduced to zero is not reduced again.  The rank-one oracle still
evaluates the section itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm

# buchberger is not called here, but bench/test_bench.py requires this module
# to bind it so that the tracer's re-binding coverage is exercised
from .groebner import Ideal, buchberger, eliminate, first_nonmember, ideal_equal, \
    ideal_member, is_nonzerodivisor, quotient  # noqa: F401
from .poly import Block, PolyRing, RingMap, minors
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


def _naive_relations(nf, X, Y, pi, L=1):
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
    """
    d = len(X)
    Xt = [list(col) for col in zip(*X)]
    Yt = [list(col) for col in zip(*Y)]
    LS1 = [[L * v for v in row] for row in nf.S1]
    LS2 = [[L * v for v in row] for row in nf.S2]
    zero = pi * 0  # the ring's zero, or the int 0
    skew_sum = _mat_add(Y, Xt)
    skew = not any(_entries(skew_sum))
    yield from ([zero] * (d * d) if skew else _entries(skew_sum))
    yield from _entries(_mat_mul(Xt, Y, zero))
    mx = minors(X, 2)
    yield from mx
    if skew:
        n = comb(d, 2)
        yield from (mx[c * n + r] for r in range(n) for c in range(n))
    else:
        yield from minors(Y, 2)
    LS1X, S2X = _mat_mul(LS1, X, zero), _mat_mul(nf.S2, X, zero)
    SX = _mat_add(LS1X, S2X, pi)
    yield from _entries(_mat_add(_sym_mul(Xt, LS1X, zero), SX, -2 * pi))
    yield from _entries(_mat_add(_sym_mul(Xt, S2X, zero), SX, 2))
    LS2Y, S1Y = _mat_mul(LS2, Y, zero), _mat_mul(nf.S1, Y, zero)
    sy = _mat_add(LS2Y, S1Y, pi)
    yield from _entries(_mat_add(_sym_mul(Yt, S1Y, zero), sy, 2))
    yield from _entries(_mat_add(_sym_mul(Yt, LS2Y, zero), sy, -2 * pi))


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


def build_U_ideals(nf):
    """Reduced presentations: U = (minors, T+2pi); small = (minors, (T+2pi).Z)."""
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


def _oracle_failures(nf, psi, count, seed):
    """The number of rank-one samples at which psi does not kill the naive chart.

    Each sample is Z = a b^t with pi = -T(Z)/2.  The section is evaluated once
    there, into the numeric matrix X of its x-images: the point is normalised
    once by PolyRing.point, and every image is evaluated at it with
    Polynomial.at.  Y = -X^t, as block_substitution defines it.  With L the
    lcm of the denominators of pi and of X, _naive_relations is then
    evaluated in integers on (L X, -(L X)^t, L pi): exact, and zero exactly
    when the relation is.  psi is a ring map, so a relation is nonzero there
    exactly when psi of that generator is nonzero at the sample: the count
    equals that of evaluating every image psi(g).
    """
    delta, m = nf.delta, nf.d - nf.delta
    T = trace_form(nf, psi.target)
    x_images = named_matrix(psi.images.__getitem__, "x", nf.d)
    bad = 0
    for a, b in _rank_one_samples(nf, count, seed):
        assign = {"z_%d_%d" % (i, j): a[i - 1] * b[j - 1]
                  for i in range(1, delta + 1) for j in range(1, m + 1)}
        assign["pi"] = 0
        pi = assign["pi"] = -T.evaluate(assign) / 2
        point = psi.target.point(assign)
        X = [[img.at(point) for img in row] for row in x_images]
        L = lcm(pi.denominator, *(v.denominator for row in X for v in row))
        Xn = [[v.numerator * (L // v.denominator) for v in row] for row in X]
        if any(_naive_relations(nf, Xn, _minus_transpose(Xn), pi.numerator * (L // pi.denominator), L)):
            bad += 1
    return bad


def _section_residues(nf, psi, small):
    """The normal forms modulo `small` of the section's X and Y, as lists of rows.

    Each entry differs from its image by a member of `small`, so every
    relation at the normal forms differs from psi of its generator by a
    member too: the two lie in `small` together and share one normal form.
    Y is reduced as -(reduced X)^t when the section's own Y is -X^t by value,
    and entry by entry otherwise, so a section that breaks Y = -X^t is still
    reduced as it is.
    """
    X, Y = (named_matrix(psi.images.__getitem__, stem, nf.d) for stem in "xy")
    # an entry below the degree of every leading term is its own normal form
    low = min(sum(b.lm()) for b in small.gb())

    def residue(v):
        return v if v.total_degree() < low else ideal_member(v, small)[1].residue

    Xr = [[residue(v) for v in row] for row in X]
    if Y == _minus_transpose(X):
        return Xr, _minus_transpose(Xr)
    return Xr, [[residue(v) for v in row] for row in Y]


ORACLE_SAMPLES = 20


def verify_presentation(nf, mode="sound", seed=7):
    """Check that the section kills the naive chart ideal, then some.

    First, trace_form's T must be the trace of the section's block A (the
    x_a_a images, a in Delta).  sound: every generator maps into (minors,
    (T+2pi) Z), by Groebner reduction of its relation at the section's
    reduced entries (see _section_residues), and a seeded rank-one
    evaluation oracle re-checks the section's own images exactly (see
    _oracle_failures).  complete: also prove
    the section onto and contract the naive ideal onto the Z subring, both
    from one complete basis under an elimination order (see _verify_complete).
    """
    instance = {"d": nf.d, "delta": nf.delta, "mode": mode}
    with checking("za1", instance) as report:
        naive = build_naive_chart_ideal(nf)
        psi = block_substitution(nf)
        if trace_form(nf, psi.target) != sum(psi.images["x_%d_%d" % (a, a)] for a in nf.Delta):
            report.fail("block_trace", False)
        _, small = build_U_ideals(nf)
        X, Y = _section_residues(nf, psi, small)
        images = _naive_relations(nf, X, Y, psi.images["pi"])
        reduced_zero = 0
        passed = set()  # the values that reduced to zero
        for g, img in zip(naive.generators, images, strict=True):
            if img.is_zero or img in passed:
                reduced_zero += 1
                continue
            ok, cert = ideal_member(img, small)
            if ok:
                passed.add(img)
                reduced_zero += 1
            else:
                report.fail("offending_generator", str(g))
                report.details["residue"] = str(cert.residue)
                break
        report.details["generators"] = len(naive.generators)
        report.details["reduced_to_zero"] = reduced_zero

        if report.status == PASS:
            bad = _oracle_failures(nf, psi, ORACLE_SAMPLES, seed)
            report.details["oracle_samples"] = ORACLE_SAMPLES
            if bad:
                report.fail("oracle_failures", bad)

        if report.status == PASS and mode == "complete":
            _verify_complete(nf, psi, small, report)
    return report


def _z_to_x_map(nf, target):
    zr = z_ring(nf)
    images = {"pi": target.var("pi")}
    for (i, j), (a, b) in nf.z_cells:
        images["z_%d_%d" % (i, j)] = target.var("x_%d_%d" % (a, b))
    return RingMap(zr, target, images)


def _verify_complete(nf, psi, small, report):
    """Surjectivity of the section and the contraction, from one basis.

    H is the naive ideal with Y = -X^t, _naive_relations evaluated at
    (X, -X^t) in x_ring, under the block order on the non-Z entries in x_ring
    order, which is how `eliminate` orders them.  The section is onto iff
    every target x_ab - psi(x_ab) lies in H, which a complete basis decides;
    the same basis gives the contraction of H onto Q[pi, Z] (the Elimination
    Theorem), which must lie in the small ideal.
    """
    xr = x_ring(nf)
    X = named_matrix(xr.var, "x", nf.d)
    H = _naive_relations(nf, X, _minus_transpose(X), xr.var("pi"))
    to_x = _z_to_x_map(nf, xr)
    z_of_x = {"x_%d_%d" % ab: "z_%d_%d" % ij for ij, ab in nf.z_cells}
    targets = [v for v in xr.variables if v != "pi" and v not in z_of_x]
    HI = Ideal(xr.with_order(Block(targets)), H)
    report.details["x_ring_generators"] = len(HI.generators)

    failures = sorted(
        name
        for name in targets
        if not ideal_member(xr.var(name) - to_x(psi.images[name]), HI)[0]
    )
    report.details["surjectivity_certified"] = len(targets) - len(failures)
    report.details["surjectivity_targets"] = len(targets)
    # the remaining big-ring variables are certified exactly: the Z-position
    # entries are fixed by the section, the skew block reduces by its linear
    # relation, and pi maps to itself
    report.details["surjectivity_trivial"] = len(z_of_x) + nf.d * nf.d + 1
    if failures:
        report.fail("surjectivity_failures", failures)
        return

    # contraction: eliminate every non-Z matrix entry, land inside the small ideal
    E = eliminate(HI, targets)
    rename = RingMap(
        E.ring,
        small.ring,
        {v: small.ring.var(z_of_x.get(v, v)) for v in E.ring.variables},
    )
    bad = [str(g) for g in E.generators if not ideal_member(rename(g), small)[0]]
    report.details["contraction_generators"] = len(E.generators)
    if bad:
        report.fail("contraction_failures", bad)


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
