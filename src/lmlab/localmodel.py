"""The distinguished affine chart of the local model and its presentations.

Builds the naive chart ideal from the matrix relations, the reduced
presentations in the Z variables, the determinantal chart cut out by the
trace quadric, and the block-substitution section that proves them equal.
All charts live over Q[pi, ...] with the special fiber at pi = 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# buchberger is not called here, but bench/test_bench.py requires this module
# to bind it so that the tracer's re-binding coverage is exercised
from .groebner import BuchbergerRun, GBTimeout, Ideal, buchberger, eliminate, \
    ideal_equal, is_nonzerodivisor, quotient, reduce_poly  # noqa: F401
from .poly import PolyError, PolyMatrix, PolyRing, RingMap
from .report import FAIL, PASS, Stopwatch, TIMEOUT, UNCERTIFIED, VerificationReport

__all__ = [
    "ChartPresentation",
    "BlockLayout",
    "z_ring",
    "big_ring",
    "z_matrix",
    "antidiag",
    "block_layout",
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


@dataclass(frozen=True)
class ChartPresentation:
    """A named affine chart: ring, ideal, and where its equations come from."""

    name: str
    ring: PolyRing
    ideal: Ideal
    provenance: str


@dataclass(frozen=True)
class BlockLayout:
    """Block bookkeeping for the d x d matrix X and the Z dictionary.

    Ranges are 1-based inclusive (lo, hi) pairs.  z_dict sends a Z position
    (i, j) to the X position holding that entry; in the same-parity case this
    realizes Z = [B1|B2] verbatim, in the mixed-parity case the erased
    row/column index n+1 contributes the middle column of [B1'|E'|B2'].
    """

    parity_case: str
    band: tuple
    side_lo: tuple
    side_hi: tuple
    erased: int
    z_dict: dict


def block_layout(nf):
    delta_a = nf.delta if nf.parity_case == "I" else nf.delta + 1
    side = (nf.d - delta_a) // 2
    z_dict = {}
    for i, a in enumerate(nf.Delta, start=1):
        for j, b in enumerate(nf.DeltaC, start=1):
            z_dict[(i, j)] = (a, b)
    return BlockLayout(
        parity_case=nf.parity_case,
        band=(side + 1, side + delta_a),
        side_lo=(1, side),
        side_hi=(side + delta_a + 1, nf.d),
        erased=nf.n + 1 if nf.parity_case == "II" else 0,
        z_dict=z_dict,
    )


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
    return PolyMatrix.from_rows(
        [
            [ring.var("z_%d_%d" % (i, j)) for j in range(1, nf.d - nf.delta + 1)]
            for i in range(1, nf.delta + 1)
        ]
    )


def var_matrix(ring, stem, d):
    return PolyMatrix.from_rows(
        [
            [ring.var("%s_%d_%d" % (stem, i, j)) for j in range(1, d + 1)]
            for i in range(1, d + 1)
        ]
    )


def antidiag(ring, size):
    rows = [
        [ring.one() if i + j == size - 1 else ring.zero() for j in range(size)]
        for i in range(size)
    ]
    return PolyMatrix.from_rows(rows)


def int_matrix(ring, rows):
    return PolyMatrix.from_rows([[ring.const(v) for v in row] for row in rows])


# ------------------------------------------------------------ naive chart


def build_naive_chart_ideal(nf):
    """The naive chart ideal: matrix relations on the pair (X, Y).

    Generators, in order: entries of Y + X^t, entries of X^t Y, the 2x2
    minors of X and of Y, entries of X^t S1 X - 2 pi S X, X^t S2 X + 2 S X,
    Y^t S1 Y + 2 (S2 Y + pi S1 Y), Y^t S2 Y - 2 pi (S2 Y + pi S1 Y).
    """
    from .poly import minors

    ring = big_ring(nf)
    d = nf.d
    pi = ring.var("pi")
    X = var_matrix(ring, "x", d)
    Y = var_matrix(ring, "y", d)
    S1 = int_matrix(ring, nf.S1)
    S2 = int_matrix(ring, nf.S2)
    S = S1 + S2 * pi
    Xt = X.transpose()
    Yt = Y.transpose()

    gens = []
    gens += (Y + Xt).entries
    gens += (Xt * Y).entries
    gens += minors(X, 2)
    gens += minors(Y, 2)
    gens += (Xt * S1 * X - (S * X) * (2 * pi)).entries
    gens += (Xt * S2 * X + (S * X) * 2).entries
    sy = S2 * Y + (S1 * Y) * pi
    gens += (Yt * S1 * Y + sy * 2).entries
    gens += (Yt * S2 * Y - sy * (2 * pi)).entries
    gens = [g for g in gens if not g.is_zero]

    return ChartPresentation(
        name="u-naive[%d,%d]" % (nf.d, nf.delta),
        ring=ring,
        ideal=Ideal(ring, gens),
        provenance="naive chart relations on (X, Y) for d=%d, delta=%d" % (nf.d, nf.delta),
    )


def trace_form(nf, ring=None):
    """The trace quadric T(Z), cross-checked against its block formula."""
    ring = ring or z_ring(nf)
    delta, m = nf.delta, nf.d - nf.delta
    Z = z_matrix(nf, ring)
    T = ring.zero()
    for i in range(1, delta + 1):
        for j in range(1, m + 1):
            T = T + Z[i - 1, m - j] * Z[delta - i, j - 1]
    T = T * HALF

    side = (m - 1) // 2 if nf.parity_case == "II" else m // 2
    Jside = antidiag(ring, side)
    Jdelta = antidiag(ring, delta)
    if nf.parity_case == "I":
        B1 = Z.submatrix(range(delta), range(side))
        B2 = Z.submatrix(range(delta), range(side, 2 * side))
        T_block = (B2 * Jside * B1.transpose() * Jdelta).trace()
    else:
        B1 = Z.submatrix(range(delta), range(side))
        E = Z.submatrix(range(delta), [side])
        B2 = Z.submatrix(range(delta), range(side + 1, 2 * side + 1))
        inner = B2 * Jside * B1.transpose() + (E * E.transpose()) * HALF
        T_block = (inner * Jdelta).trace()
    if T != T_block:
        raise PolyError(
            "closed trace formula disagrees with the block formula at (%d,%d)"
            % (nf.d, nf.delta)
        )
    return T


def build_U_ideals(nf):
    """Reduced presentations: U = (minors, T+2pi); small = (minors, (T+2pi).Z)."""
    from .poly import minors

    ring = z_ring(nf)
    Z = z_matrix(nf, ring)
    T = trace_form(nf, ring)
    quad = T + 2 * ring.var("pi")
    mins = minors(Z, 2)
    U = ChartPresentation(
        name="u[%d,%d]" % (nf.d, nf.delta),
        ring=ring,
        ideal=Ideal(ring, mins + [quad]),
        provenance="reduced chart of the local model: rank-one locus plus trace quadric",
    )
    small = ChartPresentation(
        name="u-naive-small[%d,%d]" % (nf.d, nf.delta),
        ring=ring,
        ideal=Ideal(ring, mins + [quad * e for e in Z.entries]),
        provenance="reduced presentation of the naive chart in the Z variables",
    )
    return U, small


def build_DT_ideal(nf, timeout_s=None):
    """The determinantal chart: minors plus the full sum set to -4 pi.

    The displayed sum equals 2 T(Z), so the ideal must coincide with the
    reduced chart ideal; equality is asserted by Groebner comparison.
    """
    from .poly import minors

    ring = z_ring(nf)
    Z = z_matrix(nf, ring)
    delta, m = nf.delta, nf.d - nf.delta
    sig = ring.zero()
    for i in range(1, delta + 1):
        for j in range(1, m + 1):
            sig = sig + Z[i - 1, m - j] * Z[delta - i, j - 1]
    gens = minors(Z, 2) + [sig + 4 * ring.var("pi")]
    DT = ChartPresentation(
        name="dt[%d,%d]" % (nf.d, nf.delta),
        ring=ring,
        ideal=Ideal(ring, gens),
        provenance="determinantal chart with the -4 pi normalization",
    )
    U, _ = build_U_ideals(nf)
    if not ideal_equal(DT.ideal, U.ideal, timeout_s=timeout_s):
        raise PolyError("determinantal chart differs from the reduced chart ideal")
    return DT


# ------------------------------------------------------ block substitution


def _psi_x_images(nf, ring):
    """Images of every x entry under the section into the Z variables."""
    delta, m = nf.delta, nf.d - nf.delta
    Z = z_matrix(nf, ring)
    Jm = antidiag(ring, m)
    Jdelta = antidiag(ring, delta)
    if nf.parity_case == "I":
        side = m // 2
        Jside = antidiag(ring, side)
        B1 = Z.submatrix(range(delta), range(side))
        B2 = Z.submatrix(range(delta), range(side, m))
        A = B2 * Jside * B1.transpose() * Jdelta
    else:
        side = (m - 1) // 2
        Jside = antidiag(ring, side)
        B1 = Z.submatrix(range(delta), range(side))
        E = Z.submatrix(range(delta), [side])
        B2 = Z.submatrix(range(delta), range(side + 1, m))
        A = (B2 * Jside * B1.transpose() + (E * E.transpose()) * HALF) * Jdelta
    D = Jm * Z.transpose() * Jdelta * Z * (-HALF)
    C = Jm * Z.transpose() * Jdelta * A * (-HALF)

    pos_d = {a: i for i, a in enumerate(nf.Delta)}
    pos_c = {b: j for j, b in enumerate(nf.DeltaC)}
    images = {}
    for a in range(1, nf.d + 1):
        for b in range(1, nf.d + 1):
            if a in pos_d:
                img = Z[pos_d[a], pos_c[b]] if b in pos_c else A[pos_d[a], pos_d[b]]
            else:
                img = D[pos_c[a], pos_c[b]] if b in pos_c else C[pos_c[a], pos_d[b]]
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


def _mat_mul(A, B):
    """A B for matrices given as lists of rows; zero entries of A are skipped."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a) for col in cols] for row in A]


def _mat_add(A, B, c=1):
    """A + c B for matrices given as lists of rows."""
    return [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _naive_relation_values(nf, X, pi):
    """The generators of build_naive_chart_ideal at (pi, X, Y = -X^t).

    Yields the entries of every relation but Y + X^t, which vanishes there,
    and the minors of X only: those of Y = -X^t are the same, transposed.
    """
    Xt = [list(col) for col in zip(*X)]
    Y = [[-v for v in row] for row in Xt]
    Yt = [[-v for v in row] for row in X]
    SX = _mat_mul(_mat_add(nf.S1, nf.S2, pi), X)
    sy = _mat_mul(_mat_add(nf.S2, nf.S1, pi), Y)
    relations = (
        _mat_mul(Xt, Y),
        _mat_add(_mat_mul(Xt, _mat_mul(nf.S1, X)), SX, -2 * pi),
        _mat_add(_mat_mul(Xt, _mat_mul(nf.S2, X)), SX, 2),
        _mat_add(_mat_mul(Yt, _mat_mul(nf.S1, Y)), sy, 2),
        _mat_add(_mat_mul(Yt, _mat_mul(nf.S2, Y)), sy, -2 * pi),
    )
    for M in relations:
        for row in M:
            yield from row
    for r, r2 in combinations(X, 2):
        for j, j2 in combinations(range(len(r)), 2):
            yield r[j] * r2[j2] - r[j2] * r2[j]


def _oracle_failures(nf, psi, count, seed):
    """The number of rank-one samples at which psi does not kill the naive chart.

    Each sample is Z = a b^t with pi = -T(Z)/2.  The section is evaluated once
    there, into the numeric matrix X of its x-images; Y = -X^t, as
    block_substitution defines it.  The relations of build_naive_chart_ideal
    are then evaluated on (pi, X, Y) with exact fractions.  psi is a ring
    map, so a relation is nonzero at (pi, X, Y) exactly when psi of that
    generator is nonzero at the sample: the count equals that of evaluating
    every image psi(g).
    """
    d, delta, m = nf.d, nf.delta, nf.d - nf.delta
    T = trace_form(nf, psi.target)
    x_images = [[psi.images["x_%d_%d" % (a, b)] for b in range(1, d + 1)]
                for a in range(1, d + 1)]
    bad = 0
    for a, b in _rank_one_samples(nf, count, seed):
        assign = {"z_%d_%d" % (i, j): a[i - 1] * b[j - 1]
                  for i in range(1, delta + 1) for j in range(1, m + 1)}
        assign["pi"] = 0
        pi = assign["pi"] = -T.evaluate(assign) / 2
        X = [[img.evaluate(assign) for img in row] for row in x_images]
        if any(_naive_relation_values(nf, X, pi)):
            bad += 1
    return bad


def verify_presentation(nf, mode="sound", timeout_s=None, seed=7, oracle_samples=20):
    """Check that the section kills the naive chart ideal, then some.

    sound: every generator maps into (minors, (T+2pi) Z) by Groebner
    reduction, and a seeded rank-one evaluation oracle re-checks the images
    exactly (see _oracle_failures).  complete: additionally certify
    surjectivity of the section by degree-truncated certificates and contract
    the naive ideal onto the Z subring by elimination.
    """
    sw = Stopwatch()
    instance = {"d": nf.d, "delta": nf.delta, "mode": mode}
    report = VerificationReport("za1", instance, PASS)
    naive = build_naive_chart_ideal(nf)
    psi = block_substitution(nf)
    _, small = build_U_ideals(nf)

    try:
        basis = small.ideal.gb(timeout_s=timeout_s)
        reduced_zero = 0
        for g in naive.ideal.generators:
            img = psi(g)
            if img.is_zero:
                reduced_zero += 1
                continue
            r, _ = reduce_poly(img, list(basis), timeout_s=timeout_s)
            if r.is_zero:
                reduced_zero += 1
            else:
                report.status = FAIL
                report.details["offending_generator"] = str(g)
                report.details["residue"] = str(r)
                break
        report.details["generators"] = len(naive.ideal.generators)
        report.details["reduced_to_zero"] = reduced_zero

        if report.status == PASS:
            bad = _oracle_failures(nf, psi, oracle_samples, seed)
            report.details["oracle_samples"] = oracle_samples
            if bad:
                report.status = FAIL
                report.details["oracle_failures"] = bad

        if report.status == PASS and mode == "complete":
            _verify_complete(nf, psi, small, report, timeout_s)
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)

    report.runtime_ms = sw.ms()
    return report


def _y_elimination_map(nf):
    """Linear pre-elimination of the Y block through Y = -X^t."""
    source = big_ring(nf)
    target = x_ring(nf)
    images = {"pi": target.var("pi")}
    for a in range(1, nf.d + 1):
        for b in range(1, nf.d + 1):
            images["x_%d_%d" % (a, b)] = target.var("x_%d_%d" % (a, b))
            images["y_%d_%d" % (a, b)] = -target.var("x_%d_%d" % (b, a))
    return RingMap(source, target, images)


def _z_to_x_map(nf, target):
    zr = z_ring(nf)
    images = {"pi": target.var("pi")}
    for i, a in enumerate(nf.Delta, start=1):
        for j, b in enumerate(nf.DeltaC, start=1):
            images["z_%d_%d" % (i, j)] = target.var("x_%d_%d" % (a, b))
    return RingMap(zr, target, images)


def _verify_complete(nf, psi, small, report, timeout_s):
    xr = x_ring(nf)
    elim_y = _y_elimination_map(nf)
    to_x = _z_to_x_map(nf, xr)
    naive = build_naive_chart_ideal(nf)
    H = []
    for g in naive.ideal.generators:
        h = elim_y(g)
        if not h.is_zero:
            H.append(h)
    HI = Ideal(xr, H)
    report.details["x_ring_generators"] = len(HI.generators)

    z_positions = {(a, b) for a in nf.Delta for b in nf.DeltaC}
    targets = []
    for a in range(1, nf.d + 1):
        for b in range(1, nf.d + 1):
            if (a, b) in z_positions:
                continue
            v = xr.var("x_%d_%d" % (a, b))
            img = to_x(psi(big_ring(nf).var("x_%d_%d" % (a, b))))
            targets.append(("x_%d_%d" % (a, b), v - img))

    certified = {}
    uncertified = [name for name, _ in targets]
    # one run resumed through the bounds gives the bases of fresh bounded runs
    run = BuchbergerRun(HI)
    for bound in (2, 3, 4):
        if not uncertified:
            break
        basis, _ = run.advance(bound, timeout_s=timeout_s)
        still = []
        for name, p in targets:
            if name in certified:
                continue
            r, _ = reduce_poly(p, list(basis), timeout_s=timeout_s)
            if r.is_zero:
                certified[name] = bound
            else:
                still.append(name)
        uncertified = still
    del run  # free its pairs and memos before the elimination below
    report.details["surjectivity_certified"] = len(certified)
    report.details["surjectivity_targets"] = len(targets)
    # the remaining big-ring variables are certified exactly: the Z-position
    # entries are fixed by the section, the skew block reduces by its linear
    # relation, and pi maps to itself
    d2 = nf.d * nf.d
    report.details["surjectivity_trivial"] = (
        len(z_positions) + d2 + 1
    )
    if uncertified:
        report.status = UNCERTIFIED
        report.details["degree_bound_exhausted"] = sorted(uncertified)
        report.details["degree_bounds_tried"] = [2, 3, 4]
        return
    report.details["surjectivity_max_bound"] = max(certified.values(), default=0)

    # contraction: eliminate every non-Z matrix entry, land inside the small ideal
    elim_vars = [name for name, _ in targets]
    E = eliminate(HI, elim_vars, timeout_s=timeout_s)
    basis = small.ideal.gb(timeout_s=timeout_s)
    z_of_x = {"x_%d_%d" % (a, b): "z_%d_%d" % (i, j)
              for (i, j), (a, b) in block_layout(nf).z_dict.items()}
    rename = RingMap(
        E.ring,
        small.ring,
        {v: small.ring.var(z_of_x.get(v, v)) for v in E.ring.variables},
    )
    bad = []
    for g in E.generators:
        r, _ = reduce_poly(rename(g), list(basis), timeout_s=timeout_s)
        if not r.is_zero:
            bad.append(str(g))
    report.details["contraction_generators"] = len(E.generators)
    if bad:
        report.status = FAIL
        report.details["contraction_failures"] = bad


def verify_annihilator(nf, timeout_s=None):
    """The annihilator of the trace quadric in the naive chart is (Z)."""
    sw = Stopwatch()
    instance = {"d": nf.d, "delta": nf.delta}
    report = VerificationReport("annihilator", instance, PASS)
    try:
        _, small = build_U_ideals(nf)
        ring = small.ring
        T = trace_form(nf, ring)
        quad = T + 2 * ring.var("pi")
        ann = quotient(small.ideal, quad, timeout_s=timeout_s)
        zideal = Ideal(ring, [ring.var(v) for v in ring.variables if v != "pi"])
        if not ideal_equal(ann, zideal, timeout_s=timeout_s):
            report.status = FAIL
            # the computed annihilator generators are the witness
            report.details["annihilator"] = [str(g) for g in ann.generators]
            report.details["witness"] = str(ann.generators[0]) if ann.generators else "0"
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report


def flatness_and_dimension(cp, expected_rel_dim, timeout_s=None, check="flatness-dims"):
    """pi-nonzerodivisor proxy for flatness plus the Krull dimension count."""
    from .groebner import krull_dim

    sw = Stopwatch()
    report = VerificationReport(check, {"chart": cp.name}, PASS)
    try:
        ring = cp.ring
        flat = is_nonzerodivisor(cp.ideal, ring.var("pi"), timeout_s=timeout_s)
        dim = krull_dim(cp.ideal, timeout_s=timeout_s)
        report.details["flat"] = flat
        report.details["dim"] = dim
        report.details["expected_dim"] = expected_rel_dim + 1
        if not flat or dim != expected_rel_dim + 1:
            report.status = FAIL
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report
