"""Normal-form construction tests across the working grid."""

from fractions import Fraction

import pytest

from lmlab.lattice import LatticeError, normal_form, q1_form, q2_form
from lmlab.poly import PolyRing, minors

GRID = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]


def x_ring(d):
    return PolyRing(["pi"] + ["x_%d" % i for i in range(1, d + 1)])


def int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for k in range(n):
        if rows[0][k] == 0:
            continue
        sub = [r[:k] + r[k + 1 :] for r in rows[1:]]
        total += (-1) ** k * rows[0][k] * int_det(sub)
    return total


def test_case_5_1():
    nf = normal_form(5, 1)
    assert nf.case_tag == 4
    assert nf.Delta == (3,)
    assert nf.S2[2][2] == 1 and nf.S1[2][2] == 0
    for i in range(5):
        if i != 2:
            assert nf.S1[i][4 - i] == 1


def test_case_6_2():
    nf = normal_form(6, 2)
    assert nf.case_tag == 1
    assert nf.Delta == (3, 4)
    assert nf.S2[2][3] == 1 and nf.S2[3][2] == 1


def test_case_6_3():
    nf = normal_form(6, 3)
    assert nf.case_tag == 2
    assert nf.Delta == (2, 3, 5)
    assert nf.DeltaC == (1, 4, 6)
    assert nf.S2[2][2] == 1  # <e_n, e_n> = pi
    assert nf.S1[3][3] == 1  # <e_{n+1}, e_{n+1}> = 1


def test_rejects_out_of_range():
    with pytest.raises(LatticeError):
        normal_form(4, 1)
    with pytest.raises(LatticeError):
        normal_form(6, 0)
    with pytest.raises(LatticeError) as err:
        normal_form(6, 4)
    assert "multiple" in str(err.value)


def test_parity_table():
    for d, delta in GRID:
        nf = normal_form(d, delta)
        expect = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}[(d % 2, delta % 2)]
        assert nf.case_tag == expect
        assert nf.parity_case == ("I" if (d - delta) % 2 == 0 else "II")


@pytest.mark.parametrize("d,delta", GRID)
def test_gram_matrix_structure(d, delta):
    nf = normal_form(d, delta)
    assert len(nf.Delta) == delta
    for i in range(d):
        for j in range(d):
            assert nf.S1[i][j] == nf.S1[j][i]
            assert nf.S2[i][j] == nf.S2[j][i]
            assert nf.S1[i][j] in (0, 1) and nf.S2[i][j] in (0, 1)
            assert not (nf.S1[i][j] and nf.S2[i][j])
    ring = x_ring(d)
    pi = ring.var("pi")
    gram = [[ring.const(a) + pi * b for a, b in zip(r1, r2)]
            for r1, r2 in zip(nf.S1, nf.S2)]
    [det] = minors(gram, d)
    pi_pow = pi ** delta
    assert det == pi_pow or det == -pi_pow


@pytest.mark.parametrize(
    "d,delta", [(d, delta) for d in range(5, 12) for delta in range(1, d // 2 + 1)]
)
def test_gram_blocks_are_symmetric(d, delta):
    # localmodel forms the four quadratic parts X^t S X and Y^t S Y from
    # their upper triangles, which needs S1 and S2 symmetric
    nf = normal_form(d, delta)
    for S in (nf.S1, nf.S2):
        assert [list(row) for row in S] == [list(col) for col in zip(*S)]


@pytest.mark.parametrize("d,delta", GRID)
def test_restricted_blocks_are_perfect(d, delta):
    nf = normal_form(d, delta)
    b1 = [[nf.S1[i - 1][j - 1] for j in nf.DeltaC] for i in nf.DeltaC]
    b2 = [[nf.S2[i - 1][j - 1] for j in nf.Delta] for i in nf.Delta]
    assert int_det(b1) in (1, -1)
    assert int_det(b2) in (1, -1)


@pytest.mark.parametrize("d,delta", GRID)
def test_quad_forms_recover_blocks(d, delta):
    nf = normal_form(d, delta)
    ring = x_ring(d)
    q1, q2 = q1_form(nf, ring), q2_form(nf, ring)
    for q, mat, positions in ((q1, nf.S1, nf.DeltaC), (q2, nf.S2, nf.Delta)):
        for i in positions:
            for j in positions:
                if i == j:
                    coeff = 2 * q.coefficient(_exp(ring, {("x_%d" % i): 2}))
                else:
                    coeff = q.coefficient(_exp(ring, {("x_%d" % i): 1, ("x_%d" % j): 1}))
                assert coeff == mat[i - 1][j - 1]


def _exp(ring, powers):
    e = [0] * ring.nvars
    for name, k in powers.items():
        e[ring.index[name]] = k
    return tuple(e)


def test_quad_form_examples():
    nf = normal_form(5, 1)
    ring = x_ring(5)
    q1, q2 = q1_form(nf, ring), q2_form(nf, ring)
    assert q2 == ring.var("x_3") ** 2 * Fraction(1, 2)
    assert q1 == ring.var("x_1") * ring.var("x_5") + ring.var("x_2") * ring.var("x_4")

    nf = normal_form(6, 2)
    ring = x_ring(6)
    q1, q2 = q1_form(nf, ring), q2_form(nf, ring)
    assert q2 == ring.var("x_3") * ring.var("x_4")
    assert q1 == ring.var("x_1") * ring.var("x_6") + ring.var("x_2") * ring.var("x_5")


@pytest.mark.parametrize("d,delta", GRID)
def test_incl_flip_is_global_reversal(d, delta):
    # GRID covers case tags 1-4 (see test_parity_table).  The inclusion is
    # sigma, read off the Gram matrix: the global reversal, except in case 2
    # (d even, delta odd), whose middle pair n, n + 1 sits on the diagonal
    nf = normal_form(d, delta)
    flip = nf.incl_flip
    sigma = [d + 1 - i for i in range(1, d + 1)]
    if nf.case_tag == 2:
        n = d // 2
        sigma[n - 1], sigma[n] = n, n + 1
    assert flip == tuple(sigma)
    assert all(nf.S1[i - 1][j - 1] + nf.S2[i - 1][j - 1] for i, j in enumerate(flip, 1))
    assert all(flip[flip[i - 1] - 1] == i for i in range(1, d + 1))


@pytest.mark.parametrize("d,delta", GRID)
def test_z_cells_follow_delta_and_its_complement(d, delta):
    nf = normal_form(d, delta)
    cells = nf.z_cells
    assert len(cells) == delta * (d - delta)
    m = d - delta
    for k, ((i, j), (a, b)) in enumerate(cells):
        # row by row: row i of Z is Delta[i - 1], column j is DeltaC[j - 1]
        assert (i, j) == (k // m + 1, k % m + 1)
        assert (a, b) == (nf.Delta[i - 1], nf.DeltaC[j - 1])


def test_normal_forms_are_frozen_and_compare_and_hash_by_value():
    a, b = normal_form(6, 1), normal_form(6, 1)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != normal_form(6, 2)
    with pytest.raises(AttributeError):
        a.delta = 2
    assert a.delta == 1
