"""Normal forms of vertex lattices: case dispatch, Gram matrices, index sets.

Everything is keyed by the pair (d, delta) with d >= 5 and 1 <= delta <= d/2.
The Gram matrix splits as S = S1 + pi*S2 with S1, S2 zero-one symmetric
matrices of disjoint support; Delta lists the 1-based basis positions spanning
the pi-modified summand N, DeltaC its complement spanning M.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .poly import PolyError

__all__ = ["LatticeError", "LatticeNormalForm", "check_admissible", "normal_form"]


class LatticeError(PolyError):
    pass


# incl_flip[i - 1]: the index the inclusion pairs with i (sigma)
class LatticeNormalForm(namedtuple("LatticeNormalForm",
                                   "d delta case_tag Delta DeltaC S1 S2 incl_flip")):
    __slots__ = ()

    @property
    def parity_case(self):
        """"I" when d and delta share parity, "II" otherwise."""
        return "I" if (self.d - self.delta) % 2 == 0 else "II"

    @property
    def delta_star(self):
        return min(self.delta, self.d - self.delta)

    @property
    def z_cells(self):
        """((i, j), (a, b)) for each entry of Z = Delta x DeltaC, row by row.

        Row i of Z is the i-th position a of Delta and column j the j-th
        position b of DeltaC, so the entry z_i_j sits at X position (a, b).
        """
        return tuple(
            ((i, j), (a, b))
            for i, a in enumerate(self.Delta, start=1)
            for j, b in enumerate(self.DeltaC, start=1)
        )


def _case_tag(d, delta):
    if d % 2 == 0:
        return 1 if delta % 2 == 0 else 2
    return 3 if delta % 2 == 0 else 4


def check_admissible(d, delta):
    """Raise LatticeError unless d >= 5 and 1 <= delta <= d/2."""
    if d < 5:
        raise LatticeError("d >= 5 required, got d=%d" % d)
    if delta < 1:
        raise LatticeError("delta >= 1 required (the self-dual case is excluded)")
    if 2 * delta > d:
        raise LatticeError(
            "delta <= d/2 required, got delta=%d for d=%d; "
            "replace the form by a multiple and swap the lattice with its dual"
            % (delta, d)
        )


def normal_form(d, delta):
    """The unique split normal form for admissible (d, delta)."""
    check_admissible(d, delta)
    case = _case_tag(d, delta)
    n = d // 2
    r = delta // 2

    S1 = [[0] * d for _ in range(d)]
    S2 = [[0] * d for _ in range(d)]

    def antidiag(mat, i):
        mat[i - 1][d - i] = 1

    if case == 1:
        band = range(n - r + 1, n + r + 1)
        Delta = list(band)
        for i in range(1, d + 1):
            antidiag(S2 if i in band else S1, i)
    elif case == 2:
        band = range(n - r, n + r + 2)
        Delta = [i for i in band if i != n + 1]
        for i in range(1, d + 1):
            if i in (n, n + 1):
                continue
            antidiag(S2 if i in band else S1, i)
        S2[n - 1][n - 1] = 1
        S1[n][n] = 1
    elif case == 3:
        band = range(n + 1 - r, n + 1 + r + 1)
        Delta = [i for i in band if i != n + 1]
        for i in range(1, d + 1):
            antidiag(S2 if (i in band and i != n + 1) else S1, i)
    else:
        band = range(n + 1 - r, n + 1 + r + 1)
        Delta = list(band)
        for i in range(1, d + 1):
            antidiag(S2 if i in band else S1, i)

    Delta = tuple(sorted(Delta))
    DeltaC = tuple(i for i in range(1, d + 1) if i not in set(Delta))
    if len(Delta) != delta:
        raise LatticeError("internal error: |Delta| != delta")
    # the inclusion pairs e_i with the one e_j of nonzero Gram entry (S1 + S2)[i][j]
    flip = tuple(next(j + 1 for j in range(d) if S1[i][j] or S2[i][j]) for i in range(d))
    return LatticeNormalForm(
        d=d,
        delta=delta,
        case_tag=case,
        Delta=Delta,
        DeltaC=DeltaC,
        S1=tuple(tuple(row) for row in S1),
        S2=tuple(tuple(row) for row in S2),
        incl_flip=flip,
    )


def _half_form(ring, mat, positions, var):
    half = Fraction(1, 2)
    acc = ring.zero()
    for i in positions:
        for j in positions:
            c = mat[i - 1][j - 1]
            if c:
                acc = acc + half * c * ring.var("%s_%d" % (var, i)) * ring.var(
                    "%s_%d" % (var, j)
                )
    return acc


def q1_form(nf, ring, var="x"):
    """Halved form on the M positions: (1/2) sum S1[i][j] var_i var_j over DeltaC."""
    return _half_form(ring, nf.S1, nf.DeltaC, var)


def q2_form(nf, ring, var="x"):
    """Halved pi-normalized form on the N positions, over Delta."""
    return _half_form(ring, nf.S2, nf.Delta, var)


def format_matrix(mat):
    """Integer matrix as aligned text rows, for the CLI."""
    return "\n".join("  " + " ".join(str(v) for v in row) for row in mat)
