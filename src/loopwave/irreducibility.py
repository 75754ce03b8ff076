"""Monomial-corner detection and irreducibility classification for
paraunitary loops.

A loop A(z) = sum_c A_c z^c restricts, on each graded kernel
K_n = intersection over c != n of ker(A_c), to the single coefficient map
v -> A_n v, so A(z) v = z^n A_n v exactly for v in K_n.  Paraunitarity
forces the K_n to be mutually orthogonal and the restricted maps to be
isometric.  A corner is a constant subspace spanned by graded kernel
vectors that the coefficient maps send onto itself; on such a subspace A
acts as V * diag(z^{n_k}) for a constant unitary V and exponents n_k >= 0.
The loop's representation is classified irreducible exactly when no corner
exists, under the reading recorded in SEMANTICS_NOTE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .laurent import CERTIFY_TOL, MatrixLaurent
from .loopgroup import Loop, certify_loop

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"

EQUAL = "equal"
EQUAL_MODULO_CORNER = "equal-modulo-corner"
INEQUIVALENT = "inequivalent-under-criterion"

SEMANTICS_NOTE = (
    "A corner is read as a constant subspace with a graded orthonormal basis "
    "{v_k}, each v_k annihilated by every Laurent coefficient except A_{n_k} "
    "with n_k >= 0, such that the images A_{n_k} v_k span the subspace again; "
    "there A(z) acts as V diag(z^{n_0}, ..., z^{n_{M-1}}) with constant "
    "unitary V.  A unitary-valued compression that is itself unitary must be "
    "a direct summand, so this reading is basis independent.  Corners with "
    "negative exponents are not searched."
)


def _null_space(mat: np.ndarray, ambient_dim: int, tol: float = CERTIFY_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space at tol.

    The threshold is relative to max(1, largest singular value): the inputs
    here are built from unit vectors and contraction-sized coefficients, so
    a near-zero matrix must report a full null space rather than an empty
    one.  A matrix with at least as many rows as columns takes the thin SVD,
    whose vh is already square; a wide one needs the full vh, whose extra
    rows span the rest of the null space.
    """
    if mat.size == 0:
        return np.eye(ambient_dim, dtype=complex)
    _, svals, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    thresh = tol * max(1.0, svals[0] if svals.size else 0.0)
    rank = int(np.count_nonzero(svals > thresh))
    return vh[rank:].conj().T


def graded_kernels(loop: Loop, tol: float = CERTIFY_TOL) -> dict[int, np.ndarray]:
    """Orthonormal bases of K_n = common kernel of all coefficients but A_n,
    with ranks decided at tol.

    Only nonnegative exponents in the support are graded (exponents outside
    the support have K_n = 0 automatically since the coefficients of a
    paraunitary loop have no common kernel).  The returned bases are
    mutually orthogonal across exponents; that this holds is a consequence
    of paraunitarity and is re-checked here, at tol.  A NaN tol, or one
    not below 1, decides no rank and is refused.
    """
    if not tol < 1:
        reason = ">= 1 decides no rank: no coefficient singular value exceeds 1"
        raise ValueError(f"tol {tol!r} {reason if tol >= 1 else 'decides no rank: it is NaN'}")
    if not loop.certified:
        raise ValueError("graded kernels require a certified paraunitary loop")
    n = loop.n
    support = loop.mat.support()
    out: dict[int, np.ndarray] = {}
    for exp in support:
        if exp < 0:
            continue
        others = [c - loop.mat.lo for c in support if c != exp]
        basis = _null_space(loop.mat.tensor[others].reshape(-1, n), n, tol)
        if basis.shape[1] > 0:
            out[exp] = basis
    exps = sorted(out)
    if len(exps) > 1:
        stacked = np.hstack([out[e] for e in exps])
        bounds = np.cumsum([0] + [out[e].shape[1] for e in exps])[:-1]
        gram = np.abs(stacked.conj().T @ stacked)
        block = np.maximum.reduceat(np.maximum.reduceat(gram, bounds, axis=0), bounds, axis=1)
        offending = np.argwhere(np.triu(~(block <= tol), 1))
        if len(offending):
            a, b = offending[0]
            raise ValueError(
                f"graded kernels K_{exps[a]} and K_{exps[b]} are not orthogonal at tol {tol:.3e} (overlap "
                f"{block[a, b]:.3e}); the loop is not paraunitary closely enough to be graded at this tol"
            )
    return out


@dataclass(frozen=True)
class CornerWitness:
    """Self-verifying certificate that a loop acts as V diag(z^{n_k}) on a
    constant subspace.

    vectors holds the orthonormal graded basis as columns (grade ascending);
    v_matrix is the constant unitary V with A(z) v_k = z^{n_k} sum_j V[j,k] v_j,
    an identity that holds coefficientwise within ``residual``.
    """

    m: int
    vectors: np.ndarray
    exponents: tuple[int, ...]
    v_matrix: np.ndarray
    residual: float


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[CornerWitness]
    semantics_note: str = SEMANTICS_NOTE


def _verify_witness(
    loop: Loop, vectors: np.ndarray, exponents: tuple[int, ...], tol: float = CERTIFY_TOL
) -> CornerWitness:
    """Re-check A(z) v_k = z^{n_k} V v_k coefficientwise on the loop's tensor, at tol.

    Both sides are matrices whose column k is the vector of Laurent
    polynomials (columns past m are zero), and the coefficient part of the
    residual is their MatrixLaurent distance, each entry end-trimmed."""
    m = vectors.shape[1]
    residual = float(np.max(np.abs(vectors.conj().T @ vectors - np.eye(m))))
    images = np.column_stack(
        [loop.mat.laurent_coefficient(exponents[k]) @ vectors[:, k] for k in range(m)]
    )
    v_matrix = vectors.conj().T @ images
    residual = max(residual, float(np.max(np.abs(v_matrix.conj().T @ v_matrix - np.eye(m)))))
    tensor, n = loop.mat.tensor, loop.n
    lhs = np.zeros((len(tensor), n, n), dtype=complex)
    lhs[:, :, :m] = tensor @ vectors
    low = min(exponents)
    rhs = np.zeros((max(exponents) - low + 1, n, n), dtype=complex)
    rhs[np.asarray(exponents) - low, :, np.arange(m)] = (vectors @ v_matrix).T
    lhs_mat = MatrixLaurent.from_tensor(loop.mat.lo, lhs)
    residual = max(residual, lhs_mat.distance(MatrixLaurent.from_tensor(low, rhs)))
    if not residual <= tol:
        raise ValueError(
            f"corner witness failed symbolic re-verification at tol {tol:.3e} (residual {residual:.3e}); "
            "the loop is not paraunitary closely enough for its corners to be decided at this tol"
        )
    return CornerWitness(
        m=m,
        vectors=vectors,
        exponents=exponents,
        v_matrix=v_matrix,
        residual=residual,
    )


def detect_corner(loop: Loop, tol: float = CERTIFY_TOL) -> Optional[CornerWitness]:
    """Find the maximal corner of a certified loop, or None.

    Every rank decision and the witness re-check are made at tol, the
    tolerance the loop was certified at, and never below CERTIFY_TOL: a loop
    that is paraunitary only within tol has coefficients off by about tol,
    which a finer test would read as structure.

    Raises ValueError before searching when graded_kernels refuses tol, and
    when a re-check fails at tol, which no bound in tol alone excludes:
    kernel bases are off by about tol over the smallest singular-value gap.

    Starting from the full graded kernels, alternately discards the part of
    each graded piece whose image under its coefficient map leaves the
    current candidate subspace, until stable.  The restricted maps are
    isometric, so on the stable subspace the images span it again and the
    corner identity holds; the resulting witness is re-verified at the
    coefficient level before being returned.
    """
    tol = max(tol, CERTIFY_TOL)  # in this order, so a NaN tol stays NaN
    kernels = graded_kernels(loop, tol)
    if not kernels:
        return None
    coeff = {exp: loop.mat.tensor[exp - loop.mat.lo] for exp in kernels}
    pieces = dict(kernels)
    for _ in range(loop.n + 1):
        basis = np.hstack(list(pieces.values()))
        changed = False
        for exp in sorted(pieces):
            b = pieces[exp]
            img = coeff[exp] @ b
            outside = img - basis @ (basis.conj().T @ img)
            keep = _null_space(outside, b.shape[1], tol)
            if keep.shape[1] < b.shape[1]:
                changed = True
                if keep.shape[1] == 0:
                    del pieces[exp]
                else:
                    pieces[exp] = b @ keep
        if not pieces or not changed:
            break
    if not pieces:
        return None
    grades = sorted(pieces)
    exps = tuple(exp for exp in grades for _ in range(pieces[exp].shape[1]))
    return _verify_witness(loop, np.hstack([pieces[exp] for exp in grades]), exps, tol)


def classify(loop: Loop, tol: float = CERTIFY_TOL) -> Verdict:
    """Irreducible iff no corner exists at tol, under the documented corner reading."""
    witness = detect_corner(loop, tol)
    if witness is None:
        return Verdict(status=IRREDUCIBLE, witness=None)
    return Verdict(status=REDUCIBLE, witness=witness)


def equivalent(a: Loop, b: Loop, tol: float = CERTIFY_TOL) -> str:
    """Three-valued comparison of two certified loops.

    "equal" when all Laurent coefficients agree within tol.  Otherwise the
    transition loop C = A star(B) is certified (its residual is not bounded
    by the inputs': for B = U A it comes from A star(A), not star(A) A), and
    searched for a full-rank corner, at tol but never below CERTIFY_TOL: a
    hit certifies that the loops differ exactly by a monomial-corner factor
    ("equal-modulo-corner"); a miss reports the loops inequivalent under the
    classification criterion.  The middle verdict is a certificate of the
    corner relation only, never a proof of unitary equivalence.
    """
    if a.n != b.n:
        raise ValueError(f"the loops are not compared: sizes {a.n} and {b.n} differ")
    if not (a.certified and b.certified):
        raise ValueError("equivalence comparison requires certified loops")
    if a.mat.distance(b.mat) <= tol:
        return EQUAL
    tol = max(tol, CERTIFY_TOL)  # in this order, so a NaN tol stays NaN
    try:
        transition = certify_loop(a.mat @ b.mat.star(), tol)
    except ValueError as exc:
        raise ValueError(f"the loops are not compared: their transition loop A star(B) is {exc}") from exc
    witness = detect_corner(transition, tol)
    if witness is not None and witness.m == a.n:
        return EQUAL_MODULO_CORNER
    return INEQUIVALENT
