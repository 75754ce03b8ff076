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

from .laurent import TRIM_TOL, _entry_spans, _in_span, _trimmed_max
from .loopgroup import Loop, certify_loop

#: Relative singular-value threshold for all rank decisions.
RANK_TOL = 1e-10

#: Coefficient-level tolerance for witness self-verification.
WITNESS_TOL = 1e-10

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


def _null_space(mat: np.ndarray, ambient_dim: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space at RANK_TOL.

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
    thresh = RANK_TOL * max(1.0, svals[0] if svals.size else 0.0)
    rank = int(np.count_nonzero(svals > thresh))
    return vh[rank:].conj().T


def graded_kernels(loop: Loop) -> dict[int, np.ndarray]:
    """Orthonormal bases of K_n = common kernel of all coefficients but A_n.

    Only nonnegative exponents in the support are graded (exponents outside
    the support have K_n = 0 automatically since the coefficients of a
    paraunitary loop have no common kernel).  The returned bases are
    mutually orthogonal across exponents; that this holds is a consequence
    of paraunitarity and is re-checked here.
    """
    if not loop.certified:
        raise ValueError("graded kernels require a certified paraunitary loop")
    n = loop.n
    support = loop.mat.support()
    out: dict[int, np.ndarray] = {}
    for exp in support:
        if exp < 0:
            continue
        others = [c - loop.mat.lo for c in support if c != exp]
        basis = _null_space(loop.mat.tensor[others].reshape(-1, n), n)
        if basis.shape[1] > 0:
            out[exp] = basis
    exps = sorted(out)
    if len(exps) > 1:
        stacked = np.hstack([out[e] for e in exps])
        bounds = np.cumsum([0] + [out[e].shape[1] for e in exps])[:-1]
        gram = np.abs(stacked.conj().T @ stacked)
        block = np.maximum.reduceat(np.maximum.reduceat(gram, bounds, axis=0), bounds, axis=1)
        offending = np.argwhere(np.triu(block > 1e-10, 1))
        if len(offending):
            a, b = offending[0]
            raise RuntimeError(
                f"graded kernels K_{exps[a]} and K_{exps[b]} are not orthogonal "
                f"(overlap {block[a, b]:.3e}); input loop is not paraunitary enough"
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


def _verify_witness(loop: Loop, vectors: np.ndarray, exponents: tuple[int, ...]) -> CornerWitness:
    """Re-check A(z) v_k = z^{n_k} V v_k coefficientwise on the loop's tensor.

    Each entry of A(z) v_k is end-trimmed and each component of V v_k is
    dropped at TRIM_TOL before the subtraction, as their LaurentPoly forms
    would be, so the residual is the same per-entry trimmed maximum."""
    m = vectors.shape[1]
    residual = float(np.max(np.abs(vectors.conj().T @ vectors - np.eye(m))))
    images = np.column_stack(
        [loop.mat.laurent_coefficient(exponents[k]) @ vectors[:, k] for k in range(m)]
    )
    v_matrix = vectors.conj().T @ images
    residual = max(residual, float(np.max(np.abs(v_matrix.conj().T @ v_matrix - np.eye(m)))))
    tensor, lo = loop.mat.tensor, loop.mat.lo
    lhs = np.stack([tensor @ vectors[:, k] for k in range(m)], axis=2)
    rhs = np.column_stack([vectors @ v_matrix[:, k] for k in range(m)])
    rhs[np.abs(rhs) <= TRIM_TOL] = 0.0
    lags = np.asarray(exponents) - lo
    start = min(0, int(lags.min()))
    diff = np.zeros((max(len(tensor), int(lags.max()) + 1) - start, loop.n, m), dtype=complex)
    diff[-start : len(tensor) - start] = np.where(_in_span(lhs, *_entry_spans(lhs)), lhs, 0.0)
    diff[lags - start, :, np.arange(m)] -= rhs.T
    residual = max(residual, _trimmed_max(diff))
    if residual > WITNESS_TOL:
        raise RuntimeError(
            f"corner witness failed symbolic re-verification (residual {residual:.3e}); "
            "rank decisions were inconsistent"
        )
    return CornerWitness(
        m=m,
        vectors=vectors,
        exponents=exponents,
        v_matrix=v_matrix,
        residual=residual,
    )


def detect_corner(loop: Loop) -> Optional[CornerWitness]:
    """Find the maximal corner of a certified loop, or None.

    Starting from the full graded kernels, alternately discards the part of
    each graded piece whose image under its coefficient map leaves the
    current candidate subspace, until stable.  The restricted maps are
    isometric, so on the stable subspace the images span it again and the
    corner identity holds; the resulting witness is re-verified at the
    coefficient level before being returned.
    """
    if not loop.certified:
        raise ValueError("corner detection requires a certified paraunitary loop")
    kernels = graded_kernels(loop)
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
            keep = _null_space(outside, b.shape[1])
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
    exps: list[int] = []
    cols: list[np.ndarray] = []
    for exp in sorted(pieces):
        b = pieces[exp]
        for k in range(b.shape[1]):
            exps.append(exp)
            cols.append(b[:, k])
    vectors = np.column_stack(cols)
    return _verify_witness(loop, vectors, tuple(exps))


def classify(loop: Loop) -> Verdict:
    """Irreducible iff no corner exists, under the documented corner reading."""
    witness = detect_corner(loop)
    if witness is None:
        return Verdict(status=IRREDUCIBLE, witness=None)
    return Verdict(status=REDUCIBLE, witness=witness)


def equivalent(a: Loop, b: Loop, tol: float = 1e-10) -> str:
    """Three-valued comparison of two certified loops.

    "equal" when all Laurent coefficients agree within tol.  Otherwise the
    transition loop C = A star(B) is searched for a full-rank corner: a hit
    certifies that the loops differ exactly by a monomial-corner factor
    ("equal-modulo-corner"); a miss reports the loops inequivalent under
    the classification criterion.  The middle verdict is a certificate of
    the corner relation only, never a proof of unitary equivalence.
    """
    if not (a.certified and b.certified):
        raise ValueError("equivalence comparison requires certified loops")
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    if a.mat.distance(b.mat) <= tol:
        return EQUAL
    c = certify_loop(a.mat @ b.mat.star())
    witness = detect_corner(c)
    if witness is not None and witness.m == a.n:
        return EQUAL_MODULO_CORNER
    return INEQUIVALENT
