"""Finite matrix models of the filter isometries S_i f = sqrt(N) m_i (f o z^N).

On Fourier coefficients the isometries are weighted shifts: with
m_i = sum_t c_{i,t} z^t, the matrix entry is S_i[p, k] = sqrt(N) c_{i, p-Nk}.
Truncation to a band of Fourier indices is handled so that the isometry
relations S_i* S_j = delta_ij are exact on the whole input band (the output
band is grown to lose nothing forward), while the completeness relation
sum_i S_i S_i* = 1 is exact on a reported interior sub-band whose preimage
indices all lie inside the input band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import LaurentPoly, MatrixLaurent
from .loopgroup import FilterSystem, transition


@dataclass(frozen=True)
class Band:
    """A contiguous range [k_min, k_max] of Fourier indices z^k."""

    k_min: int
    k_max: int

    def __post_init__(self) -> None:
        if self.k_min > self.k_max:
            raise ValueError(f"empty band [{self.k_min}, {self.k_max}]")

    @property
    def size(self) -> int:
        return self.k_max - self.k_min + 1

    def indices(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def __contains__(self, k: int) -> bool:
        return self.k_min <= k <= self.k_max


@dataclass(frozen=True)
class TruncatedRep:
    """Matrix models of the N filter isometries between two index bands."""

    system: FilterSystem
    in_band: Band
    out_band: Band
    S: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.system.n


def _filter_support(system: FilterSystem) -> tuple[int, int]:
    vals = [f.valuation for f in system.filters if not f.is_zero]
    degs = [f.degree for f in system.filters if not f.is_zero]
    if not vals:
        raise ValueError("filter system is identically zero")
    return min(vals), max(degs)


def build_rep(system: FilterSystem, in_band: Band) -> TruncatedRep:
    """Populate the weighted-shift matrices over a minimal lossless output band."""
    if not system.verified:
        raise ValueError("build_rep requires a verified filter system")
    n = system.n
    t_min, t_max = _filter_support(system)
    out_band = Band(n * in_band.k_min + t_min, n * in_band.k_max + t_max)
    root = math.sqrt(n)
    mats = []
    for i in range(n):
        m = np.zeros((out_band.size, in_band.size), dtype=complex)
        f = system.filters[i]
        for kk, k in enumerate(in_band.indices()):
            for t in f.support():
                p = n * k + t
                m[p - out_band.k_min, kk] = root * f.coeff(t)
        m.setflags(write=False)
        mats.append(m)
    return TruncatedRep(system=system, in_band=in_band, out_band=out_band, S=tuple(mats))


def adjoint_apply(rep: TruncatedRep, i: int, f: np.ndarray) -> np.ndarray:
    """Apply S_i^* to a coefficient vector on the output band.

    Equals the conjugate-transpose matrix action; in coefficients,
    (S_i^* f)_k = sqrt(N) sum_t conj(c_{i,t}) f_{Nk+t}.
    """
    if not 0 <= i < rep.n:
        raise IndexError(f"isometry index {i} out of range")
    f = np.asarray(f, dtype=complex)
    if f.shape != (rep.out_band.size,):
        raise ValueError(f"vector length {f.shape} does not match output band size {rep.out_band.size}")
    return rep.S[i].conj().T @ f


def interior_band(rep: TruncatedRep) -> Band | None:
    """The sub-band of the output band where completeness is exact.

    An output index p is interior when every k with p - Nk in the combined
    filter support lies in the input band; None when no index qualifies.
    """
    n = rep.n
    t_min, t_max = _filter_support(rep.system)
    lo = n * rep.in_band.k_min + t_max - n + 1
    hi = n * rep.in_band.k_max + t_min + n - 1
    lo = max(lo, rep.out_band.k_min)
    hi = min(hi, rep.out_band.k_max)
    if lo > hi:
        return None
    return Band(lo, hi)


@dataclass(frozen=True)
class CuntzReport:
    isometry_residual: float
    completeness_residual: float
    interior: Band | None

    def passes(self, tol: float) -> bool:
        return (
            self.interior is not None
            and self.isometry_residual <= tol
            and self.completeness_residual <= tol
        )


def verify_cuntz(rep: TruncatedRep) -> CuntzReport:
    """Residuals of the defining isometry and completeness relations.

    S_i* S_j = delta_ij is checked on the full input band (exact by the
    lossless output band); sum_i S_i S_i* = 1 is checked on the interior
    sub-band only, which is reported.
    """
    n = rep.n
    eye_in = np.eye(rep.in_band.size)
    iso = 0.0
    for i in range(n):
        for j in range(n):
            prod = rep.S[i].conj().T @ rep.S[j]
            target = eye_in if i == j else 0.0
            iso = max(iso, float(np.max(np.abs(prod - target))))

    inner = interior_band(rep)
    if inner is None:
        return CuntzReport(isometry_residual=iso, completeness_residual=math.nan, interior=None)
    total = sum(s @ s.conj().T for s in rep.S)
    sl = slice(inner.k_min - rep.out_band.k_min, inner.k_max - rep.out_band.k_min + 1)
    block = total[sl, sl]
    comp = float(np.max(np.abs(block - np.eye(inner.size))))
    return CuntzReport(isometry_residual=iso, completeness_residual=comp, interior=inner)


def reconstruct(rep: TruncatedRep, f: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply sum_i S_i S_i* to a vector supported in the interior band.

    Returns the reconstruction and the max-norm of the difference from f;
    vectors with support outside the interior band are rejected because
    truncation would silently corrupt them.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (rep.out_band.size,):
        raise ValueError(f"vector length {f.shape} does not match output band size {rep.out_band.size}")
    inner = interior_band(rep)
    if inner is None:
        raise ValueError("representation has no interior band")
    for idx in np.flatnonzero(np.abs(f) > 0):
        if (idx + rep.out_band.k_min) not in inner:
            raise ValueError(
                f"vector has support at index {idx + rep.out_band.k_min} outside interior "
                f"[{inner.k_min}, {inner.k_max}]"
            )
    g = np.zeros_like(f)
    for s in rep.S:
        g += s @ (s.conj().T @ f)
    return g, float(np.max(np.abs(g - f)))


def transition_operator_matrix(rep_a: TruncatedRep, rep_b: TruncatedRep, tol: float = 1e-10) -> MatrixLaurent:
    """Multiplication symbols of S_i^(a)* S_j^(b) as a matrix of Laurent polynomials.

    Each symbol is the exact polyphase fiber sum of conj(n_i) m_j (the
    entrywise circle adjoint of the transposed transition loop); the
    truncated matrix products are then checked entrywise against the
    symbols' multiplication-operator matrices on the input band, which the
    lossless output band makes exact.
    """
    if rep_a.n != rep_b.n:
        raise ValueError("representations have different scales")
    if rep_a.in_band != rep_b.in_band:
        raise ValueError("representations must share the input band")
    n = rep_a.n
    band = rep_a.in_band
    # Zero-row extension to a common output band leaves the adjoint products
    # unchanged, so differently supported filters can still be compared.
    out = Band(
        min(rep_a.out_band.k_min, rep_b.out_band.k_min),
        max(rep_a.out_band.k_max, rep_b.out_band.k_max),
    )

    def embed(rep: TruncatedRep, i: int) -> np.ndarray:
        m = np.zeros((out.size, band.size), dtype=complex)
        lo = rep.out_band.k_min - out.k_min
        m[lo : lo + rep.out_band.size, :] = rep.S[i]
        return m

    rows = []
    worst = 0.0
    for i in range(n):
        row = []
        for j in range(n):
            q = rep_a.system.filters[i].star() * rep_b.system.filters[j]
            if q.is_zero:
                symbol = LaurentPoly.zero()
            else:
                lo = math.ceil(q.valuation / n)
                hi = math.floor(q.degree / n)
                symbol = LaurentPoly(lo, [n * q.coeff(l * n) for l in range(lo, hi + 1)])
            row.append(symbol)
            prod = embed(rep_a, i).conj().T @ embed(rep_b, j)
            expected = np.array(
                [[symbol.coeff(p - k) for k in band.indices()] for p in band.indices()]
            )
            worst = max(worst, float(np.max(np.abs(prod - expected))))
        rows.append(row)
    if worst > tol:
        raise RuntimeError(
            f"truncated operator products disagree with multiplication symbols: {worst:.3e} > {tol:.1e}"
        )
    return MatrixLaurent(rows)


@dataclass(frozen=True)
class CommutantReport:
    """Exact commutant of the Cuntz representation of a filter system.

    dimension is the dimension of the fixed-point space of
    sigma(A) = sum_i V_i A V_i^* on B(K), band is the attractor band K,
    and singular_values are those of sigma - I, ascending.
    """

    dimension: int
    singular_values: np.ndarray
    band: Band


def commutant_diagnostic(rep: TruncatedRep, tol: float = 1e-6) -> CommutantReport:
    """Dimension of the operators commuting with all S_i and S_i^*.

    With [t_min, t_max] the combined filter support, the attractor band is
    K = [ceil(-t_max/(N-1)), floor(-t_min/(N-1))].  S_i* sends index p to
    the indices k with Nk + t = p, t in the support, so K is
    S_i*-invariant.  K is also cyclic for FIR filters: S_i* contracts any
    finite support into K, so a finitely supported f has S_w* f supported
    in K for all words w of some length, and f = sum_w S_w S_w* f because
    sum_w S_w S_w* = I over the words of a fixed length.  By
    Bratteli-Jorgensen-Kishimoto-Werner (*Pure states on O_d*) the
    commutant is then isomorphic to the fixed points of
    sigma(A) = sum_i V_i A V_i^* on B(K), with V_i = P_K S_i|_K.  With A
    flattened row-major, sigma = sum_i kron(V_i, conj V_i), and the
    dimension is the number of singular values of sigma - I below tol.
    The V_i are sliced out of rep.S, so the input band must contain K.
    """
    n = rep.n
    t_min, t_max = _filter_support(rep.system)
    attractor = Band(math.ceil(-t_max / (n - 1)), math.floor(-t_min / (n - 1)))
    if attractor.k_min not in rep.in_band or attractor.k_max not in rep.in_band:
        raise ValueError(
            f"input band [{rep.in_band.k_min}, {rep.in_band.k_max}] does not contain the "
            f"attractor band K = [{attractor.k_min}, {attractor.k_max}]; widen the band"
        )
    # K lies in the output band too: by completeness every p in K is Nk + t
    # for some k, and that k is in K by the invariance of K under S_i*.
    rows = slice(attractor.k_min - rep.out_band.k_min, attractor.k_max - rep.out_band.k_min + 1)
    cols = slice(attractor.k_min - rep.in_band.k_min, attractor.k_max - rep.in_band.k_min + 1)
    sigma = sum(np.kron(s[rows, cols], s[rows, cols].conj()) for s in rep.S)
    svals = np.linalg.svd(sigma - np.eye(attractor.size**2), compute_uv=False)[::-1]
    return CommutantReport(
        dimension=int(np.count_nonzero(svals < tol)),
        singular_values=svals,
        band=attractor,
    )
