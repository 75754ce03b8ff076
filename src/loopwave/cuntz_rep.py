"""Finite matrix models of the filter isometries S_i f = sqrt(N) m_i (f o z^N).

On Fourier coefficients the isometries are weighted shifts: with
m_i = sum_t c_{i,t} z^t, the matrix entry is S_i[p, k] = sqrt(N) c_{i, p-Nk}.
Truncation to a band of Fourier indices is handled so that the isometry
relations S_i* S_j = delta_ij are exact on the whole input band (the output
band is grown to lose nothing forward), while the completeness relation
sum_i S_i S_i* = 1 is exact on a reported interior sub-band whose preimage
indices all lie inside the input band.

The models hold the dense matrices, but column k of S_i is nonzero only on
the L indices N k + t, t in the filter support, so every product is formed
from those column windows (``_windows``) and the band structure they give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import MatrixLaurent
from .loopgroup import FilterSystem, polyphase_matrix


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


def attractor_band(system: FilterSystem) -> Band:
    """The attractor band K = [ceil(-t_max/(N-1)), floor(-t_min/(N-1))] of the
    combined filter support [t_min, t_max] (see commutant_diagnostic)."""
    n = system.n
    t_min, t_max = _filter_support(system)
    return Band(math.ceil(-t_max / (n - 1)), math.floor(-t_min / (n - 1)))


def _window_rows(n: int, in_band: Band, t_min: int, length: int, out_k_min: int) -> np.ndarray:
    """rows[a, k]: the output-band position of index N k + t_min + a, for
    input position k and a in [0, length)."""
    first = n * (in_band.k_min + np.arange(in_band.size)) + t_min - out_k_min
    return first[None, :] + np.arange(length)[:, None]


def build_rep(system: FilterSystem, in_band: Band) -> TruncatedRep:
    """Populate the weighted-shift matrices over a minimal lossless output band."""
    if not system.verified:
        raise ValueError("build_rep requires a verified filter system")
    n = system.n
    t_min, t_max = _filter_support(system)
    out_band = Band(n * in_band.k_min + t_min, n * in_band.k_max + t_max)
    coeffs = np.zeros((n, t_max - t_min + 1), dtype=complex)
    for i, f in enumerate(system.filters):
        coeffs[i, f.offset - t_min : f.offset - t_min + len(f.coeffs)] = f.coeffs
    rows = _window_rows(n, in_band, t_min, coeffs.shape[1], out_band.k_min)
    s = np.zeros((n, out_band.size, in_band.size), dtype=complex)
    s[:, rows, np.arange(in_band.size)] = math.sqrt(n) * coeffs[:, :, None]
    s.setflags(write=False)
    return TruncatedRep(system=system, in_band=in_band, out_band=out_band, S=tuple(s))


def _windows(rep: TruncatedRep, support: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The column windows of the matrices the rep holds.

    Column k of S_i can be nonzero only on the indices N k + t, t in the
    filter support [t_min, t_max] (or the wider ``support`` given), so
    W[i, a, k] = S_i[N k + t_min + a, k] holds every nonzero entry.
    Returns W, shape (N, L, |in|), and the output-band positions rows[a, k]
    of its entries; entries whose index falls outside the output band are
    zero, with their row clipped to 0.  Raises ValueError when some S_i has
    a nonzero outside its windows, which only a hand-built rep can have.
    """
    t_min, t_max = _filter_support(rep.system) if support is None else support
    rows = _window_rows(rep.n, rep.in_band, t_min, t_max - t_min + 1, rep.out_band.k_min)
    inside = (rows >= 0) & (rows < rep.out_band.size)
    rows = np.where(inside, rows, 0)
    cols = np.arange(rep.in_band.size)
    windows = np.zeros((rep.n,) + rows.shape, dtype=complex)
    for i, s in enumerate(rep.S):
        s = np.ascontiguousarray(s, dtype=complex)
        windows[i] = np.where(inside, s[rows, cols], 0.0)
        # Counted over real and imaginary parts, which is cheaper and as exact.
        if np.count_nonzero(s.view(np.float64)) != np.count_nonzero(windows[i].view(np.float64)):
            raise ValueError(f"S_{i} has nonzero entries outside its weighted-shift windows")
    return windows, rows


def _scatter(rows: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum values into a length-size vector at the positions rows."""
    rows, values = rows.ravel(), values.ravel()
    real = np.bincount(rows, weights=values.real, minlength=size)
    return real + 1j * np.bincount(rows, weights=values.imag, minlength=size)


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


def _lag_products(wa: np.ndarray, wb: np.ndarray, d: int) -> np.ndarray:
    """Entries (k, k + d) of S_i^(a)* S_j^(b) from windows on one support:
    out[i, j, k'] is the entry at column k' + max(d, 0) of the product.

    Columns k and k + d of a weighted shift are N d indices apart, so their
    windows overlap in L - N |d| positions and not at all beyond
    |d| = floor((L - 1) / N).
    """
    n, length, cols = wa.shape
    shift = n * abs(d)
    if d >= 0:
        a, b = wa[:, shift:, : cols - d], wb[:, : length - shift, d:]
    else:
        a, b = wa[:, : length - shift, -d:], wb[:, shift:, : cols + d]
    return np.einsum("iak,jak->ijk", a.conj(), b)


def verify_cuntz(rep: TruncatedRep) -> CuntzReport:
    """Residuals of the defining isometry and completeness relations.

    S_i* S_j = delta_ij is checked on the full input band (exact by the
    lossless output band); sum_i S_i S_i* = 1 is checked on the interior
    sub-band only, which is reported.  Both are maxima over every entry of
    those matrices, formed from the column windows of rep.S: S_i* S_j is
    zero beyond lag floor((L - 1) / N), and sum_i S_i S_i* is Hermitian and
    zero beyond row lag L - 1, so the other entries are exactly 0.
    """
    n = rep.n
    w, rows = _windows(rep)
    length, cols = w.shape[1], w.shape[2]
    iso = 0.0
    for d in range(min((length - 1) // n, cols - 1) + 1):
        gram = _lag_products(w, w, d)
        if d == 0:
            gram -= np.eye(n)[:, :, None]
        iso = max(iso, float(np.max(np.abs(gram))))

    inner = interior_band(rep)
    if inner is None:
        return CuntzReport(isometry_residual=iso, completeness_residual=math.nan, interior=None)
    lo = inner.k_min - rep.out_band.k_min
    comp = 0.0
    for e in range(min(length, inner.size)):
        # Entry (p, p + e) of sum_i S_i S_i*, with p the position of w[:, a, k].
        terms = np.einsum("iak,iak->ak", w[:, : length - e], w[:, e:].conj())
        block = _scatter(rows[: length - e], terms, rep.out_band.size)[lo : lo + inner.size - e]
        if e == 0:
            block -= 1.0
        comp = max(comp, float(np.max(np.abs(block))))
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
    outside = np.ones(f.shape, dtype=bool)
    outside[inner.k_min - rep.out_band.k_min : inner.k_max - rep.out_band.k_min + 1] = False
    bad = np.flatnonzero(outside & (f != 0))
    if bad.size:
        raise ValueError(
            f"vector has support at index {bad[0] + rep.out_band.k_min} outside interior "
            f"[{inner.k_min}, {inner.k_max}]"
        )
    w, rows = _windows(rep)
    coefficients = np.einsum("iak,ak->ik", w.conj(), f[rows])  # S_i* f
    g = _scatter(rows, np.einsum("iak,ik->ak", w, coefficients), f.size)
    return g, float(np.max(np.abs(g - f)))


def transition_operator_matrix(rep_a: TruncatedRep, rep_b: TruncatedRep, tol: float = 1e-10) -> MatrixLaurent:
    """Multiplication symbols of S_i^(a)* S_j^(b) as a matrix of Laurent polynomials.

    Each symbol is the exact polyphase fiber sum of conj(n_i) m_j: entry
    (i, j) of the transposed loop P(m) star(P(n)), with P the polyphase
    matrix.  The truncated products of the matrices the reps hold are then
    checked entrywise against the symbols' multiplication-operator
    matrices on the input band, which the lossless output band makes
    exact: entry (k, k + d) of the product is the symbol's coefficient of
    z^-d.  The products are formed lag by lag from windows over the union
    of the two filter supports; beyond the last lag they are exactly 0.
    """
    if rep_a.n != rep_b.n:
        raise ValueError("representations have different scales")
    if rep_a.in_band != rep_b.in_band:
        raise ValueError("representations must share the input band")
    n = rep_a.n
    size = rep_a.in_band.size
    (a_min, a_max), (b_min, b_max) = _filter_support(rep_a.system), _filter_support(rep_b.system)
    support = (min(a_min, b_min), max(a_max, b_max))
    wa, _ = _windows(rep_a, support)
    wb, _ = _windows(rep_b, support)
    loop = polyphase_matrix(rep_b.system) @ polyphase_matrix(rep_a.system).star()
    symbols = MatrixLaurent.from_tensor(loop.lo, loop.tensor.transpose(0, 2, 1))

    # The symbols have no exponent beyond the last lag either: conj(n_i) m_j
    # has exponents of modulus at most L - 1.
    lags = min((wa.shape[1] - 1) // n, size - 1)
    worst = 0.0
    for d in range(-lags, lags + 1):
        prod = _lag_products(wa, wb, d)
        worst = max(worst, float(np.max(np.abs(prod - symbols.laurent_coefficient(-d)[:, :, None]))))
    if worst > tol:
        raise RuntimeError(
            f"truncated operator products disagree with multiplication symbols: {worst:.3e} > {tol:.1e}"
        )
    return symbols


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
    attractor = attractor_band(rep.system)
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
