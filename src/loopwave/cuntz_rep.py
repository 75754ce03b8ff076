"""Finite matrix models of the filter isometries S_i f = sqrt(N) m_i (f o z^N).

On Fourier coefficients the isometries are weighted shifts: with
m_i = sum_t c_{i,t} z^t, the matrix entry is S_i[p, k] = sqrt(N) c_{i, p-Nk}.
Truncation to a band of Fourier indices is handled so that the isometry
relations S_i* S_j = delta_ij are exact on the whole input band (the output
band is grown to lose nothing forward), while the completeness relation
sum_i S_i S_i* = 1 is exact on a reported interior sub-band whose preimage
indices all lie inside the input band.

Column k of S_i is nonzero only on the L indices N k + t, t in the filter
support, so a model holds those column windows, an (N, L, |in|) tensor,
and every product is formed from them and the band structure they give.
Only ``TruncatedRep.S`` builds the dense matrices; the commutant needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import CERTIFY_TOL, MatrixLaurent, stack
from .loopgroup import FilterSystem, polyphase_matrix

#: Singular values of sigma - I at or below this count toward the commutant dimension.
COMMUTANT_TOL = 1e-6


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


class TruncatedRep:
    """Models of the N filter isometries S_i between two index bands.

    A model is held as its column windows: windows[i, a, k] = S_i[rows[a, k], k],
    with rows[a, k] the output-band position of the index N k + t_min + a for
    input position k and a in [0, L), [t_min, t_min + L - 1] the combined
    filter support.  An entry whose index falls outside the output band is
    0, with its row clipped to 0.  ``windows`` is the read-only pair
    (windows, rows), of shapes (N, L, |in|) and (L, |in|).

    ``TruncatedRep(system, in_band, out_band, S)`` reads the windows out of
    dense matrices S, and raises ValueError naming S_i if some S_i has a
    nonzero entry outside its windows; its ``S`` is the matrices given.
    build_rep's models build ``S``, the N dense |out| x |in| matrices, from
    the windows on first read (read-only).
    """

    def __init__(self, system: FilterSystem, in_band: Band, out_band: Band, S: tuple[np.ndarray, ...]) -> None:
        self.system = system
        self.in_band = in_band
        self.out_band = out_band
        self.windows = _read_windows(self, S)
        self._dense: tuple[np.ndarray, ...] | None = S

    @classmethod
    def _from_windows(
        cls, system: FilterSystem, in_band: Band, out_band: Band, windows: np.ndarray, rows: np.ndarray
    ) -> TruncatedRep:
        rep = cls.__new__(cls)
        rep.system, rep.in_band, rep.out_band = system, in_band, out_band
        rep.windows, rep._dense = (windows, rows), None
        return rep

    def __repr__(self) -> str:
        return f"TruncatedRep(system={self.system!r}, in_band={self.in_band!r}, out_band={self.out_band!r})"

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def S(self) -> tuple[np.ndarray, ...]:
        """The dense matrices S_i, built from the windows on first read."""
        if self._dense is None:
            windows, rows = self.windows
            s = np.zeros((self.n, self.out_band.size, self.in_band.size), dtype=complex)
            s[:, rows, np.arange(self.in_band.size)] = windows
            s.setflags(write=False)
            self._dense = tuple(s)
        return self._dense


def _filter_stack(system: FilterSystem) -> tuple[int, np.ndarray]:
    """(t_min, C): the filters stacked, C[l, i] the tap t_min + l of m_i."""
    t_min, c = stack(system.filters)
    if len(c) == 0:
        raise ValueError("filter system is identically zero")
    return t_min, c


def _filter_support(system: FilterSystem) -> tuple[int, int]:
    t_min, c = _filter_stack(system)
    return t_min, t_min + len(c) - 1


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
    t_min, coeffs = _filter_stack(system)
    out_band = Band(n * in_band.k_min + t_min, n * in_band.k_max + t_min + len(coeffs) - 1)
    rows = _window_rows(n, in_band, t_min, len(coeffs), out_band.k_min)
    rows.setflags(write=False)
    # every column holds the same taps
    windows = np.broadcast_to(math.sqrt(n) * coeffs.T[:, :, None], (n, len(coeffs), in_band.size))
    return TruncatedRep._from_windows(system, in_band, out_band, windows, rows)


def _read_windows(rep: TruncatedRep, S: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The column windows of the dense matrices S of rep's bands.

    Raises ValueError when some S_i has a nonzero outside its windows.
    """
    t_min, t_max = _filter_support(rep.system)
    rows = _window_rows(rep.n, rep.in_band, t_min, t_max - t_min + 1, rep.out_band.k_min)
    inside = (rows >= 0) & (rows < rep.out_band.size)
    rows = np.where(inside, rows, 0)
    cols = np.arange(rep.in_band.size)
    windows = np.zeros((rep.n,) + rows.shape, dtype=complex)
    for i, s in enumerate(S):
        s = np.ascontiguousarray(s, dtype=complex)
        windows[i] = np.where(inside, s[rows, cols], 0.0)
        # Counted over real and imaginary parts, which is cheaper and as exact.
        if np.count_nonzero(s.view(np.float64)) != np.count_nonzero(windows[i].view(np.float64)):
            raise ValueError(f"S_{i} has nonzero entries outside its weighted-shift windows")
    windows.setflags(write=False)
    rows.setflags(write=False)
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


def _lag_products(wa: np.ndarray, wb: np.ndarray, d: int, delta: int) -> np.ndarray:
    """Entries (k, k + d) of S_i^(a)* S_j^(b) from windows whose supports
    start delta = t_min^(b) - t_min^(a) apart: out[i, j, k'] is the entry at
    column k' + max(d, 0) of the product.

    Position u of a's window in column k and position u - N d - delta of b's
    window in column k + d hold the same index; they overlap for u in [lo, hi).
    """
    n, length, cols = wa.shape
    shift = n * d + delta
    lo = max(shift, 0)
    hi = max(lo, min(length, wb.shape[1] + shift))
    ka, kb = max(-d, 0), max(d, 0)
    a, b = wa[:, lo:hi, ka : cols - kb], wb[:, lo - shift : hi - shift, kb : cols - ka]
    return np.einsum("iak,jak->ijk", a.conj(), b)


def _lag_residual(wa: np.ndarray, wb: np.ndarray, delta: int, expected, hermitian: bool) -> float:
    """max |_lag_products(wa, wb, d, delta) - expected(d)| over every lag d at
    which two columns' windows overlap, |d| <= (L - 1) // N with L the length
    of the supports' union; d >= 0 only for a Hermitian product (lag -d mirrors d)."""
    n, length, cols = wa.shape
    union = max(length, wb.shape[1] + delta) - min(0, delta)
    last = min((union - 1) // n, cols - 1)
    worst = 0.0
    for d in range(0 if hermitian else -last, last + 1):
        worst = max(worst, float(np.max(np.abs(_lag_products(wa, wb, d, delta) - expected(d)))))
    return worst


def verify_cuntz(rep: TruncatedRep) -> CuntzReport:
    """Residuals of the defining isometry and completeness relations.

    S_i* S_j = delta_ij is checked on the full input band (exact by the
    lossless output band); sum_i S_i S_i* = 1 is checked on the interior
    sub-band only, which is reported.  Both are maxima over every entry of
    those matrices, formed from the column windows: S_i* S_j is zero beyond
    lag floor((L - 1) / N), and sum_i S_i S_i* is Hermitian and zero beyond
    row lag L - 1, so the other entries are exactly 0.
    """
    n = rep.n
    w, rows = rep.windows
    length = w.shape[1]
    iso = _lag_residual(w, w, 0, lambda d: np.eye(n)[:, :, None] if d == 0 else 0.0, hermitian=True)

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
    w, rows = rep.windows
    coefficients = np.einsum("iak,ak->ik", w.conj(), f[rows])  # S_i* f
    g = _scatter(rows, np.einsum("iak,ik->ak", w, coefficients), f.size)
    return g, float(np.max(np.abs(g - f)))


def transition_operator_matrix(rep_a: TruncatedRep, rep_b: TruncatedRep, tol: float = CERTIFY_TOL) -> MatrixLaurent:
    """Multiplication symbols of S_i^(a)* S_j^(b) as a matrix of Laurent polynomials.

    Each symbol is the exact polyphase fiber sum of conj(n_i) m_j: entry
    (i, j) of the transposed loop P(m) star(P(n)), with P the polyphase
    matrix.  The truncated products of the models are then
    checked entrywise against the symbols' multiplication-operator
    matrices on the input band, which the lossless output band makes
    exact: entry (k, k + d) of the product is the symbol's coefficient of
    z^-d.  The products are formed lag by lag from each model's own column
    windows, read at the offset between the two filter supports with no
    padded copy; beyond the last lag they are exactly 0.
    """
    if rep_a.n != rep_b.n:
        raise ValueError("representations have different scales")
    if rep_a.in_band != rep_b.in_band:
        raise ValueError("representations must share the input band")
    (wa, _), (wb, _) = rep_a.windows, rep_b.windows
    delta = _filter_support(rep_b.system)[0] - _filter_support(rep_a.system)[0]
    loop = polyphase_matrix(rep_b.system) @ polyphase_matrix(rep_a.system).star()
    symbols = MatrixLaurent.from_tensor(loop.lo, loop.tensor.transpose(0, 2, 1))

    # The symbols have no exponent beyond the last lag either: conj(n_i) m_j
    # has exponents of modulus at most L - 1.
    worst = _lag_residual(wa, wb, delta, lambda d: symbols.laurent_coefficient(-d)[:, :, None], hermitian=False)
    if not worst <= tol:
        raise RuntimeError(f"operator products disagree with their symbols at tol {tol:.3e}: residual {worst:.3e}")
    return symbols


@dataclass(frozen=True)
class CommutantReport:
    """Exact commutant of the Cuntz representation of a filter system.

    dimension is the dimension of the fixed-point space of sigma(A) =
    sum_i V_i A V_i^* on B(K), band is the attractor band K, and
    singular_values are those of sigma - I, ascending: all from the filters.
    """

    dimension: int
    singular_values: np.ndarray
    band: Band


def commutant_diagnostic(rep: TruncatedRep, tol: float = COMMUTANT_TOL) -> CommutantReport:
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
    sigma(A) = sum_i V_i A V_i^* on B(K), with V_i = P_K S_i|_K, whose
    entries V_i[p, k] = sqrt(N) c_{i, p-Nk} come from the taps alone: only
    rep.system is read, and no band of rep changes the answer.  With A
    flattened row-major, sigma = sum_i kron(V_i, conj V_i), and the
    dimension is the number of singular values of sigma - I at most tol.  A
    tol that counts none is refused with ValueError, since the scalars always
    commute and no dimension is 0: a NaN or negative tol before sigma is built,
    and one below the smallest singular value after.
    """
    return _commutant(rep.system, tol)


def _commutant(system: FilterSystem, tol: float) -> CommutantReport:
    """commutant_diagnostic of a filter system; sigma has |K|^4 entries."""
    if not tol >= 0:
        raise ValueError(f"tol {tol!r} decides no commutant dimension: it is not a number >= 0")
    attractor = attractor_band(system)
    t_min, coeffs = _filter_stack(system)
    rows = _window_rows(system.n, attractor, t_min, len(coeffs), attractor.k_min)
    taps, cols = np.nonzero((rows >= 0) & (rows < attractor.size))
    v = np.zeros((system.n, attractor.size, attractor.size), dtype=complex)
    v[:, rows[taps, cols], cols] = math.sqrt(system.n) * coeffs.T[:, taps]
    sigma = sum(np.kron(s, s.conj()) for s in v)
    svals = np.linalg.svd(sigma - np.eye(attractor.size**2), compute_uv=False)[::-1]
    dimension = int(np.count_nonzero(svals <= tol))
    if dimension == 0:
        raise ValueError(
            f"tol {tol!r} decides no commutant dimension: no singular value of sigma - I is at most it, "
            f"the smallest being {svals[0]:.3e}"
        )
    return CommutantReport(dimension=dimension, singular_values=svals, band=attractor)
