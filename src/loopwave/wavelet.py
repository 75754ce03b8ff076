"""Cascade synthesis of scaling functions and wavelet generators.

The scaling function solves the refinement identity
phi(x) = N * sum_k a_k phi(N x - k) with sum_k a_k = 1 (the averaging
normalization that makes the identity, the low-pass condition and
integral(phi) = 1 simultaneously consistent).  The cascade iterates the
refinement, refining the sample grid by a factor of N each step, from one
of two seeds:

- the point seed, the values of phi at the integers: the eigenvalue-1
  eigenvector, scaled to sum 1, of the two-scale matrix
  T_jk = N a_{Nj-k} (Daubechies-Lagarias, *Two-scale difference
  equations I*).  Every iterate then holds the exact values of phi at the
  N-adic grid points, and the refinement identity holds to rounding at
  every level.
- the box seed on [0, 1), used when eigenvalue 1 of T is not simple (the
  Haar filter and the stretched boxes, where T = I).  The sample arrays
  are then the cell values of the piecewise-constant iterates, so discrete
  sums reproduce the continuum integrals of the iterates without
  quadrature error.

The generators, W xi = sum_k xi_k phi(. - k) and each refinement step are
sums of translates of one sample array, summed in place one cache-sized
block of the output at a time; the cascade reads each block's sup and
increment while the block is in cache.  It records that a real filter on
a real seed gave real samples, and the iterates, the generators and the
refinement defect of such samples are summed in float64 from their real
parts alone.  The results have the bits of the complex sums, and the
sample arrays handed out stay complex.

W intertwines the low-pass isometry S_0 with the dilation
U_N f(x) = N^{-1/2} f(x/N) up to the refinement defect
D(y) = phi(y) - N sum_t a_t phi(N y - t):
    U_N(W xi)(x) - W(S_0 xi)(x) = N^{-1/2} sum_k xi_k D(x/N - k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .laurent import CERTIFY_TOL, LaurentPoly
from .loopgroup import FilterSystem
from .qmf import low_pass_check, verify_scalar_qmf

#: Successive-iterate sup-difference below which the cascade is called converged.
CASCADE_CONV_TOL = 1e-6

#: Guard against runaway iterations from non-contractive filters.
DIVERGENCE_GUARD = 1e6

#: Eigenvalues of the two-scale matrix within this distance of 1 count toward
#: the multiplicity of eigenvalue 1; the point seed needs that multiplicity 1.
#: Wide enough to catch a Jordan block at 1, whose computed eigenvalues split
#: by about the square root of machine epsilon.
SEED_EIGENVALUE_TOL = 1e-6

NORMALIZATION_NOTE = (
    "refinement phi(x) = N * sum_k a_k phi(N x - k) with sum_k a_k = 1; "
    "Riemann integral of phi is 1"
)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A finitely supported function sampled on the lattice k * n^-level.

    The first sample along the last axis of values sits at
    start_index * n^-level; everything outside the samples is zero.
    """

    n: int
    level: int
    start_index: int
    values: np.ndarray

    @property
    def step(self) -> float:
        return float(self.n) ** (-self.level)

    def grid(self) -> np.ndarray:
        return (self.start_index + np.arange(self.values.shape[-1])) * self.step


@dataclass(frozen=True, eq=False)
class ScalingFunctionSamples(GridFunction):
    """Samples of a scaling function on the grid k * N^-level.

    The samples cover the support [0, (L-1)/(N-1)] with step
    h = N^-level, so start_index is 0.  seed says how the cascade
    started: under the point seed values[k] is phi(k h), under the box
    seed it is the cell value on [k h, (k+1) h) of the piecewise-constant
    iterate.  shift says how far the filter's support was translated to
    start at exponent 0.  real records that the cascade gave real samples (a
    real filter on a real seed), so sums may read values.real alone.
    """

    start_index: int = field(default=0, init=False)
    lowpass: LaurentPoly
    filter_length: int
    shift: int
    deltas: tuple[float, ...]
    seed: str
    normalization: str = NORMALIZATION_NOTE
    real: bool = False

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, (self.filter_length - 1) / (self.n - 1))

    @property
    def integral(self) -> float:
        return float((self.values.sum() * self.step).real)

    @property
    def last_delta(self) -> float:
        return self.deltas[-1] if self.deltas else math.inf

    @property
    def converged(self) -> bool:
        return self.last_delta <= CASCADE_CONV_TOL


@dataclass(frozen=True, eq=False)
class WaveletSamples(GridFunction):
    """Samples of the generators psi_1 .. psi_{N-1} on a common grid.

    values has one row per generator.  orthonormal_case records whether the
    source system's low-pass filter both generated the scaling samples and
    satisfies the averaging condition, i.e. whether the generators are
    candidates for an orthonormal family at all.
    """

    orthonormal_case: bool


#: Output samples summed at a time: a block of running sums and one product
#: term, 2^14 complex samples each, stay in a core's cache.
_BLOCK = 1 << 14


def _translate_sum(v: np.ndarray, starts, weights, out: np.ndarray, visit=None) -> np.ndarray:
    """Write out[m] = sum_k weights[k] v[m - starts[k]] over all of out and
    return it; a translate may start before out or end past it.

    Each block of out is zeroed and the terms that reach it are added in
    place, in the order given, skipping zero weights; visit(j, sums), if
    given, then sees the block's sums while they are in cache.  Real weights
    on real samples sum in float64, through one float64 block when out is
    complex; a complex weight reads a real slice once for both parts.  Every
    sum has the bits of the complex sum of the products complex(w) * v: a
    product with a zero factor is an exact zero, and a sum that starts from
    0 cannot end at -0.
    """
    v = np.ascontiguousarray(v)  # every term reads v again
    weights = np.asarray(weights, dtype=complex)
    if v.dtype == float and not np.count_nonzero(weights.imag):
        weights = weights.real
    terms = [(s, w) for s, w in zip(starts, weights.tolist()) if w]
    size = min(_BLOCK, len(out))
    term = np.empty(size, np.result_type(v, weights))
    sums = None if out.dtype == term.dtype else np.empty(size, term.dtype)
    for j in range(0, len(out), size):
        m = min(size, len(out) - j)
        acc = out[j : j + m] if sums is None else sums[:m]
        acc.fill(0.0)
        for s, w in terms:
            lo, hi = max(j, s), min(j + m, s + len(v))
            if lo < hi:
                np.multiply(w, v[lo - s : hi - s], out=term[: hi - lo])
                acc[lo - j : hi - j] += term[: hi - lo]
        if visit:
            visit(j, acc)
        if sums is not None:
            out[j : j + m] = acc
    return out


def _sup(x: np.ndarray) -> float:
    """max |x|; a real x is read without a temporary array."""
    return float(abs(max(x.max(), -x.min()))) if x.dtype == float else float(np.max(np.abs(x)))


def _filter_sum(v: np.ndarray, f: LaurentPoly, n: int, stride: int, out: np.ndarray, origin: int = 0, visit=None):
    """One refinement step N sum_t f_t v[. - t stride], out[0] at exponent origin / stride."""
    starts = range(f.valuation * stride - origin, (f.degree + 1) * stride - origin, stride)
    return _translate_sum(v, starts, [n * c for c in f.coeffs], out, visit)


def _increment(sup: np.ndarray, phi: np.ndarray, n: int, seed: str, j: int, block: np.ndarray) -> None:
    """Raise sup to (sup |block|, sup |block - phi|) over samples j, j + 1, ... of phi's refinement."""
    peak = _sup(block)
    if seed == "point":  # the coarse points, multiples of n, hold values of phi
        block, prev = block[-j % n :: n], phi[-(-j // n) :]
    else:  # the box seed: every fine cell against the coarse cell it refines
        prev = np.repeat(phi[j // n : (j + len(block) - 1) // n + 1], n)[j % n :]
    np.maximum(sup, (peak, _sup(block - prev[: len(block)])), out=sup)


def _refinement_defect(phi: ScalingFunctionSamples, a: LaurentPoly) -> GridFunction:
    """D[m] = fine[m] - N sum_t a_t coarse[m - t N^(level-1)] on phi's grid.

    fine = phi.values and coarse = fine[::N] are zero off their samples; D
    covers the union of both supports.  D is summed in float64 when the
    cascade recorded the samples real and the taps are real.
    """
    n, fine = phi.n, phi.values.real if phi.real else phi.values
    step = n ** (phi.level - 1)
    coarse = fine[::n]
    lo = min(0, a.valuation * step)
    real = phi.real and not any(c.imag for c in a.coeffs)
    defect = np.empty(max(a.degree * step + len(coarse), len(fine)) - lo, dtype=float if real else complex)
    # the sum of the negated terms, plus fine, is fine - refined exactly
    _filter_sum(coarse, a, -n, step, defect, lo)
    defect[-lo : len(fine) - lo] += fine
    return GridFunction(n, phi.level, lo, defect)


def _integer_point_values(a: np.ndarray, n: int, size: int) -> np.ndarray | None:
    """phi(0), ..., phi(size - 1) for the filter coefficients a_0 .. a_{L-1}.

    Restricted to the integers, the refinement identity reads phi = T phi
    with T_jk = N a_{Nj-k}.  For a low-pass QMF filter every column of T
    sums to 1, so eigenvalue 1 is always present; when it is simple its
    eigenvector has nonzero sum and, scaled to sum 1, is the integer values
    of phi.  Returns None when eigenvalue 1 is not simple.
    """
    offsets = n * np.arange(size)[:, None] - np.arange(size)[None, :]
    inside = (offsets >= 0) & (offsets < len(a))
    t = np.where(inside, n * a[np.clip(offsets, 0, len(a) - 1)], 0.0)
    eigenvalues, eigenvectors = np.linalg.eig(t)
    near_one = np.abs(eigenvalues - 1.0) <= SEED_EIGENVALUE_TOL
    if np.count_nonzero(near_one) != 1:
        return None
    v = eigenvectors[:, np.argmax(near_one)].astype(complex)
    return v / v.sum()


def cascade(m0: LaurentPoly, n: int, level: int, tol: float = CERTIFY_TOL) -> ScalingFunctionSamples:
    """Iterate the refinement operator ``level`` times from the point seed.

    The point seed is phi at the integers (see ``_integer_point_values``);
    the box seed on [0, 1) replaces it when eigenvalue 1 of the two-scale
    matrix is not simple, and the result records which one was used.
    Requires, at tol, the scalar QMF condition and the averaging property
    m_0(1) = 1; a filter supported away from exponent 0 is translated there
    first and the shift recorded.  Each iteration refines the grid by a
    factor of N and records its sup-difference from the previous iterate,
    so convergence can be judged by the caller: under the point seed at
    the coarse grid points, where both iterates hold exact values of phi
    (so the increments are rounding-level); under the box seed on every
    fine cell, against the previous piecewise-constant iterate.

    Real taps on a seed with no imaginary part keep every iterate real: each
    is summed in float64, and the result records real=True.  Raises
    ValueError once an iterate exceeds DIVERGENCE_GUARD in modulus.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    scalar = verify_scalar_qmf(m0, n)
    if not scalar <= tol:
        raise ValueError(f"m_0 fails the scalar QMF condition at tol {tol:.3e}: residual {scalar:.3e}")
    if not low_pass_check(m0, tol):
        raise ValueError(f"m_0 is not low-pass at tol {tol:.3e}: |m_0(1) - 1| = {abs(m0(1.0) - 1.0):.3e}")

    lowpass = LaurentPoly(0, m0.coeffs)
    a = np.asarray(lowpass.coeffs, dtype=complex)
    size = (len(a) - 1) // (n - 1) + 1
    phi = _integer_point_values(a, n, size)
    seed = "point"
    if phi is None:
        phi = np.zeros(size, dtype=complex)
        phi[0] = 1.0
        seed = "box"
    values = phi  # the result at level 0
    real = not np.count_nonzero(a.imag) and not np.count_nonzero(phi.imag)
    phi = phi.real if real else phi
    deltas: list[float] = []
    for t in range(level):
        # (L-1) N^t + len(phi) samples: the support grid refined once
        nxt = np.empty((len(a) - 1) * n**t + len(phi), dtype=complex if t == level - 1 else phi.dtype)
        sup = np.zeros(2)  # the largest |value| and increment over the blocks
        _filter_sum(phi, lowpass, n, n**t, nxt, visit=lambda j, block: _increment(sup, phi, n, seed, j, block))
        peak, delta = sup.tolist()
        if peak > DIVERGENCE_GUARD:
            raise ValueError(f"cascade diverged: sup |phi| = {peak:.3e} at iteration {t + 1}")
        deltas.append(delta)
        phi = values = nxt
    values.setflags(write=False)
    return ScalingFunctionSamples(
        n=n,
        level=level,
        values=values,
        lowpass=lowpass,
        filter_length=len(a),
        shift=m0.valuation,
        deltas=tuple(deltas),
        seed=seed,
        real=real,
    )


def cascade_samples(system: FilterSystem, level: int) -> int | float:
    """How many samples cascade(m_0, N, level) and wavelets(system, phi)
    return together: phi's floor((L - 1) N^level / (N - 1)) + 1 and N - 1
    generator rows as wide as their common window.  math.inf when N^level
    exceeds 2^1023, far beyond any memory.
    """
    n = system.n
    if level > 1023 / math.log2(n):
        return math.inf
    scale = n ** max(level, 0)
    phi = (len(system.filters[0].coeffs) - 1) * scale // (n - 1) + 1
    gens = [g for g in system.filters[1:] if not g.is_zero]
    if not gens:
        return phi
    return phi + (n - 1) * ((max(g.degree for g in gens) - min(g.valuation for g in gens)) * scale + phi)


def refinement_residual(phi: ScalingFunctionSamples) -> float:
    """Sup defect of phi(x) = N sum_k a_k phi(Nx - k) over the sample grid.

    The right-hand side only reads the samples on the once-coarsened
    lattice, so for an exactly refinable array (the box for the Haar
    filter, or any point-seeded cascade) this is zero up to rounding, and
    in general it tracks the last cascade increment.
    """
    if phi.level < 1:
        raise ValueError("refinement residual needs at least one cascade level")
    return _sup(_refinement_defect(phi, phi.lowpass).values)


def wavelets(system: FilterSystem, phi: ScalingFunctionSamples) -> WaveletSamples:
    """Generator samples psi_i(x) = N sum_k b^(i)_k phi(N x - k).

    Evaluated on phi's grid refined once; the common sample window is the
    union of the per-generator supports derived from the filter supports.
    No tol is taken: orthonormal_case tests low-pass at CERTIFY_TOL.
    """
    if not system.verified:
        raise ValueError("wavelets require a verified filter system")
    if system.n != phi.n:
        raise ValueError(f"grid incompatibility: system scale {system.n} vs samples scale {phi.n}")
    n = system.n
    stride = n**phi.level
    gens = system.filters[1:]
    if any(g.is_zero for g in gens):
        raise ValueError("generator filters must be nonzero")
    start = min(g.valuation for g in gens) * stride
    end = max(g.degree for g in gens) * stride + len(phi.values)
    samples = np.ascontiguousarray(phi.values.real) if phi.real else phi.values
    values = np.empty((n - 1, end - start), dtype=complex)
    for row, g in zip(values, gens):
        _filter_sum(samples, g, n, stride, row, start)
    values.setflags(write=False)
    shifted_m0 = LaurentPoly(0, system.filters[0].coeffs)
    orthonormal = low_pass_check(system.filters[0]) and shifted_m0.allclose(phi.lowpass, 1e-12)
    return WaveletSamples(
        n=n,
        level=phi.level + 1,
        start_index=start,
        values=values,
        orthonormal_case=orthonormal,
    )


def synthesize_W(xi: Mapping[int, complex], phi: GridFunction) -> GridFunction:
    """Samples of (W xi)(x) = sum_k xi_k phi(x - k) on phi's grid."""
    if not xi:
        return GridFunction(phi.n, phi.level, 0, np.zeros(1, dtype=complex))
    stride = phi.n**phi.level
    keys = sorted(xi)
    values = np.empty((keys[-1] - keys[0]) * stride + phi.values.shape[-1], dtype=complex)
    _translate_sum(phi.values, [(k - keys[0]) * stride for k in keys], [complex(xi[k]) for k in keys], values)
    return GridFunction(phi.n, phi.level, phi.start_index + keys[0] * stride, values)


def check_intertwine(
    system: FilterSystem, phi: ScalingFunctionSamples, xi: Mapping[int, complex]
) -> float:
    """Grid sup-norm of U_N(W xi) - W(S_0 xi), U_N f(x) = N^{-1/2} f(x/N).

    With (S_0 xi)_p = sqrt(N) sum_k a_{p-Nk} xi_k for the system's m_0, phi
    sampled as fine[j] at j N^-level and coarse = fine[::N], the two sides
    differ at the coarse lattice point q by exactly
        N^{-1/2} sum_k xi_k D[q - k N^level],
        D[m] = fine[m] - N sum_t a_t coarse[m - t N^(level-1)],
    the refinement defect of the samples against m_0, so D is computed once
    and synthesized by xi one block of the lattice at a time, over the
    blocks some translate reaches, each block reduced to its largest
    modulus as it is formed.  The residual is rounding-level for
    point-seeded samples of m_0's own phi and for an exactly refinable box,
    of the order of the last cascade increment for a box-seeded cascade
    short of its fixed point (callers should check phi.converged), and O(1)
    for samples refined from another filter.
    """
    if system.n != phi.n:
        raise ValueError("grid incompatibility between system and samples")
    if phi.level < 1:
        raise ValueError("intertwining check needs at least one cascade level")
    if not xi:
        return 0.0
    root = math.sqrt(system.n)
    defect = _refinement_defect(phi, system.filters[0]).values
    stride = phi.n**phi.level
    keys = sorted(xi)
    starts = [(k - keys[0]) * stride for k in keys]
    weights = [complex(xi[k]) / root for k in keys]
    total = starts[-1] + len(defect)
    size = min(_BLOCK, total)
    block = np.empty(size, dtype=complex)
    reached = sorted({b * size for s in starts for b in range(s // size, (s + len(defect) - 1) // size + 1)})
    return max(_sup(_translate_sum(defect, [s - j for s in starts], weights, block[: total - j])) for j in reached)


def orthonormality_check(phi: ScalingFunctionSamples, k_range: int) -> float:
    """Max deviation of the translate inner products <phi, phi(.-k)> from delta_k0.

    Computed for |k| <= k_range as a Riemann sum over the sample grid.
    Under the box seed this is the exact integral of the piecewise-constant
    iterate; under the point seed it is a quadrature of phi itself, whose
    error shrinks with the grid step at a rate set by phi's smoothness.
    """
    if k_range < 0:
        raise ValueError("k_range must be >= 0")
    vals = phi.values
    stride = phi.n**phi.level
    dev = abs(phi.step * np.vdot(vals, vals) - 1.0)
    for k in range(1, k_range + 1):
        if k * stride >= len(vals):
            break
        ip = phi.step * np.vdot(vals[: len(vals) - k * stride], vals[k * stride :])
        dev = max(dev, abs(ip))
    return float(dev)
