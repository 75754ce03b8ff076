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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .laurent import LaurentPoly
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


@dataclass(frozen=True)
class ScalingFunctionSamples:
    """Samples of a scaling function on the grid k * N^-level.

    The samples cover the support [0, (L-1)/(N-1)] with step
    h = N^-level; everything outside is zero.  seed says how the cascade
    started: under the point seed values[k] is phi(k h), under the box
    seed it is the cell value on [k h, (k+1) h) of the piecewise-constant
    iterate.  shift says how far the filter's support was translated to
    start at exponent 0.
    """

    n: int
    level: int
    values: np.ndarray
    lowpass: LaurentPoly
    filter_length: int
    shift: int
    deltas: tuple[float, ...]
    seed: str
    normalization: str = NORMALIZATION_NOTE

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, (self.filter_length - 1) / (self.n - 1))

    @property
    def step(self) -> float:
        return float(self.n) ** (-self.level)

    @property
    def integral(self) -> float:
        return float((self.values.sum() * self.step).real)

    @property
    def last_delta(self) -> float:
        return self.deltas[-1] if self.deltas else math.inf

    @property
    def converged(self) -> bool:
        return self.last_delta <= CASCADE_CONV_TOL

    def grid(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.step


@dataclass(frozen=True)
class WaveletSamples:
    """Samples of the generators psi_1 .. psi_{N-1} on a common grid.

    Grid step is N^-level with the first sample at start_index * N^-level;
    values has one row per generator.  orthonormal_case records whether the
    source system's low-pass filter both generated the scaling samples and
    satisfies the averaging condition, i.e. whether the generators are
    candidates for an orthonormal family at all.
    """

    n: int
    level: int
    start_index: int
    values: np.ndarray
    orthonormal_case: bool

    @property
    def step(self) -> float:
        return float(self.n) ** (-self.level)

    def grid(self) -> np.ndarray:
        return (self.start_index + np.arange(self.values.shape[1])) * self.step


@dataclass(frozen=True)
class GridFunction:
    """A finitely supported function sampled on the lattice k * n^-level."""

    n: int
    level: int
    start_index: int
    values: np.ndarray

    @property
    def step(self) -> float:
        return float(self.n) ** (-self.level)

    def grid(self) -> np.ndarray:
        return (self.start_index + np.arange(len(self.values))) * self.step


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


def cascade(m0: LaurentPoly, n: int, level: int, tol: float = 1e-10) -> ScalingFunctionSamples:
    """Iterate the refinement operator ``level`` times from the point seed.

    The point seed is phi at the integers (see ``_integer_point_values``);
    the box seed on [0, 1) replaces it when eigenvalue 1 of the two-scale
    matrix is not simple, and the result records which one was used.
    Requires the scalar QMF condition and the averaging property
    m_0(1) = 1; a filter supported away from exponent 0 is translated there
    first and the shift recorded.  Each iteration refines the grid by a
    factor of N and records its sup-difference from the previous iterate,
    so convergence can be judged by the caller: under the point seed at
    the coarse grid points, where both iterates hold exact values of phi
    (so the increments are rounding-level); under the box seed on every
    fine cell, against the previous piecewise-constant iterate.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    scalar = verify_scalar_qmf(m0, n)
    if scalar > tol:
        raise ValueError(f"m_0 fails the scalar QMF condition: residual {scalar:.3e}")
    if not low_pass_check(m0):
        raise ValueError(f"m_0 is not low-pass: m_0(1) = {m0(1.0):.6g}, expected 1")
    if m0.is_zero:
        raise ValueError("m_0 must be nonzero")

    shift = m0.valuation
    a = np.asarray(LaurentPoly(0, m0.coeffs).coeffs, dtype=complex)
    length = len(a)
    sup_end = (length - 1) / (n - 1)

    size = math.floor(sup_end) + 1
    phi = _integer_point_values(a, n, size)
    seed = "point"
    if phi is None:
        phi = np.zeros(size, dtype=complex)
        phi[0] = 1.0
        seed = "box"
    deltas: list[float] = []
    for t in range(level):
        stride = n**t
        new_size = math.floor(sup_end * n ** (t + 1)) + 1
        nxt = np.zeros(new_size, dtype=complex)
        for k in range(length):
            lo = k * stride
            if lo >= new_size:
                continue
            cnt = min(new_size - lo, len(phi))
            nxt[lo : lo + cnt] += n * a[k] * phi[:cnt]
        peak = float(np.max(np.abs(nxt)))
        if peak > DIVERGENCE_GUARD:
            raise RuntimeError(f"cascade diverged: sup |phi| = {peak:.3e} at iteration {t + 1}")
        if seed == "point":
            delta = np.max(np.abs(nxt[::n] - phi))
        else:
            delta = np.max(np.abs(nxt - np.repeat(phi, n)[:new_size]))
        deltas.append(float(delta))
        phi = nxt
    phi.setflags(write=False)
    return ScalingFunctionSamples(
        n=n,
        level=level,
        values=phi,
        lowpass=LaurentPoly(0, m0.coeffs),
        filter_length=length,
        shift=shift,
        deltas=tuple(deltas),
        seed=seed,
    )


def refinement_residual(phi: ScalingFunctionSamples) -> float:
    """Sup defect of phi(x) = N sum_k a_k phi(Nx - k) over the sample grid.

    The right-hand side only reads the samples on the once-coarsened
    lattice, so for an exactly refinable array (the box for the Haar
    filter, or any point-seeded cascade) this is zero up to rounding, and
    in general it tracks the last cascade increment.
    """
    if phi.level < 1:
        raise ValueError("refinement residual needs at least one cascade level")
    n = phi.n
    stride = n**phi.level
    vals = phi.values
    rhs = np.zeros_like(vals)
    a = phi.lowpass
    for k in a.support():
        idx = np.arange(len(vals)) * n - k * stride
        valid = (idx >= 0) & (idx < len(vals))
        rhs[valid] += n * a.coeff(k) * vals[idx[valid]]
    return float(np.max(np.abs(rhs - vals)))


def wavelets(system: FilterSystem, phi: ScalingFunctionSamples) -> WaveletSamples:
    """Generator samples psi_i(x) = N sum_k b^(i)_k phi(N x - k).

    Evaluated on phi's grid refined once; the common sample window is the
    union of the per-generator supports derived from the filter supports.
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
    end = max(g.degree for g in gens) * stride + len(phi.values) - 1
    values = np.zeros((n - 1, end - start + 1), dtype=complex)
    for i, g in enumerate(gens):
        for k in g.support():
            lo = k * stride - start
            cnt = min(values.shape[1] - lo, len(phi.values))
            values[i, lo : lo + cnt] += n * g.coeff(k) * phi.values[:cnt]
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


def synthesize_W(xi: Mapping[int, complex], phi: ScalingFunctionSamples) -> GridFunction:
    """Samples of (W xi)(x) = sum_k xi_k phi(x - k) on phi's grid."""
    if not xi:
        return GridFunction(phi.n, phi.level, 0, np.zeros(1, dtype=complex))
    stride = phi.n**phi.level
    k_min = min(xi)
    k_max = max(xi)
    values = np.zeros((k_max - k_min) * stride + len(phi.values), dtype=complex)
    for k in sorted(xi):
        lo = (k - k_min) * stride
        values[lo : lo + len(phi.values)] += complex(xi[k]) * phi.values
    return GridFunction(phi.n, phi.level, k_min * stride, values)


def shift_down(system: FilterSystem, xi: Mapping[int, complex]) -> dict[int, complex]:
    """The low-pass isometry on sequences: (S_0 xi)_p = sqrt(N) sum_k a_{p-Nk} xi_k."""
    n = system.n
    a = system.filters[0]
    root = math.sqrt(n)
    out: dict[int, complex] = {}
    for k, c in xi.items():
        for t in a.support():
            p = n * k + t
            out[p] = out.get(p, 0.0) + root * a.coeff(t) * complex(c)
    return {p: v for p, v in out.items() if v != 0}


def check_intertwine(
    system: FilterSystem, phi: ScalingFunctionSamples, xi: Mapping[int, complex]
) -> float:
    """Grid sup-norm of U_N(W xi) - W(S_0 xi), U_N f(x) = N^{-1/2} f(x/N).

    The dilated side lives on the once-coarsened grid, so the comparison
    runs over the coarse lattice covering both supports.  The residual is
    bounded by the refinement defect of the sample array: rounding-level
    for point-seeded samples (exact values of phi at the grid points) and
    for an exactly refinable box, and of the order of the last cascade
    increment for a box-seeded cascade that has not reached its fixed point
    (callers should check phi.converged).
    """
    if system.n != phi.n:
        raise ValueError("grid incompatibility between system and samples")
    if phi.level < 1:
        raise ValueError("intertwining check needs at least one cascade level")
    if not xi:
        return 0.0
    n = system.n
    stride = n**phi.level
    fine = phi.values
    # On the coarse lattice q, with phi sampled at j N^-level:
    #   U_N(W xi)(q) = N^-1/2 sum_k xi_k fine[q - k N^level],
    #   W(S_0 xi)(q) = sum_p (S_0 xi)_p fine[N q - p N^level]
    #                = sum_p (S_0 xi)_p coarse[q - p N^(level-1)],
    # with coarse = fine[::N]; both sides go into one buffer.
    coarse = np.ascontiguousarray(fine[::n])
    root = math.sqrt(n)
    terms = [(k * stride, complex(c) / root, fine) for k, c in sorted(xi.items())]
    terms += [(p * (stride // n), -complex(c), coarse) for p, c in sorted(shift_down(system, xi).items())]
    lo = min(start for start, _, _ in terms)
    diff = np.zeros(max(start + len(v) for start, _, v in terms) - lo, dtype=complex)
    for start, c, v in terms:
        diff[start - lo : start - lo + len(v)] += c * v
    return float(np.max(np.abs(diff)))


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
