"""Quadrature-mirror-filter verification and completion.

A scale-N filter system (m_0, ..., m_{N-1}) is QMF when the N x N fiber
matrix (m_j evaluated over the N-th-root fiber of each base point) is
unitary everywhere on the circle.  The exact certificate is paraunitarity
of the polyphase loop; the sampled fiber-matrix check is kept alongside as
an independent cross-check on a root-of-unity grid.

Completion takes a scalar filter m_0 with unit fiber norm and produces the
missing rows: an exact FIR construction for N = 2, or a pointwise sampled
unitary completion for general N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laurent import CERTIFY_TOL, LaurentPoly, horner, lag_adjoint, lag_convolve, stack, unit_grid
from .loopgroup import FilterSystem, certify_loop, decimate, polyphase_matrix

#: Default number of circle samples for grid cross-checks, rounded up to a
#: multiple of N by default_grid.
DEFAULT_GRID = 256


@dataclass(frozen=True)
class QmfReport:
    """Residuals of the QMF conditions for one filter system.

    unitary_residual is the coefficient-level paraunitarity defect of the
    polyphase loop; scalar_residual is the fiber-norm defect of m_0;
    grid_residual is the worst sampled fiber-matrix unitarity defect.
    """

    n: int
    unitary_residual: float
    scalar_residual: float
    low_pass: bool
    grid_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.unitary_residual <= self.tol


def verify_scalar_qmf(m0: LaurentPoly, n: int) -> float:
    """Fiber-norm residual of a single filter.

    The condition sum over the fiber of |m_0|^2 = 1 is equivalent to the
    autocorrelations at lags l*n satisfying sum_k c_k conj(c_{k-l*n}) =
    delta_{l,0} / n; the returned residual is the max deviation over all
    lags, exactly zero iff the condition holds.  Those autocorrelations are
    the coefficients of p(z) star(p)(z) for the decimated row
    p_k(z) = sum_l c_{ln+k} z^l, the (0, 0) entry of P P* up to the factor n.
    """
    if n < 2:
        raise ValueError(f"scale must be >= 2, got {n}")
    _, row = decimate(*stack([m0]), n)
    if len(row) == 0:
        return 1.0 / n
    gram = lag_convolve(row, lag_adjoint(row))
    gram[len(row) - 1] -= 1.0 / n
    return float(np.max(np.abs(gram)))


def low_pass_check(m0: LaurentPoly, tol: float = CERTIFY_TOL) -> bool:
    """True when m_0(1) = 1 within tol, making m_0 an averaging filter."""
    return abs(m0(1.0) - 1.0) <= tol


def fiber_representatives(x: complex | np.ndarray, n: int) -> np.ndarray:
    """The n preimages of x under z -> z^n: principal root times n-th roots of unity.

    For an array of base points the result has one more axis, of length n.
    """
    x = np.asarray(x, dtype=complex)
    principal = np.exp(1j * np.angle(x) / n) * np.abs(x) ** (1.0 / n)
    return principal[..., None] * np.exp(2j * np.pi * np.arange(n) / n)


def _unitarity_defect(m: np.ndarray) -> float:
    """Worst entry of M M^H - I over a stack (G, n, n) of matrices."""
    return float(np.max(np.abs(m @ m.conj().transpose(0, 2, 1) - np.eye(m.shape[1]))))


def default_grid(n: int) -> int:
    """The default grid size at scale n: the smallest multiple of n at or
    above DEFAULT_GRID, since the grid checks need a multiple of n."""
    return -(-DEFAULT_GRID // n) * n


def _grid_size(n: int, grid_size: int | None) -> int:
    """grid_size, default_grid(n) when None, once it is a positive multiple of n."""
    if grid_size is None:
        return default_grid(n)
    if grid_size <= 0 or grid_size % n != 0:
        raise ValueError(f"grid_size must be a positive multiple of {n}")
    return grid_size


def verify_qmf(system: FilterSystem, tol: float = CERTIFY_TOL, grid_size: int | None = None) -> QmfReport:
    """Full QMF report for a filter system.

    The exact check is paraunitarity of the polyphase loop; the grid check
    evaluates the fiber matrix (m_j(rho^k z))_{j,k}, rho = exp(2 pi i / N),
    at grid_size circle points and measures its worst unitarity defect.
    Because grid_size is a multiple of N, the fiber point rho^k z_t is the
    grid point z_(t + k grid_size / N), so each filter is evaluated once on
    the grid and the fiber matrices are read off those values.  The base
    points z_t and z_(t + grid_size / N) have the same fiber, in rotated
    column order, so the grid_size / N fiber matrices at t < grid_size / N
    hold every grid value and have the same M M^H as the rest.  grid_size
    defaults to default_grid(N).
    """
    n = system.n
    grid_size = _grid_size(n, grid_size)
    _, unitary_residual = polyphase_matrix(system).is_paraunitary(tol)

    lo, c = stack(system.filters)
    values = horner(lo, c[:, :, None], unit_grid(grid_size))
    # values[j, k * grid_size / N + t] = m_j(rho^k z_t): fiber matrix t is [:, :, t].
    grid_residual = _unitarity_defect(values.reshape(n, n, grid_size // n).transpose(2, 0, 1))

    return QmfReport(
        n=n,
        unitary_residual=unitary_residual,
        scalar_residual=verify_scalar_qmf(system.filters[0], n),
        low_pass=low_pass_check(system.filters[0], tol),
        grid_residual=grid_residual,
        tol=tol,
    )


def certify(system: FilterSystem, tol: float = CERTIFY_TOL, grid_size: int | None = None) -> FilterSystem:
    """Return the system flagged verified-QMF, or raise if its polyphase loop
    fails certify_loop; grid_size is checked, but no grid is evaluated."""
    _grid_size(system.n, grid_size)
    certify_loop(polyphase_matrix(system), tol)
    return system.with_verified(True)


@dataclass(frozen=True)
class SampledSystem:
    """A filter system known only through samples on fibered circle points.

    values[i, t, k] is filter i at representative k of base point t, where
    the representatives of base_points[t] are rho^k times the principal
    N-th root.  Produced by grid-mode completion; per-point unitarity of
    the fiber matrices is certified by unitarity_residual.
    """

    n: int
    base_points: np.ndarray
    representatives: np.ndarray
    values: np.ndarray
    unitarity_residual: float


def _fir2_completion(m0: LaurentPoly) -> LaurentPoly:
    # Alternating conjugate flip about an odd pivot exponent: with
    # b_k = (-1)^k conj(a_{E-k}) and E odd, the fiber of z^2 is {w, -w} and
    # the cross terms cancel in pairs, so (m_0, m_1) is QMF whenever m_0
    # passes the scalar test.  E is the smallest odd exponent >= val + deg,
    # so b, z^E star(m_0) with alternating signs, starts at m_0's valuation
    # or one above it, at exponent E - deg.
    lo = m0.valuation + 1 - (m0.valuation + m0.degree) % 2
    m1 = LaurentPoly(lo, [(-1.0) ** (k % 2) * c for k, c in enumerate(m0.star().coeffs, lo)])

    # Phase convention: first nonzero entry of the new row's polyphase
    # column at z = 1 is made positive real.  The column is summed in
    # Python, lags ascending; np.sum's pairwise order rounds differently.
    _, d = decimate(*stack([m1]), 2)
    for k in range(2):
        col = sum(d[:, 0, k].tolist())
        if abs(col) > 1e-12:
            m1 = m1 * (abs(col) / col)
            break
    return m1


def _grid_completion(m0: LaurentPoly, n: int, grid_size: int) -> SampledSystem:
    base = unit_grid(grid_size)
    reps = fiber_representatives(base, n)
    lo, c = stack([m0])
    row0 = horner(lo, c[:, 0], reps)
    # Gram-Schmidt at every base point at once: the canonical basis minus
    # the vector of largest overlap with row 0, in order.
    skip = np.argmax(np.abs(row0), axis=1)
    order = np.array([[j for j in range(n) if j != s] for s in range(n)])
    rows = [row0]
    for j in order[skip].T:
        v = np.eye(n, dtype=complex)[j]
        for u in rows:
            v = v - np.sum(u.conj() * v, axis=1, keepdims=True) * u
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        lead = v[np.arange(grid_size), np.argmax(np.abs(v) > 1e-12, axis=1)]
        rows.append(v * (np.abs(lead) / lead)[:, None])
    fibers = np.stack(rows, axis=1)  # (grid_size, n rows, n representatives)
    residual = _unitarity_defect(fibers)
    values = np.ascontiguousarray(fibers.transpose(1, 0, 2))
    for arr in (base, reps, values):
        arr.setflags(write=False)
    return SampledSystem(
        n=n,
        base_points=base,
        representatives=reps,
        values=values,
        unitarity_residual=residual,
    )


def complete(
    m0: LaurentPoly,
    n: int,
    mode: str = "fir2",
    grid_size: int | None = None,
    tol: float = CERTIFY_TOL,
) -> FilterSystem | SampledSystem:
    """Complete a scalar filter to a full system.

    mode "fir2" (N = 2 only) uses the alternating conjugate flip and returns
    an exact verified FIR system; mode "grid" returns a SampledSystem built
    by deterministic pointwise Gram-Schmidt against the canonical basis
    (skipping the basis vector of largest overlap with the given row).
    grid_size defaults to default_grid(N).
    """
    if mode == "fir2" and n != 2:  # refused before the scalar test pads m_0 to blocks of N
        raise ValueError("fir2 completion is defined only for scale 2")
    scalar = verify_scalar_qmf(m0, n)
    if not scalar <= tol:
        raise ValueError(f"m_0 fails the scalar QMF condition at tol {tol:.3e}: residual {scalar:.3e}")
    grid_size = _grid_size(n, grid_size)
    if mode == "fir2":
        return certify(FilterSystem(2, [m0, _fir2_completion(m0)]), tol=tol)
    if mode == "grid":
        return _grid_completion(m0, n, grid_size)
    raise ValueError(f"unknown completion mode {mode!r}")


def verify_measure_invariance(n: int, k_max: int) -> float:
    """Transfer-identity residual for Haar measure under z -> z^n.

    For monomials f = z^k, |k| <= k_max, compares the circle average of the
    normalized fiber sum of f with the circle average of f, both via exact
    root-of-unity Riemann sums.  Zero up to rounding.
    """
    if n < 2:
        raise ValueError(f"scale must be >= 2, got {n}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    grid = 2 * k_max + 1
    base = unit_grid(grid)
    reps = fiber_representatives(base, n)
    residual = 0.0
    for k in range(-k_max, k_max + 1):
        lhs = np.mean(np.mean(reps**k, axis=1))
        rhs = 1.0 if k == 0 else 0.0
        residual = max(residual, abs(lhs - rhs))
    return float(residual)
