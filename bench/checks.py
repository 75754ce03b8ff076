"""Output checks computed apart from loopwave.

Every routine here works on plain numpy coefficient arrays: a polynomial is
``(offset, coeffs)`` and a loop is ``(lo, C)`` with ``C[l]`` the constant
matrix of ``z^(lo + l)``.  Nothing calls back into the package's algebra, so
a fault in the program cannot also hide in its check.  Each ``check_*``
function returns a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np


# -- coefficient arrays ------------------------------------------------------


def poly_array(p) -> tuple[int, np.ndarray]:
    """The offset and dense coefficients of a LaurentPoly."""
    return p.offset, np.asarray(p.coeffs, dtype=complex)


def system_arrays(system) -> list[tuple[int, np.ndarray]]:
    return [poly_array(f) for f in system.filters]


def support(polys) -> tuple[int, int]:
    """Lowest and highest exponent over the nonzero polynomials."""
    nonzero = [(o, c) for o, c in polys if c.size]
    return min(o for o, _ in nonzero), max(o + c.size - 1 for o, c in nonzero)


def _stack(grid) -> tuple[int, np.ndarray]:
    """``(lo, C)`` for a square grid of ``(offset, coeffs)`` entries."""
    n = len(grid)
    lo, hi = support([p for row in grid for p in row])
    out = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for i, row in enumerate(grid):
        for j, (o, c) in enumerate(row):
            out[o - lo : o - lo + c.size, i, j] = c
    return lo, out


def loop_tensor(entries) -> tuple[int, np.ndarray]:
    """``(lo, C)`` for a square grid of LaurentPoly entries."""
    return _stack([[poly_array(p) for p in row] for row in entries])


def eval_poly(poly: tuple[int, np.ndarray], z: np.ndarray) -> np.ndarray:
    offset, c = poly
    z = np.asarray(z, dtype=complex)
    if not c.size:
        return np.zeros(z.shape, dtype=complex)
    powers = z[..., None] ** (offset + np.arange(c.size))
    return powers @ c


def eval_loop(loop: tuple[int, np.ndarray], z: np.ndarray) -> np.ndarray:
    """A(z) for each point: shape ``(len(z), n, n)``."""
    lo, c = loop
    powers = np.asarray(z, dtype=complex)[:, None] ** (lo + np.arange(len(c)))
    return np.einsum("tl,lij->tij", powers, c)


def circle(points: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(points) / points)


def sample_points(count: int = 7) -> np.ndarray:
    """Circle points at irrational angles, away from every root-of-unity grid."""
    return np.exp(2j * np.pi * (np.sqrt(2.0) * np.arange(1, count + 1) % 1.0))


def polyphase(filters: list[tuple[int, np.ndarray]], n: int) -> tuple[int, np.ndarray]:
    """A_jk(z) = sqrt(N) sum_l c_{j, lN+k} z^l, from the coefficients directly."""
    t_min, t_max = support(filters)
    lo, hi = math.floor(t_min / n), math.floor(t_max / n)
    out = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for j, (o, c) in enumerate(filters):
        for t, value in enumerate(c):
            lag, k = divmod(o + t, n)
            out[lag - lo, j, k] = math.sqrt(n) * value
    return lo, out


# -- paraunitarity and the polyphase map ---------------------------------------


def paraunitary_defect(loop: tuple[int, np.ndarray]) -> float:
    """max |A(z)^H A(z) - I| over more roots of unity than A^H A has lags."""
    lags = len(loop[1])
    a = eval_loop(loop, circle(2 * lags + 1))
    n = a.shape[1]
    return float(np.max(np.abs(np.conj(np.swapaxes(a, 1, 2)) @ a - np.eye(n))))


def qmf_defect(filters: list[tuple[int, np.ndarray]], n: int) -> float:
    """Sampled QMF defect: the fiber matrices (m_j(rho^k w))_jk must be unitary."""
    span = max(o + c.size for o, c in filters) - min(o for o, c in filters)
    w = circle(2 * span + 1)
    rho = np.exp(2j * np.pi * np.arange(n) / n)
    fiber = np.stack([eval_poly(f, w[:, None] * rho[None, :]) for f in filters], axis=1)
    prod = fiber @ np.conj(np.swapaxes(fiber, 1, 2))
    return float(np.max(np.abs(prod - np.eye(n))))


def polyphase_defect(filters, loop, n: int) -> float:
    """max |m_i(z) - N^{-1/2} sum_j A_ij(z^N) z^j| at sample points."""
    z = sample_points()
    a = eval_loop(loop, z**n)
    rhs = np.einsum("tij,tj->ti", a, z[:, None] ** np.arange(n)) / math.sqrt(n)
    lhs = np.stack([eval_poly(f, z) for f in filters], axis=1)
    return float(np.max(np.abs(lhs - rhs)))


def coefficient_distance(a: tuple[int, np.ndarray], b: tuple[int, np.ndarray]) -> float:
    """Sup distance of two coefficient sequences (polynomials or loops)."""
    (oa, ca), (ob, cb) = a, b
    lo = min(oa, ob)
    hi = max(oa + len(ca), ob + len(cb))
    pad = np.zeros((hi - lo,) + ca.shape[1:], dtype=complex)
    da, db = pad.copy(), pad.copy()
    da[oa - lo : oa - lo + len(ca)] = ca
    db[ob - lo : ob - lo + len(cb)] = cb
    return float(np.max(np.abs(da - db))) if pad.size else 0.0


def witness_defect(loop, vectors: np.ndarray, exponents, v_matrix: np.ndarray) -> float:
    """max |A(z) v_k - z^{n_k} V v_k| at sample points, V v_k = sum_j V[j,k] v_j."""
    z = sample_points()
    a = eval_loop(loop, z)
    worst = 0.0
    for k, exp in enumerate(exponents):
        lhs = a @ vectors[:, k]
        rhs = (z[:, None] ** exp) * (vectors @ v_matrix[:, k])[None, :]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# -- Cuntz models ------------------------------------------------------------------


def weighted_shift(filters, n: int, rows: range, cols: range) -> list[np.ndarray]:
    """S_i[p, k] = sqrt(N) c_{i, p - Nk} on the index ranges given."""
    p = np.asarray(rows)[:, None]
    k = np.asarray(cols)[None, :]
    mats = []
    for offset, c in filters:
        t = p - n * k - offset
        inside = (t >= 0) & (t < c.size)
        mats.append(np.where(inside, math.sqrt(n) * c[np.clip(t, 0, max(c.size - 1, 0))], 0.0))
    return mats


def fixed_point_dimension(filters, n: int, tol: float = 1e-8) -> int:
    """Dimension of the fixed points of sigma(A) = sum_i V_i A V_i^* on B(K).

    K is the attractor band [ceil(-t_max/(N-1)), floor(-t_min/(N-1))] of the
    combined filter support [t_min, t_max], and V_i = P_K S_i|_K.  This is
    the commutant dimension of the Cuntz representation when K is cyclic.
    """
    t_min, t_max = support(filters)
    band = range(math.ceil(-t_max / (n - 1)), math.floor(-t_min / (n - 1)) + 1)
    d = len(band)
    sigma = sum(np.kron(v, np.conj(v)) for v in weighted_shift(filters, n, band, band))
    svals = np.linalg.svd(sigma - np.eye(d * d), compute_uv=False)
    return int(np.count_nonzero(svals <= tol))


def check_rep(rep, filters, n: int, band, vector: np.ndarray, recon) -> list[str]:
    errs = []
    t_min, t_max = support(filters)
    rows = range(n * band.k_min + t_min, n * band.k_max + t_max + 1)
    expected = weighted_shift(filters, n, rows, band.indices())
    for i, (s, e) in enumerate(zip(rep.S, expected)):
        if s.shape != e.shape or np.max(np.abs(s - e)) > 1e-14:
            errs.append(f"S_{i} is not the weighted shift sqrt(N) c_(i,p-Nk)")
    report, (g, residual) = recon
    if report.interior is None or max(report.isometry_residual, report.completeness_residual) > 1e-10:
        errs.append(f"Cuntz residuals {report.isometry_residual:.3e}, {report.completeness_residual:.3e}")
    if residual > 1e-10 or np.max(np.abs(g - vector)) > 1e-10:
        errs.append(f"interior reconstruction off by {residual:.3e}")
    return errs


def check_identity_symbols(mat, n: int) -> list[str]:
    lo, c = loop_tensor(mat.entries)
    eye = np.zeros_like(c)
    eye[-lo] = np.eye(n)
    if lo > 0 or lo + len(c) <= 0 or np.max(np.abs(c - eye)) > 1e-10:
        return ["symbol matrix of a model with itself is not I"]
    return []


# -- cascade --------------------------------------------------------------------


def refinement_defect(values: np.ndarray, lowpass: np.ndarray, n: int, level: int) -> float:
    """max |phi(x) - N sum_k a_k phi(Nx - k)| on the grid x = j N^-level."""
    stride = n**level
    j = np.arange(len(values))
    rhs = np.zeros_like(values)
    for k, a in enumerate(lowpass):
        idx = n * j - k * stride
        ok = (idx >= 0) & (idx < len(values))
        rhs[ok] += n * a * values[idx[ok]]
    return float(np.max(np.abs(rhs - values)))


def check_cascade(phi, psi, residual: float, orthonormality: float | None) -> list[str]:
    errs = []
    scale = max(1.0, float(np.max(np.abs(phi.values))))
    integral = phi.values.sum() * phi.step
    if abs(integral - 1.0) > 1e-9:
        errs.append(f"sum phi h = {integral:.12g}")
    psi_sums = psi.values.sum(axis=1) * psi.step
    if np.max(np.abs(psi_sums), initial=0.0) > 1e-9:
        errs.append(f"sum psi h = {psi_sums}")
    lowpass = np.asarray(phi.lowpass.coeffs, dtype=complex)
    if refinement_defect(phi.values, lowpass, phi.n, phi.level) > 1e-9 * scale:
        errs.append("refinement identity fails")
    if residual > 1e-9:
        errs.append(f"intertwining residual {residual:.3e}")
    if orthonormality is not None and orthonormality > 1e-3:
        errs.append(f"orthonormality defect {orthonormality:.3e}")
    return errs


def check_box_third(phi) -> list[str]:
    """(1 + z^3)/2 at N = 2 refines phi = 1/3 on [0, 3): the samples must say
    so, or the cascade must admit that it has not converged."""
    x = phi.grid()
    inside = phi.values[x < 3.0]
    if np.max(np.abs(inside - 1.0 / 3.0)) <= 1e-9 or not phi.converged:
        return []
    return [f"converged=True but samples are not 1/3 (max {np.max(np.abs(inside)):.3g})"]


# -- files written by the command line ------------------------------------------


def _pairs(values) -> np.ndarray:
    return np.asarray([complex(re, im) for re, im in values], dtype=complex)


def filters_from_json(doc: dict) -> list[tuple[int, np.ndarray]]:
    return [(f["offset"], _pairs(f["coeffs"])) for f in doc["filters"]]


def loop_from_json(doc: dict) -> tuple[int, np.ndarray]:
    return _stack([[(e["offset"], _pairs(e["coeffs"])) for e in row] for row in doc["entries"]])


def check_grid_completion(text: bytes, m0, n: int, grid: int) -> list[str]:
    doc = json.loads(text)
    base = _pairs(doc["base_points"])
    reps = np.asarray([_pairs(row) for row in doc["representatives"]])
    values = np.asarray([[_pairs(fib) for fib in filt] for filt in doc["values"]])
    errs = []
    if values.shape != (n, grid, n) or np.max(np.abs(reps**n - base[:, None])) > 1e-12:
        errs.append("grid completion has the wrong shape or fibers")
        return errs
    fiber = np.transpose(values, (1, 0, 2))
    if np.max(np.abs(fiber @ np.conj(np.swapaxes(fiber, 1, 2)) - np.eye(n))) > 1e-10:
        errs.append("grid completion fiber matrices are not unitary")
    if np.max(np.abs(values[0] - eval_poly(m0, reps))) > 1e-10:
        errs.append("grid completion does not keep m_0")
    return errs


def check_cascade_csv(text: bytes, filters, n: int, iters: int) -> list[str]:
    rows = [line.split(",") for line in text.decode().splitlines()]
    header, body = rows[0], rows[1:]
    lowpass = filters[0][1]
    expected_rows = math.floor((len(lowpass) - 1) / (n - 1) * n**iters) + 1
    h = float(n) ** -iters
    table = np.asarray([[complex(cell) for cell in row] for row in body])
    errs = []
    if header != ["x", "phi"] + [f"psi_{i}" for i in range(1, n)] or len(body) != expected_rows:
        errs.append(f"CSV has {len(body)} rows, expected {expected_rows}")
        return errs
    if np.max(np.abs(table[:, 0].real - np.arange(len(body)) * h)) > 1e-12:
        errs.append("CSV x column is not k h")
    if abs(table[:, 1].sum() * h - 1.0) > 1e-9:
        errs.append("CSV sum phi h != 1")
    if np.max(np.abs(table[:, 2:].sum(axis=0) * h)) > 1e-9:
        errs.append("CSV sum psi_i h != 0")
    return errs
