"""Independent numeric oracles used by the tests.

These deliberately avoid the library's exact polyphase code paths: fiber
sums are evaluated at sampled roots, kernels come from scipy, the corner
search is exhaustive, and the commutant is read off the band-truncated
commutation constraints.  They exist to cross-check the production
implementations, so keep them dumb.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

from loopwave import Band, FilterSystem, Loop


def fiber_points(z: complex, n: int) -> np.ndarray:
    """All n solutions w of w^n = z, via the principal root."""
    w0 = np.exp(1j * np.angle(z) / n)
    return w0 * np.exp(2j * np.pi * np.arange(n) / n)


def sampled_loop_from_filters(system: FilterSystem, z: complex) -> np.ndarray:
    """A(z) by the literal fiber sum A_{i,j}(z) = n^{-1/2} sum_{w^n=z} m_i(w) w^-j."""
    n = system.n
    ws = fiber_points(z, n)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(system.filters[i](w) * w ** (-j) for w in ws) / np.sqrt(n)
    return out


def sampled_transition(target: FilterSystem, source: FilterSystem, z: complex) -> np.ndarray:
    """T(z) by the literal fiber sum T_{i,j}(z) = sum_{w^n=z} n_i(w) conj(m_j(w))."""
    n = target.n
    ws = fiber_points(z, n)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(target.filters[i](w) * np.conj(source.filters[j](w)) for w in ws)
    return out


def truncated_commutant_dimension(system: FilterSystem, band: Band, tol: float = 1e-6) -> int:
    """Commutant dimension probed on a finite band of Fourier indices.

    Compresses every S_i (S_i[p, k] = sqrt(N) c_{i, p-Nk}) to the interior
    band, where sum_i S_i S_i* = 1 holds exactly, stacks the constraints
    X S - S X = 0 for S = S_i and S_i^*, and counts the near-null
    directions of the dense Gram matrix.  Truncation makes this depend on
    the band; on small bands that hold the attractor band well inside the
    interior, it agrees with the exact count.
    """
    n = system.n
    support = [t for f in system.filters for t in f.support()]
    t_min, t_max = min(support), max(support)
    inner = range(n * band.k_min + t_max - n + 1, n * band.k_max + t_min + n)
    d = len(inner)
    eye = np.eye(d)
    gram = np.zeros((d * d, d * d), dtype=complex)
    for f in system.filters:
        s = np.zeros((d, d), dtype=complex)
        for kk, k in enumerate(inner):
            for t in f.support():
                if n * k + t in inner:
                    s[n * k + t - inner[0], kk] = np.sqrt(n) * f.coeff(t)
        for op in (s, s.conj().T):
            constraint = np.kron(op.T, eye) - np.kron(eye, op)
            gram += constraint.conj().T @ constraint
    svals = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
    return int(np.count_nonzero(svals < tol))


def brute_kernels(loop: Loop, tol: float = 1e-10) -> dict[int, np.ndarray]:
    """Graded kernels via scipy's null_space, independent of the library's SVD path."""
    n = loop.n
    coeffs = {c: loop.mat.laurent_coefficient(c) for c in loop.mat.support()}
    out = {}
    for exp in sorted(coeffs):
        if exp < 0:
            continue
        others = [coeffs[c] for c in sorted(coeffs) if c != exp]
        stacked = np.vstack(others) if others else np.zeros((0, n))
        if stacked.size == 0:
            basis = np.eye(n, dtype=complex)
        else:
            basis = scipy.linalg.null_space(stacked, rcond=tol)
        if basis.shape[1] > 0:
            out[exp] = basis
    return out


def brute_corner_n2(loop: Loop, tol: float = 1e-8) -> tuple[int, tuple[int, ...]]:
    """Exhaustive corner search for 2x2 loops.

    The graded kernels of a 2x2 paraunitary loop carry at most 2 dimensions
    in total.  Every graded subspace is therefore either a direct sum of
    whole kernel pieces, or a single line inside a 2-dimensional kernel; in
    the latter case the loop is a single monomial z^n A_n and a stable line
    must be an eigendirection of A_n.  That makes the candidate list below
    exhaustive, so maximizing over it is a true brute force at N = 2.
    Returns (corner rank, sorted exponents), rank 0 when no corner exists.
    """
    assert loop.n == 2
    kernels = brute_kernels(loop)
    coeff = {exp: loop.mat.laurent_coefficient(exp) for exp in kernels}

    options: list[list[tuple[int, np.ndarray] | None]] = []
    for exp in sorted(kernels):
        basis = kernels[exp]
        opts: list[tuple[int, np.ndarray] | None] = [None, (exp, basis)]
        if basis.shape[1] == 2:
            evals, evecs = np.linalg.eig(coeff[exp])
            for i in range(len(evals)):
                v = evecs[:, [i]] / np.linalg.norm(evecs[:, i])
                opts.append((exp, v))
        options.append(opts)

    best_rank = 0
    best_exps: tuple[int, ...] = ()
    for combo in itertools.product(*options):
        chosen = [c for c in combo if c is not None]
        if not chosen:
            continue
        cols = np.hstack([c[1] for c in chosen])
        exps: list[int] = []
        for exp, b in chosen:
            exps.extend([exp] * b.shape[1])
        q, r = np.linalg.qr(cols)
        if np.min(np.abs(np.diag(r))) < tol:
            continue  # degenerate candidate, not a direct sum
        dim = cols.shape[1]
        images = np.hstack(
            [coeff[exp] @ b for exp, b in chosen]
        )
        outside = images - q @ (q.conj().T @ images)
        if np.max(np.abs(outside)) > tol:
            continue
        span = np.linalg.svd(q.conj().T @ images, compute_uv=False)
        if span[dim - 1] < tol:
            continue
        if dim > best_rank:
            best_rank = dim
            best_exps = tuple(sorted(exps))
    return best_rank, best_exps
