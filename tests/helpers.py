"""Independent numeric oracles used by the tests.

These deliberately avoid the library's exact polyphase code paths: fiber
sums are evaluated at sampled roots, kernels come from scipy, the corner
search is exhaustive, the commutant is read off the band-truncated
commutation constraints, loop algebra is entrywise np.convolve on the
coefficient arrays read out of LaurentPoly entries, and LaurentPoly algebra
a zero-padded sum, np.convolve, a reversed conjugate or a strided write on
its stored coefficients, the Cuntz relations are
full dense matrix products, the intertwining identity is synthesized
on the whole fine grid, the cascade, generator and synthesis samples are
summed one clipped slice per filter tap or sequence entry, or all in
complex arithmetic by one complex translate-sum, null spaces come from
the full SVD, CSV cells are one ``repr`` of each value, the corner
witness is re-checked with one LaurentPoly subtraction per component,
decimation is read one coefficient at a time, and evaluation is a Horner
loop over Python or numpy values.
They exist to cross-check the production implementations, so keep them
dumb.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
import scipy.linalg

from loopwave import Band, FilterSystem, LaurentPoly, Loop, MatrixLaurent


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


def coefficient_grid(mat: MatrixLaurent) -> tuple[int, np.ndarray]:
    """(lo, C) with C[l, i, j] the coefficient of z^(lo + l) in entry (i, j),
    read entry by entry from the LaurentPoly grid."""
    live = [p for row in mat.entries for p in row if not p.is_zero]
    if not live:
        return 0, np.zeros((0, mat.n, mat.n), dtype=complex)
    lo = min(p.offset for p in live)
    hi = max(p.offset + len(p.coeffs) for p in live)
    out = np.zeros((hi - lo, mat.n, mat.n), dtype=complex)
    for i, row in enumerate(mat.entries):
        for j, p in enumerate(row):
            for k, c in enumerate(p.coeffs):
                out[p.offset - lo + k, i, j] = c
    return lo, out


def grid_product(a: tuple[int, np.ndarray], b: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """Coefficients of A(z) B(z): sum over k of np.convolve(A_ik, B_kj), entry by entry."""
    (lo_a, ca), (lo_b, cb) = a, b
    n = ca.shape[1]
    out = np.zeros((len(ca) + len(cb) - 1, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[:, i, j] += np.convolve(ca[:, i, k], cb[:, k, j])
    return lo_a + lo_b, out


def grid_star(a: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """Coefficients of the circle adjoint: entry (i, j) is conj(A_ji(1/z))."""
    lo, c = a
    n = c.shape[1]
    out = np.zeros_like(c)
    for i in range(n):
        for j in range(n):
            out[:, i, j] = np.conj(c[::-1, j, i])
    return -(lo + len(c) - 1), out


def grid_distance(a: tuple[int, np.ndarray], b: tuple[int, np.ndarray]) -> float:
    """Max coefficient modulus of A - B over a common exponent range."""
    lo = min(a[0], b[0])
    hi = max(a[0] + len(a[1]), b[0] + len(b[1]))
    n = a[1].shape[1]
    diff = np.zeros((hi - lo, n, n), dtype=complex)
    diff[a[0] - lo : a[0] - lo + len(a[1])] += a[1]
    diff[b[0] - lo : b[0] - lo + len(b[1])] -= b[1]
    return float(np.max(np.abs(diff), initial=0.0))


def grid_eval(a: tuple[int, np.ndarray], z: complex) -> np.ndarray:
    """A(z) = sum_l C[l] z^(lo + l) as a plain power sum."""
    lo, c = a
    return sum(c[l] * z ** (lo + l) for l in range(len(c)))


def trimmed(lo: int, c: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, c) with end coefficients of modulus at most 1e-14 (TRIM_TOL)
    dropped one at a time; the zero polynomial is (0, [])."""
    c = np.asarray(c, dtype=complex)
    while len(c) and abs(c[0]) <= 1e-14:
        lo, c = lo + 1, c[1:]
    while len(c) and abs(c[-1]) <= 1e-14:
        c = c[:-1]
    return (lo, c) if len(c) else (0, c)


def padded_sum(p, q, sign: float = 1.0) -> tuple[int, np.ndarray]:
    """Coefficients of p + sign q: both zero-padded onto one exponent range."""
    lo = min(p.offset, q.offset)
    out = np.zeros(max(p.offset + len(p.coeffs), q.offset + len(q.coeffs)) - lo, dtype=complex)
    out[p.offset - lo : p.offset - lo + len(p.coeffs)] += np.array(p.coeffs, dtype=complex)
    out[q.offset - lo : q.offset - lo + len(q.coeffs)] += sign * np.array(q.coeffs, dtype=complex)
    return trimmed(lo, out)


def convolved(p, q) -> tuple[int, np.ndarray]:
    """Coefficients of p q by np.convolve of the stored coefficients."""
    if p.is_zero or q.is_zero:
        return 0, np.zeros(0, dtype=complex)
    return trimmed(p.offset + q.offset, np.convolve(np.array(p.coeffs), np.array(q.coeffs)))


def reversed_conjugate(p) -> tuple[int, np.ndarray]:
    """Coefficients of the circle adjoint: z^k's coefficient, conjugated, at z^-k."""
    return trimmed(-(p.offset + len(p.coeffs) - 1), np.conj(np.array(p.coeffs, dtype=complex)[::-1]))


def strided(p, n: int) -> tuple[int, np.ndarray]:
    """Coefficients of p(z^n): the stored coefficients written every n-th place."""
    out = np.zeros(max(len(p.coeffs) - 1, 0) * n + 1, dtype=complex)
    out[: len(p.coeffs) * n : n] = p.coeffs
    return trimmed(p.offset * n, out)


def poly_eval(p, z: complex) -> complex:
    """p(z) as a plain power sum over its stored coefficients."""
    return sum(c * z ** (p.offset + k) for k, c in enumerate(p.coeffs))


def python_horner(p, z: complex) -> complex:
    """p(z) by Horner's rule in Python complex arithmetic, one stored
    coefficient at a time from the top, then times z^offset."""
    acc = 0.0 + 0.0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc * z**p.offset


def numpy_horner(lo: int, c: np.ndarray, z, shape: tuple[int, ...]) -> np.ndarray:
    """sum_l c[l] z^(lo + l) by Horner's rule in numpy, from a zero
    accumulator of the given shape."""
    acc = np.zeros(shape, dtype=complex)
    for coef in c[::-1]:
        acc = acc * z + coef
    return acc * z**lo


def coefficient_fibers(polys, n: int) -> dict[tuple[int, int, int], complex]:
    """{(q, i, k): c} for every stored coefficient c of z^(q n + k) in
    polys[i], 0 <= k < n, read one coefficient at a time."""
    out = {}
    for i, p in enumerate(polys):
        for e, c in zip(p.support(), p.coeffs):
            q, k = divmod(e, n)
            out[q, i, k] = c
    return out


def sampled_paraunitary_residual(mat: MatrixLaurent) -> float:
    """Coefficient residual of star(A) A - I from samples.

    star(A) A has exponents in [-(L-1), L-1] for L lags, so 2L + 1 samples
    of A(z)^H A(z) at roots of unity determine its coefficients by a DFT.
    """
    lo, c = coefficient_grid(mat)
    lags = len(c)
    size = 2 * lags + 1
    zs = np.exp(2j * np.pi * np.arange(size) / size)
    samples = []
    for z in zs:
        a = grid_eval((lo, c), z)
        samples.append(a.conj().T @ a - np.eye(mat.n))
    samples = np.array(samples)
    coeffs = [
        np.mean([samples[t] * zs[t] ** (-e) for t in range(size)], axis=0)
        for e in range(-(lags - 1), lags)
    ]
    return float(np.max(np.abs(coeffs)))


def sampled_grid_residual(system: FilterSystem, grid_size: int) -> float:
    """Worst |M M^H - I| over the fiber matrices M[j, k] = m_j(rho^k z),
    built point by point at every grid point z."""
    n = system.n
    rho = np.exp(2j * np.pi * np.arange(n) / n)
    worst = 0.0
    for z in np.exp(2j * np.pi * np.arange(grid_size) / grid_size):
        m = np.array([[poly_eval(f, rho[k] * z) for k in range(n)] for f in system.filters])
        worst = max(worst, float(np.max(np.abs(m @ m.conj().T - np.eye(n)))))
    return worst


def pointwise_completion(m0, n: int, grid_size: int) -> np.ndarray:
    """Grid completion one base point at a time: row 0 is m_0 on the fiber,
    then Gram-Schmidt on the canonical basis minus the vector of largest
    overlap with row 0, each new row phased so its first entry above 1e-12
    is positive real.  Returns values[i, t, k]."""
    values = np.zeros((n, grid_size, n), dtype=complex)
    eye = np.eye(n)
    for t, x in enumerate(np.exp(2j * np.pi * np.arange(grid_size) / grid_size)):
        rows = [np.array([poly_eval(m0, w) for w in fiber_points(x, n)])]
        skip = int(np.argmax(np.abs(rows[0])))
        for j in range(n):
            if j == skip:
                continue
            v = eye[j].astype(complex)
            for u in rows:
                v = v - np.vdot(u, v) * u
            v = v / np.linalg.norm(v)
            nz = np.flatnonzero(np.abs(v) > 1e-12)[0]
            rows.append(v * (abs(v[nz]) / v[nz]))
        values[:, t, :] = np.array(rows)
    return values


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


def laurent_witness_residual(loop: Loop, vectors: np.ndarray, exponents: tuple[int, ...]) -> float:
    """The corner-witness residual with one LaurentPoly subtraction per
    component: the orthonormality defect of the vectors, the unitarity
    defect of V = vectors^H [A_{n_k} v_k], and the largest coefficient of
    A(z) v_k - (V v_k)_i z^{n_k}, each side trimmed as LaurentPoly trims."""
    m = vectors.shape[1]
    residual = float(np.max(np.abs(vectors.conj().T @ vectors - np.eye(m))))
    images = np.column_stack(
        [loop.mat.laurent_coefficient(exponents[k]) @ vectors[:, k] for k in range(m)]
    )
    v_matrix = vectors.conj().T @ images
    residual = max(residual, float(np.max(np.abs(v_matrix.conj().T @ v_matrix - np.eye(m)))))
    for k in range(m):
        lhs = loop.mat.apply(vectors[:, k])
        rhs_vec = vectors @ v_matrix[:, k]
        for i in range(loop.n):
            diff = lhs[i] - LaurentPoly.monomial(exponents[k], rhs_vec[i])
            residual = max(residual, diff.max_abs())
    return residual


# -- Cuntz models and the intertwining identity, by dense products -------------


def dense_weighted_shifts(system: FilterSystem, in_band: Band) -> tuple[Band, list[np.ndarray]]:
    """The output band and S_i[p, k] = sqrt(N) c_{i, p-Nk}, written one
    coefficient at a time on [N k_min + t_min, N k_max + t_max]."""
    n = system.n
    support = [t for f in system.filters for t in f.support()]
    out = Band(n * in_band.k_min + min(support), n * in_band.k_max + max(support))
    mats = []
    for f in system.filters:
        m = np.zeros((out.size, in_band.size), dtype=complex)
        for kk, k in enumerate(in_band.indices()):
            for t in f.support():
                m[n * k + t - out.k_min, kk] = np.sqrt(n) * f.coeff(t)
        mats.append(m)
    return out, mats


def brute_interior(rep) -> Band | None:
    """Output indices p such that every k with p - Nk in the combined filter
    support lies in the input band, found by trying every p and t."""
    n = rep.n
    support = [t for f in rep.system.filters for t in f.support()]
    inside = [
        p
        for p in rep.out_band.indices()
        if all((p - t) // n in rep.in_band for t in range(min(support), max(support) + 1) if (p - t) % n == 0)
    ]
    return Band(min(inside), max(inside)) if inside else None


def dense_cuntz_residuals(rep) -> tuple[float, float]:
    """Max entry of S_i^H S_j - delta_ij I over all N^2 full products, and of
    sum_i S_i S_i^H - I over its interior block (nan without an interior)."""
    n = rep.n
    eye = np.eye(rep.in_band.size)
    iso = max(
        float(np.max(np.abs(rep.S[i].conj().T @ rep.S[j] - (eye if i == j else 0.0))))
        for i in range(n)
        for j in range(n)
    )
    inner = brute_interior(rep)
    if inner is None:
        return iso, float("nan")
    total = sum(s @ s.conj().T for s in rep.S)
    lo = inner.k_min - rep.out_band.k_min
    block = total[lo : lo + inner.size, lo : lo + inner.size]
    return iso, float(np.max(np.abs(block - np.eye(inner.size))))


def dense_symbol_residual(rep_a, rep_b, symbols: MatrixLaurent) -> float:
    """Max entry of S_i^(a)H S_j^(b) minus the Toeplitz matrix
    [symbol_ij coefficient of z^(p - k)]_(p, k) on the input band, with both
    models padded by zero rows to a common output band."""
    out = Band(min(rep_a.out_band.k_min, rep_b.out_band.k_min), max(rep_a.out_band.k_max, rep_b.out_band.k_max))

    def padded(rep, i):
        m = np.zeros((out.size, rep.in_band.size), dtype=complex)
        lo = rep.out_band.k_min - out.k_min
        m[lo : lo + rep.out_band.size] = rep.S[i]
        return m

    lo, c = coefficient_grid(symbols)
    band = list(rep_a.in_band.indices())
    worst = 0.0
    for i in range(rep_a.n):
        for j in range(rep_a.n):
            expected = np.array(
                [[c[p - k - lo, i, j] if 0 <= p - k - lo < len(c) else 0.0 for k in band] for p in band]
            )
            worst = max(worst, float(np.max(np.abs(padded(rep_a, i).conj().T @ padded(rep_b, j) - expected))))
    return worst


def dense_intertwine_residual(system: FilterSystem, phi, xi: dict) -> float:
    """sup |U_N(W xi) - W(S_0 xi)| over the coarse lattice q, by synthesizing
    W xi and W(S_0 xi) on phi's whole fine grid (step N^-level) and reading
    the second at every N-th sample: U_N(W xi)(q) = N^-1/2 (W xi)[q] and
    W(S_0 xi)(q) = (W S_0 xi)[N q]."""
    n = phi.n
    a = system.filters[0]
    down: dict[int, complex] = {}
    for k, c in xi.items():
        for t in a.support():
            down[n * k + t] = down.get(n * k + t, 0.0) + np.sqrt(n) * a.coeff(t) * c
    lhs_start, lhs = loop_synthesis(xi, phi)
    rhs_start, rhs = loop_synthesis(down, phi)
    q = np.arange(min(lhs_start, -(-rhs_start // n)), max(lhs_start + len(lhs), (rhs_start + len(rhs) - 1) // n + 1))
    left = np.zeros(len(q), dtype=complex)
    ok = (q >= lhs_start) & (q < lhs_start + len(lhs))
    left[ok] = lhs[q[ok] - lhs_start] / np.sqrt(n)
    right = np.zeros(len(q), dtype=complex)
    fine = n * q - rhs_start
    ok = (fine >= 0) & (fine < len(rhs))
    right[ok] = rhs[fine[ok]]
    return float(np.max(np.abs(left - right)))


# -- Cascade, generators and synthesis, one slice per term ---------------------


def loop_cascade(m0: LaurentPoly, n: int, seed: np.ndarray, point: bool, level: int):
    """The iterates phi_1 .. phi_level from the level-0 samples ``seed`` and
    their increments (at the coarse points when ``point``, else against the
    repeated cells).  Each step adds N a_k phi[:cnt] at offset k N^t into a
    zeroed array of floor(N^(t+1) (L-1)/(N-1)) + 1 samples, k ascending,
    clipped at its end."""
    a = np.asarray(LaurentPoly(0, m0.coeffs).coeffs, dtype=complex)
    sup_end = (len(a) - 1) / (n - 1)
    phi = seed
    iterates, deltas = [], []
    for t in range(level):
        stride = n**t
        new_size = math.floor(sup_end * n ** (t + 1)) + 1
        nxt = np.zeros(new_size, dtype=complex)
        for k in range(len(a)):
            lo = k * stride
            if lo >= new_size:
                continue
            cnt = min(new_size - lo, len(phi))
            nxt[lo : lo + cnt] += n * a[k] * phi[:cnt]
        if point:
            deltas.append(float(np.max(np.abs(nxt[::n] - phi))))
        else:
            deltas.append(float(np.max(np.abs(nxt - np.repeat(phi, n)[:new_size]))))
        iterates.append(nxt)
        phi = nxt
    return iterates, tuple(deltas)


def gather_refinement_residual(phi) -> float:
    """max_m |N sum_k a_k values[m N - k N^level] - values[m]|, the right-hand
    side gathered by index arrays over the stored samples only."""
    n = phi.n
    stride = n**phi.level
    vals = phi.values
    rhs = np.zeros_like(vals)
    for k in phi.lowpass.support():
        idx = np.arange(len(vals)) * n - k * stride
        valid = (idx >= 0) & (idx < len(vals))
        rhs[valid] += n * phi.lowpass.coeff(k) * vals[idx[valid]]
    return float(np.max(np.abs(rhs - vals)))


def loop_wavelets(system: FilterSystem, phi) -> tuple[int, np.ndarray]:
    """(start index, rows) of psi_i = N sum_k b_k phi(N x - k): each row sums
    N b_k phi over the window from min valuation to max degree of the
    generators, tap by tap, clipped at the window's end."""
    n = system.n
    stride = n**phi.level
    gens = system.filters[1:]
    start = min(g.valuation for g in gens) * stride
    end = max(g.degree for g in gens) * stride + len(phi.values) - 1
    values = np.zeros((n - 1, end - start + 1), dtype=complex)
    for i, g in enumerate(gens):
        for k in g.support():
            lo = k * stride - start
            cnt = min(values.shape[1] - lo, len(phi.values))
            values[i, lo : lo + cnt] += n * g.coeff(k) * phi.values[:cnt]
    return start, values


def loop_synthesis(xi: dict, phi) -> tuple[int, np.ndarray]:
    """(start index, samples) of sum_k xi_k phi(x - k), one slice-add per key
    in ascending order, on phi's grid."""
    stride = phi.n**phi.level
    k_min = min(xi)
    values = np.zeros((max(xi) - k_min) * stride + len(phi.values), dtype=complex)
    for k in sorted(xi):
        lo = (k - k_min) * stride
        values[lo : lo + len(phi.values)] += complex(xi[k]) * phi.values
    return k_min * stride, values


# -- The wavelet layer in complex arithmetic throughout -------------------------


def complex_translate_sum(v: np.ndarray, starts, weights, length: int | None = None) -> np.ndarray:
    """sum_j weights[j] v[. - starts[j]] for starts >= 0, each product
    complex(w) * v formed and added in order into complex zeros of the given
    length (default max(starts) + len(v)), 2^15 samples per slice-add."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros(max(starts, default=0) + len(v) if length is None else length, dtype=complex)
    for s, w in zip(starts, weights):
        for lo in range(0, len(v), 1 << 15):
            block = v[lo : lo + (1 << 15)]
            out[s + lo : s + lo + len(block)] += complex(w) * block
    return out


def _complex_filter_sum(v, f: LaurentPoly, n: int, stride: int, length: int | None = None) -> np.ndarray:
    return complex_translate_sum(v, [t * stride for t in range(len(f.coeffs))], [n * c for c in f.coeffs], length)


def complex_cascade(m0: LaurentPoly, n: int, seed: np.ndarray, level: int) -> list[np.ndarray]:
    """The iterates phi_1 .. phi_level from the level-0 samples ``seed``,
    each one refinement step in complex arithmetic."""
    lowpass = LaurentPoly(0, m0.coeffs)
    iterates, phi = [], seed
    for t in range(level):
        phi = _complex_filter_sum(phi, lowpass, n, n**t)
        iterates.append(phi)
    return iterates


def complex_wavelets(system: FilterSystem, phi) -> tuple[int, np.ndarray]:
    """(start index, rows) of psi_i = N sum_k b_k phi(N x - k), each row one
    complex translate-sum placed at its generator's valuation."""
    n = system.n
    stride = n**phi.level
    gens = system.filters[1:]
    start = min(g.valuation for g in gens) * stride
    width = max(g.degree for g in gens) * stride + len(phi.values) - start
    values = np.zeros((n - 1, width), dtype=complex)
    for i, g in enumerate(gens):
        offset = g.valuation * stride - start
        values[i, offset:] = _complex_filter_sum(phi.values, g, n, stride, width - offset)
    return start, values


def complex_synthesis(xi: dict, phi) -> tuple[int, np.ndarray]:
    """(start index, samples) of sum_k xi_k phi(x - k), one complex translate-sum."""
    stride = phi.n**phi.level
    keys = sorted(xi)
    return keys[0] * stride, complex_translate_sum(phi.values, [(k - keys[0]) * stride for k in keys], [xi[k] for k in keys])


def complex_defect(phi, a: LaurentPoly) -> np.ndarray:
    """D[m] = fine[m] - N sum_t a_t coarse[m - t N^(level-1)] from the index
    min(0, valuation(a) N^(level-1)), formed as -refined + fine in complex
    arithmetic."""
    n, fine = phi.n, phi.values
    step = n ** (phi.level - 1)
    coarse = fine[::n]
    lo = min(0, a.valuation * step)
    defect = np.zeros(max(a.degree * step + len(coarse), len(fine)) - lo, dtype=complex)
    offset = a.valuation * step - lo
    defect[offset:] = _complex_filter_sum(coarse, a, n, step, len(defect) - offset)
    defect = -defect
    defect[-lo : len(fine) - lo] += fine
    return defect


def complex_intertwine_residual(system: FilterSystem, phi, xi: dict) -> float:
    """max |N^-1/2 sum_k xi_k D[. - k N^level]| with D the refinement defect
    against the system's m_0, synthesized whole in complex arithmetic."""
    if not xi:
        return 0.0
    defect = complex_defect(phi, system.filters[0])
    stride = phi.n**phi.level
    keys = sorted(xi)
    root = math.sqrt(system.n)
    diff = complex_translate_sum(defect, [(k - keys[0]) * stride for k in keys], [complex(xi[k]) / root for k in keys])
    return float(np.max(np.abs(diff)))


def full_svd_null_space(mat: np.ndarray, ambient_dim: int, rank_tol: float) -> np.ndarray:
    """Null-space basis (columns) from the full SVD: the rows of vh past the
    rank, the rank counted against rank_tol * max(1, largest singular value)."""
    if mat.size == 0:
        return np.eye(ambient_dim, dtype=complex)
    _, svals, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.count_nonzero(svals > rank_tol * max(1.0, svals[0] if svals.size else 0.0)))
    return vh[rank:].conj().T


# -- Cascade CSV, one repr per cell and one csv.writer row per sample -----------


def repr_cells(values: np.ndarray) -> list[str]:
    """CSV cells of a sample column: repr of the real part when the
    imaginary part is at most 1e-12, else repr of the complex value."""
    real = list(map(repr, np.real(values).tolist()))
    is_real = np.abs(np.imag(values)) <= 1e-12
    if is_real.all():
        return real
    return [r if ok else repr(c) for r, ok, c in zip(real, is_real.tolist(), values.tolist())]


def cascade_csv_bytes(phi, psi, n: int) -> bytes:
    """The cascade CSV written row by row with csv.writer: x, phi and each
    psi_i at its fine index i N - start (0 off its support)."""
    columns = [repr_cells(np.arange(len(phi.values)) * phi.step), repr_cells(phi.values)]
    for g in range(n - 1):
        col = np.zeros(len(phi.values), dtype=psi.values.dtype)
        for i in range(len(col)):
            fine = i * n - psi.start_index
            if 0 <= fine < psi.values.shape[1]:
                col[i] = psi.values[g, fine]
        columns.append(repr_cells(col))
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["x", "phi"] + [f"psi_{i}" for i in range(1, n)])
    writer.writerows(zip(*columns))
    return out.getvalue().encode()
