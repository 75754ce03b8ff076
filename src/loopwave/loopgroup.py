"""The loop group of paraunitary matrix Laurent polynomials and its action
on filter systems.

A loop A (an N x N paraunitary matrix Laurent polynomial) corresponds
one-to-one with a quadrature-mirror filter system (m_0, ..., m_{N-1})
through the polyphase decomposition

    m_i(z) = N^{-1/2} * sum_j A_{i,j}(z^N) * z^j
    A_{j,k}(z) = sqrt(N) * sum_l c_{j, l*N+k} * z^l      (m_j = sum_t c_{j,t} z^t)

The second line is the exact coefficient-level form of the fiber sum
sum_{w^N = z} m_j(w) w^{-k} / sqrt(N): a fiber sum of a Laurent monomial
w^r over the N-th roots of z is N * z^(r/N) when N divides r and zero
otherwise, so fiber sums never need numeric root sampling here (sampled
fiber sums exist only as test oracles).

The group acts transitively on filter systems of a fixed scale:
act(A, m)_i = sum_j A_{i,j}(z^N) m_j(z), and transition(n, m) recovers the
unique loop carrying m to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .laurent import LaurentPoly, MatrixLaurent

#: Default tolerance for coefficient-level paraunitarity certification.
CERTIFY_TOL = 1e-10


@dataclass(frozen=True)
class FilterSystem:
    """An ordered system (m_0, ..., m_{N-1}) of Laurent polynomial filters.

    ``verified`` records that the system passed the QMF test (equivalently,
    that its polyphase loop is paraunitary).  Constructing with
    verified=True is reserved for code paths that have actually established
    this; user input goes through qmf.certify.
    """

    n: int
    filters: tuple[LaurentPoly, ...]
    verified: bool = False

    def __init__(self, n: int, filters: Sequence[LaurentPoly], verified: bool = False):
        if n < 2:
            raise ValueError(f"scale must be >= 2, got {n}")
        fs = tuple(filters)
        if len(fs) != n:
            raise ValueError(f"expected exactly {n} filters, got {len(fs)}")
        for f in fs:
            if not isinstance(f, LaurentPoly):
                raise TypeError("filters must be LaurentPoly")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "filters", fs)
        object.__setattr__(self, "verified", bool(verified))

    def __getitem__(self, i: int) -> LaurentPoly:
        return self.filters[i]

    def distance(self, other: FilterSystem) -> float:
        if self.n != other.n:
            raise ValueError("scale mismatch")
        return max(a.distance(b) for a, b in zip(self.filters, other.filters))

    def with_verified(self, flag: bool) -> FilterSystem:
        return replace(self, verified=flag)


@dataclass(frozen=True)
class Loop:
    """A matrix Laurent polynomial together with its paraunitarity status."""

    mat: MatrixLaurent
    certified: bool = False

    @property
    def n(self) -> int:
        return self.mat.n

    def distance(self, other: Loop) -> float:
        return self.mat.distance(other.mat)


def certify_loop(mat: MatrixLaurent, tol: float = CERTIFY_TOL) -> Loop:
    """Check paraunitarity at the coefficient level and wrap as a certified loop."""
    ok, residual = mat.is_paraunitary(tol)
    if not ok:
        raise ValueError(f"matrix is not paraunitary: residual {residual:.3e} > {tol:.1e}")
    return Loop(mat, certified=True)


def try_certify_loop(mat: MatrixLaurent, tol: float = CERTIFY_TOL) -> Loop:
    """Like certify_loop but returns an uncertified Loop instead of raising."""
    ok, _ = mat.is_paraunitary(tol)
    return Loop(mat, certified=ok)


def base_system(n: int) -> FilterSystem:
    """The base monomial system m_k(z) = z^k / sqrt(n), the identity's image."""
    s = 1.0 / math.sqrt(n)
    return FilterSystem(n, [LaurentPoly.monomial(k, s) for k in range(n)], verified=True)


def loop_to_filters(loop: Loop) -> FilterSystem:
    """Filters of a certified loop: m_i(z) = N^{-1/2} sum_j A_{i,j}(z^N) z^j."""
    if not loop.certified:
        raise ValueError("loop must be certified paraunitary")
    n = loop.n
    s = 1.0 / math.sqrt(n)
    filters = []
    for i in range(n):
        m = LaurentPoly.zero()
        for j in range(n):
            m = m + loop.mat[i, j].compose_power(n) * LaurentPoly.monomial(j, s)
        filters.append(m)
    return FilterSystem(n, filters, verified=True)


def polyphase_matrix(system: FilterSystem) -> MatrixLaurent:
    """Polyphase matrix of a filter system: A_{j,k}(z) = sqrt(N) sum_l c_{j,lN+k} z^l.

    Its paraunitarity is exactly the QMF property of the input; callers
    that need the residual run the certificate themselves, once.
    """
    n = system.n
    s = math.sqrt(n)
    rows = []
    for j in range(n):
        m = system.filters[j]
        row = []
        for k in range(n):
            if m.is_zero:
                row.append(LaurentPoly.zero())
                continue
            # exponents t = l*n + k within the support of m_j
            lo = math.ceil((m.valuation - k) / n)
            hi = math.floor((m.degree - k) / n)
            coeffs = [s * m.coeff(l * n + k) for l in range(lo, hi + 1)]
            row.append(LaurentPoly(lo, coeffs))
        rows.append(row)
    return MatrixLaurent(rows)


def filters_to_loop(system: FilterSystem, tol: float = CERTIFY_TOL) -> Loop:
    """Polyphase loop of a filter system, certified only when it is paraunitary."""
    return try_certify_loop(polyphase_matrix(system), tol)


def act(loop: Loop, system: FilterSystem) -> FilterSystem:
    """Apply a loop to a filter system: n_i(z) = sum_j A_{i,j}(z^N) m_j(z)."""
    if not loop.certified:
        raise ValueError("loop must be certified paraunitary")
    if loop.n != system.n:
        raise ValueError(f"size mismatch: loop {loop.n} vs system {system.n}")
    n = system.n
    out = []
    for i in range(n):
        acc = LaurentPoly.zero()
        for j in range(n):
            acc = acc + loop.mat[i, j].compose_power(n) * system.filters[j]
        out.append(acc)
    # The defining orthogonality computation shows the action preserves QMF.
    return FilterSystem(n, out, verified=system.verified)


def transition(target: FilterSystem, source: FilterSystem, tol: float = CERTIFY_TOL) -> Loop:
    """The loop carrying ``source`` to ``target``:

        A_{i,j}(x) = sum_{y : y^N = x} target_i(y) * conj(source_j(y)),

    computed exactly by reading off the multiples-of-N coefficients of
    star(source_j) * target_i.  The fiber sum expands the target filters in
    the orthonormal module basis the source filters provide, so this is the
    unique loop with act(transition(n, m), m) = n.  (Conjugating the target
    instead of the source would produce the entrywise circle adjoint of
    this matrix, i.e. the star of its transpose.)
    """
    if not (target.verified and source.verified):
        raise ValueError("transition requires verified filter systems")
    if target.n != source.n:
        raise ValueError("scale mismatch")
    n = target.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            q = source.filters[j].star() * target.filters[i]
            if q.is_zero:
                row.append(LaurentPoly.zero())
                continue
            lo = math.ceil(q.valuation / n)
            hi = math.floor(q.degree / n)
            coeffs = [n * q.coeff(l * n) for l in range(lo, hi + 1)]
            row.append(LaurentPoly(lo, coeffs))
        rows.append(row)
    return certify_loop(MatrixLaurent(rows), tol)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random constant unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_paraunitary(n: int, degree: int, seed: int) -> Loop:
    """A seeded random paraunitary loop as a product of elementary factors.

    Builds U_0 * prod_{t=1..degree} (I - P_t + z P_t) U_t with P_t a random
    rank-one orthogonal projection and U_t a random constant unitary.  Every
    FIR paraunitary matrix factors this way, so seeding over (n, degree)
    covers the whole test space.  Deterministic in the seed.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = np.random.default_rng(seed)
    mat = MatrixLaurent.from_constant(random_unitary(n, rng))
    for _ in range(degree):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        proj = np.outer(v, v.conj())
        factor = MatrixLaurent(
            [
                [
                    LaurentPoly(0, ((1.0 if i == j else 0.0) - proj[i, j], proj[i, j]))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        mat = factor @ MatrixLaurent.from_constant(random_unitary(n, rng)) @ mat
    return certify_loop(mat)
