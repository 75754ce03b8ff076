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

from .laurent import CERTIFY_TOL, LaurentPoly, MatrixLaurent, stack, unstack


@dataclass(frozen=True)
class FilterSystem:
    """An ordered system (m_0, ..., m_{N-1}) of Laurent polynomial filters.

    ``verified`` records that the system passed the QMF test (equivalently,
    that its polyphase loop is paraunitary).  Constructing with
    verified=True is reserved for code paths that have actually established
    this; user input is certified first, by qmf.certify or its polyphase loop.
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
        if not residual > tol:  # a NaN on either side
            raise ValueError(f"not certified at tol {tol:.3e}: residual {residual:.3e}, and NaN compares with nothing")
        raise ValueError(f"not paraunitary: residual {residual:.3e} > tol {tol:.3e}")
    return Loop(mat, certified=True)


def base_system(n: int) -> FilterSystem:
    """The base monomial system m_k(z) = z^k / sqrt(n), the identity's image."""
    s = 1.0 / math.sqrt(n)
    return FilterSystem(n, [LaurentPoly.monomial(k, s) for k in range(n)], verified=True)


def decimate(lo: int, c: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Lag-n decimation of stacked polynomials (lo, C), as laurent.stack
    gives them: (lo', D) with D[l, i, k] the coefficient of
    z^((lo' + l) n + k) in polynomial i.

    This is the coefficient-level fiber sum, one pad to whole blocks of n
    lags and one reshape; D has shape (L', C.shape[1], n), and lo' = 0 with
    no lags when C has none.
    """
    if len(c) == 0:
        return 0, np.zeros((0, c.shape[1], n), dtype=complex)
    head = lo % n
    blocks = -(-(head + len(c)) // n)
    padded = np.zeros((blocks * n, c.shape[1]), dtype=complex)
    padded[head : head + len(c)] = c
    return lo // n, padded.reshape(blocks, n, c.shape[1]).transpose(0, 2, 1)


def interleave(mat: MatrixLaurent) -> list[LaurentPoly]:
    """Inverse of the polyphase map: m_i(z) = N^{-1/2} sum_j A_{i,j}(z^N) z^j."""
    n = mat.n
    return unstack(mat.lo * n, mat.tensor.transpose(0, 2, 1).reshape(-1, n) * (1.0 / math.sqrt(n)))


def loop_to_filters(loop: Loop) -> FilterSystem:
    """Filters of a certified loop: m_i(z) = N^{-1/2} sum_j A_{i,j}(z^N) z^j."""
    if not loop.certified:
        raise ValueError("loop must be certified paraunitary")
    return FilterSystem(loop.n, interleave(loop.mat), verified=True)


def polyphase_matrix(system: FilterSystem) -> MatrixLaurent:
    """Polyphase matrix of a filter system: A_{j,k}(z) = sqrt(N) sum_l c_{j,lN+k} z^l.

    Its paraunitarity is exactly the QMF property of the input; callers
    that need the residual run the certificate themselves, once.
    """
    lo, d = decimate(*stack(system.filters), system.n)
    return MatrixLaurent.from_tensor(lo, math.sqrt(system.n) * d)


def filters_to_loop(system: FilterSystem, tol: float = CERTIFY_TOL) -> Loop:
    """Polyphase loop of a filter system, certified only when it is paraunitary."""
    mat = polyphase_matrix(system)
    return Loop(mat, certified=mat.is_paraunitary(tol).ok)


def act(loop: Loop, system: FilterSystem) -> FilterSystem:
    """Apply a loop to a filter system: n_i(z) = sum_j A_{i,j}(z^N) m_j(z).

    On polyphase matrices the action is a product, P(act(A, m)) = A P(m),
    so act(A, m) is the interleave of A @ P(m).
    """
    if not loop.certified:
        raise ValueError("loop must be certified paraunitary")
    out = interleave(loop.mat @ polyphase_matrix(system))
    # The defining orthogonality computation shows the action preserves QMF.
    return FilterSystem(system.n, out, verified=system.verified)


def transition(target: FilterSystem, source: FilterSystem, tol: float = CERTIFY_TOL) -> Loop:
    """The loop carrying ``source`` to ``target``:

        A_{i,j}(x) = sum_{y : y^N = x} target_i(y) * conj(source_j(y)),

    which is P(target) @ star(P(source)) for the polyphase matrices P: the
    fiber sum of y^(k - l) vanishes unless k = l.  P(source) is paraunitary
    because the source is verified, so act(transition(n, m), m) = n, and the
    loop is the unique one with that property.  (Conjugating the target
    instead of the source would produce the entrywise circle adjoint of
    this matrix, i.e. the star of its transpose.)
    """
    if not (target.verified and source.verified):
        raise ValueError("transition requires verified filter systems")
    return certify_loop(polyphase_matrix(target) @ polyphase_matrix(source).star(), tol)


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
    eye = np.eye(n)
    c = random_unitary(n, rng)[None]
    for _ in range(degree):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        proj = np.outer(v, v.conj())
        turned = random_unitary(n, rng) @ c
        c = np.zeros((len(turned) + 1, n, n), dtype=complex)
        c[:-1] = (eye - proj) @ turned
        c[1:] += proj @ turned
    return certify_loop(MatrixLaurent.from_tensor(0, c))
