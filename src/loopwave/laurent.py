"""Complex Laurent polynomials on the unit circle, and matrices of them.

Coefficients are stored densely over the support interval, starting at
``offset`` (the lowest exponent); a matrix of them stores one (L, n, n)
coefficient tensor, lag l holding the coefficient matrix of z^(lo + l).
``stack`` and ``unstack`` are the only conversions between polynomials and
such arrays, and ``horner`` evaluates either form.  A LaurentPoly is the
1 x 1 MatrixLaurent: its sum, product, adjoint and z -> z^n are the
matrix ones, read back from entry [0, 0].  All values are
immutable after construction; arithmetic is exact coefficient arithmetic in
double precision.  The circle adjoint ``star`` satisfies
star(p)(z) = conj(p(z)) for |z| = 1, which is what makes paraunitarity a
finite coefficient-level identity rather than a sampling statement.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Coefficients at or below this modulus are trimmed from the ends of the
# stored support.  Double-precision algebra on unit-modulus arguments keeps
# rounding well below this.
TRIM_TOL = 1e-14

# |z| must be within this of 1 for point evaluation.
UNIT_CIRCLE_TOL = 1e-12

#: The default tolerance of every check that certifies or compares loops.
CERTIFY_TOL = 1e-10


@dataclass(frozen=True)
class LaurentPoly:
    """A finite complex Laurent polynomial sum_k coeffs[k] * z^(offset+k).

    The zero polynomial is canonically (offset=0, coeffs=()), so structural
    equality is meaningful.  End coefficients below ``TRIM_TOL`` in modulus
    are trimmed at construction.
    """

    offset: int
    coeffs: tuple[complex, ...]

    def __init__(self, offset: int, coeffs: Iterable[complex]):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 1:
            cs = tuple(coeffs.astype(complex, copy=False).tolist())
        else:
            cs = tuple(complex(c) for c in coeffs)
        if not all(map(cmath.isfinite, cs)):
            raise ValueError(f"non-finite coefficient {next(c for c in cs if not cmath.isfinite(c))!r}")
        lo, hi = 0, len(cs)
        while lo < hi and abs(cs[lo]) <= TRIM_TOL:
            lo += 1
        while lo < hi and abs(cs[hi - 1]) <= TRIM_TOL:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "offset", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "offset", int(offset) + lo)
            object.__setattr__(self, "coeffs", cs[lo:hi])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly(0, (1.0,))

    @staticmethod
    def monomial(k: int, c: complex = 1.0) -> LaurentPoly:
        """c * z^k."""
        return LaurentPoly(k, (c,))

    @staticmethod
    def constant(c: complex) -> LaurentPoly:
        return LaurentPoly(0, (c,))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self) -> int:
        """Lowest exponent with a stored coefficient (0 for the zero poly)."""
        return self.offset

    @property
    def degree(self) -> int:
        """Highest exponent with a stored coefficient (-1 for the zero poly)."""
        return self.offset + len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        """Coefficient of z^k (0 outside the stored support)."""
        i = k - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0.0 + 0.0j

    def support(self) -> range:
        """Exponent interval carrying the stored coefficients."""
        return range(self.offset, self.offset + len(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: LaurentPoly | complex) -> LaurentPoly:
        return (MatrixLaurent([[self]]) + MatrixLaurent([[_coerce(other)]]))[0, 0]

    def __radd__(self, other: complex) -> LaurentPoly:
        return self + other

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: LaurentPoly | complex) -> LaurentPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other: complex) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: LaurentPoly | complex) -> LaurentPoly:
        if isinstance(other, LaurentPoly):
            return (MatrixLaurent([[self]]) @ MatrixLaurent([[other]]))[0, 0]
        return LaurentPoly(self.offset, tuple(c * other for c in self.coeffs))

    def __rmul__(self, other: complex) -> LaurentPoly:
        return self * other

    def star(self) -> LaurentPoly:
        """Circle adjoint: star(p)(z) = conj(p(z)) on |z| = 1.

        Sends the coefficient of z^k to its conjugate at z^-k; an involution.
        """
        return MatrixLaurent([[self]]).star()[0, 0]

    def compose_power(self, n: int) -> LaurentPoly:
        """Substitute z -> z^n (n >= 2): exponents are multiplied by n."""
        return MatrixLaurent([[self]]).compose_power(n)[0, 0]

    def __call__(self, z: complex) -> complex:
        """Evaluate at a point of the unit circle (Horner on the coefficients)."""
        return horner(self.offset, self.coeffs, _circle_point(z))

    # -- comparisons -------------------------------------------------------

    def distance(self, other: LaurentPoly) -> float:
        """Max coefficient modulus of self - other."""
        return (self - other).max_abs()

    def allclose(self, other: LaurentPoly, tol: float = 1e-12) -> bool:
        return self.distance(other) <= tol

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in zip(self.support(), self.coeffs):
            term = f"({c:.6g})" if c.imag else f"({c.real:.6g})"
            if k == 0:
                parts.append(term)
            elif k == 1:
                parts.append(f"{term}*z")
            else:
                parts.append(f"{term}*z^{k}")
        return " + ".join(parts)


def _circle_point(z: complex) -> complex:
    z = complex(z)
    if abs(abs(z) - 1.0) > UNIT_CIRCLE_TOL:
        raise ValueError(f"evaluation point must lie on the unit circle, |z| = {abs(z)!r}")
    return z


def _coerce(x: LaurentPoly | complex) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.constant(x)


def stack(polys: Sequence[LaurentPoly]) -> tuple[int, np.ndarray]:
    """(lo, C) with C[l, i] the coefficient of z^(lo + l) in polys[i].

    lo is the lowest exponent of any of them and C, of shape (L, len(polys)),
    spans up to the highest; it has no lags, and lo = 0, when every
    polynomial is zero.
    """
    live = [p for p in polys if not p.is_zero]
    lo = min((p.offset for p in live), default=0)
    length = max((p.degree for p in live), default=lo - 1) - lo + 1
    out = np.zeros((length, len(polys)), dtype=complex)
    for i, p in enumerate(polys):
        out[p.offset - lo : p.offset - lo + len(p.coeffs), i] = p.coeffs
    return lo, out


def unstack(lo: int, c: np.ndarray) -> list[LaurentPoly]:
    """Inverse of stack: polys[i] = sum_l C[l, i] z^(lo + l), each trimmed."""
    return [LaurentPoly(lo, col) for col in c.T]


def horner(lo: int, c: tuple[complex, ...] | np.ndarray, z: complex | np.ndarray):
    """sum_l c[l] z^(lo + l) by Horner's rule from the top lag.

    c is a tuple of numbers, summed in Python complex arithmetic, or an
    (L, ...) array whose trailing axes broadcast against z, summed in numpy
    and shaped like one term even when there are no lags.
    """
    acc = 0j
    if isinstance(c, np.ndarray):
        acc = np.zeros(np.broadcast_shapes(c.shape[1:], np.shape(z)), dtype=complex)
    for coef in c[::-1]:
        acc = acc * z + coef
    return acc * z**lo


class ParaunitaryResult(NamedTuple):
    ok: bool
    residual: float


def lag_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient tensor of the product A(z) B(z).

    ``a`` is (La, p, q) and ``b`` is (Lb, q, r), each indexed by lag from its
    own lowest exponent; the result is (La + Lb - 1, p, r), starting at the
    sum of the two lowest exponents.  Both tensors must be nonempty.
    """
    out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[2]), dtype=complex)
    if len(a) <= len(b):
        for k in range(len(a)):
            out[k : k + len(b)] += a[k] @ b
    else:
        for k in range(len(b)):
            out[k : k + len(a)] += a @ b[k]
    return out


def lag_adjoint(c: np.ndarray) -> np.ndarray:
    """Coefficient tensor of the circle adjoint: lags reversed, each matrix
    conjugate-transposed.  The lowest exponent lo becomes -(lo + L - 1)."""
    return c[::-1].conj().transpose(0, 2, 1)


def _entry_spans(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last lag of each entry with modulus above TRIM_TOL, i.e. the
    support LaurentPoly keeps; an entry with none gets the empty span (L, -1)."""
    if len(c) == 0:
        return np.zeros(c.shape[1:], dtype=int), np.full(c.shape[1:], -1)
    big = np.abs(c) > TRIM_TOL
    has = big.any(axis=0)
    first = np.where(has, big.argmax(axis=0), len(c))
    last = np.where(has, len(c) - 1 - big[::-1].argmax(axis=0), -1)
    return first, last


def _in_span(c: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    lags = np.arange(len(c))[:, None, None]
    return (lags >= first) & (lags <= last)


def _trimmed_max(c: np.ndarray) -> float:
    """Largest coefficient modulus of a coefficient tensor, with every entry
    end-trimmed at TRIM_TOL first, as LaurentPoly trims: an entry whose
    coefficients all lie at or below TRIM_TOL counts as 0."""
    if len(c) == 0:
        return 0.0
    peak = np.abs(c).max(axis=0)
    peak[peak <= TRIM_TOL] = 0.0
    return float(peak.max())


class MatrixLaurent:
    """A square matrix of Laurent polynomials, stored as one coefficient tensor.

    ``tensor[l]`` is the constant n x n matrix multiplying z^(lo + l), so
    A(z) = sum_l tensor[l] z^(lo + l).  The storage is canonical: each entry
    is end-trimmed at TRIM_TOL exactly as its LaurentPoly would be, and the
    first and last lags carry a kept coefficient (the zero matrix has no
    lags and lo = 0).  ``entries`` is the same matrix as a grid of
    LaurentPoly, built on first access.  Paraunitary matrices, those with
    star(M) @ M equal to the identity as an exact Laurent identity, house
    the loops T -> U_N(C).
    """

    __slots__ = ("n", "lo", "tensor", "_entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("entries must form a nonempty square grid")
        for row in rows:
            for p in row:
                if not isinstance(p, LaurentPoly):
                    raise TypeError("matrix entries must be LaurentPoly")
        lo, c = stack([p for row in rows for p in row])
        self._init(n, lo, c.reshape(len(c), n, n), rows)

    def _init(self, n: int, lo: int, tensor: np.ndarray, entries=None) -> None:
        tensor.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lo", int(lo))
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"MatrixLaurent is immutable; cannot set {name!r}")

    @classmethod
    def _canonical(cls, n: int, lo: int, tensor: np.ndarray) -> MatrixLaurent:
        out = cls.__new__(cls)
        out._init(n, lo, tensor)
        return out

    @classmethod
    def from_tensor(cls, lo: int, tensor: np.ndarray) -> MatrixLaurent:
        """The matrix sum_l tensor[l] z^(lo + l), trimmed to canonical form."""
        c = np.asarray(tensor, dtype=complex)
        if c.ndim != 3 or c.shape[1] != c.shape[2] or c.shape[1] == 0:
            raise ValueError("coefficient tensor must have shape (L, n, n) with n >= 1")
        if not np.isfinite(c).all():
            raise ValueError("non-finite coefficient in coefficient tensor")
        first, last = _entry_spans(c)
        if (last < 0).all():
            return cls._canonical(c.shape[1], 0, np.zeros((0,) + c.shape[1:], dtype=complex))
        start, stop = int(first.min()), int(last.max()) + 1
        c = np.where(_in_span(c, first, last), c, 0.0)[start:stop]
        return cls._canonical(c.shape[1], int(lo) + start, c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> MatrixLaurent:
        return MatrixLaurent._canonical(n, 0, np.eye(n, dtype=complex)[None])

    @staticmethod
    def from_constant(mat: np.ndarray) -> MatrixLaurent:
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("constant matrix must be square")
        return MatrixLaurent.from_tensor(0, mat[None])

    @staticmethod
    def diag(polys: Sequence[LaurentPoly]) -> MatrixLaurent:
        n = len(polys)
        return MatrixLaurent(
            [[polys[i] if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
        )

    # -- access ------------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The matrix as a grid of trimmed LaurentPoly, built once."""
        if self._entries is None:
            flat = unstack(self.lo, self.tensor.reshape(len(self.tensor), self.n * self.n))
            rows = tuple(tuple(flat[i * self.n : (i + 1) * self.n]) for i in range(self.n))
            object.__setattr__(self, "_entries", rows)
        return self._entries

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixLaurent):
            return NotImplemented
        return self.n == other.n and self.lo == other.lo and np.array_equal(self.tensor, other.tensor)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which __eq__ does not tell apart
        return hash((self.n, self.lo, (self.tensor + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"MatrixLaurent(n={self.n}, lo={self.lo}, lags={len(self.tensor)})"

    def __reduce__(self):
        return (MatrixLaurent.from_tensor, (self.lo, np.array(self.tensor)))

    def support(self) -> list[int]:
        """Sorted union of the entry exponent sets."""
        covered = _in_span(self.tensor, *_entry_spans(self.tensor)).any(axis=(1, 2))
        return (self.lo + np.flatnonzero(covered)).tolist()

    def laurent_coefficient(self, c: int) -> np.ndarray:
        """The constant matrix A_c in A(z) = sum_c A_c z^c (zero off-support)."""
        i = c - self.lo
        if 0 <= i < len(self.tensor):
            return self.tensor[i].copy()
        return np.zeros((self.n, self.n), dtype=complex)

    def coefficients(self) -> dict[int, np.ndarray]:
        return {c: self.tensor[c - self.lo].copy() for c in self.support()}

    # -- algebra -----------------------------------------------------------

    def _check_size(self, other: MatrixLaurent) -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def _aligned(self, other: MatrixLaurent) -> tuple[int, np.ndarray, np.ndarray]:
        """(lo, A, B): both tensors zero-padded onto one common lag range."""
        self._check_size(other)
        lo = min(self.lo, other.lo)
        hi = max(self.lo + len(self.tensor), other.lo + len(other.tensor))
        out = []
        for m in (self, other):
            c = np.zeros((hi - lo, self.n, self.n), dtype=complex)
            c[m.lo - lo : m.lo - lo + len(m.tensor)] = m.tensor
            out.append(c)
        return lo, out[0], out[1]

    def __matmul__(self, other: MatrixLaurent) -> MatrixLaurent:
        self._check_size(other)
        if len(self.tensor) == 0 or len(other.tensor) == 0:
            return MatrixLaurent.from_tensor(0, np.zeros((0, self.n, self.n)))
        return MatrixLaurent.from_tensor(self.lo + other.lo, lag_convolve(self.tensor, other.tensor))

    def __add__(self, other: MatrixLaurent) -> MatrixLaurent:
        lo, a, b = self._aligned(other)
        return MatrixLaurent.from_tensor(lo, a + b)

    def __sub__(self, other: MatrixLaurent) -> MatrixLaurent:
        lo, a, b = self._aligned(other)
        return MatrixLaurent.from_tensor(lo, a - b)

    def star(self) -> MatrixLaurent:
        """Conjugate transpose with the circle adjoint applied per entry."""
        lo = -(self.lo + len(self.tensor) - 1) if len(self.tensor) else 0
        return MatrixLaurent._canonical(self.n, lo, lag_adjoint(self.tensor))

    def compose_power(self, n: int) -> MatrixLaurent:
        """Substitute z -> z^n (n >= 2): exponents are multiplied by n."""
        if n < 2:
            raise ValueError(f"compose_power requires n >= 2, got {n}")
        length = len(self.tensor)
        out = np.zeros(((length - 1) * n + 1 if length else 0, self.n, self.n), dtype=complex)
        out[::n] = self.tensor
        return MatrixLaurent._canonical(self.n, self.lo * n, out)

    def apply(self, v: np.ndarray) -> list[LaurentPoly]:
        """Matrix times a constant vector, as a vector of Laurent polynomials."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.n,):
            raise ValueError("vector length must match matrix size")
        return unstack(self.lo, self.tensor @ v)

    def eval(self, z: complex) -> np.ndarray:
        return horner(self.lo, self.tensor, _circle_point(z))

    def distance(self, other: MatrixLaurent) -> float:
        """Max coefficient modulus of self - other, each entry end-trimmed."""
        _, a, b = self._aligned(other)
        return _trimmed_max(a - b)

    def max_abs(self) -> float:
        return _trimmed_max(self.tensor)

    def is_paraunitary(self, tol: float = CERTIFY_TOL) -> ParaunitaryResult:
        """Certify star(M) @ M = I at the coefficient level.

        Returns the verdict together with the max residual coefficient
        modulus, each entry of the residual end-trimmed at TRIM_TOL.
        Sampling alone can miss high-degree residuals, hence the exact check.
        """
        if len(self.tensor) == 0:
            return ParaunitaryResult(1.0 <= tol, 1.0)
        gram = lag_convolve(lag_adjoint(self.tensor), self.tensor)
        gram[len(self.tensor) - 1] -= np.eye(self.n)
        residual = _trimmed_max(gram)
        return ParaunitaryResult(residual <= tol, residual)


def unit_grid(size: int) -> np.ndarray:
    """The size-th roots of unity exp(2*pi*i*t/size), t = 0..size-1."""
    if size < 1:
        raise ValueError("grid size must be positive")
    return np.exp(2j * np.pi * np.arange(size) / size)
