import numpy as np
import pytest

from loopwave import (
    FilterSystem,
    LaurentPoly,
    Loop,
    MatrixLaurent,
    base_system,
    certify_loop,
    daubechies4_system,
    haar_system,
    loop_to_filters,
    random_paraunitary,
)


@pytest.fixture
def haar() -> FilterSystem:
    return haar_system()


@pytest.fixture
def d4() -> FilterSystem:
    return daubechies4_system()


@pytest.fixture
def base2() -> FilterSystem:
    return base_system(2)


def seeded_loop(n: int, degree: int, seed: int) -> Loop:
    return random_paraunitary(n, degree, seed)


def seeded_system(n: int, degree: int, seed: int) -> FilterSystem:
    return loop_to_filters(seeded_loop(n, degree, seed))


def random_vector(size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def seeded_lowpass_system(n: int, degree: int, seed: int) -> FilterSystem:
    """A seeded system with m_0(1) = 1: the seeded loop turned by the
    constant unitary (a Householder reflection times a phase) that sends
    its value vector (m_i(1))_i to e_0."""
    loop = seeded_loop(n, degree, seed)
    values = loop.mat.eval(1.0) @ np.ones(n) / np.sqrt(n)
    phase = values[0] / abs(values[0])
    w = values / phase
    w[0] -= 1.0
    turn = (np.eye(n) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real) / phase
    return loop_to_filters(certify_loop(MatrixLaurent.from_constant(turn) @ loop.mat))


def raised_d4_system(by: float = 1e-8) -> FilterSystem:
    """d4 with m_0's first tap raised by 1e-8: |m_0(1) - 1| = 1e-8, a
    certificate residual of about 1.37e-8 and a scalar residual of about
    6.8e-9, so it passes at 1e-6 and fails at the default tol.  Raised by
    1e-5, its certificate residual is about 1.37e-5."""
    d4 = daubechies4_system()
    m0 = d4.filters[0]
    return FilterSystem(2, [LaurentPoly(m0.offset, (m0.coeffs[0] + by,) + m0.coeffs[1:]), d4.filters[1]])
