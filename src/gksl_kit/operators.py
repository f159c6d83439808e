"""Dense complex operators and their Hilbert-Schmidt geometry.

Operators are plain complex numpy arrays of shape (dim_out, dim_in); no wrapper
class is used. The inner product throughout is the Hilbert-Schmidt pairing
<A, B> = Tr(A^dag B), conjugate-linear in the first slot.
"""
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by every approximate check."""

    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.rtol) and self.rtol >= 0):
            raise ValueError(f"rtol must be finite and nonnegative, got {self.rtol}")
        if not (np.isfinite(self.atol) and self.atol >= 0):
            raise ValueError(f"atol must be finite and nonnegative, got {self.atol}")


DEFAULT_TOL = Tolerance()

SeedLike = Union[int, np.random.Generator, None]


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce an int seed (or an existing Generator) into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_operator(a) -> np.ndarray:
    """Coerce to a 2-D complex array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"operator must be a 2-D array, got shape {a.shape}")
    return a


def _require_square(a: np.ndarray, what: str = "operator") -> np.ndarray:
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    return a


def dag(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint A^dag (conjugate transpose)."""
    return np.conj(np.asarray(a)).T


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dag B).

    Conjugate-linear in ``a`` and linear in ``b``. Both arguments must have the
    same shape.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(np.conj(a) * b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


class PsdResult(NamedTuple):
    ok: bool
    min_eigenvalue: float


def _is_hermitian(a: np.ndarray, rtol: float) -> bool:
    """Hermiticity gate ||A - A^dag||_F <= rtol * max(1, ||A||_F), applied only
    to a matrix a caller handed in; matrices derived from it are hermitized."""
    return float(np.linalg.norm(a - dag(a))) <= rtol * max(1.0, float(np.linalg.norm(a)))


def _spectrum_ok(eigs: np.ndarray, rtol: float, scale: float | None = None) -> bool:
    """Eigenvalue threshold on an ascending spectrum already computed:
    lambda_min >= -rtol * max(1, scale), scale defaulting to lambda_max."""
    return float(eigs[0]) >= -rtol * max(1.0, float(eigs[-1]) if scale is None else scale)


def is_positive_semidefinite(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> PsdResult:
    """Decide positive semidefiniteness of a square matrix.

    A passes the hermiticity gate (:func:`_is_hermitian`) and the smallest
    eigenvalue of its hermitian part passes the threshold of
    :func:`_spectrum_ok`. The eigenvalue is returned either way, so callers
    can report how badly the test failed.
    """
    a = _require_square(a)
    eigs = np.linalg.eigvalsh(0.5 * (a + dag(a)))
    return PsdResult(_is_hermitian(a, tol.rtol) and _spectrum_ok(eigs, tol.rtol),
                     float(eigs[0]))


class HermitianSplit(NamedTuple):
    """Decomposition A = M + iN with M, N both hermitian."""

    hermitian_part: np.ndarray
    antihermitian_coefficient: np.ndarray


def hermitian_split(a: np.ndarray) -> HermitianSplit:
    """Split a square A into (A + A^dag)/2 and (A - A^dag)/(2i)."""
    a = _require_square(a)
    m = 0.5 * (a + dag(a))
    n = (a - dag(a)) / 2j
    return HermitianSplit(m, n)


def traceless_projection(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto trace-zero operators: A - (Tr A / d) Id."""
    a = _require_square(a)
    d = a.shape[0]
    return a - (np.trace(a) / d) * np.eye(d)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ||A||_1, the sum of singular values."""
    return float(np.sum(np.linalg.svd(as_operator(a), compute_uv=False)))


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm ||A|| (largest singular value)."""
    return float(np.linalg.norm(as_operator(a), ord=2))


def random_ginibre(dim_out: int, dim_in: int, seed: SeedLike = None) -> np.ndarray:
    """Complex standard-Gaussian matrix (independent N(0,1/2) re/im parts)."""
    rng = as_rng(seed)
    return (rng.standard_normal((dim_out, dim_in))
            + 1j * rng.standard_normal((dim_out, dim_in))) / np.sqrt(2.0)


def random_haar_unitary(d: int, seed: SeedLike = None) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a Ginibre matrix.

    The diagonal of R is phase-fixed so the distribution is exactly Haar, not
    merely unitary. Deterministic for a fixed seed.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = random_ginibre(d, d, seed)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_hermitian(d: int, seed: SeedLike = None, traceless: bool = False) -> np.ndarray:
    """Random hermitian matrix (GUE-style), optionally projected traceless."""
    g = random_ginibre(d, d, seed)
    h = 0.5 * (g + dag(g))
    if traceless:
        h = traceless_projection(h)
    return h


def random_density_matrix(d: int, seed: SeedLike = None, rank: int | None = None) -> np.ndarray:
    """Random density matrix: normalized GG^dag with G Ginibre of given rank."""
    rng = as_rng(seed)
    g = random_ginibre(d, rank if rank is not None else d, rng)
    rho = g @ dag(g)
    return rho / np.trace(rho).real
