"""Nested finite-dimensional truncations and lifted projections.

A filtration fixes an orthonormal basis of the ambient space and the nested
subspaces spanned by its leading columns. Orthoprojections P_n lift to
superoperator level as P_n [] P_n, which compress generators while keeping
the ambient shape (zero-padded), so chains stay composable and norms remain
comparable. Compression is projective: compressing to m then to n <= m equals
compressing to n directly.

"Infinite dimension" is modeled by a large ambient space: convergence of the
truncated evolutions toward the full one is read off the n-sweep, and
norm-bounded projective sequences reconstruct their limit while unbounded
ones (the diverging-diagonal chain) are rejected.
"""
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg import expm

from .errors import NormBoundViolatedError, NotDcpError, NotProjectiveError
from .operators import (
    DEFAULT_TOL,
    Tolerance,
    _is_hermitian,
    as_operator,
    dag,
    operator_norm,
    trace_norm,
)
from .superops import SuperOperator, is_cp, sandwich
from .generators import is_dcp


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing subspace dims inside an ambient space.

    ``basis`` columns are the orthonormal basis; H_n is the span of the first
    n columns. Defaults to the standard basis, in which the projections are
    exact 0/1 diagonal matrices.
    """

    ambient_dim: int
    dims: tuple[int, ...]
    basis: np.ndarray | None = None

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if not dims:
            raise ValueError("filtration needs at least one dimension")
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError(f"dims must be strictly increasing, got {dims}")
        if dims[0] < 1 or dims[-1] > self.ambient_dim:
            raise ValueError(
                f"dims must lie in [1, {self.ambient_dim}], got {dims}")
        object.__setattr__(self, "dims", dims)
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=complex)
            if b.shape != (self.ambient_dim, self.ambient_dim):
                raise ValueError(f"basis must be {self.ambient_dim} x {self.ambient_dim}")
            if np.linalg.norm(dag(b) @ b - np.eye(self.ambient_dim)) > 1e-9:
                raise ValueError("basis columns must be orthonormal")
            object.__setattr__(self, "basis", b)

    def projection(self, n: int) -> np.ndarray:
        """Orthoprojection P_n onto the span of the first n basis vectors."""
        if n not in self.dims and n != self.ambient_dim:
            raise ValueError(f"{n} is not a filtration dimension {self.dims}")
        if self.basis is None:
            p = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
            p[:n, :n] = np.eye(n)
            return p
        b = self.basis[:, :n]
        return b @ dag(b)

    def lifted(self, n: int) -> SuperOperator:
        """Lifted projection P_n [] P_n."""
        return lift_projection(self.projection(n))


def lift_projection(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SuperOperator:
    """Lift an orthoprojection P to the CP superoperator P [] P."""
    p = as_operator(p)
    if not _is_hermitian(p, tol.rtol) or \
            np.linalg.norm(p @ p - p) > tol.rtol * max(1.0, float(np.linalg.norm(p))):
        raise ValueError("input is not an orthogonal projection")
    return sandwich(p, p)


def compress(gam: SuperOperator, filtration: Filtration, n: int) -> SuperOperator:
    """Two-sided compression P_n [] P_n o Gamma o P_n [] P_n, ambient shape.

    Note that the compression of a dCP generator is dCP *viewed on the
    subspace* (see :func:`restrict`), not as an ambient generator: the
    ambient CP object it produces is exp(t Gamma_n) composed with the lifted
    projection, which is how :func:`truncation_study` uses it.
    """
    hat = filtration.lifted(n)
    return hat @ gam @ hat


def restrict(gam: SuperOperator, filtration: Filtration, n: int) -> SuperOperator:
    """View a superoperator on the level-n subspace as an n-dimensional map.

    Conjugates by the inclusion iota of H_n into the ambient space:
    iota^dag [] iota o Gamma o iota [] iota^dag.
    """
    if n not in filtration.dims and n != filtration.ambient_dim:
        raise ValueError(f"{n} is not a filtration dimension {filtration.dims}")
    if filtration.basis is None:
        iota = np.zeros((filtration.ambient_dim, n), dtype=complex)
        iota[:n, :n] = np.eye(n)
    else:
        iota = filtration.basis[:, :n]
    down = sandwich(dag(iota), iota)
    up = sandwich(iota, dag(iota))
    return down @ gam @ up


@dataclass(frozen=True)
class TruncationRow:
    n: int
    error: float
    propagator_cp: bool
    choi_min_eigenvalue: float


def truncation_study(lam: SuperOperator, filtration: Filtration, t: float,
                     rho: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[TruncationRow]:
    """Per-level error of the truncated evolution against the full one.

    For each n, e_n = || exp(t L_n) P_hat_n rho - exp(t L) rho ||_1 with
    L_n the compressed generator; the truncated propagator exp(t L_n) P_hat_n
    is also certified CP. Requires L to be dCP.
    """
    verdict = is_dcp(lam, tol)
    if not verdict.is_dcp:
        raise NotDcpError("truncation study requires a dCP generator",
                          verdict.compressed_choi_min_eig)
    rho = as_operator(rho)
    full = expm(t * lam.matrix)
    d = lam.dim_in
    rho_vec = rho.reshape(-1, order="F")
    target = (full @ rho_vec).reshape(d, d, order="F")
    rows = []
    for n in filtration.dims:
        hat = filtration.lifted(n)
        lam_n = hat @ lam @ hat
        prop = SuperOperator(expm(t * lam_n.matrix) @ hat.matrix, d, d)
        approx = prop.apply(rho)
        err = trace_norm(approx - target)
        cp = is_cp(prop, tol)
        rows.append(TruncationRow(n=n, error=float(err),
                                  propagator_cp=cp.ok,
                                  choi_min_eigenvalue=cp.choi_min_eigenvalue))
    return rows


ValueLike = Union[np.ndarray, SuperOperator]


@dataclass(frozen=True)
class AdaptedSequence:
    """Filtration-indexed values (operators or superoperators), one per level."""

    filtration: Filtration
    items: tuple[tuple[int, ValueLike], ...]

    def __post_init__(self):
        items = tuple((int(n), v) for n, v in self.items)
        if not items:
            raise ValueError("adapted sequence needs at least one item")
        for n, _ in items:
            if n not in self.filtration.dims:
                raise ValueError(f"level {n} not in filtration dims")
        ns = [n for n, _ in items]
        if ns != sorted(ns):
            raise ValueError("items must be ordered by level")
        object.__setattr__(self, "items", items)


def _compress_value(value: ValueLike, filtration: Filtration, n: int) -> ValueLike:
    if isinstance(value, SuperOperator):
        return compress(value, filtration, n)
    p = filtration.projection(n)
    return p @ as_operator(value) @ p


def _value_norm(value: ValueLike) -> float:
    if isinstance(value, SuperOperator):
        return float(np.linalg.norm(value.matrix, ord=2))
    return operator_norm(value)


def _value_distance(a: ValueLike, b: ValueLike) -> float:
    if isinstance(a, SuperOperator):
        return float(np.linalg.norm(a.matrix - b.matrix))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def projective_reconstruction(seq: AdaptedSequence, norm_bound: float,
                              tol: Tolerance = DEFAULT_TOL) -> tuple[ValueLike, dict]:
    """Reconstruct the limit of a projective norm-bounded sequence.

    At desk scale the limit is the last element; the function verifies that
    each item is adapted to its level, that compressing any later item
    reproduces every earlier one, and that all norms stay below ``norm_bound``
    (spectral norms; a uniform bound is what guarantees a limit exists at
    all). Violations raise :class:`NotProjectiveError` or
    :class:`NormBoundViolatedError`.
    """
    f = seq.filtration
    norms = []
    for n, value in seq.items:
        nrm = _value_norm(value)
        norms.append(nrm)
        if nrm > norm_bound * (1 + tol.rtol):
            raise NormBoundViolatedError(
                f"norm {nrm:.6g} at level {n} exceeds bound {norm_bound:.6g}",
                worst_norm=nrm)
        adapted = _compress_value(value, f, n)
        scale = max(1.0, nrm)
        if _value_distance(adapted, value) > tol.rtol * scale:
            raise NotProjectiveError(f"item at level {n} is not adapted to H_{n}")
    for i, (n, value_n) in enumerate(seq.items):
        for m, value_m in seq.items[i + 1:]:
            compressed = _compress_value(value_m, f, n)
            scale = max(1.0, _value_norm(value_m))
            if _value_distance(compressed, value_n) > tol.rtol * scale:
                raise NotProjectiveError(
                    f"compressing level {m} to {n} does not reproduce the level-{n} item")
    limit = seq.items[-1][1]
    diagnostics = {
        "levels": [n for n, _ in seq.items],
        "norms": norms,
        "consistency_checked": True,
    }
    return limit, diagnostics


def diverging_diagonal_sequence(filtration: Filtration) -> AdaptedSequence:
    """The canned negative example: diag(1, 2, ..., n) along the filtration.

    Projective and entrywise convergent, but the norms grow like n, so no
    bounded limit exists; :func:`projective_reconstruction` rejects it for
    any bound smaller than the last level.
    """
    if filtration.basis is not None:
        raise ValueError("diverging-diagonal example uses the standard basis")
    d = filtration.ambient_dim
    items = []
    for n in filtration.dims:
        a = np.zeros((d, d), dtype=complex)
        a[:n, :n] = np.diag(np.arange(1, n + 1, dtype=float))
        items.append((n, a))
    return AdaptedSequence(filtration=filtration, items=tuple(items))
