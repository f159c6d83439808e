"""Structure theory of CP maps: Kraus extraction/assembly and the block form
relative to the identity.

A map is CP exactly when its Choi matrix is PSD; eigendecomposing the Choi
matrix yields a Kraus family of at most dim_in * dim_out operators, and the
decomposition of Choi space into span{Id} + traceless operators yields the
unique intermediate form (Theta, a_op, c).
"""
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NotCPError
from .operators import (
    DEFAULT_TOL,
    SeedLike,
    Tolerance,
    _is_hermitian,
    _spectrum_ok,
    as_operator,
    as_rng,
    dag,
    is_positive_semidefinite,
    random_ginibre,
    traceless_projection,
)
from .superops import (
    ChoiMatrix,
    SuperOperator,
    dyad_vec,
    is_cp,
    sandwich,
)


@dataclass(frozen=True)
class KrausFamily:
    """Ordered family {A_n} presenting a CP map as X -> sum_n A_n X A_n^dag.

    ``degenerate`` flags that the Choi spectrum had near-coincident nonzero
    eigenvalues, in which case the operators within a degenerate eigenspace
    are an eigensolver-dependent (though deterministic) basis choice.
    """

    operators: tuple[np.ndarray, ...]
    degenerate: bool = False

    def __post_init__(self):
        ops = tuple(as_operator(a) for a in self.operators)
        if not ops:
            raise ValueError("Kraus family must contain at least one operator")
        shape = ops[0].shape
        for a in ops[1:]:
            if a.shape != shape:
                raise ValueError(f"inconsistent Kraus shapes: {a.shape} vs {shape}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim_in(self) -> int:
        return self.operators[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


def _phase_fix(a: np.ndarray) -> np.ndarray:
    """Make the largest-modulus entry real positive (ties: lowest row-major index)."""
    flat = a.reshape(-1)
    mags = np.abs(flat)
    idx = int(np.argmax(mags > mags.max() * (1 - 1e-12)))
    pivot = flat[idx]
    if abs(pivot) == 0.0:
        return a
    return a * (np.conj(pivot) / abs(pivot))


def kraus_extract(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> KrausFamily:
    """Extract a deterministic Kraus family from a CP map.

    The Choi matrix is eigendecomposed; eigenpairs with lambda > rtol *
    lambda_max are kept, ordered by descending eigenvalue, each operator
    phase-fixed. Raises :class:`NotCPError` when the Choi matrix is not PSD.
    """
    c = lam.choi.matrix
    eigvals, eigvecs = np.linalg.eigh(0.5 * (c + dag(c)))
    if not (_is_hermitian(c, tol.rtol) and _spectrum_ok(eigvals, tol.rtol)):
        raise NotCPError(
            f"map is not CP: Choi min eigenvalue {eigvals[0]:.3e}", float(eigvals[0]))
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    lam_max = max(eigvals[0], 0.0)
    keep = eigvals > tol.rtol * lam_max
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        # the zero map: present it with a single zero operator
        zero = np.zeros((lam.dim_out, lam.dim_in), dtype=complex)
        return KrausFamily((zero,), degenerate=False)
    kept_vals = eigvals[kept]
    gaps = np.abs(np.diff(kept_vals))
    degenerate = bool(gaps.size and np.any(gaps < tol.rtol * max(1.0, lam_max)))
    ops = []
    for i in kept:
        a = eigvecs[:, i].reshape(lam.dim_out, lam.dim_in)
        ops.append(_phase_fix(np.sqrt(eigvals[i]) * a))
    return KrausFamily(tuple(ops), degenerate=degenerate)


def kraus_assemble(family: KrausFamily | Sequence[np.ndarray]) -> SuperOperator:
    """Assemble sum_n A_n [] A_n^dag; the result is CP by construction."""
    ops = family.operators if isinstance(family, KrausFamily) else \
        tuple(as_operator(a) for a in family)
    total = None
    for a in ops:
        term = sandwich(a, dag(a))
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class IntermediateForm:
    """Block form of a CP map's Choi matrix relative to the identity.

    choi = theta + |Id><a_op| + |a_op><Id| in the dyad grouping, with theta
    PSD and supported on the traceless subspace, and the projection of a_op
    onto Id real (a_op = B + (c/2) Id with B traceless, c >= 0). The sign
    convention for B is fixed by these extraction formulas.
    """

    theta: np.ndarray
    a_op: np.ndarray
    c: float
    dim: int = field(default=0)

    def __post_init__(self):
        if self.dim == 0:
            object.__setattr__(self, "dim", self.a_op.shape[0])


def traceless_block_projector(d: int) -> np.ndarray:
    """Projector (in Choi space) onto the traceless-operator block."""
    w = dyad_vec(np.eye(d))
    return np.eye(d * d) - np.outer(w, w) / d


def intermediate_form(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> IntermediateForm:
    """Compute the unique (Theta, a_op, c) block form of a CP map on L(C^d)."""
    if lam.dim_in != lam.dim_out:
        raise ValueError("intermediate form needs a map on a single space")
    d = lam.dim_in
    dmat = lam.choi.matrix
    psd, lam_min = is_positive_semidefinite(dmat, tol)
    if not psd:
        raise NotCPError(
            f"map is not CP: Choi min eigenvalue {lam_min:.3e}", lam_min)
    w = dyad_vec(np.eye(d))
    c = (np.conj(w) @ (dmat @ w)).real / d ** 2
    b = traceless_projection((dmat @ w).reshape(d, d) / d)
    p0 = traceless_block_projector(d)
    # a compression of dmat: PSD whenever dmat is, so it needs no decision of its own
    theta = p0 @ dmat @ p0
    a_op = b + (c / 2.0) * np.eye(d)
    return IntermediateForm(theta=theta, a_op=a_op, c=float(c))


def reconstruct_choi(form: IntermediateForm) -> ChoiMatrix:
    """Rebuild the Choi matrix from an intermediate form."""
    d = form.dim
    w = dyad_vec(np.eye(d))
    a = dyad_vec(form.a_op)
    c = form.theta + np.outer(w, np.conj(a)) + np.outer(a, np.conj(w))
    return ChoiMatrix(c, dim_in=d, dim_out=d)


def random_cp_map(d_in: int, d_out: int | None = None, kraus_count: int = 3,
                  seed: SeedLike = None) -> SuperOperator:
    """Random CP map assembled from Ginibre Kraus operators."""
    rng = as_rng(seed)
    d_out = d_out if d_out is not None else d_in
    ops = [random_ginibre(d_out, d_in, rng) for _ in range(kraus_count)]
    return kraus_assemble(ops)


def cp_closure_checks(lam: SuperOperator, gam: SuperOperator,
                      coefficients: Sequence[tuple[float, float]] | None = None,
                      sequence: Sequence[SuperOperator] | None = None,
                      tol: Tolerance = DEFAULT_TOL,
                      seed: SeedLike = None) -> dict:
    """Verify closure of the CP cone on a concrete pair of maps.

    Checks nonnegative combinations a*lam + b*gam, the composition gam o lam,
    and (optionally) that the last element of a provided convergent sequence
    of CP maps is CP. Returns a report dict; a False entry means the property
    failed on this input, which is informative (e.g. when gam is not CP).
    """
    if lam.dim_in != gam.dim_in or lam.dim_out != gam.dim_out:
        raise ValueError("closure checks need maps with matching dims")
    rng = as_rng(seed)
    if coefficients is None:
        coefficients = [(0.0, 0.0), (1.0, 1.0)] + \
            [tuple(rng.uniform(0.0, 3.0, size=2)) for _ in range(4)]
    combos = []
    for a, b in coefficients:
        res = is_cp(a * lam + b * gam, tol)
        combos.append({"a": float(a), "b": float(b), "is_cp": res.ok,
                       "choi_min_eigenvalue": res.choi_min_eigenvalue})
    report = {
        "inputs_cp": (is_cp(lam, tol).ok, is_cp(gam, tol).ok),
        "combinations": combos,
        "all_combinations_cp": all(c["is_cp"] for c in combos),
    }
    if gam.dim_in == lam.dim_out:
        comp = is_cp(gam @ lam, tol)
        report["composition_cp"] = comp.ok
        report["composition_choi_min_eigenvalue"] = comp.choi_min_eigenvalue
    if sequence is not None:
        seq_ok = is_cp(sequence[-1], tol).ok
        report["sequence_members_cp"] = [is_cp(s, tol).ok for s in sequence]
        report["limit_cp"] = seq_ok
    return report
