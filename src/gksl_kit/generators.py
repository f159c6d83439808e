"""Generators of CP semigroups: canonical form, exact dCP decision, minimal
presentation extraction, trace conditions, and unitary-average identities.

A superoperator L generates a CP semigroup exactly when (i) its Choi matrix is
hermitian and (ii) the compression of that Choi matrix onto the traceless
block is PSD. Writing the Choi matrix in blocks against span{Id} + traceless
then yields the unique minimal triple (Psi, G, H) with

    L rho = Psi rho - (G rho + rho G) - i (H rho - rho H),

Psi CP with Choi supported on the traceless block, G, H hermitian, Tr H = 0.
"""
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import NonHermitianChoiError, NotCPError, NotDcpError, NotMinimalError
from .operators import (
    DEFAULT_TOL,
    SeedLike,
    Tolerance,
    _is_hermitian,
    _spectrum_ok,
    as_operator,
    as_rng,
    dag,
    operator_norm,
    random_ginibre,
    random_hermitian,
    traceless_projection,
)
from .superops import (
    ChoiMatrix,
    SuperOperator,
    dyad_vec,
    is_cp,
    jamiolkowski_inv,
    sandwich,
)
from .cp_maps import traceless_block_projector


def _require_hermitian(a: np.ndarray, tol: Tolerance, what: str) -> np.ndarray:
    a = as_operator(a)
    if not _is_hermitian(a, tol.rtol):
        raise ValueError(f"{what} must be hermitian")
    return a


def _presentation_scale(psi: SuperOperator, g: np.ndarray, h: np.ndarray) -> float:
    """The one scale of every check on a presentation (the Psi leak, Tr H and
    the trace condition): max(1, ||Psi||_F, 2 ||G||_F, ||H||_F)."""
    return max(1.0, float(np.linalg.norm(psi.matrix)), 2.0 * float(np.linalg.norm(g)),
               float(np.linalg.norm(h)))


@dataclass(frozen=True)
class GkslPresentation:
    """Triple (Psi, G, H) presenting a generator; validated at construction.

    With ``minimal=True`` the Choi matrix of Psi must annihilate the identity
    and H must be traceless.
    """

    psi: SuperOperator
    g: np.ndarray
    h: np.ndarray
    minimal: bool = False
    tol: Tolerance = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self):
        d = self.psi.dim_in
        if self.psi.dim_out != d:
            raise ValueError("Psi must act on a single space")
        cp = is_cp(self.psi, self.tol)
        if not cp.ok:
            raise NotCPError(
                f"Psi is not CP: Choi min eigenvalue {cp.choi_min_eigenvalue:.3e}",
                cp.choi_min_eigenvalue)
        g = _require_hermitian(self.g, self.tol, "G")
        h = _require_hermitian(self.h, self.tol, "H")
        if g.shape != (d, d) or h.shape != (d, d):
            raise ValueError("G and H must match the dimension of Psi")
        if self.minimal:
            w = dyad_vec(np.eye(d))
            leak = float(np.linalg.norm(self.psi.choi.matrix @ w))
            scale = _presentation_scale(self.psi, g, h)
            if leak > self.tol.atol * scale * d:
                raise NotMinimalError(
                    f"Choi(Psi) does not annihilate the identity (leak {leak:.3e})")
            if abs(np.trace(h)) > self.tol.atol * scale * d:
                raise NotMinimalError(f"H is not traceless (Tr H = {np.trace(h):.3e})")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.psi.dim_in


@dataclass(frozen=True)
class DcpVerdict:
    """Outcome of the exact dCP decision."""

    is_dag_morphism_generator: bool
    compressed_choi_min_eig: float
    is_dcp: bool
    extracted: Optional[GkslPresentation] = None


def assemble_generator(p: GkslPresentation) -> SuperOperator:
    """Build L = Psi - [G, .]_+ - i[H, .] as a superoperator."""
    d = p.dim
    ident = np.eye(d)
    anti = sandwich(p.g, ident) + sandwich(ident, p.g)
    comm = sandwich(p.h, ident) - sandwich(ident, p.h)
    return p.psi - anti - (1j * comm)


def commutator_generator(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SuperOperator:
    """The von Neumann generator -i[H, .] for hermitian H."""
    h = _require_hermitian(h, tol, "H")
    ident = np.eye(h.shape[0])
    return -1j * (sandwich(h, ident) - sandwich(ident, h))


def _compressed_choi(lam: SuperOperator) -> np.ndarray:
    """Hermitized P0 C P0; it inherits the hermiticity gate of C, not one of its own."""
    p0 = traceless_block_projector(lam.dim_in)
    xi = p0 @ lam.choi.matrix @ p0
    return 0.5 * (xi + dag(xi))


def is_dcp(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL,
           extract: bool = False) -> DcpVerdict:
    """Exact test for generating a CP semigroup.

    (i) the Choi matrix must be hermitian (generator of dagger-morphisms) and
    (ii) its compression onto the traceless block must be PSD, decided by one
    eigensolve of the hermitized compression; no sampling is involved.
    """
    if lam.dim_in != lam.dim_out:
        raise ValueError("dCP test needs a square superoperator")
    dag_ok = _is_hermitian(lam.choi.matrix, tol.rtol)
    eigs = np.linalg.eigvalsh(_compressed_choi(lam))
    verdict = dag_ok and _spectrum_ok(eigs, tol.rtol)
    extracted = None
    if verdict and extract:
        extracted = minimal_presentation(lam, tol)
    return DcpVerdict(
        is_dag_morphism_generator=dag_ok,
        compressed_choi_min_eig=float(eigs[0]),
        is_dcp=verdict,
        extracted=extracted,
    )


def minimal_presentation(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> GkslPresentation:
    """Extract the unique minimal triple (Psi, G, H) of a dCP generator.

    With D the Choi matrix and d the dimension:

        tau = <Id| D |Id> / (2d)                     (must be real)
        A   = (unvec(D |Id>) - tau Id) / d
        G   = -(A + A^dag)/2,  H = (A^dag - A)/(2i)
        Choi(Psi) = P0 D P0   (compression onto the traceless block)

    guaranteeing Tr H = 0, Choi(Psi)|Id> = 0, and exact reconstruction. H is
    taken traceless explicitly (shifting H by c Id leaves L unchanged), and
    the PSD decision on Choi(Psi) is the one :func:`is_dcp` makes.
    """
    d = lam.dim_in
    dmat = lam.choi.matrix
    if not _is_hermitian(dmat, tol.rtol):
        raise NonHermitianChoiError(
            "Choi matrix is not hermitian: not a generator of dagger-morphisms")
    w = dyad_vec(np.eye(d))
    tau = (np.conj(w) @ (dmat @ w)).real / (2.0 * d)
    a = ((dmat @ w).reshape(d, d) - tau * np.eye(d)) / d
    g = -0.5 * (a + dag(a))
    h = traceless_projection((dag(a) - a) / 2j)
    psi = jamiolkowski_inv(ChoiMatrix(_compressed_choi(lam), dim_in=d, dim_out=d))
    try:
        return GkslPresentation(psi=psi, g=g, h=h, minimal=True, tol=tol)
    except NotCPError as exc:
        raise NotDcpError(
            f"compressed Choi matrix is not PSD (min eigenvalue {exc.min_eigenvalue:.3e})",
            exc.min_eigenvalue) from None


class TraceConditionResult(NamedTuple):
    classification: str            # "preserving" | "nonincreasing" | "neither"
    defect: np.ndarray             # Psi^dag(Id) - 2G


def trace_condition(p: GkslPresentation, tol: Tolerance = DEFAULT_TOL) -> TraceConditionResult:
    """Classify the generated semigroup by the sign of Psi^dag(Id) - 2G.

    Zero defect means trace preserving, negative semidefinite defect means
    trace nonincreasing, anything else is neither.
    """
    defect = p.psi.dagger().apply(np.eye(p.dim)) - 2.0 * p.g
    scale = _presentation_scale(p.psi, p.g, p.h)
    if float(np.linalg.norm(defect)) <= tol.rtol * scale:
        return TraceConditionResult("preserving", defect)
    if _spectrum_ok(np.linalg.eigvalsh(-0.5 * (defect + dag(defect))), tol.rtol, scale):
        return TraceConditionResult("nonincreasing", defect)
    return TraceConditionResult("neither", defect)


def haar_conjugation_average(a: np.ndarray) -> np.ndarray:
    """Closed form of the Haar average of U A U^dag: (Tr A / d) Id.

    Averaging conjugation over the unitary group is the orthogonal projection
    onto multiples of the identity (Schur's lemma). A Monte-Carlo cross-check
    is available via :func:`gksl_kit.operators.random_haar_unitary`.
    """
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be square, got shape {a.shape}")
    d = a.shape[0]
    return (np.trace(a) / d) * np.eye(d)


def lindblad_trick_average(p: GkslPresentation, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Closed form of the Haar average <(L U) U^{-1}> for a minimal presentation.

    The Psi part contributes unvec(Choi(Psi)|Id>)/d, which vanishes for a
    minimal presentation, leaving -G - (Tr G / d) Id - iH. Requires the
    presentation to be minimal.
    """
    if not p.minimal:
        raise NotMinimalError("the unitary-average identity requires the minimal presentation")
    d = p.dim
    w = dyad_vec(np.eye(d))
    psi_part = (p.psi.choi.matrix @ w).reshape(d, d) / d
    g_part = p.g + (np.trace(p.g).real / d) * np.eye(d)
    h_part = p.h - (np.trace(p.h).real / d) * np.eye(d)
    return psi_part - g_part - 1j * h_part


def monte_carlo_generator_average(lam: SuperOperator, samples: int,
                                  seed: SeedLike = None) -> tuple[np.ndarray, np.ndarray]:
    """Haar Monte-Carlo estimate of <(L U) U^{-1}>.

    Returns (mean, standard error of the mean, entrywise complex).
    """
    from .operators import random_haar_unitary
    rng = as_rng(seed)
    d = lam.dim_in
    acc = np.zeros((samples, d, d), dtype=complex)
    for i in range(samples):
        u = random_haar_unitary(d, rng)
        acc[i] = lam.apply(u) @ dag(u)
    mean = acc.mean(axis=0)
    var = np.var(acc.real, axis=0) + np.var(acc.imag, axis=0)
    stderr = np.sqrt(var / samples)
    return mean, stderr


def induced_trace_norm_estimate(lam: SuperOperator, restarts: int = 20,
                                steps: int = 50, seed: SeedLike = None) -> float:
    """Lower-bound estimate of the 1->1 induced norm max ||L rho||_1 / ||rho||_1.

    The extreme points of the trace-norm ball are rank-one dyads v w^dag, so
    the search alternates between the polar factor of the image and the top
    singular pair of the back-propagated dual certificate.
    """
    rng = as_rng(seed)
    d_in = lam.dim_in
    adj = lam.dagger()
    best = 0.0
    for _ in range(restarts):
        v = rng.standard_normal(d_in) + 1j * rng.standard_normal(d_in)
        w = rng.standard_normal(d_in) + 1j * rng.standard_normal(d_in)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        prev = -np.inf
        for _ in range(steps):
            x = lam.apply(np.outer(v, np.conj(w)))
            u, s, vh = np.linalg.svd(x)
            value = float(np.sum(s))
            if value <= prev * (1 + 1e-12):
                break
            prev = value
            polar = u @ vh
            y = adj.apply(polar)
            uy, sy, vhy = np.linalg.svd(y)
            v = uy[:, 0]
            w = vhy[0].conj()
        best = max(best, prev)
    return best


def norm_bounds_check(lam: SuperOperator, p_minimal: GkslPresentation,
                      slack: float = 1.05, seed: SeedLike = None,
                      tol: Tolerance = DEFAULT_TOL) -> dict:
    """Check ||G||, ||H|| <= ||L|| and ||Psi|| <= 5 ||L|| against norm estimates.

    The induced 1->1 norms are heuristic lower bounds obtained by random
    restarts and ascent, so the assertions carry a multiplicative slack and
    are labeled heuristic in the report.
    """
    if not p_minimal.minimal:
        raise NotMinimalError("norm bounds apply to the minimal presentation")
    cond = trace_condition(p_minimal, tol)
    l_norm = induced_trace_norm_estimate(lam, seed=seed)
    psi_norm = induced_trace_norm_estimate(p_minimal.psi, seed=seed)
    g_norm = operator_norm(p_minimal.g)
    h_norm = operator_norm(p_minimal.h)
    return {
        "trace_condition": cond.classification,
        "generator_norm_estimate": l_norm,
        "psi_norm_estimate": psi_norm,
        "g_norm": g_norm,
        "h_norm": h_norm,
        "g_bound_ok": g_norm <= slack * l_norm + tol.atol,
        "h_bound_ok": h_norm <= slack * l_norm + tol.atol,
        "psi_bound_ok": psi_norm <= 5.0 * slack * l_norm + tol.atol,
        "evidence": "heuristic (norm estimates are lower bounds)",
    }


def is_cp_group_generator(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Decide whether L generates a CP group, i.e. both L and -L are dCP.

    When true, the minimal presentation has Psi = 0; if additionally the
    group is trace-nonincreasing in both directions, G = 0 as well, leaving
    only the unitary part -i[H, .]. The residual norms are reported.
    """
    forward = is_dcp(lam, tol)
    backward = is_dcp(-lam, tol)
    result = {
        "is_group": bool(forward.is_dcp and backward.is_dcp),
        "forward_dcp": forward.is_dcp,
        "backward_dcp": backward.is_dcp,
        "compressed_min_eig_forward": forward.compressed_choi_min_eig,
        "compressed_min_eig_backward": backward.compressed_choi_min_eig,
    }
    if result["is_group"]:
        p = minimal_presentation(lam, tol)
        cond_f = trace_condition(p, tol)
        p_back = minimal_presentation(-lam, tol)
        cond_b = trace_condition(p_back, tol)
        result["psi_norm"] = float(np.linalg.norm(p.psi.matrix))
        result["g_norm"] = float(np.linalg.norm(p.g))
        result["trace_nonincreasing_both"] = (
            cond_f.classification in ("preserving", "nonincreasing")
            and cond_b.classification in ("preserving", "nonincreasing"))
        scale = max(1.0, float(np.linalg.norm(lam.matrix)))
        result["psi_vanishes"] = result["psi_norm"] <= tol.rtol * scale
        result["g_vanishes"] = result["g_norm"] <= tol.rtol * scale
    return result


def random_minimal_presentation(d: int, seed: SeedLike = None,
                                trace: str | None = "preserving",
                                psi_rank: int | None = None,
                                tol: Tolerance = DEFAULT_TOL) -> GkslPresentation:
    """Random minimal triple (Psi, G, H).

    Psi gets a random PSD Choi matrix compressed onto the traceless block; H
    is random traceless hermitian. ``trace`` selects G: "preserving" sets
    G = Psi^dag(Id)/2, "nonincreasing" adds a positive shift, None draws G
    at random.
    """
    rng = as_rng(seed)
    p0 = traceless_block_projector(d)
    k = psi_rank if psi_rank is not None else d * d
    gin = random_ginibre(d * d, k, rng)
    xi = p0 @ (gin @ dag(gin)) @ p0
    xi = 0.5 * (xi + dag(xi))
    tr = np.trace(xi).real
    if tr > 0:
        xi *= d / tr      # overall rate scale ~1, keeps exponentials well conditioned
    psi = jamiolkowski_inv(ChoiMatrix(xi, dim_in=d, dim_out=d))
    h = random_hermitian(d, rng, traceless=True)
    if trace == "preserving":
        g = 0.5 * psi.dagger().apply(np.eye(d))
        g = 0.5 * (g + dag(g))
    elif trace == "nonincreasing":
        g = 0.5 * psi.dagger().apply(np.eye(d))
        g = 0.5 * (g + dag(g)) + rng.uniform(0.1, 1.0) * np.eye(d)
    elif trace is None:
        g = random_hermitian(d, rng)
    else:
        raise ValueError(f"unknown trace mode {trace!r}")
    return GkslPresentation(psi=psi, g=g, h=h, minimal=True, tol=tol)


def random_dcp_generator(d: int, seed: SeedLike = None,
                         trace: str | None = "preserving") -> SuperOperator:
    """Random dCP generator assembled from a random minimal presentation."""
    return assemble_generator(random_minimal_presentation(d, seed=seed, trace=trace))


def embedded_presentation(p: GkslPresentation, ambient_dim: int) -> GkslPresentation:
    """Embed a presentation on C^n as the leading block of C^d, zero-padded.

    The embedded generator leaves the orthogonal complement invariant and
    evolves block-supported states exactly as the small one does; minimality
    and the trace condition carry over (the embedded Choi of Psi still
    annihilates the ambient identity).
    """
    n, d = p.dim, ambient_dim
    if d < n:
        raise ValueError(f"ambient dim {d} smaller than block dim {n}")
    if d == n:
        return p
    iota = np.zeros((d, n), dtype=complex)
    iota[:n, :n] = np.eye(n)
    inject = sandwich(iota, dag(iota))        # L(C^n) -> L(C^d)
    restrict = sandwich(dag(iota), iota)      # L(C^d) -> L(C^n)
    psi_big = inject @ p.psi @ restrict
    g_big = iota @ p.g @ dag(iota)
    h_big = iota @ p.h @ dag(iota)
    return GkslPresentation(psi=psi_big, g=g_big, h=h_big, minimal=p.minimal,
                            tol=p.tol)
