"""Superoperator calculus: vectorization, sandwich operators, Choi transform.

Conventions (fixed once, everything below is tested against them):

* ``vec`` stacks columns: for X of shape (r, c), vec(X)[j*r + i] = X[i, j].
  The basis dyad E_kh = e_k e_h^dag therefore has vec index h*d + k.
* A superoperator L(H) -> L(K) is stored as the (d_K^2, d_H^2) matrix M with
  vec(Lambda X) = M @ vec(X).
* The Choi matrix uses the dyad-index grouping (m, k) -> m*d_H + k, with
  entry[(m, k), (n, h)] = [Lambda(E_kh)]_{mn}. Under this grouping an
  operator A embeds into Choi space as its row-major ravel (``dyad_vec``).

The Choi matrix is the matrix of the Jamiolkowski transform of the map: it
exchanges rank-one dyads S Tbar with sandwich operators S [] T^dag, it is a
unitary on superoperator space, and it is its own inverse.
"""
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .operators import (
    DEFAULT_TOL,
    SeedLike,
    Tolerance,
    _is_hermitian,
    as_operator,
    as_rng,
    dag,
    is_positive_semidefinite,
    random_ginibre,
)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (1-D output)."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; square by default."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if shape is None:
        d = int(round(np.sqrt(v.size)))
        if d * d != v.size:
            raise ValueError(f"cannot unvec length {v.size} into a square matrix")
        shape = (d, d)
    return v.reshape(shape, order="F")


def dyad_vec(a: np.ndarray) -> np.ndarray:
    """Coefficient vector of an operator in the Choi (dyad) index grouping.

    A = sum_{mk} A[m, k] E_mk with E_mk at grouped index m*d_in + k, so this is
    simply the row-major ravel of A.
    """
    return np.asarray(a, dtype=complex).reshape(-1)


def dyad_unvec(v: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of :func:`dyad_vec`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if shape is None:
        d = int(round(np.sqrt(v.size)))
        if d * d != v.size:
            raise ValueError(f"cannot reshape length {v.size} into a square matrix")
        shape = (d, d)
    return v.reshape(shape)


def _infer_hilbert_dim(n: int, what: str) -> int:
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ValueError(f"{what} size {n} is not a perfect square")
    return d


@dataclass(frozen=True)
class ChoiMatrix:
    """Matrix of the Jamiolkowski transform in the (m, k) -> m*d_in + k grouping."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.dim_in * self.dim_out
        if m.shape != (n, n):
            raise ValueError(
                f"Choi matrix shape {m.shape} inconsistent with dims "
                f"(in={self.dim_in}, out={self.dim_out})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


class SuperOperator:
    """Linear map on operator space, stored in the column-stacking convention.

    Immutable; the Choi form is computed at construction so both
    representations stay coherent. Supports +, -, scalar *, / and @ for
    composition.
    """

    __slots__ = ("_matrix", "_dim_in", "_dim_out", "_choi")

    def __init__(self, matrix, dim_in: int | None = None, dim_out: int | None = None):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"superoperator matrix must be 2-D, got shape {m.shape}")
        rows, cols = m.shape
        d_out = dim_out if dim_out is not None else _infer_hilbert_dim(rows, "row")
        d_in = dim_in if dim_in is not None else _infer_hilbert_dim(cols, "column")
        if m.shape != (d_out * d_out, d_in * d_in):
            raise ValueError(
                f"matrix shape {m.shape} inconsistent with dims (in={d_in}, out={d_out})")
        m = m.copy()
        m.flags.writeable = False
        self._matrix = m
        self._dim_in = d_in
        self._dim_out = d_out
        self._choi = ChoiMatrix(_superop_matrix_to_choi(m, d_in, d_out), d_in, d_out)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim_in(self) -> int:
        return self._dim_in

    @property
    def dim_out(self) -> int:
        return self._dim_out

    @property
    def choi(self) -> ChoiMatrix:
        return self._choi

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_operator(x)
        if x.shape != (self._dim_in, self._dim_in):
            raise ValueError(
                f"operand shape {x.shape} does not match dim_in={self._dim_in}")
        return unvec(self._matrix @ vec(x), (self._dim_out, self._dim_out))

    __call__ = apply

    def dagger(self) -> "SuperOperator":
        """Hilbert-Schmidt adjoint: <L^dag B, X> = <B, L X>."""
        return SuperOperator(dag(self._matrix), dim_in=self._dim_out, dim_out=self._dim_in)

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        self._check_same_dims(other)
        return SuperOperator(self._matrix + other._matrix, self._dim_in, self._dim_out)

    def __sub__(self, other: "SuperOperator") -> "SuperOperator":
        self._check_same_dims(other)
        return SuperOperator(self._matrix - other._matrix, self._dim_in, self._dim_out)

    def __mul__(self, scalar) -> "SuperOperator":
        return SuperOperator(self._matrix * complex(scalar), self._dim_in, self._dim_out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SuperOperator":
        return self * (1.0 / complex(scalar))

    def __neg__(self) -> "SuperOperator":
        return self * (-1.0)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        if other._dim_out != self._dim_in:
            raise ValueError(
                f"cannot compose: inner dims {other._dim_out} vs {self._dim_in}")
        return SuperOperator(self._matrix @ other._matrix, other._dim_in, self._dim_out)

    def _check_same_dims(self, other: "SuperOperator") -> None:
        if (self._dim_in, self._dim_out) != (other._dim_in, other._dim_out):
            raise ValueError(
                f"dimension mismatch: ({self._dim_in},{self._dim_out}) vs "
                f"({other._dim_in},{other._dim_out})")

    def __repr__(self) -> str:
        return f"SuperOperator(dim_in={self._dim_in}, dim_out={self._dim_out})"


def _superop_matrix_to_choi(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    # M row index = n*d_out + m' (output col/row), col index = h*d_in + k.
    # Choi[(m', k), (n, h)] = M[n*d_out + m', h*d_in + k].
    m4 = m.reshape(d_out, d_out, d_in, d_in)          # axes (n, m', h, k)
    return m4.transpose(1, 3, 0, 2).reshape(d_out * d_in, d_out * d_in)


def _choi_to_superop_matrix(c: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    c4 = c.reshape(d_out, d_in, d_out, d_in)          # axes (m', k, n, h)
    return c4.transpose(2, 0, 3, 1).reshape(d_out * d_out, d_in * d_in)


def identity_superop(d: int) -> SuperOperator:
    """Identity map on L(C^d)."""
    return SuperOperator(np.eye(d * d), dim_in=d, dim_out=d)


def sandwich(s: np.ndarray, t: np.ndarray) -> SuperOperator:
    """The sandwich operator S [] T : X -> S X T.

    Requires S and T to make S X T well-typed with square X; the Choi matrix of
    S [] S^dag is the rank-one dyad |S><S|.
    """
    s = as_operator(s)
    t = as_operator(t)
    if s.shape[1] != t.shape[0]:
        raise ValueError(
            f"dimension mismatch: S columns {s.shape[1]} vs T rows {t.shape[0]} "
            "(operand must be square)")
    if t.shape[1] != s.shape[0]:
        raise ValueError(
            f"dimension mismatch: T columns {t.shape[1]} vs S rows {s.shape[0]} "
            "(output must be square)")
    # vec(S X T) = (T^T (x) S) vec(X)
    return SuperOperator(np.kron(t.T, s), dim_in=s.shape[1], dim_out=s.shape[0])


def superop_from_action(action: Callable[[np.ndarray], np.ndarray],
                        dim_in: int, dim_out: int | None = None) -> SuperOperator:
    """Build the matrix of a map from its action on basis dyads."""
    d_in = dim_in
    cols = []
    for h in range(d_in):
        for k in range(d_in):
            e = np.zeros((d_in, d_in), dtype=complex)
            e[k, h] = 1.0
            cols.append(vec(action(e)))
    m = np.stack(cols, axis=1)
    return SuperOperator(m, dim_in=d_in, dim_out=dim_out)


def transpose_map(d: int = 2) -> SuperOperator:
    """The transposition map X -> X^T on L(C^d).

    Canonical example of a monotone map that is not CP: its Choi matrix is the
    SWAP permutation, with one negative eigenvalue -1.
    """
    return superop_from_action(lambda x: x.T, d)


def jamiolkowski(lam: SuperOperator) -> ChoiMatrix:
    """Jamiolkowski/Choi transform of a superoperator (cached on the object)."""
    return lam.choi


def jamiolkowski_inv(choi: ChoiMatrix) -> SuperOperator:
    """Inverse transform: rebuild the superoperator from its Choi matrix."""
    m = _choi_to_superop_matrix(np.asarray(choi.matrix, dtype=complex),
                                choi.dim_in, choi.dim_out)
    return SuperOperator(m, dim_in=choi.dim_in, dim_out=choi.dim_out)


def jamiolkowski_superop(lam: SuperOperator) -> SuperOperator:
    """The transform of a square-space map, returned again as a superoperator.

    Only defined for dim_in == dim_out (otherwise the transform acts on
    rectangular operators; use :func:`jamiolkowski` for the matrix form).
    Applying this twice returns the original map exactly: the transform is an
    entrywise permutation, hence involutive and unitary.
    """
    if lam.dim_in != lam.dim_out:
        raise ValueError("superoperator form of the transform needs dim_in == dim_out")
    d = lam.dim_in
    m4 = lam.matrix.reshape(d, d, d, d)
    m_jam = m4.transpose(3, 1, 2, 0).reshape(d * d, d * d)
    return SuperOperator(m_jam, dim_in=d, dim_out=d)


def tensor_superop(lam: SuperOperator, gam: SuperOperator) -> SuperOperator:
    """Tensor product of superoperators acting on the kron-ordered composite.

    (Lambda (x) Gamma)(rho (x) sigma) = Lambda(rho) (x) Gamma(sigma), where the
    composite operator rho (x) sigma is ``np.kron(rho, sigma)``.
    """
    dK, dH = lam.dim_out, lam.dim_in
    eK, eH = gam.dim_out, gam.dim_in
    l4 = lam.matrix.reshape(dK, dK, dH, dH)   # axes (n, m, j, i)
    g4 = gam.matrix.reshape(eK, eK, eH, eH)   # axes (b, a, d, c)
    big = np.einsum("nmji,badc->nbmajdic", l4, g4)
    return SuperOperator(big.reshape((dK * eK) ** 2, (dH * eH) ** 2),
                         dim_in=dH * eH, dim_out=dK * eK)


def tensor_with_identity(lam: SuperOperator, n: int) -> SuperOperator:
    """Lambda (x) Id on the composite space of dimension dim * n."""
    if n < 1:
        raise ValueError(f"ancilla dimension must be >= 1, got {n}")
    return tensor_superop(lam, identity_superop(n))


def quadratic_form(lam: SuperOperator, t: np.ndarray) -> complex:
    """The Hilbert-Schmidt quadratic form <T, Lambda T>."""
    v = vec(t)
    return complex(np.conj(v) @ (lam.matrix @ v))


def choi_quadratic_form(lam: SuperOperator, t: np.ndarray) -> complex:
    """<T, (J Lambda) T>: the quadratic form of the map's Choi matrix.

    T lives in L(H, K) (shape dim_out x dim_in) and embeds into Choi space by
    row-major ravel. Nonnegativity of this form on all T is exactly complete
    positivity; restricted to rank <= N it is rank-N-positivity of the
    transform, equivalently N-monotonicity of the map.
    """
    v = dyad_vec(t)
    return complex(np.conj(v) @ (lam.choi.matrix @ v))


def hs_inner_superop(lam: SuperOperator, gam: SuperOperator) -> complex:
    """HS inner product of two superoperators (trace pairing of matrices)."""
    return complex(np.sum(np.conj(lam.matrix) * gam.matrix))


def is_dag_morphism(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the map commutes with the adjoint, i.e. the Choi matrix is hermitian."""
    return _is_hermitian(lam.choi.matrix, tol.rtol)


class CpResult(NamedTuple):
    ok: bool
    choi_min_eigenvalue: float


def is_cp(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CpResult:
    """Exact complete-positivity test: the Choi matrix must be PSD."""
    ok, lam_min = is_positive_semidefinite(lam.choi.matrix, tol)
    return CpResult(ok, lam_min)


class RankWitness(NamedTuple):
    """Operator T of rank <= N with <T, Lambda T> outside the PSD cone."""

    operator: np.ndarray
    value: complex


class MonotoneWitness(NamedTuple):
    """Unit vector v with Lambda(v v^dag) not positive semidefinite."""

    vector: np.ndarray
    min_eigenvalue: float


def _truncate_rank(t: np.ndarray, n: int) -> np.ndarray:
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    s[n:] = 0.0
    out = (u * s) @ vh
    nrm = np.linalg.norm(out)
    return out / nrm if nrm > 0 else out


def _rank_descent(form: np.ndarray, t0: np.ndarray, n: int, steps: int) -> np.ndarray:
    """Projected power-style descent minimizing t^dag Q t over unit rank-<=N T."""
    scale = float(np.linalg.norm(form, ord=2))
    alpha = 1.0 / (scale + 1.0)
    shape = t0.shape
    t = _truncate_rank(t0, n)
    for _ in range(steps):
        v = dyad_vec(t)
        v = v - alpha * (form @ v)
        t = _truncate_rank(v.reshape(shape), n)
    return t


def rank_n_positive_falsifier(lam: SuperOperator, n: int,
                              budget: int = 200, seed: SeedLike = None,
                              steps: int = 100,
                              tol: Tolerance = DEFAULT_TOL) -> Optional[RankWitness]:
    """Search for a rank-<=N operator T with <T, (J Lambda) T> negative or non-real.

    A witness refutes rank-N-positivity of the map's transform, equivalently
    N-monotonicity of the map itself. Returning None proves nothing for N < d:
    the search is random restarts plus projected descent. For N = d the
    property coincides with complete positivity: a witness, an eigenvector of
    the Choi matrix's hermitian or anti-hermitian part, is returned exactly
    when :func:`is_cp` is False.
    """
    d = min(lam.dim_in, lam.dim_out)
    if not (1 <= n <= d):
        raise ValueError(f"rank must satisfy 1 <= N <= {d}, got {n}")
    q = lam.choi.matrix
    t_shape = (lam.dim_out, lam.dim_in)
    qh = 0.5 * (q + dag(q))
    qa = (q - dag(q)) / 2j

    if n == d:
        if is_cp(lam, tol).ok:
            return None
        if is_dag_morphism(lam, tol):
            t = np.linalg.eigh(qh)[1][:, 0]
        else:
            ieigs, ivecs = np.linalg.eigh(qa)
            t = ivecs[:, int(np.argmax(np.abs(ieigs)))]
        t = t.reshape(t_shape)
        return RankWitness(t, choi_quadratic_form(lam, t))

    rng = as_rng(seed)
    threshold = tol.rtol * max(1.0, float(np.linalg.norm(q, ord=2)))
    forms = [qh] if is_dag_morphism(lam, tol) else [qh, qa, -qa]
    for _ in range(budget):
        t0 = random_ginibre(*t_shape, seed=rng)
        for form in forms:
            t = _rank_descent(form, t0, n, steps)
            value = choi_quadratic_form(lam, t)
            if value.real < -threshold or abs(value.imag) > threshold:
                return RankWitness(t, value)
    return None


def monotone_falsifier(lam: SuperOperator, budget: int = 1000,
                       seed: SeedLike = None, steps: int = 20,
                       tol: Tolerance = DEFAULT_TOL) -> Optional[MonotoneWitness]:
    """Search rank-one states v v^dag whose image fails the PSD test.

    Monotonicity only needs checking on rank-one positive inputs; a returned
    witness refutes it, absence of one within the budget is evidence only.
    """
    d = lam.dim_in
    m = lam.matrix
    rng = as_rng(seed)

    vs = rng.standard_normal((budget, d)) + 1j * rng.standard_normal((budget, d))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    states = np.einsum("bi,bj->bij", vs, np.conj(vs))
    # batched apply: vec is F-order, i.e. transpose then C-ravel
    imgs_vec = states.transpose(0, 2, 1).reshape(budget, d * d) @ m.T
    imgs = imgs_vec.reshape(budget, lam.dim_out, lam.dim_out).transpose(0, 2, 1)
    herms = 0.5 * (imgs + np.conj(imgs.transpose(0, 2, 1)))
    eigs = np.linalg.eigvalsh(herms)

    best = int(np.argmin(eigs[:, 0]))
    candidates = [vs[best]]
    order = np.argsort(eigs[:, 0])
    candidates += [vs[i] for i in order[1:4]]

    found_v, found_min = None, 0.0
    for v in candidates:
        v = v.copy()
        for _ in range(steps):
            img = lam.apply(np.outer(v, np.conj(v)))
            res = is_positive_semidefinite(img, tol)
            if not res.ok:
                if res.min_eigenvalue < found_min:
                    found_v, found_min = v, res.min_eigenvalue
            w = 0.5 * (img + dag(img))
            evals, evecs = np.linalg.eigh(w)
            u = evecs[:, 0]
            # minimize <u ubar, Lambda(v vbar)> over unit v: quadratic form in v
            q = unvec(dag(m) @ vec(np.outer(u, np.conj(u))), (d, d))
            qh = 0.5 * (q + dag(q))
            v_new = np.linalg.eigh(qh)[1][:, 0]
            if np.allclose(v_new, v):
                break
            v = v_new
        img = lam.apply(np.outer(v, np.conj(v)))
        res = is_positive_semidefinite(img, tol)
        if not res.ok and res.min_eigenvalue < found_min:
            found_v, found_min = v, res.min_eigenvalue
    if found_v is not None:
        return MonotoneWitness(found_v, found_min)
    return None


@dataclass(frozen=True)
class PropertyReport:
    """Classification summary for one superoperator."""

    is_dag_morphism: bool
    is_cp: bool
    choi_min_eigenvalue: float
    monotone_counterexample: Optional[MonotoneWitness] = None
    rank_n_witness: Optional[tuple[int, np.ndarray, complex]] = field(default=None)


def property_report(lam: SuperOperator, tol: Tolerance = DEFAULT_TOL,
                    budget: int = 1000, seed: SeedLike = None,
                    rank_n: int | None = None) -> PropertyReport:
    """Run the classifiers on one map: exact CP/hermiticity tests plus falsifiers."""
    cp = is_cp(lam, tol)
    witness = monotone_falsifier(lam, budget=budget, seed=seed, tol=tol)
    rank_witness = None
    if rank_n is not None:
        found = rank_n_positive_falsifier(lam, rank_n, seed=seed, tol=tol)
        if found is not None:
            rank_witness = (rank_n, found.operator, found.value)
    return PropertyReport(
        is_dag_morphism=is_dag_morphism(lam, tol),
        is_cp=cp.ok,
        choi_min_eigenvalue=cp.choi_min_eigenvalue,
        monotone_counterexample=witness,
        rank_n_witness=rank_witness,
    )
