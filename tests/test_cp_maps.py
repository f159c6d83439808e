"""Tests for Kraus extraction/assembly and the intermediate block form."""
import numpy as np
import pytest

from gksl_kit.errors import NotCPError
from gksl_kit.operators import dag, random_density_matrix, random_ginibre, random_haar_unitary
from gksl_kit.superops import (
    SuperOperator,
    dyad_vec,
    identity_superop,
    is_cp,
    rank_n_positive_falsifier,
    sandwich,
    transpose_map,
)
from gksl_kit.generators import minimal_presentation
from scaled_cases import CASES, shifted_noisy_generator
from gksl_kit.cp_maps import (
    cp_closure_checks,
    intermediate_form,
    kraus_assemble,
    kraus_extract,
    random_cp_map,
    reconstruct_choi,
)


def test_extract_identity():
    fam = kraus_extract(identity_superop(3))
    assert len(fam) == 1
    assert np.allclose(fam.operators[0], np.eye(3))


def test_extract_dephasing():
    deph = kraus_assemble([np.diag([1.0, 0.0]).astype(complex),
                           np.diag([0.0, 1.0]).astype(complex)])
    fam = kraus_extract(deph)
    assert len(fam) == 2
    assert fam.degenerate
    got = {tuple(np.round(op.reshape(-1), 9)) for op in fam.operators}
    want = {(1.0 + 0j, 0j, 0j, 0j), (0j, 0j, 0j, 1.0 + 0j)}
    assert got == want


def test_extract_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam = random_cp_map(3, kraus_count=3, seed=rng)
        fam = kraus_extract(lam)
        back = kraus_assemble(fam)
        rel = np.linalg.norm(back.matrix - lam.matrix) / np.linalg.norm(lam.matrix)
        assert rel <= 1e-10
        assert len(fam) <= 9


def test_extract_rejects_non_cp():
    with pytest.raises(NotCPError) as err:
        kraus_extract(transpose_map(2))
    assert err.value.min_eigenvalue == pytest.approx(-1.0)


def test_extract_deterministic_phase():
    lam = random_cp_map(2, kraus_count=2, seed=3)
    f1 = kraus_extract(lam)
    f2 = kraus_extract(lam)
    for a, b in zip(f1.operators, f2.operators):
        assert np.array_equal(a, b)
    for a in f1.operators:
        pivot = a.reshape(-1)[np.argmax(np.abs(a.reshape(-1)))]
        assert pivot.real > 0
        assert abs(pivot.imag) < 1e-12 * abs(pivot)


def test_assemble_single_identity():
    lam = kraus_assemble([np.eye(2)])
    assert np.allclose(lam.matrix, np.eye(4))


def test_assemble_jump_operator():
    gamma = 0.3
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = np.sqrt(gamma)
    lam = kraus_assemble([a])
    rho = random_density_matrix(2, seed=4)
    expected = gamma * rho[1, 1] * np.diag([1.0, 0.0])
    assert np.allclose(lam.apply(rho), expected)


def test_assemble_choi_is_dyad_sum():
    rng = np.random.default_rng(5)
    ops = [random_ginibre(2, 2, rng) for _ in range(3)]
    lam = kraus_assemble(ops)
    expected = sum(np.outer(dyad_vec(a), np.conj(dyad_vec(a))) for a in ops)
    assert np.allclose(lam.choi.matrix, expected, atol=1e-12)


def test_assemble_dim_mismatch():
    with pytest.raises(ValueError):
        kraus_assemble([np.eye(2), np.eye(3)])


def test_intermediate_form_identity_map():
    form = intermediate_form(identity_superop(2))
    assert form.c == pytest.approx(1.0)
    assert np.allclose(form.a_op, np.eye(2) / 2)
    assert np.linalg.norm(form.theta) < 1e-12


def test_intermediate_form_unitary_conjugation():
    u = random_haar_unitary(3, seed=6)
    lam = sandwich(u, dag(u))
    form = intermediate_form(lam)
    d = 3
    w = dyad_vec(np.eye(d))
    # theta supported on the traceless block
    assert np.linalg.norm(form.theta @ w) < 1e-10
    assert np.linalg.norm(reconstruct_choi(form).matrix - lam.choi.matrix) < 1e-12


def test_intermediate_form_invariants_and_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lam = random_cp_map(2, kraus_count=4, seed=rng)
        form = intermediate_form(lam)
        assert form.c >= -1e-12
        w = dyad_vec(np.eye(2))
        assert np.linalg.norm(form.theta @ w) < 1e-10 * max(1.0, np.linalg.norm(form.theta))
        # projection of a_op onto Id is real
        assert abs(np.vdot(np.eye(2), form.a_op).imag) < 1e-12
        resid = np.linalg.norm(reconstruct_choi(form).matrix - lam.choi.matrix)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(lam.choi.matrix))


def test_intermediate_form_unique():
    lam = random_cp_map(3, kraus_count=2, seed=8)
    f1 = intermediate_form(lam)
    fam = kraus_extract(lam)
    f2 = intermediate_form(kraus_assemble(fam))
    assert f1.c == pytest.approx(f2.c, abs=1e-10)
    assert np.allclose(f1.a_op, f2.a_op, atol=1e-10)
    assert np.allclose(f1.theta, f2.theta, atol=1e-10)


def test_intermediate_form_rejects_non_cp():
    with pytest.raises(NotCPError):
        intermediate_form(transpose_map(2))


def test_positivity_transport():
    rng = np.random.default_rng(9)
    lam = random_cp_map(3, kraus_count=3, seed=rng)
    for _ in range(10):
        rho = random_density_matrix(3, rng)
        evals = np.linalg.eigvalsh(lam.apply(rho))
        assert evals[0] >= -1e-12


def test_closure_checks_cp_pair():
    lam = random_cp_map(2, seed=10)
    gam = random_cp_map(2, seed=11)
    report = cp_closure_checks(lam, gam, seed=12)
    assert report["all_combinations_cp"]
    assert report["composition_cp"]
    zero = [c for c in report["combinations"] if c["a"] == 0.0 and c["b"] == 0.0]
    assert zero and zero[0]["is_cp"]


def test_closure_checks_with_transpose():
    # a small CP map plus the transpose map fails CP: the report records it
    lam = 0.05 * random_cp_map(2, seed=13)
    report = cp_closure_checks(lam, transpose_map(2), coefficients=[(1.0, 1.0)])
    assert not report["all_combinations_cp"]
    assert report["combinations"][0]["choi_min_eigenvalue"] < -0.5


def test_closure_checks_sequence():
    lam = random_cp_map(2, seed=15)
    seq = [(1.0 + 1.0 / (k + 1)) * lam for k in range(5)]
    report = cp_closure_checks(lam, lam, sequence=seq, seed=16)
    assert report["limit_cp"]


def test_closure_checks_dim_mismatch():
    with pytest.raises(ValueError):
        cp_closure_checks(random_cp_map(2, seed=17), random_cp_map(3, seed=18))


def test_zero_map_extracts():
    lam = 0.0 * identity_superop(2)
    fam = kraus_extract(lam)
    assert len(fam) == 1
    assert np.allclose(fam.operators[0], 0)
    assert is_cp(kraus_assemble(fam)).ok


CP_AGREEMENT_CASES = [
    pytest.param(lambda s=s, noise=noise: shifted_noisy_generator(s, noise), False,
                 id=f"generator-shift={s:g}-noise={noise:g}") for s, noise in CASES
] + [
    pytest.param(lambda s=s, noise=noise: minimal_presentation(
        shifted_noisy_generator(s, noise)).psi, True,
        id=f"psi-shift={s:g}-noise={noise:g}") for s, noise in CASES
] + [
    pytest.param(lambda: identity_superop(3), True, id="identity"),
    pytest.param(lambda: transpose_map(3), False, id="transpose"),
    pytest.param(lambda: transpose_map(2) - identity_superop(2), False,
                 id="transpose-minus-identity"),
    pytest.param(lambda: SuperOperator(random_ginibre(9, 9, seed=19)), False,
                 id="non-hermitian-choi"),
]


@pytest.mark.parametrize("build, cp", CP_AGREEMENT_CASES)
def test_extraction_agrees_with_is_cp(build, cp):
    lam = build()
    assert is_cp(lam).ok == cp
    for extract in (kraus_extract, intermediate_form):
        if cp:
            extract(lam)
        else:
            with pytest.raises(NotCPError):
                extract(lam)
    assert (rank_n_positive_falsifier(lam, lam.dim_in) is None) == cp
