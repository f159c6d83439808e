"""Tests for the generator canonical form, exact dCP decision, and averages."""
import json

import numpy as np
import pytest

from gksl_kit.cli import main
from gksl_kit.serialize import dump_json, superop_to_payload
from scaled_cases import CASES, shifted_noisy_generator

from gksl_kit.errors import NonHermitianChoiError, NotCPError, NotDcpError, NotMinimalError
from gksl_kit.operators import (
    dag,
    operator_norm,
    random_density_matrix,
    random_ginibre,
    random_hermitian,
)
from gksl_kit.superops import (
    SuperOperator,
    dyad_vec,
    identity_superop,
    is_cp,
    transpose_map,
)
from gksl_kit.cp_maps import intermediate_form, kraus_assemble, kraus_extract, random_cp_map
from gksl_kit.generators import (
    GkslPresentation,
    assemble_generator,
    commutator_generator,
    haar_conjugation_average,
    induced_trace_norm_estimate,
    is_cp_group_generator,
    is_dcp,
    lindblad_trick_average,
    minimal_presentation,
    monte_carlo_generator_average,
    norm_bounds_check,
    random_dcp_generator,
    random_minimal_presentation,
    trace_condition,
)
from gksl_kit.evolution import exp_generator

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def amplitude_damping(gamma=0.4):
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = np.sqrt(gamma)
    psi = kraus_assemble([a])
    g = 0.5 * (dag(a) @ a)
    return GkslPresentation(psi=psi, g=g, h=np.zeros((2, 2)), minimal=True)


# ------------------------------------------------------------- assembly

def test_assemble_commutator_only():
    h = random_hermitian(2, seed=0, traceless=True)
    p = GkslPresentation(psi=0.0 * identity_superop(2), g=np.zeros((2, 2)), h=h,
                         minimal=True)
    lam = assemble_generator(p)
    rho = random_density_matrix(2, seed=1)
    assert np.allclose(lam.apply(rho), -1j * (h @ rho - rho @ h), atol=1e-12)
    assert np.allclose(lam.matrix, commutator_generator(h).matrix)


def test_assemble_anticommutator_on_identity():
    g = random_hermitian(3, seed=2)
    p = GkslPresentation(psi=0.0 * identity_superop(3), g=g, h=np.zeros((3, 3)))
    lam = assemble_generator(p)
    assert np.allclose(lam.apply(np.eye(3)), -2.0 * g, atol=1e-12)


def test_assemble_amplitude_damping_action():
    gamma = 0.4
    lam = assemble_generator(amplitude_damping(gamma))
    out = lam.apply(np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, gamma * np.diag([1.0, -1.0]))


def test_presentation_validation():
    with pytest.raises(NotCPError):
        GkslPresentation(psi=transpose_map(2), g=np.zeros((2, 2)), h=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GkslPresentation(psi=0.0 * identity_superop(2),
                         g=np.array([[0, 1], [0, 0]], dtype=complex),
                         h=np.zeros((2, 2)))
    with pytest.raises(NotMinimalError):
        # Psi = identity superop has Choi that does not annihilate Id
        GkslPresentation(psi=identity_superop(2), g=np.zeros((2, 2)),
                         h=np.zeros((2, 2)), minimal=True)
    with pytest.raises(NotMinimalError):
        GkslPresentation(psi=0.0 * identity_superop(2), g=np.zeros((2, 2)),
                         h=np.eye(2), minimal=True)


# ------------------------------------------------------------- dCP decision

def test_is_dcp_commutator():
    lam = commutator_generator(random_hermitian(3, seed=3))
    assert is_dcp(lam).is_dcp


def test_is_dcp_transpose_minus_identity():
    lam = transpose_map(2) - identity_superop(2)
    verdict = is_dcp(lam)
    assert not verdict.is_dcp
    assert verdict.is_dag_morphism_generator
    assert verdict.compressed_choi_min_eig == pytest.approx(-1.0)


def test_is_dcp_amplitude_damping_with_exp_oracle():
    lam = assemble_generator(amplitude_damping())
    assert is_dcp(lam).is_dcp
    for t in (0.01, 0.1, 1.0):
        assert is_cp(exp_generator(lam, t)).ok


def test_is_dcp_rejects_non_dag_morphism():
    rng = np.random.default_rng(4)
    lam = SuperOperator(random_ginibre(4, 4, rng))
    verdict = is_dcp(lam)
    assert not verdict.is_dag_morphism_generator
    assert not verdict.is_dcp


def test_dcp_cone():
    rng = np.random.default_rng(5)
    l1 = random_dcp_generator(2, seed=6, trace=None)
    l2 = random_dcp_generator(2, seed=7, trace=None)
    for _ in range(5):
        a, b = rng.uniform(0, 3, size=2)
        assert is_dcp(a * l1 + b * l2).is_dcp


AGREEMENT_CASES = [
    pytest.param(lambda s=s, noise=noise: shifted_noisy_generator(s, noise), True,
                 id=f"shift={s:g}-noise={noise:g}") for s, noise in CASES
] + [
    pytest.param(lambda: transpose_map(2) - identity_superop(2), False,
                 id="transpose-minus-identity-2"),
    pytest.param(lambda: transpose_map(3) - identity_superop(3), False,
                 id="transpose-minus-identity-3"),
    pytest.param(lambda: SuperOperator(random_ginibre(9, 9, seed=4)), False,
                 id="non-hermitian-choi"),
]


@pytest.mark.parametrize("build, dcp", AGREEMENT_CASES)
def test_entry_points_agree(build, dcp, tmp_path, capsys):
    lam = build()
    assert is_dcp(lam).is_dcp == dcp
    assert is_cp_group_generator(lam)["forward_dcp"] == dcp
    path = tmp_path / "gen.json"
    dump_json(superop_to_payload(lam, "matrix"), str(path))
    code = main(["check-generator", str(path)])
    assert json.loads(capsys.readouterr().out)["claims"]["is_dcp"]["value"] == dcp
    assert code == (0 if dcp else 1)
    if not dcp:
        with pytest.raises((NotDcpError, NonHermitianChoiError)):
            minimal_presentation(lam)
        return
    back = assemble_generator(minimal_presentation(lam))
    assert np.linalg.norm(back.matrix - lam.matrix) <= 1e-10 * np.linalg.norm(lam.matrix)


@pytest.mark.parametrize("entry", [is_cp, is_dcp, minimal_presentation, kraus_extract,
                                   intermediate_form], ids=lambda f: f.__name__)
def test_one_eigensolve_per_decision(entry, monkeypatch):
    d = 4
    generator = entry in (is_dcp, minimal_presentation)
    lam = random_dcp_generator(d, seed=2) if generator else random_cp_map(d, seed=2)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
            if np.shape(a)[-2:] == (d * d, d * d):
                calls.append(_real.__name__)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    entry(lam)
    assert len(calls) == 1, calls


def test_exp_consistency_non_dcp_falsified():
    lam = transpose_map(2) - identity_superop(2)
    assert not is_dcp(lam).is_dcp
    # the exponential leaves the CP cone at some time
    assert not all(is_cp(exp_generator(lam, t)).ok for t in (0.01, 0.1, 1.0, 10.0))


# ----------------------------------------------------- minimal presentation

def test_minimal_presentation_commutator_collapse():
    h0 = random_hermitian(3, seed=8, traceless=True)
    lam = commutator_generator(h0)
    p = minimal_presentation(lam)
    assert np.linalg.norm(p.psi.matrix) < 1e-12
    assert np.linalg.norm(p.g) < 1e-12
    assert np.allclose(p.h, h0, atol=1e-12)


def test_minimal_presentation_strips_nonminimal_parts():
    # assemble with a Kraus family containing an identity component, then
    # extract: the minimal triple reproduces the generator exactly
    gamma = 0.5
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = np.sqrt(gamma)
    psi = kraus_assemble([a + 0.7 * np.eye(2)])
    g = 0.5 * psi.dagger().apply(np.eye(2))
    g = 0.5 * (g + dag(g))
    p_raw = GkslPresentation(psi=psi, g=g, h=np.zeros((2, 2)))
    lam = assemble_generator(p_raw)
    p_min = minimal_presentation(lam)
    leak = np.linalg.norm(p_min.psi.choi.matrix @ dyad_vec(np.eye(2)))
    assert leak < 1e-10
    assert abs(np.trace(p_min.h)) < 1e-12
    back = assemble_generator(p_min)
    assert np.linalg.norm(back.matrix - lam.matrix) <= 1e-10 * np.linalg.norm(lam.matrix)


@pytest.mark.parametrize("d", [2, 3])
def test_minimal_presentation_roundtrip_random(d):
    for seed in range(5):
        p = random_minimal_presentation(d, seed=seed, trace=None)
        lam = assemble_generator(p)
        p2 = minimal_presentation(lam)
        back = assemble_generator(p2)
        rel = np.linalg.norm(back.matrix - lam.matrix) / np.linalg.norm(lam.matrix)
        assert rel <= 1e-10
        assert np.allclose(p2.g, p.g, atol=1e-10)
        assert np.allclose(p2.h, p.h, atol=1e-10)
        assert np.linalg.norm(p2.psi.matrix - p.psi.matrix) <= 1e-10


def test_minimal_presentation_rejects_non_dcp():
    with pytest.raises(NotDcpError):
        minimal_presentation(transpose_map(2) - identity_superop(2))


def test_minimal_presentation_rejects_non_hermitian_choi():
    rng = np.random.default_rng(9)
    with pytest.raises(NonHermitianChoiError):
        minimal_presentation(SuperOperator(random_ginibre(4, 4, rng)))


# ------------------------------------------------------------ trace condition

def test_trace_condition_amplitude_damping():
    p = amplitude_damping(0.4)
    cond = trace_condition(p)
    assert cond.classification == "preserving"
    assert np.allclose(p.psi.dagger().apply(np.eye(2)), 2.0 * p.g)


def test_trace_condition_commutator():
    p = GkslPresentation(psi=0.0 * identity_superop(2), g=np.zeros((2, 2)),
                         h=SIGMA_Z, minimal=True)
    cond = trace_condition(p)
    assert cond.classification == "preserving"
    assert np.linalg.norm(cond.defect) < 1e-12


def test_trace_condition_shifted_g():
    base = amplitude_damping(0.4)
    shifted = GkslPresentation(psi=base.psi, g=base.g + np.eye(2), h=base.h,
                               minimal=True)
    cond = trace_condition(shifted)
    assert cond.classification == "nonincreasing"
    assert np.allclose(cond.defect, -2.0 * np.eye(2))


def test_trace_condition_neither():
    base = amplitude_damping(0.4)
    p = GkslPresentation(psi=base.psi, g=base.g - np.diag([1.0, 0.0]), h=base.h,
                         minimal=True)
    assert trace_condition(p).classification == "neither"


def test_trace_preservation_transport():
    for seed in range(5):
        p = random_minimal_presentation(2, seed=seed, trace="preserving")
        lam = assemble_generator(p)
        rho = random_density_matrix(2, seed=100 + seed)
        for t in (0.1, 0.5, 1.0):
            out = exp_generator(lam, t).apply(rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-9


# ------------------------------------------------------------ Haar averages

def test_haar_average_identity():
    assert np.allclose(haar_conjugation_average(np.eye(3)), np.eye(3))


def test_haar_average_traceless():
    a = random_hermitian(3, seed=10, traceless=True)
    assert np.allclose(haar_conjugation_average(a), 0, atol=1e-14)


def test_haar_average_monte_carlo():
    from gksl_kit.operators import random_haar_unitary
    rng = np.random.default_rng(11)
    a = random_ginibre(2, 2, rng)
    n = 10_000
    acc = np.empty((n, 2, 2), dtype=complex)
    for i in range(n):
        u = random_haar_unitary(2, rng)
        acc[i] = u @ a @ dag(u)
    mean = acc.mean(axis=0)
    stderr = np.sqrt((np.var(acc.real, axis=0) + np.var(acc.imag, axis=0)) / n)
    z = np.abs(mean - haar_conjugation_average(a)) / np.maximum(stderr, 1e-15)
    assert z.max() < 3.0


def test_lindblad_trick_commutator():
    h0 = random_hermitian(2, seed=12, traceless=True)
    p = GkslPresentation(psi=0.0 * identity_superop(2), g=np.zeros((2, 2)), h=h0,
                         minimal=True)
    assert np.allclose(lindblad_trick_average(p), -1j * h0, atol=1e-12)


def test_lindblad_trick_amplitude_damping():
    p = amplitude_damping(0.6)
    avg = lindblad_trick_average(p)
    expected = -p.g - (np.trace(p.g).real / 2) * np.eye(2) - 1j * p.h
    assert np.linalg.norm(avg - expected) <= 1e-10


def test_lindblad_trick_requires_minimal():
    p = GkslPresentation(psi=identity_superop(2), g=np.eye(2), h=np.zeros((2, 2)))
    with pytest.raises(NotMinimalError):
        lindblad_trick_average(p)


def test_lindblad_trick_closed_form_sweep():
    for seed in range(10):
        p = random_minimal_presentation(2, seed=seed, trace="nonincreasing")
        avg = lindblad_trick_average(p)
        expected = -p.g - (np.trace(p.g).real / 2) * np.eye(2) - 1j * p.h
        assert np.linalg.norm(avg - expected) <= 1e-10


def test_lindblad_trick_monte_carlo():
    p = random_minimal_presentation(2, seed=21, trace="nonincreasing")
    lam = assemble_generator(p)
    mean, stderr = monte_carlo_generator_average(lam, 5000, seed=22)
    z = np.abs(mean - lindblad_trick_average(p)) / np.maximum(stderr, 1e-15)
    assert z.max() < 3.5


# ---------------------------------------------------------------- norm bounds

def test_norm_bounds_commutator_sigma_z():
    p = GkslPresentation(psi=0.0 * identity_superop(2), g=np.zeros((2, 2)),
                         h=SIGMA_Z, minimal=True)
    lam = assemble_generator(p)
    est = induced_trace_norm_estimate(lam, seed=23)
    assert est == pytest.approx(2.0, rel=1e-6)
    report = norm_bounds_check(lam, p, seed=24)
    assert report["h_norm"] == pytest.approx(1.0)
    assert report["g_bound_ok"] and report["h_bound_ok"] and report["psi_bound_ok"]


def test_norm_bounds_g_only():
    g = np.diag([0.5, 0.25]).astype(complex)
    p = GkslPresentation(psi=0.0 * identity_superop(2), g=g, h=np.zeros((2, 2)),
                         minimal=True)
    lam = assemble_generator(p)
    report = norm_bounds_check(lam, p, seed=25)
    assert report["g_bound_ok"]
    assert operator_norm(g) <= report["generator_norm_estimate"] * 1.05


def test_norm_bounds_zero_generator():
    p = GkslPresentation(psi=0.0 * identity_superop(2), g=np.zeros((2, 2)),
                         h=np.zeros((2, 2)), minimal=True)
    lam = assemble_generator(p)
    report = norm_bounds_check(lam, p, seed=26)
    assert report["generator_norm_estimate"] == pytest.approx(0.0, abs=1e-12)
    assert report["g_bound_ok"] and report["h_bound_ok"] and report["psi_bound_ok"]


def test_norm_bounds_random_sweep():
    for seed in range(5):
        p = random_minimal_presentation(2, seed=seed, trace="nonincreasing")
        lam = assemble_generator(p)
        report = norm_bounds_check(lam, p, seed=seed)
        assert report["g_bound_ok"] and report["h_bound_ok"] and report["psi_bound_ok"]


# ------------------------------------------------------------- group question

def test_group_generator_commutator():
    h = random_hermitian(2, seed=27, traceless=True)
    report = is_cp_group_generator(commutator_generator(h))
    assert report["is_group"]
    assert report["psi_vanishes"] and report["g_vanishes"]
    assert report["trace_nonincreasing_both"]


def test_group_generator_amplitude_damping():
    lam = assemble_generator(amplitude_damping())
    report = is_cp_group_generator(lam)
    assert not report["is_group"]
    assert report["forward_dcp"] and not report["backward_dcp"]


def test_group_generator_zero():
    report = is_cp_group_generator(0.0 * identity_superop(2))
    assert report["is_group"]
