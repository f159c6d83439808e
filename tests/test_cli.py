"""Tests for the command-line front door: exit codes, files, replayability."""
import json

import numpy as np
import pytest

from gksl_kit.cli import main
from gksl_kit import serialize
from gksl_kit.cp_maps import random_cp_map
from gksl_kit.generators import random_dcp_generator
from gksl_kit.serialize import superop_to_payload, dump_json
from gksl_kit.superops import transpose_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_cp_transpose_exit_1(capsys):
    code, report = run(capsys, "check-cp", "builtin:transpose")
    assert code == 1
    assert not report["claims"]["is_cp"]["value"]
    assert report["claims"]["is_cp"]["choi_min_eigenvalue"] == pytest.approx(-1.0)
    assert report["claims"]["monotone"]["value"]
    assert report["claims"]["monotone"]["evidence"] == "falsifier"


def test_check_cp_identity_exit_0(capsys):
    code, report = run(capsys, "check-cp", "builtin:identity")
    assert code == 0
    assert report["claims"]["is_cp"]["value"]
    assert report["claims"]["monotone"] == {"value": True, "evidence": "exact"}


def test_check_cp_kraus_repr_notes_cp(tmp_path, capsys):
    from gksl_kit.cp_maps import kraus_extract
    lam = random_cp_map(2, seed=0)
    path = tmp_path / "map.json"
    dump_json(serialize.kraus_to_payload(kraus_extract(lam)), str(path))
    code, report = run(capsys, "check-cp", str(path))
    assert code == 0
    assert report["claims"]["is_cp"]["cp_by_repr"]


def test_every_claim_carries_evidence(capsys):
    _, report = run(capsys, "check-cp", "builtin:depolarizing?p=0.7")
    for claim in report["claims"].values():
        assert claim["evidence"] in ("exact", "falsifier", "monte-carlo")


def test_kraus_command(tmp_path, capsys):
    out = tmp_path / "kraus.json"
    code, report = run(capsys, "kraus", "builtin:dephasing", "--out", str(out))
    assert code == 0
    assert report["kraus_count"] == 2
    assert report["reconstruction_residual"] <= 1e-10
    payload = json.loads(out.read_text())
    assert payload["repr"] == "kraus"
    lam = serialize.superop_from_payload(payload)
    from gksl_kit.builtin_maps import dephasing_map
    assert np.linalg.norm(lam.matrix - dephasing_map(2).matrix) < 1e-10


def test_kraus_rejects_transpose(capsys):
    code, report = run(capsys, "kraus", "builtin:transpose")
    assert code == 1
    assert not report["claims"]["is_cp"]["value"]


def test_check_generator_amplitude_damping(tmp_path, capsys):
    emit = tmp_path / "minimal.json"
    code, report = run(capsys, "check-generator", "builtin:amplitude-damping?gamma=0.3",
                       "--emit", str(emit))
    assert code == 0
    assert report["claims"]["is_dcp"]["value"]
    assert report["claims"]["trace_condition"]["value"] == "preserving"
    assert not report["claims"]["is_cp_group_generator"]["value"]
    p = serialize.presentation_from_payload(json.loads(emit.read_text()))
    from gksl_kit.generators import assemble_generator
    from gksl_kit.builtin_maps import amplitude_damping_generator
    back = assemble_generator(p)
    assert np.linalg.norm(back.matrix - amplitude_damping_generator(0.3).matrix) < 1e-10


def test_check_generator_transpose_minus_identity(capsys):
    code, report = run(capsys, "check-generator", "builtin:transpose-minus-identity")
    assert code == 1
    assert not report["claims"]["is_dcp"]["value"]
    assert report["claims"]["is_dcp"]["compressed_choi_min_eigenvalue"] == pytest.approx(-1.0)


def test_check_generator_commutator_group(capsys):
    code, report = run(capsys, "check-generator", "builtin:commutator")
    assert code == 0
    assert report["claims"]["is_cp_group_generator"]["value"]


def test_minimal_form_alias(tmp_path, capsys):
    emit = tmp_path / "m.json"
    code, _ = run(capsys, "minimal-form", "builtin:amplitude-damping?gamma=0.5",
                  "--emit", str(emit))
    assert code == 0
    assert emit.exists()


def test_evolve_constant_equals_semigroup(tmp_path, capsys):
    out = tmp_path / "traj.json"
    code, report = run(capsys, "evolve", "builtin:amplitude-damping?gamma=0.4",
                       "--t1", "1.0", "--eps", "0.25", "--rho", "builtin:ground-state?d=2",
                       "--out", str(out))
    assert code == 0
    assert report["trace_drift_max"] <= 1e-8
    traj = json.loads(out.read_text())
    assert traj["times"][0] == 0.0 and traj["times"][-1] == 1.0


def test_evolve_halving_table(capsys):
    code, report = run(capsys, "evolve", "builtin:driven-qubit",
                       "--t1", "1.0", "--eps", "0.1", "--halving", "4",
                       "--certify-factors")
    assert code == 0
    for ratio in report["halving_ratios"]:
        assert 1.6 <= ratio <= 2.4
    assert report["claims"]["factors_cp"]["value"]


def test_evolve_schedule_file(tmp_path, capsys):
    gens = [random_dcp_generator(2, seed=s) for s in (1, 2)]
    path = tmp_path / "sched.json"
    dump_json(serialize.schedule_to_payload([0.0, 0.5], gens), str(path))
    code, report = run(capsys, "evolve", str(path), "--t1", "1.0", "--eps", "0.25",
                       "--rho", "builtin:ground-state?d=2")
    assert code == 0
    assert report["trace_drift_max"] <= 1e-8


def test_evolve_dimension_mismatch(tmp_path, capsys):
    code, _ = run(capsys, "evolve", "builtin:amplitude-damping?gamma=0.4",
                  "--t1", "1.0", "--eps", "0.5", "--rho", "builtin:ground-state?d=3")
    assert code == 2


def test_truncate_study_command(tmp_path, capsys):
    out = tmp_path / "table.json"
    code, report = run(capsys, "truncate-study", "builtin:random-dcp?d=8&seed=3",
                       "--dims", "2,4,8", "--t", "0.5", "--out", str(out))
    assert code == 0
    rows = report["rows"]
    assert rows[-1]["error"] <= 1e-10
    assert all(r["propagator_cp"] for r in rows)
    table = json.loads(out.read_text())
    assert [r["n"] for r in table["rows"]] == [2, 4, 8]


def test_truncate_study_supported_block(capsys):
    code, report = run(capsys, "truncate-study", "builtin:random-dcp?d=8&seed=3&support=4",
                       "--dims", "4,6,8", "--t", "0.5",
                       "--rho", "builtin:ground-state?d=8")
    assert code == 0
    for row in report["rows"]:
        assert row["error"] <= 1e-10


def test_truncate_study_bad_dims(capsys):
    code, _ = run(capsys, "truncate-study", "builtin:random-dcp?d=4&seed=1",
                  "--dims", "4,2", "--t", "0.5")
    assert code == 2


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "check-cp", str(bad))
    assert code == 2
    code, _ = run(capsys, "check-cp", str(tmp_path / "missing.json"))
    assert code == 2


def test_dimension_error_exit_2(tmp_path, capsys):
    payload = superop_to_payload(transpose_map(2), "matrix")
    payload["dim_in"] = 3
    bad = tmp_path / "bad_dims.json"
    bad.write_text(json.dumps(payload))
    code, _ = run(capsys, "check-cp", str(bad))
    assert code == 2


def assert_input_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_zero_dimension_builtin_exit_2(capsys):
    assert_input_error(capsys, "check-generator", "builtin:random-dcp?d=0")


def test_non_object_payload_exit_2(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert_input_error(capsys, "check-cp", str(bad))


def test_missing_dim_field_exit_2(tmp_path, capsys):
    payload = superop_to_payload(transpose_map(2), "matrix")
    del payload["dim_in"]
    bad = tmp_path / "no_dim.json"
    bad.write_text(json.dumps(payload))
    assert_input_error(capsys, "check-cp", str(bad))


def test_reports_replayable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main(["check-cp", "builtin:transpose", "--seed", "7",
                     "--json-out", str(target)])
        capsys.readouterr()
        assert code == 1
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GKSL_KIT_SEED", "123")
    _, report = run(capsys, "check-cp", "builtin:identity")
    assert report["seed"] == 123
