"""The four workloads: set-up (inputs from the seed) and the fixed op list.

Each workload function generates its inputs from the workload seed, writes the
files the program will read into the run's work directory, and returns the
operations of one pass plus the warm-up operation. The program only ever sees the
generated inputs: ``builtin:`` specs with derived seeds, or those files.
``tiny`` shrinks every dimension to d <= 4 for the self-tests.

Why these four (see also BENCHMARK.json):

* decide-lib: the decision core (eigensolvers, traceless compression, Choi
  construction, expm) with no JSON at all, at d = 16, 24 and 32.
* decide-cli: what a command-line user waits for at d = 32; canonical JSON
  reads (digest plus load) sit beside writes (--emit, --out).
* evolve: propagation, where the constant generator repeats the same
  (L, dt) hundreds of times and the schedule repeats nothing.
* sweep-cli: small inputs in fresh processes, where interpreter start-up and
  imports are nearly all of what a shell user feels.
"""
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ops import Op, cli_op, rel_error, run_in_process, ROUND_TRIP_TOL


@dataclass
class Context:
    seed: int
    workdir: Path
    tiny: bool
    fresh: Callable        # runs one command in a fresh interpreter


@dataclass
class Workload:
    ops: list
    warmup: Op
    # Passes a run makes at least; a second pass repeats every operation, so
    # its report bytes are compared and each medians two samples.
    min_passes: int = 2


def derived_seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=n)]


def _expect(ok, what):
    return [] if ok else [what]


def _decide_lib_ops(d, lam, gen, pres, tmi):
    import gksl_kit as gk

    def kraus_round_trip():
        family = gk.kraus_extract(lam)
        return family, gk.kraus_assemble(family)

    def exp_then_is_cp():
        return gk.is_cp(gk.exp_generator(gen, 0.5))

    def same_presentation(p):
        return (rel_error(p.psi.matrix, pres.psi.matrix) <= ROUND_TRIP_TOL
                and rel_error(p.g, pres.g) <= ROUND_TRIP_TOL
                and rel_error(p.h, pres.h) <= ROUND_TRIP_TOL)

    return [
        Op(f"is_cp@{d}", lambda: gk.is_cp(lam),
           lambda r: _expect(r.ok, "random CP map decided not CP")),
        Op(f"kraus_extract@{d}", kraus_round_trip,
           lambda r: _expect(len(r[0]) == 3, f"{len(r[0])} Kraus operators, expected 3")
           + _expect(rel_error(r[1].matrix, lam.matrix) <= ROUND_TRIP_TOL,
                     "Kraus round trip misses the map")),
        Op(f"intermediate_form@{d}", lambda: gk.intermediate_form(lam),
           lambda r: _expect(rel_error(gk.reconstruct_choi(r).matrix, lam.choi.matrix)
                             <= ROUND_TRIP_TOL, "intermediate form misses the Choi matrix")),
        Op(f"is_dcp@{d}", lambda: gk.is_dcp(gen),
           lambda r: _expect(r.is_dcp, "random dCP generator decided not dCP")),
        Op(f"minimal_presentation@{d}", lambda: gk.minimal_presentation(gen),
           lambda r: _expect(same_presentation(r), "minimal presentation changed on repeat")),
        Op(f"trace_condition@{d}", lambda: gk.trace_condition(pres),
           lambda r: _expect(r.classification == "preserving",
                             f"trace condition {r.classification!r}, expected 'preserving'")),
        Op(f"is_cp_group_generator@{d}", lambda: gk.is_cp_group_generator(gen),
           lambda r: _expect(r["forward_dcp"] and not r["is_group"],
                             "dissipative generator decided a group generator")),
        Op(f"assemble_generator@{d}", lambda: gk.assemble_generator(pres),
           lambda r: _expect(rel_error(r.matrix, gen.matrix) <= ROUND_TRIP_TOL,
                             "minimal triple does not reassemble the generator")),
        Op(f"exp_generator+is_cp@{d}", exp_then_is_cp,
           lambda r: _expect(r.ok, "exp(tL) of a dCP generator decided not CP")),
        Op(f"is_dcp(transpose-identity)@{d}", lambda: gk.is_dcp(tmi),
           lambda r: _expect(not r.is_dcp, "transpose - identity decided dCP")),
    ]


def decide_lib(ctx: Context) -> Workload:
    import gksl_kit as gk
    dims = (2, 3, 4) if ctx.tiny else (16, 24, 32)
    seeds = derived_seeds(ctx.seed, 2 * len(dims))
    ops = []
    for i, d in enumerate(dims):
        lam = gk.random_cp_map(d, kraus_count=3, seed=seeds[2 * i])
        gen = gk.random_dcp_generator(d, seed=seeds[2 * i + 1])
        pres = gk.minimal_presentation(gen)
        tmi = gk.transpose_map(d) - gk.identity_superop(d)
        ops += _decide_lib_ops(d, lam, gen, pres, tmi)
    return Workload(ops=ops, warmup=ops[0])


def decide_cli(ctx: Context) -> Workload:
    import gksl_kit as gk
    from gksl_kit import serialize
    d, small = (4, 2) if ctx.tiny else (32, 16)
    seeds = derived_seeds(ctx.seed, 4)
    cp_file = ctx.workdir / f"cp-d{d}-choi.json"
    gen_file = ctx.workdir / f"generator-d{d}-gksl.json"
    kraus_out = ctx.workdir / f"kraus-d{d}.json"
    minimal_out = ctx.workdir / f"minimal-d{d}.json"
    serialize.dump_json(serialize.superop_to_payload(
        gk.random_cp_map(d, kraus_count=3, seed=seeds[0]), "choi"), str(cp_file))
    serialize.dump_json(serialize.gksl_to_payload(
        gk.random_minimal_presentation(d, seed=seeds[1])), str(gen_file))
    seed = ["--seed", seeds[3]]
    run = run_in_process
    holds = {"claims.is_dcp.value": True, "claims.trace_condition.value": "preserving"}
    ops = [
        cli_op("check_cp_s", run, ["check-cp", cp_file, *seed], 0,
               {"claims.is_cp.value": True}),
        cli_op("check_generator_s", run, ["check-generator", gen_file, *seed], 0, holds),
        cli_op("kraus_s", run, ["kraus", f"builtin:dephasing?d={d}", "--out", kraus_out, *seed],
               0, {"claims.is_cp.value": True, "kraus_count": d},
               {"reconstruction_residual": 1e-10}, [kraus_out]),
        cli_op("minimal_form_s", run,
               ["minimal-form", f"builtin:random-dcp?d={d}&seed={seeds[2]}",
                "--emit", minimal_out, *seed], 0, holds, outputs=[minimal_out]),
        cli_op("transpose_check_cp_s", run,
               ["check-cp", f"builtin:transpose?d={small}", *seed], 1,
               {"claims.is_cp.value": False}),
        cli_op("transpose_check_generator_s", run,
               ["check-generator", f"builtin:transpose-minus-identity?d={small}", *seed], 1,
               {"claims.is_dcp.value": False}),
    ]
    return Workload(ops=ops, warmup=ops[4])


EVOLVE_EPS = 0.05
SCHEDULE_STEPS = 40


def evolve(ctx: Context) -> Workload:
    import gksl_kit as gk
    from gksl_kit import serialize
    d, d_trunc, dims = (2, 4, "1,2,4") if ctx.tiny else (8, 24, "3,6,12,24")
    seeds = derived_seeds(ctx.seed, 4)
    schedule_file = ctx.workdir / f"schedule-d{d}.json"
    gens = [gk.random_dcp_generator(d, seed=seeds[0] + k) for k in range(SCHEDULE_STEPS)]
    times = [k * EVOLVE_EPS for k in range(SCHEDULE_STEPS)]
    serialize.dump_json(serialize.schedule_to_payload(times, gens), str(schedule_file))
    seed = ["--seed", seeds[3]]
    run = run_in_process
    drift = {"trace_drift_max": 1e-9}
    ops = [
        cli_op("evolve_const_s", run,
               ["evolve", f"builtin:random-dcp?d={d}&seed={seeds[1]}", "--t1", 1.0,
                "--eps", EVOLVE_EPS, "--halving", 3, *seed], 0, bounds=drift),
        cli_op("evolve_sched_s", run,
               ["evolve", schedule_file, "--t1", SCHEDULE_STEPS * EVOLVE_EPS,
                "--eps", EVOLVE_EPS, "--certify-factors", *seed], 0,
               {"claims.factors_cp.value": True}, drift),
        cli_op("truncate_study_s", run,
               ["truncate-study", f"builtin:random-dcp?d={d_trunc}&seed={seeds[2]}",
                "--dims", dims, *seed], 0, {"claims.truncated_propagators_cp.value": True}),
    ]
    warmup = cli_op("warmup", run, ["evolve", "builtin:amplitude-damping", "--t1", 0.2,
                                    "--eps", 0.1, *seed], 0, bounds=drift)
    # Contention between the two OpenBLAS pools makes single evolve ops vary
    # by about 10%, so the medians need a third sample.
    return Workload(ops=ops, warmup=warmup, min_passes=3)


def sweep_cli(ctx: Context) -> Workload:
    """Every subcommand at d in {2, 4}, each in a fresh interpreter."""
    import gksl_kit as gk
    from gksl_kit import serialize
    w = ctx.workdir
    s = derived_seeds(ctx.seed, 12)
    files = {
        "cp2": (w / "cp-d2-choi.json", serialize.superop_to_payload(
            gk.random_cp_map(2, kraus_count=2, seed=s[0]), "choi")),
        "cp4": (w / "cp-d4-kraus.json", serialize.kraus_to_payload(
            gk.kraus_extract(gk.random_cp_map(4, kraus_count=3, seed=s[1])))),
        "gen2": (w / "generator-d2-gksl.json", serialize.gksl_to_payload(
            gk.random_minimal_presentation(2, seed=s[2]))),
        "gen4": (w / "generator-d4-gksl.json", serialize.gksl_to_payload(
            gk.random_minimal_presentation(4, seed=s[3]))),
        "sched2": (w / "schedule-d2.json", serialize.schedule_to_payload(
            [0.05 * k for k in range(10)],
            [gk.random_dcp_generator(2, seed=s[4] + k) for k in range(10)])),
    }
    for path, payload in files.values():
        serialize.dump_json(payload, str(path))
    f = {k: path for k, (path, _) in files.items()}
    out = {k: w / f"sweep-{k}.json" for k in ("kraus", "amp", "rdcp4", "rdcp2", "gen2",
                                               "traj", "trunc")}
    seed = ["--seed", s[11]]

    def rdcp(d, i):
        return f"builtin:random-dcp?d={d}&seed={s[i]}"

    def is_cp(value):
        return {"claims.is_cp.value": value}

    def is_dcp(value):
        return {"claims.is_dcp.value": value}

    def kraus_count(n):
        return {"claims.is_cp.value": True, "kraus_count": n}

    support = f"builtin:random-dcp?d=4&support=2&seed={s[7]}"
    residual = {"reconstruction_residual": 1e-10}
    preserving = {"claims.is_dcp.value": True, "claims.trace_condition.value": "preserving"}
    group = {**preserving, "claims.is_cp_group_generator.value": True}
    drift = {"trace_drift_max": 1e-9}
    trunc_cp = {"claims.truncated_propagators_cp.value": True}
    # (argv, exit code, claims, bounds, outputs)
    table = [
        (["check-cp", "builtin:transpose?d=2"], 1, is_cp(False), None, ()),
        (["check-cp", "builtin:transpose?d=4"], 1, is_cp(False), None, ()),
        (["check-cp", "builtin:identity?d=2"], 0, is_cp(True), None, ()),
        (["check-cp", "builtin:identity?d=4"], 0, is_cp(True), None, ()),
        (["check-cp", "builtin:depolarizing?p=1&d=2"], 0, is_cp(True), None, ()),
        (["check-cp", "builtin:depolarizing?p=0.5&d=4"], 0, is_cp(True), None, ()),
        (["check-cp", "builtin:dephasing?d=4"], 0, is_cp(True), None, ()),
        (["check-cp", f["cp2"]], 0, is_cp(True), None, ()),
        (["check-cp", f["cp4"]], 0, is_cp(True), None, ()),
        (["check-cp", "builtin:amplitude-damping?gamma=0.3"], 1, is_cp(False), None, ()),
        (["kraus", "builtin:dephasing?d=2"], 0, kraus_count(2), residual, ()),
        (["kraus", "builtin:dephasing?d=4"], 0, kraus_count(4), residual, ()),
        (["kraus", "builtin:depolarizing?p=0.3&d=2"], 0, kraus_count(4), residual, ()),
        (["kraus", "builtin:identity?d=4"], 0, kraus_count(1), residual, ()),
        (["kraus", "builtin:transpose?d=2"], 1, is_cp(False), None, ()),
        (["kraus", "builtin:transpose?d=4"], 1, is_cp(False), None, ()),
        (["kraus", f["cp4"], "--out", out["kraus"]], 0, kraus_count(3), residual,
         (out["kraus"],)),
        (["check-generator", "builtin:amplitude-damping?gamma=0.3"], 0, preserving, None, ()),
        (["check-generator", "builtin:commutator?d=2"], 0, group, None, ()),
        (["check-generator", "builtin:commutator?d=4"], 0, group, None, ()),
        (["check-generator", "builtin:transpose-minus-identity?d=2"], 1, is_dcp(False), None, ()),
        (["check-generator", "builtin:transpose-minus-identity?d=4"], 1, is_dcp(False), None, ()),
        (["check-generator", "builtin:identity?d=2"], 0, is_dcp(True), None, ()),
        (["check-generator", rdcp(2, 5)], 0, preserving, None, ()),
        (["check-generator", rdcp(4, 6)], 0, preserving, None, ()),
        (["check-generator", support], 0, preserving, None, ()),
        (["check-generator", f["gen4"]], 0, preserving, None, ()),
        (["minimal-form", "builtin:amplitude-damping", "--emit", out["amp"]], 0, preserving,
         None, (out["amp"],)),
        (["minimal-form", rdcp(4, 8), "--emit", out["rdcp4"]], 0, preserving, None,
         (out["rdcp4"],)),
        (["minimal-form", rdcp(2, 9), "--emit", out["rdcp2"]], 0, preserving, None,
         (out["rdcp2"],)),
        (["minimal-form", f["gen2"], "--emit", out["gen2"]], 0, preserving, None,
         (out["gen2"],)),
        (["evolve", "builtin:driven-qubit", "--t1", 1.0, "--eps", 0.1], 0, None, drift, ()),
        (["evolve", "builtin:driven-qubit?omega=2&amp=0.5&gamma=0.2", "--t1", 1.0,
          "--eps", 0.1, "--rho", "builtin:ground-state?d=2", "--halving", 2], 0, None, drift, ()),
        (["evolve", "builtin:amplitude-damping", "--t1", 1.0, "--eps", 0.1,
          "--certify-factors"], 0, {"claims.factors_cp.value": True}, drift, ()),
        (["evolve", rdcp(4, 10), "--t1", 1.0, "--eps", 0.1, "--out", out["traj"]], 0, None,
         drift, (out["traj"],)),
        (["evolve", f["sched2"], "--t1", 0.5, "--eps", 0.05], 0, None, drift, ()),
        (["evolve", rdcp(2, 5), "--t1", 1.0, "--eps", 0.1, "--halving", 2], 0, None, drift, ()),
        (["evolve", "builtin:commutator?d=2", "--t1", 1.0, "--eps", 0.1], 0, None, drift, ()),
        (["truncate-study", rdcp(4, 6), "--dims", "1,2,4"], 0, trunc_cp, None, ()),
        (["truncate-study", rdcp(4, 8), "--dims", "2,4", "--out", out["trunc"]], 0, trunc_cp,
         None, (out["trunc"],)),
        (["truncate-study", support, "--dims", "2,4"], 0, trunc_cp, None, ()),
        (["truncate-study", "builtin:amplitude-damping", "--dims", "1,2"], 0, trunc_cp, None, ()),
        (["truncate-study", rdcp(2, 9), "--dims", "1,2"], 0, trunc_cp, None, ()),
    ]
    ops = [cli_op(f"sweep.{argv[0]}", ctx.fresh, argv + seed, code, claims, bounds, outputs)
           for argv, code, claims, bounds, outputs in table]
    return Workload(ops=ops, warmup=ops[2])


WORKLOADS = {
    "decide-lib": decide_lib,
    "decide-cli": decide_cli,
    "evolve": evolve,
    "sweep-cli": sweep_cli,
}
