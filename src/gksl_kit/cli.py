"""Batch front door: subcommands wrapping the decision procedures.

Exit codes: 0 = property holds, 1 = property decided false, 2 = input error.
Reports are JSON, deterministic for a fixed seed and input, so reruns are
byte-identical. Inputs are file paths or ``builtin:name?params`` specs; the
seed defaults to the GKSL_KIT_SEED environment variable, then 0.
"""
import argparse
import hashlib
import os
import sys

import numpy as np

from . import serialize
from .builtin_maps import resolve_builtin
from .errors import NotCPError, NotDcpError
from .operators import Tolerance
from .superops import SuperOperator, is_cp, is_dag_morphism, monotone_falsifier
from .cp_maps import kraus_extract, kraus_assemble
from .generators import (
    is_dcp,
    is_cp_group_generator,
    minimal_presentation,
    trace_condition,
)
from .evolution import constant_schedule, propagate
from .filtration import Filtration, truncation_study
from .serialize import ParseError


def _seed_default() -> int:
    return int(os.environ.get("GKSL_KIT_SEED", "0"))


def _digest(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(serialize.canonical_bytes(payload)).hexdigest()


def _load_superop(spec: str) -> tuple[SuperOperator, str, dict]:
    """Resolve a file path or builtin into (superop, kind, digest payload)."""
    if spec.startswith("builtin:"):
        kind, obj = resolve_builtin(spec)
        if kind not in ("map", "generator"):
            raise ParseError(f"builtin {spec!r} is a {kind}, not a map/generator")
        return obj, "matrix", serialize.superop_to_payload(obj, "matrix")
    payload = serialize.load_json(spec)
    lam = serialize.superop_from_payload(payload)
    return lam, payload.get("repr", "matrix"), payload


def _load_state(spec: str | None, dim: int, seed: int) -> np.ndarray:
    if spec is None:
        _, rho = resolve_builtin(f"builtin:random-state?d={dim}&seed={seed}")
        return rho
    if spec.startswith("builtin:"):
        kind, rho = resolve_builtin(spec)
        if kind != "state":
            raise ParseError(f"builtin {spec!r} is not a state")
        return rho
    return serialize.operator_from_payload(serialize.load_json(spec))


def _load_schedule(spec: str):
    if spec.startswith("builtin:"):
        kind, obj = resolve_builtin(spec)
        if kind == "schedule":
            return obj, {"builtin": spec}
        if kind == "generator":
            return constant_schedule(obj), serialize.superop_to_payload(obj, "matrix")
        raise ParseError(f"builtin {spec!r} is not a schedule or generator")
    payload = serialize.load_json(spec)
    if payload.get("format") == serialize.FORMAT_SCHEDULE:
        return serialize.schedule_from_payload(payload), payload
    lam = serialize.superop_from_payload(payload)
    return constant_schedule(lam), payload


def _emit_report(report: dict, json_out: str | None) -> None:
    data = serialize.canonical_bytes(report)
    sys.stdout.write(data.decode())
    if json_out:
        with open(json_out, "wb") as fh:
            fh.write(data)


def _base_report(command: str, source: str, payload: dict, args) -> dict:
    return {
        "format": "verdict/v1",
        "command": command,
        "source": source,
        "inputs_digest": _digest(payload),
        "seed": args.seed,
        "tolerances": {"rtol": args.rtol, "atol": args.atol},
    }


def cmd_check_cp(args) -> int:
    lam, repr_tag, payload = _load_superop(args.input)
    tol = Tolerance(args.rtol, args.atol)
    cp = is_cp(lam, tol)
    report = _base_report("check-cp", args.input, payload, args)
    if cp.ok:
        monotone = {"value": True, "evidence": "exact"}    # implied by CP
    else:
        witness = monotone_falsifier(lam, budget=args.budget, seed=args.seed, tol=tol)
        monotone = {
            "value": witness is None,
            "evidence": "falsifier",
            "trials": args.budget,
            "witness_min_eigenvalue":
                None if witness is None else witness.min_eigenvalue,
        }
    report["claims"] = {
        "is_cp": {
            "value": cp.ok,
            "evidence": "exact",
            "choi_min_eigenvalue": cp.choi_min_eigenvalue,
            "cp_by_repr": repr_tag == "kraus",
        },
        "is_dag_morphism": {
            "value": is_dag_morphism(lam, tol),
            "evidence": "exact",
        },
        "monotone": monotone,
    }
    _emit_report(report, args.json_out)
    return 0 if cp.ok else 1


def cmd_kraus(args) -> int:
    lam, _, payload = _load_superop(args.input)
    tol = Tolerance(args.rtol, args.atol)
    report = _base_report("kraus", args.input, payload, args)
    try:
        family = kraus_extract(lam, tol)
    except NotCPError as exc:
        report["claims"] = {"is_cp": {
            "value": False, "evidence": "exact",
            "choi_min_eigenvalue": exc.min_eigenvalue}}
        _emit_report(report, args.json_out)
        return 1
    rebuilt = kraus_assemble(family)
    residual = float(np.linalg.norm(rebuilt.matrix - lam.matrix))
    scale = max(1.0, float(np.linalg.norm(lam.matrix)))
    report["claims"] = {"is_cp": {"value": True, "evidence": "exact"}}
    report["kraus_count"] = len(family)
    report["degenerate_spectrum"] = family.degenerate
    report["reconstruction_residual"] = residual / scale
    if args.out:
        serialize.dump_json(serialize.kraus_to_payload(family), args.out)
        report["output"] = args.out
    _emit_report(report, args.json_out)
    return 0


def cmd_check_generator(args) -> int:
    lam, _, payload = _load_superop(args.input)
    tol = Tolerance(args.rtol, args.atol)
    verdict = is_dcp(lam, tol)
    report = _base_report("check-generator", args.input, payload, args)
    report["claims"] = {
        "is_dcp": {
            "value": verdict.is_dcp,
            "evidence": "exact",
            "compressed_choi_min_eigenvalue": verdict.compressed_choi_min_eig,
        },
        "is_dag_morphism_generator": {
            "value": verdict.is_dag_morphism_generator,
            "evidence": "exact",
        },
    }
    if verdict.is_dcp:
        p = minimal_presentation(lam, tol)
        cond = trace_condition(p, tol)
        group = is_cp_group_generator(lam, tol)
        report["claims"]["trace_condition"] = {
            "value": cond.classification, "evidence": "exact"}
        report["claims"]["is_cp_group_generator"] = {
            "value": group["is_group"], "evidence": "exact"}
        report["trace_defect_norm"] = float(np.linalg.norm(cond.defect))
        report["h_trace"] = abs(complex(np.trace(p.h)))
        if args.emit:
            serialize.dump_json(serialize.gksl_to_payload(p), args.emit)
            report["output"] = args.emit
    _emit_report(report, args.json_out)
    return 0 if verdict.is_dcp else 1


def cmd_evolve(args) -> int:
    schedule, payload = _load_schedule(args.input)
    probe = schedule.eval(args.t0)
    dim = probe.dim_in
    rho0 = _load_state(args.rho, dim, args.seed)
    if rho0.shape != (dim, dim):
        raise ParseError(
            f"state shape {rho0.shape} does not match generator dimension {dim}")
    report = _base_report("evolve", args.input, payload, args)
    report["t0"], report["t1"], report["eps"] = args.t0, args.t1, args.eps

    times, states = [args.t0], [rho0]
    n_steps = int(np.floor((args.t1 - args.t0) / args.eps + 1e-9))
    sample_times = [args.t0 + k * args.eps for k in range(1, n_steps + 1)]
    if not sample_times or sample_times[-1] < args.t1 - 1e-9 * max(1.0, args.t1 - args.t0):
        sample_times.append(args.t1)
    rho = rho0
    t_prev = args.t0
    factors_cp = []
    for t_k in sample_times:
        prop = propagate(schedule, t_prev, t_k, args.eps)
        rho = prop.map.apply(rho)
        if args.certify_factors:
            factors_cp.append(bool(is_cp(prop.map).ok))
        times.append(t_k)
        states.append(rho)
        t_prev = t_k
    tr0 = float(np.trace(rho0).real)
    trace_drift = [float(np.trace(r).real) - tr0 for r in states]
    min_eigs = [float(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0]) for r in states]
    report["trace_drift_max"] = max(abs(x) for x in trace_drift)
    report["min_eigenvalue_min"] = min(min_eigs)
    if args.certify_factors:
        report["claims"] = {"factors_cp": {
            "value": all(factors_cp), "evidence": "exact", "count": len(factors_cp)}}
    if args.halving:
        full = propagate(schedule, args.t0, args.t1, args.eps)
        rows = []
        prev = full.map.matrix
        eps = args.eps
        for _ in range(args.halving):
            eps /= 2.0
            cur = propagate(schedule, args.t0, args.t1, eps).map.matrix
            rows.append({"eps": eps, "difference": float(np.linalg.norm(cur - prev))})
            prev = cur
        report["halving_table"] = rows
        ratios = [rows[i]["difference"] / rows[i + 1]["difference"]
                  for i in range(len(rows) - 1) if rows[i + 1]["difference"] > 0]
        report["halving_ratios"] = ratios
    if args.out:
        traj = {
            "format": "trajectory/v1",
            "times": [float(t) for t in times],
            "states": [serialize.matrix_to_json(r) for r in states],
            "trace_drift": trace_drift,
            "min_eigenvalues": min_eigs,
        }
        serialize.dump_json(traj, args.out)
        report["output"] = args.out
    _emit_report(report, args.json_out)
    return 0


def cmd_truncate_study(args) -> int:
    lam, _, payload = _load_superop(args.input)
    dims = tuple(int(x) for x in args.dims.split(","))
    f = Filtration(ambient_dim=lam.dim_in, dims=dims)
    rho = _load_state(args.rho, lam.dim_in, args.seed)
    tol = Tolerance(args.rtol, args.atol)
    try:
        rows = truncation_study(lam, f, args.t, rho, tol)
    except NotDcpError as exc:
        raise ParseError(f"input is not a dCP generator: {exc}") from None
    report = _base_report("truncate-study", args.input, payload, args)
    report["t"] = args.t
    report["rows"] = [
        {"n": r.n, "error": r.error, "propagator_cp": r.propagator_cp,
         "choi_min_eigenvalue": r.choi_min_eigenvalue} for r in rows]
    report["claims"] = {"truncated_propagators_cp": {
        "value": all(r.propagator_cp for r in rows), "evidence": "exact"}}
    if args.out:
        serialize.dump_json({"format": "error-table/v1", "rows": report["rows"]}, args.out)
        report["output"] = args.out
    _emit_report(report, args.json_out)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json-out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gksl-kit",
        description="Verify and construct CP maps and CP-semigroup generators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-cp", help="decide complete positivity of a map")
    p.add_argument("input", help="superoperator file or builtin:<name>")
    p.add_argument("--budget", type=int, default=1000,
                   help="trials for the monotonicity falsifier")
    _add_common(p)
    p.set_defaults(func=cmd_check_cp)

    p = sub.add_parser("kraus", help="extract a Kraus family from a CP map")
    p.add_argument("input")
    p.add_argument("--out", default=None, help="write the Kraus file here")
    _add_common(p)
    p.set_defaults(func=cmd_kraus)

    p = sub.add_parser("check-generator", help="decide the CP-semigroup generation property")
    p.add_argument("input")
    p.add_argument("--emit", default=None, help="write the minimal presentation here")
    _add_common(p)
    p.set_defaults(func=cmd_check_generator)

    p = sub.add_parser("minimal-form", help="alias: check-generator --emit")
    p.add_argument("input")
    p.add_argument("--emit", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_check_generator)

    p = sub.add_parser("evolve", help="propagate a (possibly time-dependent) generator")
    p.add_argument("input", help="generator/schedule file or builtin")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rho", default=None, help="initial state file or builtin state")
    p.add_argument("--out", default=None, help="write the trajectory here")
    p.add_argument("--halving", type=int, default=0,
                   help="emit a convergence table over this many step halvings")
    p.add_argument("--certify-factors", action="store_true",
                   help="run the CP test on every splicing factor")
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("truncate-study", help="truncation errors along a filtration")
    p.add_argument("input")
    p.add_argument("--dims", required=True, help="comma-separated increasing dims")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--rho", default=None)
    p.add_argument("--out", default=None, help="write the error table here")
    _add_common(p)
    p.set_defaults(func=cmd_truncate_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = _seed_default()
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
