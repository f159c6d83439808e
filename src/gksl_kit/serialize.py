"""Versioned JSON file formats for operators, superoperators, and presentations.

Complex entries are stored as [re, im] pairs, never strings; NaN/Inf are
rejected at parse time. Every superoperator payload carries the vectorization
convention tag so the interop hazard travels with the data. Round trips are
bit-exact for finite values (floats serialize via shortest round-trip repr).
"""
import json
from typing import Sequence

import numpy as np

from .superops import ChoiMatrix, SuperOperator, jamiolkowski_inv
from .cp_maps import KrausFamily, kraus_assemble
from .generators import GkslPresentation, assemble_generator

FORMAT_OPERATOR = "operator/v1"
FORMAT_SUPEROP = "superop/v1"
FORMAT_KRAUS = "kraus/v1"
FORMAT_GKSL = "gksl/v1"
FORMAT_SCHEDULE = "schedule/v1"
VECTORIZATION = "column-stacking/v1"


class ParseError(ValueError):
    """Raised for malformed, non-finite, or dimensionally inconsistent files."""


def matrix_to_json(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ParseError("matrix contains NaN or Inf")
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    try:
        a = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from None
    if a.ndim != 2:
        raise ParseError(f"{what} must be two-dimensional")
    if not np.all(np.isfinite(a)):
        raise ParseError(f"{what} contains NaN or Inf")
    return a


def operator_to_payload(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "format": FORMAT_OPERATOR,
        "dim_out": a.shape[0],
        "dim_in": a.shape[1],
        "entries": matrix_to_json(a),
    }


def operator_from_payload(payload: dict) -> np.ndarray:
    if payload.get("format") != FORMAT_OPERATOR:
        raise ParseError(f"expected format {FORMAT_OPERATOR}, got {payload.get('format')!r}")
    a = matrix_from_json(payload["entries"], "operator entries")
    if a.shape != (payload["dim_out"], payload["dim_in"]):
        raise ParseError(
            f"entries shape {a.shape} does not match declared dims "
            f"({payload['dim_out']}, {payload['dim_in']})")
    return a


def superop_to_payload(lam: SuperOperator, repr_tag: str = "matrix") -> dict:
    base = {
        "format": FORMAT_SUPEROP,
        "repr": repr_tag,
        "vectorization": VECTORIZATION,
        "dim_in": lam.dim_in,
        "dim_out": lam.dim_out,
    }
    if repr_tag == "matrix":
        base["matrix"] = matrix_to_json(lam.matrix)
    elif repr_tag == "choi":
        base["choi"] = matrix_to_json(lam.choi.matrix)
    else:
        raise ValueError(f"unsupported repr for direct serialization: {repr_tag!r}")
    return base


def kraus_to_payload(family: KrausFamily) -> dict:
    return {
        "format": FORMAT_SUPEROP,
        "repr": "kraus",
        "vectorization": VECTORIZATION,
        "dim_in": family.dim_in,
        "dim_out": family.dim_out,
        "kraus": [matrix_to_json(a) for a in family.operators],
        "degenerate": family.degenerate,
    }


def gksl_to_payload(p: GkslPresentation, psi_repr: str = "choi") -> dict:
    if psi_repr == "choi":
        psi_payload = {"repr": "choi", "choi": matrix_to_json(p.psi.choi.matrix)}
    elif psi_repr == "kraus":
        from .cp_maps import kraus_extract
        fam = kraus_extract(p.psi)
        psi_payload = {"repr": "kraus", "kraus": [matrix_to_json(a) for a in fam.operators]}
    else:
        raise ValueError(f"psi repr must be 'choi' or 'kraus', got {psi_repr!r}")
    return {
        "format": FORMAT_SUPEROP,
        "repr": "gksl",
        "vectorization": VECTORIZATION,
        "dim_in": p.dim,
        "dim_out": p.dim,
        "psi": psi_payload,
        "g": matrix_to_json(p.g),
        "h": matrix_to_json(p.h),
        "minimal": p.minimal,
    }


def superop_from_payload(payload: dict) -> SuperOperator:
    """Load a superoperator from any of the four representations."""
    if payload.get("format") != FORMAT_SUPEROP:
        raise ParseError(f"expected format {FORMAT_SUPEROP}, got {payload.get('format')!r}")
    if payload.get("vectorization") != VECTORIZATION:
        raise ParseError(
            f"unsupported vectorization {payload.get('vectorization')!r}; "
            f"this tool reads {VECTORIZATION}")
    tag = payload.get("repr")
    try:
        d_in, d_out = int(payload["dim_in"]), int(payload["dim_out"])
        if tag == "matrix":
            m = matrix_from_json(payload["matrix"], "superoperator matrix")
            return SuperOperator(m, d_in, d_out)
        if tag == "choi":
            c = matrix_from_json(payload["choi"], "Choi matrix")
            return jamiolkowski_inv(ChoiMatrix(c, dim_in=d_in, dim_out=d_out))
        if tag == "kraus":
            ops = [matrix_from_json(a, "Kraus operator") for a in payload["kraus"]]
            lam = kraus_assemble(ops)
            if (lam.dim_in, lam.dim_out) != (d_in, d_out):
                raise ParseError("Kraus operator shapes do not match declared dims")
            return lam
        if tag == "gksl":
            return assemble_generator(presentation_from_payload(payload))
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown repr tag {tag!r}")


def presentation_from_payload(payload: dict) -> GkslPresentation:
    if payload.get("repr") != "gksl":
        raise ParseError(f"expected repr 'gksl', got {payload.get('repr')!r}")
    try:
        d = int(payload["dim_in"])
        psi_payload = payload["psi"]
        if psi_payload.get("repr") == "choi":
            c = matrix_from_json(psi_payload["choi"], "Psi Choi matrix")
            psi = jamiolkowski_inv(ChoiMatrix(c, dim_in=d, dim_out=d))
        elif psi_payload.get("repr") == "kraus":
            ops = [matrix_from_json(a, "Psi Kraus operator") for a in psi_payload["kraus"]]
            psi = kraus_assemble(ops)
        else:
            raise ParseError(f"Psi repr must be 'choi' or 'kraus'")
        g = matrix_from_json(payload["g"], "G")
        h = matrix_from_json(payload["h"], "H")
        return GkslPresentation(psi=psi, g=g, h=h,
                                minimal=bool(payload.get("minimal", False)))
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None


def schedule_to_payload(times: Sequence[float], generators: Sequence[SuperOperator]) -> dict:
    """Piecewise-constant schedule table: generators[i] applies on [times[i], times[i+1])."""
    if len(times) != len(generators):
        raise ValueError("need one generator per grid time")
    return {
        "format": FORMAT_SCHEDULE,
        "times": [float(t) for t in times],
        "generators": [superop_to_payload(g, "matrix") for g in generators],
    }


def schedule_from_payload(payload: dict):
    from .evolution import GeneratorSchedule
    if payload.get("format") != FORMAT_SCHEDULE:
        raise ParseError(f"expected format {FORMAT_SCHEDULE}, got {payload.get('format')!r}")
    times = [float(t) for t in payload["times"]]
    if not times or any(b <= a for a, b in zip(times, times[1:])):
        raise ParseError("schedule times must be strictly increasing and nonempty")
    if not all(np.isfinite(times)):
        raise ParseError("schedule times contain NaN or Inf")
    gens = [superop_from_payload(g) for g in payload["generators"]]
    if len(gens) != len(times):
        raise ParseError("need one generator per grid time")
    dims = {(g.dim_in, g.dim_out) for g in gens}
    if len(dims) != 1:
        raise ParseError("schedule generators have inconsistent dimensions")

    def evaluate(t: float) -> SuperOperator:
        idx = int(np.searchsorted(times, t, side="right") - 1)
        idx = max(0, min(idx, len(gens) - 1))
        return gens[idx]

    return GeneratorSchedule(times[0] - 1.0, float("inf"), evaluate)


def dump_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path} must hold a JSON object, got {type(payload).__name__}")
    return payload


def canonical_bytes(payload: dict) -> bytes:
    """Deterministic serialization used for digests and replayable reports."""
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
