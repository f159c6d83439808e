"""Named built-in maps, generators, and schedules.

Addressable from the command line as ``builtin:<name>?key=value&...``, e.g.
``builtin:amplitude-damping?gamma=0.3``. They double as a regression corpus:
the transpose map is the canonical monotone-but-not-CP example, amplitude
damping the canonical trace-preserving dissipative generator.
"""
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from .operators import dag, random_density_matrix
from .superops import SuperOperator, identity_superop, superop_from_action, transpose_map
from .cp_maps import kraus_assemble
from .generators import (
    GkslPresentation,
    assemble_generator,
    commutator_generator,
    random_dcp_generator,
)
from .evolution import GeneratorSchedule

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def depolarizing_map(p: float = 1.0, d: int = 2) -> SuperOperator:
    """rho -> (1 - p) rho + p Tr(rho) Id / d."""
    ident = identity_superop(d)
    trace_map = superop_from_action(lambda x: np.trace(x) * np.eye(d) / d, d)
    return (1.0 - p) * ident + p * trace_map


def dephasing_map(d: int = 2) -> SuperOperator:
    """Complete dephasing: restriction to the diagonal."""
    kraus = [np.diag(row).astype(complex) for row in np.eye(d)]
    return kraus_assemble(kraus)


def amplitude_damping_jump(gamma: float) -> np.ndarray:
    """The jump operator sqrt(gamma) |0><1|."""
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = np.sqrt(gamma)
    return a


def amplitude_damping_presentation(gamma: float = 0.5) -> GkslPresentation:
    """Minimal trace-preserving presentation of the amplitude-damping generator."""
    a = amplitude_damping_jump(gamma)
    psi = kraus_assemble([a])
    g = 0.5 * (dag(a) @ a)
    return GkslPresentation(psi=psi, g=g, h=np.zeros((2, 2)), minimal=True)


def amplitude_damping_generator(gamma: float = 0.5) -> SuperOperator:
    return assemble_generator(amplitude_damping_presentation(gamma))


def driven_qubit_schedule(omega: float = 1.0, amp: float = 1.0,
                          gamma: float = 0.1) -> GeneratorSchedule:
    """Smooth noncommuting schedule: rotating hamiltonian plus fixed damping.

    L(t) = -i[H(t), .] + D_gamma with H(t) = amp (cos(omega t) sx + sin(omega t) sz).
    Trace preserving at every t.
    """
    damping = amplitude_damping_generator(gamma) if gamma > 0 else None

    def evaluate(t: float) -> SuperOperator:
        h = amp * (np.cos(omega * t) * SIGMA_X + np.sin(omega * t) * SIGMA_Z)
        gen = commutator_generator(h)
        return gen + damping if damping is not None else gen

    return GeneratorSchedule(-1e9, 1e9, evaluate, continuity_modulus=abs(amp * omega))


def _params(query: str) -> dict[str, str]:
    return dict(parse_qsl(query))


def resolve_builtin(spec: str):
    """Resolve ``builtin:name?params`` into (kind, object).

    kind is "map", "generator", "schedule", or "state".
    """
    if not spec.startswith("builtin:"):
        raise ValueError(f"not a builtin spec: {spec!r}")
    rest = spec[len("builtin:"):]
    parts = urlsplit("//" + rest)
    name = parts.netloc or rest.split("?")[0]
    q = _params(parts.query)
    d = int(q.get("d", 2))
    if d < 1:
        raise ValueError(f"builtin dimension d must be >= 1, got {d}")
    if name == "identity":
        return "map", identity_superop(d)
    if name == "transpose":
        return "map", transpose_map(d)
    if name == "depolarizing":
        return "map", depolarizing_map(float(q.get("p", 1.0)), d)
    if name == "dephasing":
        return "map", dephasing_map(d)
    if name == "amplitude-damping":
        return "generator", amplitude_damping_generator(float(q.get("gamma", 0.5)))
    if name == "commutator":
        return "generator", commutator_generator(SIGMA_Z if d == 2 else _default_h(d))
    if name == "transpose-minus-identity":
        return "generator", transpose_map(d) - identity_superop(d)
    if name == "random-dcp":
        support = q.get("support")
        if support is not None:
            from .generators import embedded_presentation, random_minimal_presentation
            if not 1 <= int(support) <= d:
                raise ValueError(f"support must lie in [1, d={d}], got {support}")
            p = random_minimal_presentation(int(support), seed=int(q.get("seed", 0)),
                                            trace=q.get("trace", "preserving"))
            return "generator", assemble_generator(embedded_presentation(p, d))
        return "generator", random_dcp_generator(d, seed=int(q.get("seed", 0)),
                                                 trace=q.get("trace", "preserving"))
    if name == "driven-qubit":
        return "schedule", driven_qubit_schedule(
            omega=float(q.get("omega", 1.0)),
            amp=float(q.get("amp", 1.0)),
            gamma=float(q.get("gamma", 0.1)))
    if name == "random-state":
        return "state", random_density_matrix(d, seed=int(q.get("seed", 0)))
    if name == "ground-state":
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        return "state", rho
    raise ValueError(f"unknown builtin {name!r}")


def _default_h(d: int) -> np.ndarray:
    diags = np.arange(d, dtype=float)
    diags -= diags.mean()
    return np.diag(diags).astype(complex)
