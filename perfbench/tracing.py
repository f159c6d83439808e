"""Layer tracer: spans around calls into gksl_kit's public functions.

The tracer measures each layer from outside the program. ``install`` replaces
every traced function at every place that binds it: the defining module, each
gksl_kit module that did ``from .x import f``, and the package namespace.
The eigensolvers are wrapped on ``numpy.linalg`` and scipy's ``expm`` at its
gksl_kit binding sites, so the kernels show as layers of their own.
``SuperOperator`` construction is traced through its ``__init__``.

Spans nest on a stack. A span's self time is its duration minus the durations
of its direct children, so ``is_cp_group_generator`` does not count the
``is_dcp`` calls it makes. Spans are recorded only while ``active()`` is
entered, which keeps the benchmark's own checks out of the figures.
"""
import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

# (span, defining module, attribute); a span is named after the module that
# defines the function, whatever module the call goes through.
FUNCTION_SPANS = [
    ("superops.is_cp", "gksl_kit.superops", "is_cp"),
    ("superops.monotone_falsifier", "gksl_kit.superops", "monotone_falsifier"),
    ("operators.is_positive_semidefinite", "gksl_kit.operators", "is_positive_semidefinite"),
    ("cp_maps.traceless_block_projector", "gksl_kit.cp_maps", "traceless_block_projector"),
    ("cp_maps.kraus_extract", "gksl_kit.cp_maps", "kraus_extract"),
    ("cp_maps.kraus_assemble", "gksl_kit.cp_maps", "kraus_assemble"),
    ("cp_maps.intermediate_form", "gksl_kit.cp_maps", "intermediate_form"),
    ("generators.is_dcp", "gksl_kit.generators", "is_dcp"),
    ("generators.minimal_presentation", "gksl_kit.generators", "minimal_presentation"),
    ("generators.is_cp_group_generator", "gksl_kit.generators", "is_cp_group_generator"),
    ("generators.assemble_generator", "gksl_kit.generators", "assemble_generator"),
    ("generators.trace_condition", "gksl_kit.generators", "trace_condition"),
    ("evolution.propagate", "gksl_kit.evolution", "propagate"),
    ("evolution.exp_generator", "gksl_kit.evolution", "exp_generator"),
    ("filtration.truncation_study", "gksl_kit.filtration", "truncation_study"),
    ("serialize.canonical_bytes", "gksl_kit.serialize", "canonical_bytes"),
    ("serialize.superop_to_payload", "gksl_kit.serialize", "superop_to_payload"),
    ("serialize.gksl_to_payload", "gksl_kit.serialize", "gksl_to_payload"),
    ("serialize.kraus_to_payload", "gksl_kit.serialize", "kraus_to_payload"),
    ("serialize.dump_json", "gksl_kit.serialize", "dump_json"),
    ("serialize.load_json", "gksl_kit.serialize", "load_json"),
    ("serialize.superop_from_payload", "gksl_kit.serialize", "superop_from_payload"),
    ("builtin_maps.resolve_builtin", "gksl_kit.builtin_maps", "resolve_builtin"),
]

CLI_SUBCOMMANDS = ["check-cp", "kraus", "check-generator", "minimal-form",
                   "evolve", "truncate-study"]

KERNEL_SPANS = ["kernel.eig", "kernel.expm"]

SPANS = (["superops.SuperOperator"] + [s for s, _, _ in FUNCTION_SPANS]
         + KERNEL_SPANS + [f"cli.{c}" for c in CLI_SUBCOMMANDS])

# Spans that also report their inclusive time.
TOTAL_SPANS = ["generators.is_cp_group_generator", "builtin_maps.resolve_builtin"]

# Layers that must record at least one call in the traced pass of a workload.
EXPECTED_SPANS = {
    "decide-lib": [
        "superops.SuperOperator", "superops.is_cp", "operators.is_positive_semidefinite",
        "kernel.eig", "kernel.expm", "cp_maps.traceless_block_projector",
        "cp_maps.kraus_extract", "cp_maps.kraus_assemble", "cp_maps.intermediate_form",
        "generators.is_dcp", "generators.minimal_presentation",
        "generators.is_cp_group_generator", "generators.assemble_generator",
        "generators.trace_condition", "evolution.exp_generator",
    ],
    "decide-cli": [
        "superops.SuperOperator", "superops.is_cp", "superops.monotone_falsifier",
        "kernel.eig", "cp_maps.traceless_block_projector", "cp_maps.kraus_extract",
        "cp_maps.kraus_assemble", "generators.is_dcp", "generators.minimal_presentation",
        "generators.is_cp_group_generator", "serialize.canonical_bytes",
        "serialize.superop_to_payload", "serialize.gksl_to_payload",
        "serialize.kraus_to_payload", "serialize.dump_json", "serialize.load_json",
        "serialize.superop_from_payload", "builtin_maps.resolve_builtin",
        "cli.check-cp", "cli.check-generator", "cli.kraus", "cli.minimal-form",
    ],
    "evolve": [
        "evolution.propagate", "kernel.expm", "kernel.eig", "filtration.truncation_study",
        "serialize.load_json", "serialize.superop_from_payload",
        "builtin_maps.resolve_builtin", "cli.evolve", "cli.truncate-study",
    ],
    "sweep-cli": [
        "superops.is_cp", "superops.monotone_falsifier", "generators.is_dcp",
        "evolution.propagate", "filtration.truncation_study", "serialize.canonical_bytes",
        "builtin_maps.resolve_builtin",
    ] + [f"cli.{c}" for c in CLI_SUBCOMMANDS],
}

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = []
for _span in SPANS:
    PER_LAYER.append((f"{_span}.calls", "count"))
    if _span in KERNEL_SPANS:
        PER_LAYER += [(f"{_span}.s", "s"), (f"{_span}.n3", "count")]
    else:
        PER_LAYER.append((f"{_span}.self_s", "s"))
    if _span in TOTAL_SPANS:
        PER_LAYER.append((f"{_span}.total_s", "s"))
PER_LAYER += [
    ("kernel.expm.cpu_s", "s"),
    ("serialize.canonical_bytes.bytes", "bytes"),
    ("serialize.dump_json.bytes", "bytes"),
    ("serialize.load_json.bytes", "bytes"),
    ("startup.python_ms", "ms"),
    ("startup.import_ms", "ms"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _n3(args, kwargs, result):
    """Sum of n^3 over the (possibly batched) square matrices passed in."""
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0
    batch = 1
    for k in shape[:-2]:
        batch *= int(k)
    return batch * int(shape[-1]) ** 3


def _result_len(args, kwargs, result):
    return len(result)


def _written_size(args, kwargs, result):
    return os.path.getsize(args[1])          # dump_json(payload, path)


def _read_size(args, kwargs, result):
    return os.path.getsize(args[0])          # load_json(path)


EXTRAS = {
    "kernel.eig": ("n3", _n3),
    "kernel.expm": ("n3", _n3),
    "serialize.canonical_bytes": ("bytes", _result_len),
    "serialize.dump_json": ("bytes", _written_size),
    "serialize.load_json": ("bytes", _read_size),
}


def _new_stat():
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
            "n3": 0, "bytes": 0}


class Tracer:
    """Collects per-span call counts and times; patches and restores bindings."""

    def __init__(self):
        self.stats = defaultdict(_new_stat)
        self._children = []        # one accumulator of child time per open span
        self._recording = False
        self._patches = []         # (owner, attribute, original)

    @contextlib.contextmanager
    def active(self):
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    def wrap(self, name, fn, cpu=False):
        """Return ``fn`` wrapped in a span; ``name`` may be a callable of the args."""
        tracer = self
        extra = EXTRAS.get(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            tracer._children.append(0.0)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += dt
                stat = tracer.stats[span]
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - children
                if cpu:
                    stat["cpu_s"] += time.process_time() - c0
            if extra is not None:
                stat[extra[0]] += extra[1](args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function at each of its binding sites."""
        import numpy.linalg
        import scipy.linalg
        import gksl_kit.cli  # noqa: F401  (imports every traced module)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "gksl_kit" or k.startswith("gksl_kit."))]

        def patch_everywhere(span, original, cpu=False):
            wrapper = self.wrap(span, original, cpu=cpu)
            sites = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"no binding site found for span {span}")

        for span, modname, attr in FUNCTION_SPANS:
            patch_everywhere(span, getattr(sys.modules[modname], attr))
        patch_everywhere("kernel.expm", scipy.linalg.expm, cpu=True)
        for attr in ("eigh", "eigvalsh"):
            self._patch(numpy.linalg, attr, self.wrap("kernel.eig", getattr(numpy.linalg, attr)))
        superop = sys.modules["gksl_kit.superops"].SuperOperator
        self._patch(superop, "__init__", self.wrap("superops.SuperOperator", superop.__init__))
        cli = sys.modules["gksl_kit.cli"]
        self._patch(cli, "main", self.wrap(lambda args: f"cli.{args[0][0]}", cli.main))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def merge(self, stats):
        """Add span statistics recorded by another process."""
        for span, stat in stats.items():
            mine = self.stats[span]
            for key, value in stat.items():
                mine[key] += value

    def missing(self, workload):
        """Spans the workload should exercise but that recorded no call."""
        return [s for s in EXPECTED_SPANS.get(workload, []) if self.stats[s]["calls"] == 0]

    def layer_metrics(self):
        """Span figures keyed by per-layer metric name (all spans, zeros included)."""
        out = {}
        for span in SPANS:
            stat = self.stats[span]
            out[f"{span}.calls"] = stat["calls"]
            if span in KERNEL_SPANS:
                out[f"{span}.s"] = stat["total_s"]
                out[f"{span}.n3"] = stat["n3"]
            else:
                out[f"{span}.self_s"] = stat["self_s"]
            if span in TOTAL_SPANS:
                out[f"{span}.total_s"] = stat["total_s"]
        out["kernel.expm.cpu_s"] = self.stats["kernel.expm"]["cpu_s"]
        for span in ("serialize.canonical_bytes", "serialize.dump_json", "serialize.load_json"):
            out[f"{span}.bytes"] = self.stats[span]["bytes"]
        return out
