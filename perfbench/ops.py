"""Operations, the closed-loop runner and the output checker.

An operation is one call the benchmark times: a library call, a
``gksl_kit.cli.main`` call in this process, or a fresh ``python -m
gksl_kit.cli`` process. Each carries its own expectations. The runner times
it, then checks it with the tracer paused:

* the exit code of a command, and the claim values and numeric bounds read
  from its JSON report (never golden bytes, so added report fields pass);
* that each output file it was asked to write exists, after which the file
  is deleted;
* that a command repeated within a run prints byte-identical report bytes;
* for library calls, the round trips and claims the operation names.

A failed check counts the operation as failed; it never stops the run.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROUND_TRIP_TOL = 1e-10
FRESH_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed operation and how to check what it returns."""

    metric: str                          # per-operation figure this op feeds
    run: Callable[[], Any]
    check: Callable[[Any], list]         # returns a list of problems
    key: str = ""                        # identical keys must print identical bytes


def rel_error(a, b) -> float:
    """Frobenius distance relative to max(1, ||b||)."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


@dataclass
class CommandResult:
    code: int
    stdout: bytes
    stderr: str


def run_in_process(argv) -> CommandResult:
    from gksl_kit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:        # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CommandResult(code, out.getvalue().encode(), err.getvalue())


@dataclass
class FreshProcess:
    """Starts each command as ``python -m gksl_kit.cli`` in a new interpreter.

    With ``trace_dir`` set, the command runs under ``cli_child.py`` instead,
    which installs the tracer in the child and leaves its span figures in a
    file for the parent to merge.
    """

    env: dict
    cwd: Path
    trace_dir: Path | None = None
    trace_files: list = field(default_factory=list)

    def __call__(self, argv) -> CommandResult:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "gksl_kit.cli", *argv]
        else:
            stats = self.trace_dir / f"spans-{len(self.trace_files)}.json"
            self.trace_files.append(stats)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(stats), *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.cwd,
                              timeout=FRESH_TIMEOUT_S)
        return CommandResult(proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"))


def _dig(report, path):
    """The value at a dotted path of the report, or None when it is absent."""
    node = report
    for part in path.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def check_command(result: CommandResult, expect_exit: int, claims=None, bounds=None,
                  outputs=()) -> list:
    """Problems with a command's exit code, report claims, bounds and outputs."""
    problems = []
    if result.code != expect_exit:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {result.code}, expected {expect_exit} {tail[0]}".rstrip())
    try:
        report = json.loads(result.stdout)
    except ValueError:
        return problems + ["report is not JSON"]
    for path, want in (claims or {}).items():
        got = _dig(report, path)
        if got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    for path, limit in (bounds or {}).items():
        got = _dig(report, path)
        if not isinstance(got, (int, float)) or not got <= limit:
            problems.append(f"{path} = {got!r}, expected <= {limit}")
    for out in outputs:
        if not (os.path.isfile(out) and os.path.getsize(out) > 0):
            problems.append(f"output {out} was not written")
        elif report.get("output") != str(out):
            problems.append(f"report names output {report.get('output')!r}, not {out}")
    return problems


def cli_op(metric, runner, argv, expect_exit, claims=None, bounds=None, outputs=()) -> Op:
    """A command run by ``runner`` (in-process or fresh) with its expectations."""
    argv = [str(a) for a in argv]
    outputs = [str(o) for o in outputs]

    def check(result):
        problems = check_command(result, expect_exit, claims, bounds, outputs)
        for out in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
        return problems

    return Op(metric=metric, run=lambda: runner(argv), check=check,
              key=" ".join(argv))


class Runner:
    """Runs operations one at a time and keeps the latency samples and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = []            # (metric, seconds)
        self._reports = {}           # op key -> first report bytes

    def run(self, op: Op, timed=True) -> None:
        self.attempted += 1
        recording = self.tracer.active() if self.tracer else contextlib.nullcontext()
        error = None
        with recording:
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:     # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        problems = [error] if error else op.check(result)
        if not error and op.key:
            first = self._reports.setdefault(op.key, result.stdout)
            if first != result.stdout:
                problems.append("report bytes differ from an earlier run of the same command")
        if problems:
            self.failed += 1
            self.problems.append(f"{op.metric} [{op.key}]: " + "; ".join(problems))
        if timed:
            self.samples.append((op.metric, elapsed))

    def run_pass(self, ops) -> float:
        t0 = time.perf_counter()
        for op in ops:
            self.run(op)
        return time.perf_counter() - t0
