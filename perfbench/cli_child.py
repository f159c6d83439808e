"""Run one gksl-kit command in this fresh process with the layer tracer on.

Usage: python perfbench/cli_child.py SPANS_OUT <gksl-kit arguments...>

Behaves like ``python -m gksl_kit.cli`` (same report, same exit code) and also
writes the span figures of the command to SPANS_OUT as JSON, so the traced
pass of sweep-cli can see layers inside its fresh processes. The parent puts
the package's ``src`` directory on PYTHONPATH.
"""
import json
import sys

import tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    from gksl_kit import cli
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.active():
        code = cli.main(argv)
    with open(spans_out, "w") as fh:
        json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
