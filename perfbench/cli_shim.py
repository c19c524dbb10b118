"""Traced entry to the CLI: install the layer wrappers, then run
`exfree.cli.main` exactly as the `exfree-qst` console script does.

    python -X importtime perfbench/cli_shim.py TRACE_JSON EXPERIMENT --config ...

The spans and counts go to TRACE_JSON when the command ends; the exit code
is the CLI's own.
"""

import sys

import exfree.cli  # first, so -X importtime sees the import a user pays

import json
from pathlib import Path

import tracing


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    span = tracer.open("cli.self")
    code = 0
    try:
        exfree.cli.main.main(args=argv, prog_name="exfree-qst")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.close(span)
        tracer.uninstall()
        out.write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
