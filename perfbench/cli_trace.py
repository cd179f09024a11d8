"""Run one CLI command with the per-layer tracer installed.

Usage: cli_trace.py OUT_FILE ARGS...

Installs the same wrappers the in-process workloads use, calls
`cubemorse.cli.run(ARGS)` exactly as `python -m cubemorse` would, writes
the trace counters and spans to OUT_FILE and exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    out_file, args = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    import cubemorse.cli

    tracer.begin_query(" ".join(args))
    try:
        code = cubemorse.cli.run(args)
    finally:
        tracer.end_query()
        sys.stdout.flush()
        summary = tracer.summary()
        summary["span_records"] = tracer.span_records()
        Path(out_file).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
