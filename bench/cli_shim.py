"""Run one `symlie` CLI command under the benchmark's tracer.

    python3 bench/cli_shim.py --spans FILE --op KEY -- <symlie arguments>

Behaves like `python -m symlie <arguments>` (same output, same exit status),
and writes the command's spans and counts to FILE.
"""

from __future__ import annotations

import sys
import time

import provenance
from spans import Tracer


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    spans, op = opts[opts.index("--spans") + 1], opts[opts.index("--op") + 1]
    start = time.perf_counter()
    try:
        provenance.import_symlie()
    except provenance.ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import symlie.cli
    tracer = Tracer()
    tracer.import_s = time.perf_counter() - start
    tracer.install()
    tracer.op = op
    sys.argv = ["symlie", *argv]
    code = 0
    try:
        symlie.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.op = None
        sys.stdout.flush()
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
