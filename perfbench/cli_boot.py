"""Run the qmaze CLI with layer spans recorded.

    python perfbench/cli_boot.py SPANS_FILE ARG...

Times `import qmaze.cli`, installs the span wrappers, calls
qmaze.cli.main(ARG...) and writes the spans as JSON to SPANS_FILE. The
exit code is the CLI's. qmaze must be importable (PYTHONPATH=src).
"""

import sys
import time


def main():
    # Imported here, first, so the span covers the import every CLI call pays.
    t0 = time.perf_counter()
    import qmaze.cli
    t1 = time.perf_counter()
    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.plan()
    tracer.add_span("cli.import", t0, t1)
    with tracer.active(0), tracer.span("cli.main"):
        code = qmaze.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
