"""Run the mosco-graphs command line with per-layer tracing.

    python3 perfbench/traced.py SPANS_FILE COMMAND_LINE_ARGS...

Installs the wrappers from ``tracer``, runs ``mosco_graphs.cli.main``
with the remaining arguments, and writes the spans to SPANS_FILE when
the command ends.  The exit code is the command's.
"""

import sys

from tracer import Tracer, install


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from mosco_graphs import cli  # loads every module before wrapping

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
