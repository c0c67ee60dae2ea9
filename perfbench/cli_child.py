"""A traced `cobcalc` query: the command line, with the layer wrappers.

    python3 perfbench/cli_child.py SUMMARY_JSON SPANS_FILE -- CLI_ARGS...

Imports `cobcalc.cli` (timed as cli.import_s), installs the same wrappers
as the in-process workers, runs `cli.main(CLI_ARGS)` with stdout untouched,
then writes the layer summary to SUMMARY_JSON and the spans to SPANS_FILE.
"""

import json
import sys
import time


def main(argv):
    summary_path, spans_path = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    t = time.perf_counter()
    from cobcalc import cli
    import_s = time.perf_counter() - t

    import tracer as tracing
    tracer = tracing.install(tracing.Tracer())
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors exit with code 2
        code = exc.code
    sys.stdout.flush()
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
