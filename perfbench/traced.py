"""Run one coxring CLI invocation with the layer tracer installed.

Usage: python3 perfbench/traced.py SPANS_FILE CLI_ARG...

The report goes to stdout and the exit code is the CLI's, exactly as with
``python3 -m coxring.cli CLI_ARG...``; the spans are written to SPANS_FILE
when the invocation ends.
"""

import os
import sys

from tracer import Recorder


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from coxring import cli
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path,
                      {"pid": os.getpid(), "cli_args": cli_args})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
