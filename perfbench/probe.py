"""Set-up probe: the start-up part of one coxring CLI invocation.

Usage: python3 perfbench/probe.py MODE INPUT_FILE

Imports the CLI with everything it imports, reads and parses the input
file as MODE would, prints ``time.monotonic_ns()`` and exits.  That is what
a user pays before the first computation; the parent measures from the
moment it launches this process to the printed stamp (CLOCK_MONOTONIC is
shared by all processes of the machine).
"""

import json
import sys
import time


def main(argv):
    mode, path = argv
    from coxring import cli  # noqa: F401  (the import is the measured work)
    from coxring.ratcurve import curve_from_json
    from coxring.toric import fan_from_json

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    (fan_from_json if mode == "toric" else curve_from_json)(data)
    print(time.monotonic_ns())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
