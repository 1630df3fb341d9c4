"""Run a workload's set-up snippet under the speed probe.

    python3 perfbench/setup_child.py MARKS_FILE CODE

Runs CODE in a fresh namespace inside a ``SpeedProbe`` and writes the
probe marks to MARKS_FILE.  Interpreter start-up, this script's own imports
and its exit fall outside the probe; the runner probes them from outside.
"""

from __future__ import annotations

import sys

from probe import SpeedProbe


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: setup_child.py MARKS_FILE CODE", file=sys.stderr)
        return 2
    marks_path, code = argv
    with SpeedProbe() as probe:
        exec(code, {"__name__": "__setup__"})
    probe.dump(marks_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
