"""Run the spinelab CLI under the speed probe or the tracer.

    python3 perfbench/cli_child.py probe MARKS_FILE [CLI ARGS...]
    python3 perfbench/cli_child.py trace SPANS_FILE [CLI ARGS...]

The CLI module is imported first.  Then ``probe`` arms a ``SpeedProbe``,
or ``trace`` wraps every traced function and alias, and
``spinelab.cli.main`` runs with the given arguments.  The probe marks or
the spans are written to the file however the CLI exits, and the process
exits with the CLI's exit code.
"""

from __future__ import annotations

import contextlib
import sys

USAGE = "usage: cli_child.py {probe|trace} OUT_FILE [CLI ARGS...]"


def run_cli(cli_args: list) -> int:
    import spinelab.cli

    try:
        spinelab.cli.main(args=cli_args, prog_name="spinelab")
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] not in ("probe", "trace"):
        print(USAGE, file=sys.stderr)
        return 2
    mode, out_path, cli_args = argv[0], argv[1], argv[2:]
    import spinelab.cli  # noqa: F401  (imported before timing or wrapping)

    if mode == "probe":
        from probe import SpeedProbe

        recorder = context = SpeedProbe()
    else:
        from tracer import Tracer, install

        recorder = Tracer()
        install(recorder)
        context = contextlib.nullcontext()
    try:
        with context:
            return run_cli(cli_args)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
