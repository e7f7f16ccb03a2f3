"""Run one ``sde`` command in a fresh interpreter, as a user would.

Usage: child.py READY_FD TRACE_PATH [CLI ARGS...]

Imports ``sdegraph.cli``, writes one byte to READY_FD to mark the end of
set-up, then calls ``sdegraph.cli.main`` on the CLI arguments and exits
with its code. With no CLI arguments it only measures set-up. A non-empty
TRACE_PATH wraps the traced functions first and writes the trace there.
"""
import os
import sys


def main() -> int:
    ready_fd, trace_path, cli_args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import sdegraph.cli
    os.write(ready_fd, b"r")
    os.close(ready_fd)
    if not cli_args:
        return 0
    if not trace_path:
        return sdegraph.cli.main(cli_args)
    import shim
    tracer = shim.install()
    try:
        return sdegraph.cli.main(cli_args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
