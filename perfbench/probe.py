"""Set-up probe: a fresh interpreter runs one CLI command until set-up ends.

Usage: ``python3 probe.py --src SRC --stop MODULE:ATTR [--stop ...] -- <alloylab argv>``.
The first call of any ``MODULE:ATTR`` (a sampling driver, the first
eigensolve, or the circulant build) marks the end of set-up; names the
library no longer has are skipped.  The probe prints the system-wide
monotonic clock at that moment, which the parent compares with its own clock
from just before it started this process.
"""

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
from pathlib import Path


class SetupReached(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--stop", action="append", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import alloylab.cli as cli

    import_s = time.perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"alloylab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    def stop(*_args, **_kwargs):
        raise SetupReached(time.monotonic())

    for name in args.stop:
        module, attr = name.split(":")
        try:
            owner = importlib.import_module(module)
        except ImportError:
            continue
        if hasattr(owner, attr):
            setattr(owner, attr, stop)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SetupReached as reached:
        print(json.dumps({"reached": reached.args[0], "import_s": import_s}))
        return 0
    print(f"none of the set-up ends {args.stop} was reached (exit code {rc}): "
          f"{sink.getvalue()[-2000:]}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
