"""One ycalc CLI call in a fresh interpreter, as the benchmark times it.

Usage: child.py REPORT [--trace] [--setup-only] -- CLI-ARGS...

Imports `ycalc.cli` from the checkout's `src`, notes the monotonic clock
when the import is done, optionally installs the span tracer, then runs
`ycalc.cli.main(CLI-ARGS)` with stdout left to the caller.  REPORT receives
a JSON object with the import timestamp and, when traced, the spans.
"""

import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def main() -> int:
    report_path = sys.argv[1]
    split = sys.argv.index("--")
    flags, cli_args = sys.argv[2:split], sys.argv[split + 1 :]
    sys.path.insert(0, _SRC)
    import ycalc.cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.abspath(ycalc.cli.__file__).startswith(_SRC + os.sep):
        print(f"error: ycalc imported from {ycalc.cli.__file__}, not {_SRC}", file=sys.stderr)
        return 2
    report = {"imported": imported}
    tracer = None
    if "--trace" in flags:
        import spans

        tracer = spans.install()
    code = 0
    try:
        if "--setup-only" not in flags:
            code = ycalc.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.snapshot()
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
