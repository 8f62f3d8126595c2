"""Validate a telemetry JSONL stream: ``python -m repro.telemetry FILE...``.

Exit 0 if every line of every file parses as strict JSON and validates
against the versioned event schema; exit 1 with the offending line's
diagnostics otherwise.  This is :func:`repro.telemetry.validate_jsonl`,
which the tests run over live ``--telemetry`` streams, packaged for humans
and shell scripts.
"""

from __future__ import annotations

import argparse
import sys

from .schema import TelemetryError, validate_jsonl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Validate telemetry JSONL streams against the event schema.",
    )
    parser.add_argument("files", nargs="+", help="JSONL file(s) to validate")
    args = parser.parse_args(argv)
    status = 0
    for path in args.files:
        try:
            count = validate_jsonl(path)
        except (OSError, TelemetryError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: {count} valid event(s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
