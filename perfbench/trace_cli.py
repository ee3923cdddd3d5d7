"""Run one ``llschain`` CLI command with the tracer installed.

Usage: python3 perfbench/trace_cli.py TRACE_OUT.json <llschain argv...>

Exits with the command's own exit status and writes the trace aggregates,
plus the command's in-process wall time, to TRACE_OUT.json.
"""

from __future__ import annotations

import json
import sys
import time

from llschain import cli
from tracer import Tracer


def main(argv: list[str]) -> int:
    out_path, command = argv[0], argv[1:]
    tracer = Tracer().install()
    start = time.perf_counter()
    try:
        status = cli.main(command)
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
    record = tracer.aggregates()
    record["stage"] = {command[0]: elapsed}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
