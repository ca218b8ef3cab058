#!/usr/bin/env python3
"""Fail unless a perfbench run's summary line reports a clean run.

``perfbench/run.py`` exits 0 even when outputs are wrong; its verdict is
the JSON object on the last line of its output.  This checker reads that
output (a file argument, or stdin) and exits non-zero unless the last
JSON line has ``"correct": true`` and ``"failed": 0``::

    python3 perfbench/run.py --workload fleet-storm --seed 1 --seconds 2 \\
        | python3 tools/check_perfbench.py

Standard library only.
"""

from __future__ import annotations

import json
import sys


def last_json_line(text: str) -> dict:
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON summary line in the perfbench output")


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        summary = last_json_line(text)
    except ValueError as exc:
        print(f"check_perfbench: {exc}", file=sys.stderr)
        return 1
    correct, failed = summary.get("correct"), summary.get("failed")
    print(
        f"check_perfbench: correct={correct} failed={failed} "
        f"attempted={summary.get('attempted')}"
    )
    return 0 if correct is True and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
