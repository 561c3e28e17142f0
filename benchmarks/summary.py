"""Fold repro-perf-v1 ``BENCH_*.json`` artifacts into one table.

Usage: ``python benchmarks/summary.py [DIR]`` (default ``perf-artifacts``,
where ``make bench`` collects them).  Exits 1 when ``DIR`` holds no
readable repro-perf-v1 metric.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "perf-artifacts")
    artifacts = sorted(directory.glob("BENCH_*.json"))
    if not artifacts:
        print(f"no BENCH_*.json artifacts under {directory}", file=sys.stderr)
        return 1
    rows = []
    for path in artifacts:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping unreadable artifact {path}: {exc}", file=sys.stderr)
            continue
        if payload.get("schema") != "repro-perf-v1":
            print(f"skipping foreign-schema artifact {path}", file=sys.stderr)
            continue
        for key in sorted(payload):
            value = payload[key]
            if (
                key in ("schema", "cpu_count")
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
            ):
                continue
            rows.append((path.name, key, value))
    if not rows:
        print(f"no repro-perf-v1 metrics under {directory}", file=sys.stderr)
        return 1
    name_w = max(len(name) for name, _, _ in rows)
    key_w = max(len(key) for _, key, _ in rows)
    print(f"{'artifact':<{name_w}}  {'metric':<{key_w}}  value")
    print(f"{'-' * name_w}  {'-' * key_w}  -----")
    for name, key, value in rows:
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{name:<{name_w}}  {key:<{key_w}}  {rendered}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
