"""Compare two canonical `zdbench theorems` reports row by row.

    python3 tools/report_diff.py OLD.json NEW.json

For each statement row that differs it prints the members added (+) and
removed (-), the change in its checked count, and the failures and notes
added and removed; then each changed field of `bounds` and of the universe
counts.  Rows are matched by id.  It prints nothing when the reports agree
on all of these.  Exit status: 0 when nothing differs, 1 when something
does, 2 on unreadable input.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter


def _delta(old: list, new: list) -> tuple[list, list]:
    """(added, removed) between two lists taken as multisets, each in the
    order of the list it comes from."""
    old_count, new_count = Counter(old), Counter(new)
    return list((new_count - old_count).elements()), list((old_count - new_count).elements())


def _row_lines(old: dict, new: dict) -> list[str]:
    added, removed = _delta(old["applicable"], new["applicable"])
    lines = [f"  + {m}" for m in added] + [f"  - {m}" for m in removed]
    if old["checked"] != new["checked"]:
        lines.append(f"  checked: {old['checked']} -> {new['checked']}")
    failures = [[json.dumps(f, sort_keys=True) for f in row["failures"]] for row in (old, new)]
    for label, texts in (("failure", failures), ("note", (old["notes"], new["notes"]))):
        added, removed = _delta(*texts)
        lines += [f"  + {label} {x}" for x in added] + [f"  - {label} {x}" for x in removed]
    return lines


def _universe(report: dict) -> dict:
    """The universe section with its counts flattened to `counts.<kind>`."""
    universe = dict(report["universe"])
    counts = universe.pop("counts")
    return {**universe, **{f"counts.{kind}": n for kind, n in counts.items()}}


def _field_lines(prefix: str, old: dict, new: dict) -> list[str]:
    return [f"{prefix}{key}: {old.get(key)} -> {new.get(key)}"
            for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]


def report_diff(old: dict, new: dict) -> list[str]:
    """The lines that name every difference between two theorems reports."""
    old_rows = {row["id"]: row for row in old["statements"]}
    new_rows = {row["id"]: row for row in new["statements"]}
    lines = []
    for sid in dict.fromkeys([*old_rows, *new_rows]):
        if sid not in new_rows or sid not in old_rows:
            lines.append(f"{sid}: only in the {'old' if sid in old_rows else 'new'} report")
            continue
        row_lines = _row_lines(old_rows[sid], new_rows[sid])
        if row_lines:
            lines += [f"{sid}:", *row_lines]
    return (lines + _field_lines("bounds.", old["bounds"], new["bounds"])
            + _field_lines("universe.", _universe(old), _universe(new)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", help="the report to compare from")
    parser.add_argument("new", help="the report to compare to")
    args = parser.parse_args(argv)
    try:
        reports = []
        for path in (args.old, args.new):
            with open(path, encoding="utf-8") as handle:
                reports.append(json.load(handle))
        lines = report_diff(*reports)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
