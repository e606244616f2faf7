"""How far the numbers of one set of outputs moved in another.

    python tests/drift_report.py OLD NEW

OLD and NEW are output directories of one command and config, for example
before and after a change.  Every CSV and JSON file under either, except
manifest.json (timings and versions), is compared field by field.  A CSV
row is a data line, its fields named by the header; a JSON row is an object
or array, its fields its scalar members.  Per file the report prints the
number of numeric fields that moved, the largest relative change
|new - old| / |old| and, over the rows that carry a stderr field, the
largest change in units of the old row's stderr.  Every other difference
(text, a value that is not finite, a field, row or file on one side only)
is listed verbatim.  The exit status is 0 when nothing differs, else 1.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

SKIP = {"manifest.json"}


def _csv_rows(path: Path) -> dict[str, dict[str, str]]:
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    header, data = (lines[0], lines[1:]) if lines else ([], [])
    rows = {"header": {str(i): name for i, name in enumerate(header)}}
    for i, line in enumerate(data, start=1):
        rows[f"row {i}"] = dict(zip(header, line))
    return rows


def _json_rows(path: Path) -> dict[str, dict[str, object]]:
    """Every object and array of the document, by its path from the root,
    mapped to its scalar members."""
    rows: dict[str, dict[str, object]] = {}

    def walk(node, where: str) -> None:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        fields = rows.setdefault(where or "/", {})
        for key, value in items:
            if isinstance(value, (dict, list)):
                walk(value, f"{where}/{key}")
            else:
                fields[str(key)] = value

    with open(path) as fh:
        doc = json.load(fh)
    walk(doc if isinstance(doc, (dict, list)) else {"value": doc}, "")
    return rows


def _number(value) -> float | None:
    """The finite number a field holds, or None for text, a bool, null or a
    value that is not finite."""
    if isinstance(value, bool):
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def compare(name: str, old: Path, new: Path) -> tuple[list[str], bool]:
    """Report lines for the file name, present on both sides, and whether
    it differs."""
    read = _csv_rows if old.suffix == ".csv" else _json_rows
    a, b = read(old), read(new)
    numeric = moved = 0
    max_rel = max_se = None
    verbatim = []
    for row in list(a) + [r for r in b if r not in a]:
        if row not in b or row not in a:
            verbatim.append(f"  {row}: only in {'OLD' if row in a else 'NEW'}")
            continue
        fa, fb = a[row], b[row]
        se = _number(fa.get("stderr"))
        for field in list(fa) + [f for f in fb if f not in fa]:
            if field not in fb or field not in fa:
                side = "OLD" if field in fa else "NEW"
                verbatim.append(f"  {row} {field}: only in {side}")
                continue
            x, y = _number(fa[field]), _number(fb[field])
            if x is not None and y is not None:
                numeric += 1
                if x != y:
                    moved += 1
                    rel = abs(y - x) / abs(x) if x else math.inf
                    max_rel = rel if max_rel is None else max(max_rel, rel)
                    if se is not None:
                        z = abs(y - x) / se if se else math.inf
                        max_se = z if max_se is None else max(max_se, z)
                    continue
            if fa[field] != fb[field]:
                verbatim.append(f"  {row} {field}: {fa[field]!r} -> {fb[field]!r}")
    head = f"{name}: {moved} of {numeric} numeric fields moved"
    if max_rel is not None:
        head += f"; largest relative change {max_rel:.3g}"
    if max_se is not None:
        head += f"; largest in stderr units {max_se:.3g}"
    return [head] + verbatim, bool(moved or verbatim)


def report(old_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    """Report lines for every CSV and JSON file of the two directories, and
    whether any differs."""
    def outputs(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*")
                if p.suffix in (".csv", ".json") and p.name not in SKIP}

    in_old, in_new = outputs(old_dir), outputs(new_dir)
    lines, differs = [], False
    for name in sorted(in_old | in_new):
        if name not in in_old or name not in in_new:
            lines.append(f"{name}: only in {'OLD' if name in in_old else 'NEW'}")
            differs = True
            continue
        file_lines, file_differs = compare(name, old_dir / name, new_dir / name)
        lines += file_lines
        differs |= file_differs
    return lines, differs


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print("usage: python tests/drift_report.py OLD NEW  (two output directories)",
              file=sys.stderr)
        return 2
    lines, differs = report(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
