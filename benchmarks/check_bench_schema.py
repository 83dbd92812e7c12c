"""Guard against silent benchmark-format drift.

CI runs every benchmark in ``--smoke`` mode and uploads the produced
JSON as workflow artifacts; this checker then diffs each produced file's
*schema* against the committed ``BENCH_*.json`` baseline at the repo
root.  A benchmark whose output shape changed (renamed key, list that
became a dict, number that became a string) fails the build instead of
silently rotting the committed baselines and their downstream readers.

Values are ignored — smoke runs use tiny shapes — only structure is
compared.  Lists collapse to their element shape (smoke runs have fewer
seeds/repeats), and the check is one-directional: a produced document
must be a *structural subset* of its baseline.  Dict keys only the
(full-run) baseline has — e.g. the per-worker entries of a larger
``--wire-workers`` fleet — may be absent from a smoke run, but a key
the baseline does not know, or a shared key whose shape changed, is
drift and fails.

Usage::

    python benchmarks/check_bench_schema.py PRODUCED BASELINE [PRODUCED BASELINE ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WILDCARD = "*"


def skeleton(value):
    """Reduce a JSON value to its type structure.

    Scalars become type names (bool / number / string / null); dicts
    keep their keys (key names are exactly where rename-drift shows);
    lists whose members all share one skeleton collapse to a single
    element shape, so differing seed/repeat counts compare equal.
    """
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if value is None:
        return "null"
    if isinstance(value, list):
        items = [skeleton(v) for v in value]
        if not items:
            return [WILDCARD]
        if all(item == items[0] for item in items):
            return [items[0]]
        return items
    if isinstance(value, dict):
        return {key: skeleton(v) for key, v in value.items()}
    raise TypeError(f"unexpected JSON type {type(value).__name__}")


def matches(produced, baseline, path: str, problems: list[str]) -> None:
    """Structural-subset comparison; appends mismatch descriptions."""
    if isinstance(produced, list) and isinstance(baseline, list):
        if produced == [WILDCARD] or baseline == [WILDCARD]:
            return  # an empty list matches any list
        if len(produced) == 1 and len(baseline) == 1:
            matches(produced[0], baseline[0], f"{path}[]", problems)
            return
        if len(produced) != len(baseline):
            problems.append(f"{path}: list shape {produced} != baseline {baseline}")
            return
        for index, (inner_a, inner_b) in enumerate(zip(produced, baseline)):
            matches(inner_a, inner_b, f"{path}[{index}]", problems)
        return
    if isinstance(produced, dict) and isinstance(baseline, dict):
        # Subset rule: keys only the (full-run) baseline has are fine in
        # a smoke run; keys the baseline has never seen are drift.
        for key in sorted(set(produced) - set(baseline)):
            problems.append(f"{path}: key absent from the committed baseline ['{key}']")
        for key in sorted(set(produced) & set(baseline)):
            matches(produced[key], baseline[key], f"{path}.{key}", problems)
        return
    if produced != baseline:
        problems.append(f"{path}: {produced!r} != baseline {baseline!r}")


def check_pair(produced_path: Path, baseline_path: Path) -> list[str]:
    produced = skeleton(json.loads(produced_path.read_text()))
    baseline = skeleton(json.loads(baseline_path.read_text()))
    problems: list[str] = []
    matches(produced, baseline, "$", problems)
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if not argv or len(argv) % 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    failed = False
    for produced, baseline in zip(argv[0::2], argv[1::2]):
        produced_path, baseline_path = Path(produced), Path(baseline)
        for path in (produced_path, baseline_path):
            if not path.exists():
                print(f"MISSING  {path}", file=sys.stderr)
                failed = True
                break
        else:
            problems = check_pair(produced_path, baseline_path)
            if problems:
                failed = True
                print(f"DRIFT    {produced_path} vs {baseline_path}:")
                for problem in problems:
                    print(f"         {problem}")
            else:
                print(f"OK       {produced_path} matches {baseline_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
