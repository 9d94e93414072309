"""Regenerate reference.json: for every input set of the checked workloads,
what the package computes on it at the commit that writes the table.

    python3 perfbench/make_reference.py

For the training workloads that is one timed `fit` call's losses and
validation IoUs; for segment-didn, a summary of the `workers=1` reference
call's labels and logits.  A later run checks against this table, so a
kernel change that alters training or the eval-mode forward shows as
failed operations.  Regenerate it only together with a deliberate change
to the workloads' inputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import (REFERENCE, REFERENCE_SEEDS, SegmentDidn, TrainDidnDesk,  # noqa: E402
                       TrainPuPaper)


def format_table(table: dict) -> str:
    """JSON with one line per input set."""
    blocks = []
    for name, rows in table.items():
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}"
                            for seed, entry in rows.items())
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    table = {}
    (BENCH / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=BENCH / "out"))
    try:
        for cls in (TrainDidnDesk, TrainPuPaper, SegmentDidn):
            table[cls.name] = {}
            for seed in range(REFERENCE_SEEDS):
                workload = cls(seed, tmp)
                workload.setup()
                entry = workload.summary(workload.reference_result())
                table[cls.name][str(seed)] = entry
                print(cls.name, seed, entry, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(format_table(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
