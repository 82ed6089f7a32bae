#!/usr/bin/env python3
"""Regenerate the reference outputs under perfbench/refs/.

The files hold what the library returns for every case in the pools of the
`fuzz2x2`, `memory8` and `primitives` workloads (corpus seeds 42 and 1912).
They were written by this script at the commit that introduced the
benchmark; rerunning it at a later commit records that commit's outputs
instead, so only do so when a change to the outputs is intended and
explained. Run from the repository root:

    python3 perfbench/make_refs.py
"""
from __future__ import annotations

import json

from workloads import CORPUS_SEEDS, PRIMITIVE_FIELDS, REFS, REPORT_FIELDS, WORKLOADS, import_library, report_fields


def main() -> None:
    lib = import_library()
    REFS.mkdir(exist_ok=True)
    for name, fields in (("fuzz2x2", REPORT_FIELDS), ("memory8", REPORT_FIELDS), ("primitives", PRIMITIVE_FIELDS)):
        workload = WORKLOADS[name](lib, seed=0)
        rows = []
        for i in workload.units:
            output, _ = workload.run(i)
            values = report_fields(output) if fields is REPORT_FIELDS else output[0]
            rows.append([values[f] for f in fields])
        head = json.dumps({"workload": name, "corpus_seeds": list(CORPUS_SEEDS), "fields": list(fields)})
        body = ",\n".join(json.dumps(row) for row in rows)
        path = REFS / f"{name}.json"
        path.write_text(f'{head[:-1]}, "rows": [\n{body}\n]}}\n', encoding="utf-8")
        print(f"wrote {path} ({len(rows)} cases)")


if __name__ == "__main__":
    main()
