"""Record the reference outputs the benchmark's correctness check compares to.

    python3 perfbench/record_references.py --workload sweep --seeds 1-10

Runs each workload's cli calls (untimed, untraced) for the given workload
seeds and merges what ``Workload.reference`` extracts into
``perfbench/references.json``.  Re-record only on purpose: the check
exists to catch a change of these outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # sets the BLAS thread count before numpy is imported


def merge(into: dict, new: dict) -> None:
    for key, value in new.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            merge(into[key], value)
        else:
            into[key] = value


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="workload seeds, e.g. 1-10")
    args = parser.parse_args()
    run.import_program()
    from workloads import WORKLOADS, AllocationCapture, quiet

    refs = {}
    if os.path.exists(run.REFERENCES):
        with open(run.REFERENCES) as fh:
            refs = json.load(fh)
    out_dir = os.path.join(run.OUT, "record")
    for seed in args.seeds:
        workload = WORKLOADS[args.workload](seed)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        capture = AllocationCapture().install()
        try:
            with quiet():
                workload.solve(out_dir)
        finally:
            capture.uninstall()
        merge(refs.setdefault(args.workload, {}),
              workload.reference(workload.collect(out_dir, capture)))
        print(f"recorded {args.workload} seed {seed}", file=sys.stderr)
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
