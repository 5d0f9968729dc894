"""Record reference output digests into reference_digests.json.

    python3 bench/record_digests.py --workload NAME --seeds 0-49 [--modules N]

Runs the workload once per seed, untraced and for the minimum number of
operations, and stores the digests of its outputs when every check
passes. An existing entry is never overwritten: outputs may change only
through a correctness fix named in CHANGES.md, and then the stale entries
are deleted from reference_digests.json by hand before re-recording.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-49")
    parser.add_argument("--modules", type=int, default=None)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    modules = args.modules or run.WORKLOADS[args.workload].modules
    run.WORK.mkdir(parents=True, exist_ok=True)
    for seed in range(first, last + 1):
        references = checks.load_references()
        by_seed = references.setdefault(args.workload, {}).setdefault(str(modules), {})
        if str(seed) in by_seed:
            print(f"{args.workload} n={modules} seed={seed}: already recorded, kept")
            continue
        result, samples = run.run(args.workload, seed, 0.0, 0, modules)
        if not result["correct"]:
            print(f"seed {seed}: output checks failed; nothing recorded", file=sys.stderr)
            return 1
        by_seed[str(seed)] = samples.digests
        checks.DIGESTS.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} n={modules} seed={seed}: recorded {len(samples.digests)} config(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
