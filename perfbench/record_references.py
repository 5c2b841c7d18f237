"""Record the stored references that every benchmark run compares its output with.

    python3 perfbench/record_references.py --seeds 0-31,1009

For each seed and workload this runs one pass, checks it, and stores the
output's fingerprint in perfbench/references.json (the whole file is
rewritten). Re-record only in a change that is meant to move results by more
than the comparison's tolerance, and say so in that change.
"""
import argparse
import json
import sys

from run import import_package


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="comma-separated seeds or ranges, e.g. 0-31,1009")
    args = parser.parse_args(argv)
    workloads, _ = import_package()
    table = {name: {} for name in workloads.WORKLOADS}
    for seed in args.seeds:
        for name, wl in workloads.WORKLOADS.items():
            state = wl.setup(seed)
            out = wl.run(state)
            errors = wl.check(state, out)
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            table[name][str(seed)] = wl.fingerprint(out)
        print(f"seed {seed} recorded", flush=True)

    blocks = []
    for name, rows in table.items():
        body = ",\n".join(f'      "{seed}": {json.dumps(fp)}' for seed, fp in rows.items())
        blocks.append(f'    "{name}": {{\n{body}\n    }}')
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        fh.write('{\n  "schema_version": 1,\n  "workloads": {\n' + ",\n".join(blocks) + "\n  }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
