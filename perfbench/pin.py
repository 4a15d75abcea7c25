"""Pin the output digests of a range of seeds.

    python3 perfbench/pin.py --workload languages --seeds 0-19

Runs one untraced pass per seed, requires every independent check to pass,
and records the input fingerprint and each op's sha256 digest (exit code
and stdout) in ``perfbench/pins/<workload>.json``.  Run it on the commit
whose outputs later commits must reproduce byte for byte.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    cli = run.import_cli()
    path = run.PINS / f"{args.workload}.json"
    pins = run.load_pins(args.workload)
    deadline = run.Deadline()
    for seed in range(first, last + 1):
        workdir = run.OUT / f"pin-{args.workload}-{seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            ops, _ = run.generate(cli, args.workload, seed, workdir)
            result = run.run_pass(cli, deadline, ops, check=True)
            inputs = run.fingerprint(workdir, ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result.problems or result.failures:
            print(f"seed {seed}: not pinned: {result.problems} {dict(result.failures)}",
                  file=sys.stderr)
            return 1
        pins[str(seed)] = {"inputs": inputs, "outputs": result.digests}
        print(f"seed {seed}: pinned {len(ops)} ops", file=sys.stderr)
    run.PINS.mkdir(exist_ok=True)
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
