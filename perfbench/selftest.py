"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks the host scaling of times, that one seed always generates
identical inputs, that a traced pass gives byte-identical outputs to an
untraced one and restores every binding, that a per-op deadline turns a long op into a "deadline" failure
without disturbing the next op, and that the benchmark fails without a
result in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import run
from tracer import Tracer


def generated(cli, workload: str, seed: int, tag: str):
    workdir = run.OUT / f"selftest-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ops, probes = run.generate(cli, workload, seed, workdir)
    return workdir, ops, probes


def sample(ops, per_family: int = 2):
    """The first few ops of each family, to keep the test short."""
    seen = Counter()
    picked = []
    for op in ops:
        seen[op.family] += 1
        if seen[op.family] <= per_family:
            picked.append(op)
    return picked


def main() -> int:
    assert run.reference_loop() == 256
    assert run.host_scaled([0.004, 0.006], [0.002, 0.002]) == [0.002, 0.003]
    cli = run.import_cli()
    deadline = run.Deadline()
    for workload in run.WORKLOADS:
        first, ops, probes = generated(cli, workload, 7, "a")
        second, again, _ = generated(cli, workload, 7, "b")
        try:
            files = sorted(p.name for p in first.iterdir())
            assert files == sorted(p.name for p in second.iterdir()), workload
            for name in files:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
            assert [op.argv[:2] for op in ops] == [op.argv[:2] for op in again]
            assert run.fingerprint(first, ops) == run.fingerprint(second, again)

            subset = sample(ops)
            plain = run.run_pass(cli, deadline, subset, check=True)
            assert not plain.problems and not plain.failures, (plain.problems, plain.failures)
            tracer, counters = Tracer(), run.LayerCounters()
            tracer.install()
            try:
                traced = run.run_pass(cli, deadline, subset, check=False,
                                      tracer=tracer, counters=counters)
            finally:
                tracer.uninstall()
            assert traced.digests == plain.digests, workload
            assert tracer.function("cli.run")[0] == len(subset)
            assert not hasattr(cli.run, "__wrapped__"), "binding not restored"
            print(f"{workload}: inputs repeat; {len(subset)} traced ops match, "
                  f"{len(tracer.spans)} spans", file=sys.stderr)

            if workload == "languages":
                slow = replace([op for op in ops if op.family == "shuffle-ideal"][-1],
                               deadline_s=0.01)
                _, _, _, failure = run.run_op(cli, deadline, slow)
                assert failure == "deadline", failure
                _, code, out, failure = run.run_op(cli, deadline, ops[0])
                assert not failure and ops[0].check(code, out) is None
        finally:
            shutil.rmtree(first, ignore_errors=True)
            shutil.rmtree(second, ignore_errors=True)

    bare = run.OUT / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "languages", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and "correct" not in done.stdout, done
    print(f"bare directory: exit {done.returncode}, {done.stderr.strip()}", file=sys.stderr)
    print(json.dumps({"selftest": "pass"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
