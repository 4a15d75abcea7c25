"""Benchmark of the latlang batch CLI.

    python3 perfbench/run.py --workload languages --seed 1 --seconds 50 --trace 0

Set-up imports latlang from ``src/``, generates the seeded inputs of one
workload into ``perfbench/out/`` and warms up; it is repeated and its
median reported.  The timed phase then runs the workload's fixed op list,
as in-process ``latlang.cli.run(argv)`` calls from one thread, pass after
pass until ``--seconds`` would be exceeded.  Every time is scaled to a
host of nominal speed by a reference loop timed before each op (see
``host_scaled``).  Each op's latency is its median over the passes;
``wall_s`` is the sum of these, the percentiles are taken over them.
Every output is checked: by an independent check on the first pass, by
its pinned sha256 digest when the seed was pinned, and against the first
pass on later passes.  With ``--trace 1`` one more pass runs with
every public latlang function wrapped, giving per-layer metrics and a span
file.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable report with sample counts goes to
stderr.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PINS = BENCH / "pins"
WORKLOADS = ("languages", "markov-lab")
# setup_s is the import time plus the median of this many set-ups.
SETUP_REPEATS = 3

# Named in the per-layer metrics as <module>.<function>.total_s.
TIMED_FUNCTIONS = (
    "syntactic.syntactic", "syntactic.shuffle_ideal_falsify",
    "syntactic.reconstruct_from_cuts", "monoid.build_ordered_monoid",
    "monoid.direct_product", "monoid.divides", "automaton.minimize",
    "automaton.find_difference", "markov.decompose",
    "markov.validate_decomposition", "markov.absorption_probabilities",
    "markov.word_measure", "markov.analyze", "variety.enumerate_ordered_monoids",
    "variety.run_suite", "variety.subdirect_embedding",
    "serialize.canonical_dumps", "cli.build_parser",
)


# The CPUs of a shared host run this benchmark up to about 1.8 times faster
# or slower for seconds to minutes at a time, as the load of its neighbours
# changes.  A reference loop that does not call latlang is timed before
# each op; a latency t measured while the loop took r seconds is reported
# as t * REFERENCE_NOMINAL_S / r, the latency on a host that runs the loop
# in exactly REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 1e-3
# r is the median of this many reference samples centred on the op.
REFERENCE_WINDOW = 9
# A cycle, a transposition and a collapse generate all 256 maps on 4 points.
_REFERENCE_GENERATORS = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3))


def reference_loop() -> int:
    """Breadth-first closure of _REFERENCE_GENERATORS under composition:
    tuple, set and small-int work like latlang's, about 1 ms of pure Python."""
    start = tuple(range(4))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for g in _REFERENCE_GENERATORS:
                c = tuple(g[x] for x in m)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


def time_reference() -> float:
    """One run of the reference loop, with no garbage collection inside it,
    so that its time does not depend on the size of the heap."""
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        gc.enable()


def host_scaled(latencies: list[float], references: list[float]) -> list[float]:
    """Each latency scaled by the median of the reference samples around it."""
    half = REFERENCE_WINDOW // 2
    return [
        t * REFERENCE_NOMINAL_S / statistics.median(references[max(0, i - half):i + half + 1])
        for i, t in enumerate(latencies)
    ]


def reference_time() -> float:
    """The median of three runs of the reference loop."""
    return statistics.median(time_reference() for _ in range(3))


class SteppedClock:
    """Times a sequence of steps with the reference loop timed between them;
    each step is scaled by the mean of the reference times on either side."""

    def __init__(self):
        self.times: list[float] = []
        self.references = [reference_time()]

    def __call__(self, fn):
        start = perf_counter()
        result = fn()
        self.times.append(perf_counter() - start)
        self.references.append(reference_time())
        return result

    def scaled(self) -> float:
        return sum(
            t * REFERENCE_NOMINAL_S * 2 / (before + after)
            for t, before, after in zip(self.times, self.references, self.references[1:])
        )


class DeadlineExceeded(BaseException):
    """Raised inside an op that outruns its deadline.

    A BaseException, so the library's ``except Exception`` handlers cannot
    turn it into an ordinary error document.
    """


class Deadline:
    """Per-op deadline on the real-time interval timer of the main thread."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise DeadlineExceeded

    def call(self, fn, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)  # as measured
    references: list[float] = field(default_factory=list)  # reference loop before each op
    digests: list = field(default_factory=list)  # None for a failed op
    failures: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled(self) -> list[float]:
        return host_scaled(self.latencies, self.references)


def import_cli():
    """Import latlang from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import latlang.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import latlang from {src}: {exc}")
    if not Path(latlang.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: latlang was imported from {latlang.cli.__file__}, not {src}")
    return latlang.cli


def generate(cli, workload: str, seed: int, workdir: Path, step=lambda fn: fn()):
    """The op list of one pass and, for markov-lab, the capped-analysis
    probes.  ``step`` runs each stage of the generation."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = workloads.Inputs(workdir)
    if workload == "languages":
        return step(lambda: workloads.languages(rng, inputs)), []
    pool = step(lambda: {
        n: json.loads(cli.run(["variety", "enumerate", "--n", str(n)])[1])["monoids"]
        for n in (2, 3, 4)
    })
    ops = step(lambda: workloads.markov(rng, inputs))
    ops += step(lambda: workloads.lab(rng, inputs, pool))
    return ops, step(lambda: workloads.markov_probes(rng, inputs))


def fingerprint(workdir: Path, ops) -> str:
    """Digest of the generated files and op lists, independent of location."""
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    for op in ops:
        h.update(" ".join(a.replace(str(workdir), "") for a in op.argv).encode() + b"\n")
    return h.hexdigest()


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def run_op(cli, deadline: Deadline, op) -> tuple[float, int, str, str]:
    """(latency, exit code, stdout, failure or "") of one call.

    An op fails when it exits 1, raises anything but a LatlangError (which
    the CLI already turns into exit 1) or passes its deadline.  Garbage left
    by earlier ops is collected first, outside the timing, so each op starts
    from a clean heap as a fresh CLI process would.
    """
    code, out, failure = 1, "", ""
    gc.collect()
    start = perf_counter()
    try:
        code, out = deadline.call(lambda: cli.run(list(op.argv)), op.deadline_s)
    except DeadlineExceeded:
        failure = "deadline"
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        failure = f"exception:{type(exc).__name__}"
    latency = perf_counter() - start
    if not failure and code == 1:
        failure = "exit1:" + json.loads(out)["error"]["kind"]
    return latency, code, out, failure


def run_pass(cli, deadline, ops, *, check: bool, tracer=None, counters=None) -> Pass:
    result = Pass()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        result.references.append(time_reference())
        latency, code, out, failure = run_op(cli, deadline, op)
        result.latencies.append(latency)
        if failure:
            result.failures[failure] += 1
            result.digests.append(None)
        else:
            result.digests.append(digest(code, out))
            problem = op.check(code, out) if check else None
            if problem:
                result.problems.append(f"op {i} ({' '.join(op.argv[:2])}): {problem}")
        if counters is not None:
            counters.take(tracer)
    return result


def compare(label: str, expected: list, actual: list) -> list[str]:
    """Ops whose digests differ; an op without an expected digest is skipped."""
    return [
        f"op {i}: output differs from the {label}"
        for i, (want, got) in enumerate(zip(expected, actual))
        if want is not None and want != got
    ]


def load_pins(workload: str) -> dict:
    path = PINS / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


class LayerCounters:
    """Counters from the arguments and return values of observed calls,
    computed after each op so their cost stays outside every span."""

    def __init__(self):
        self.values = Counter()

    def take(self, tracer: Tracer) -> None:
        v = self.values
        for name, args, result in tracer.observed:
            if name == "syntactic.syntactic":
                a = args[0]
                v["classes"] += result.monoid.size
                v["tm_elems"] += ref.transition_monoid_size(a.delta, a.initial, 1 << 30)
            elif name == "monoid.build_ordered_monoid":
                v["elems3"] += result.size ** 3
            elif name == "syntactic.shuffle_ideal_falsify":
                v["found"] += result is not None
            elif name == "monoid.divides":
                v["decided"] += result.kind in ("yes", "no")
            elif name == "automaton.minimize":
                v["states_in"] += len(args[0].states)
                v["states_out"] += len(result.states)
            elif name == "markov.decompose":
                v["letters"] += len(result.letters)
            elif name == "markov.absorption_probabilities":
                v["transient"] += len(ref.ergodic_classes(args[0].matrix)[1])
            elif name == "cli.run":
                v["out_bytes"] += len(result[1].encode())
        tracer.observed.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: LayerCounters, traced_wall: float,
                  overhead: float, capped: int) -> dict:
    m = {}
    for layer, (calls, self_s, errors) in tracer.layer_totals().items():
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.errors"] = (errors, "count")
    for name in TIMED_FUNCTIONS:
        m[f"{name}.total_s"] = (tracer.function(name)[1], "s")
    m["monoid.build_ordered_monoid.self_s"] = (tracer.function("monoid.build_ordered_monoid")[2], "s")
    c = counters.values
    m["syntactic.classes"] = (c["classes"], "count")
    m["syntactic.tm_elems"] = (c["tm_elems"], "count")
    m["syntactic.classes_per_tm"] = (_ratio(c["classes"], c["tm_elems"]), "ratio")
    m["syntactic.share"] = (_ratio(m["syntactic.self_s"][0], traced_wall), "ratio")
    m["monoid.build_ordered_monoid.elems3"] = (c["elems3"], "count")
    m["syntactic.shuffle_ideal_falsify.found_ratio"] = (
        _ratio(c["found"], tracer.function("syntactic.shuffle_ideal_falsify")[0]), "ratio")
    m["monoid.divides.decided_ratio"] = (
        _ratio(c["decided"], tracer.function("monoid.divides")[0]), "ratio")
    m["automaton.minimize.state_ratio"] = (_ratio(c["states_out"], c["states_in"]), "ratio")
    m["markov.decompose.letters"] = (c["letters"], "count")
    m["markov.absorption_probabilities.transient"] = (c["transient"], "count")
    m["markov.analyze.capped"] = (capped, "count")
    m["cli.out_bytes"] = (c["out_bytes"], "bytes")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def run_probes(cli, deadline, probes) -> tuple[int, list[str]]:
    """Capped analyses: how many hit the deadline or the size cap."""
    capped, problems = 0, []
    for op in probes:
        _, code, out, failure = run_op(cli, deadline, op)
        if failure in ("deadline", "exit1:SizeCapExceeded"):
            capped += 1
            continue
        problem = failure or op.check(code, out)
        if problem:
            problems.append(f"probe {' '.join(op.argv[2:])}: {problem}")
    return capped, problems


def timed_passes(cli, deadline, ops, seconds: float) -> list[Pass]:
    """Passes until another one of median length would pass ``seconds``;
    the first pass runs the independent checks."""
    passes: list[Pass] = []
    lengths: list[float] = []
    start = perf_counter()
    while not passes or perf_counter() - start + statistics.median(lengths) <= seconds:
        begun = perf_counter()
        passes.append(run_pass(cli, deadline, ops, check=not passes))
        lengths.append(perf_counter() - begun)
    return passes


def traced_pass(cli, deadline, ops, probes, spans_path: Path, untraced_wall: float):
    """The traced pass; ``untraced_wall`` is the median host-scaled wall of
    the untraced passes, to which trace.overhead_s compares this pass."""
    tracer, counters = Tracer(), LayerCounters()
    tracer.install()
    try:
        traced = run_pass(cli, deadline, ops, check=False, tracer=tracer, counters=counters)
    finally:
        tracer.uninstall()
    capped, problems = run_probes(cli, deadline, probes)
    tracer.write_spans(spans_path)
    return traced, problems, layer_metrics(tracer, counters, traced.wall,
                                           sum(traced.scaled) - untraced_wall, capped)


def workdir_of(workload: str, seed: int, repeat: int) -> Path:
    return OUT / f"inputs-{workload}-{seed}-{os.getpid()}-{repeat}"


def set_up(cli, deadline: Deadline, workload: str, seed: int, repeat: int, clock: SteppedClock):
    """Generate the inputs and warm up by running the first op of each
    family, each stage a step of ``clock``."""
    workdir = workdir_of(workload, seed, repeat)
    workdir.mkdir(parents=True)
    ops, probes = generate(cli, workload, seed, workdir, clock)
    first_of_family = {}
    for op in ops:
        first_of_family.setdefault(op.family, op)
    for op in first_of_family.values():
        clock(lambda: run_op(cli, deadline, op))
    return ops, probes, clock(lambda: fingerprint(workdir, ops))


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(args, ops, passes: list[Pass], runs: list[Pass], problems, metrics) -> None:
    out = sys.stderr
    print(f"perfbench {args.workload} seed {args.seed}: {len(passes)} timed passes of "
          f"{len(ops)} ops" + (" and one traced pass" if args.trace else "") +
          f"; each op's latency is its median over the {len(passes)} passes, "
          f"giving {len(ops)} samples ({len(ops) - int(0.9 * len(ops))} beyond p90); "
          f"wall_s is their sum", file=out)
    families, family_s = Counter(), Counter()
    for op, latency in zip(ops, passes[0].latencies):
        families[op.family] += 1
        family_s[op.family] += latency
    print("op mix (ops, seconds in the first pass): " + ", ".join(
        f"{k} {v} {family_s[k]:.2f}s" for k, v in families.items()), file=out)
    print("pass walls as measured: " + " ".join(f"{p.wall:.3f}" for p in runs), file=out)
    print("pass walls host-scaled: " + " ".join(f"{sum(p.scaled):.3f}" for p in runs), file=out)
    references = [r * 1000 for p in passes for r in p.references]
    quartiles = statistics.quantiles(references, n=4)
    print(f"reference loop: median {quartiles[1]:.4f} ms, quartiles {quartiles[0]:.4f} and "
          f"{quartiles[2]:.4f} ms over {len(references)} samples; nominal "
          f"{REFERENCE_NOMINAL_S * 1000:g} ms", file=out)
    measured = [statistics.median(latency) for latency in zip(*(p.latencies for p in passes))]
    print(f"as measured, not host-scaled: wall_s {sum(measured):.6f}, op_p50_ms "
          f"{statistics.median(measured) * 1000:.6f}, op_p90_ms "
          f"{quantile(measured, 90) * 1000:.6f}", file=out)
    failures = sum((p.failures for p in runs), Counter())
    for name, count in sorted(failures.items()):
        print(f"failed: {name} x{count}", file=out)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=out)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    import_s = perf_counter() - STARTED

    deadline = Deadline()
    problems = []
    setups, fingerprints = [], set()
    try:
        for repeat in range(SETUP_REPEATS):
            clock = SteppedClock()
            if not repeat:
                import_s *= REFERENCE_NOMINAL_S / clock.references[0]
            ops, probes, inputs = set_up(cli, deadline, args.workload, args.seed, repeat, clock)
            setups.append(clock.scaled())
            fingerprints.add(inputs)
        setup_s = import_s + statistics.median(setups)
        # The harness's own objects (inputs, checks, pins) stay out of the
        # collections that run inside timed ops.
        gc.collect()
        gc.freeze()
        if len(fingerprints) > 1:
            problems.append("repeated set-ups generated different inputs")
        pinned = load_pins(args.workload).get(str(args.seed))
        if pinned and pinned["inputs"] != inputs:
            problems.append("inputs differ from the pinned inputs of this seed")
            pinned = None

        passes = timed_passes(cli, deadline, ops, args.seconds)
        expected = passes[0].digests
        problems += passes[0].problems
        if pinned:
            problems += compare("pinned digest", pinned["outputs"], expected)
        for p in passes[1:]:
            problems += compare("first pass", expected, p.digests)
        typical = [statistics.median(latency) for latency in zip(*(p.scaled for p in passes))]
        runs = list(passes)
        if args.trace:
            traced, probe_problems, metrics = traced_pass(
                cli, deadline, ops, probes,
                OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz",
                statistics.median(sum(p.scaled) for p in passes))
            runs.append(traced)
            problems += compare("untraced run", expected, traced.digests) + probe_problems
    finally:
        for repeat in range(SETUP_REPEATS):
            shutil.rmtree(workdir_of(args.workload, args.seed, repeat), ignore_errors=True)

    attempted = sum(len(p.latencies) for p in runs)
    failed = sum(sum(p.failures.values()) for p in runs)
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(typical), "s"),
            "op_p50_ms": (statistics.median(typical) * 1000, "ms"),
            "op_p90_ms": (quantile(typical, 90) * 1000, "ms"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    report(args, ops, passes, runs, problems, metrics)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
