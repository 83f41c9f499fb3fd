"""Run one workload of the excount benchmark and print its metrics.

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src`` directory and nowhere else. The run builds the
seeded inputs and repeats whole passes of the workload until ``--seconds``
have passed; in the gaps between passes it times set-up in fresh
interpreters. Every output is checked; each pass's digest must match the
other passes and, for seeds in ``digests.json``, the stored digest.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics. With ``--trace 1``
untraced and traced passes alternate and the JSON object holds the
per-layer metrics of the traced passes; their spans are also written to
``bench/out/``. Metric names and units come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
# wall_s and cpu_s take each part of a pass at the expected fastest of
# FASTEST_OF passes, so a run makes at least that many.
FASTEST_OF = 3
MIN_TRACED_PAIRS = 2

# A fresh interpreter that imports the package and builds the inputs, then
# reports; the parent times it from spawn to the report.
PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
print("ready", flush=True)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")
    return args


class SetupProbes:
    """Times set-up in SETUP_PROBES fresh interpreters spread over a run.

    Probe k is due (k + 1/2) / SETUP_PROBES of the way through the run and
    runs at the first gap between passes after that. Each runs on the CPU
    that QuietCpu picks just before it (the child inherits the affinity),
    and the process's own affinity is put back after each gap, since the
    sharded oracle's workers inherit it too. Spread out like this, the
    probes see the machine over the whole run, not in one burst.
    """

    def __init__(self, workloads, workload: str, seed: int, seconds: float):
        self.args = [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(seed)]
        self.cpu = workloads.QuietCpu()
        self.due = [(k + 0.5) * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.times: list[float] = []

    def run_due(self, elapsed: float) -> None:
        """Run the probes that are due by elapsed seconds into the run."""
        todo = [t for t in self.due[len(self.times) :] if t <= elapsed]
        if not todo:
            return
        affinity = os.sched_getaffinity(0) if self.cpu.cpus else None
        for _ in todo:
            self.cpu.settle(force=True)
            self.times.append(self._probe())
        if affinity is not None:
            os.sched_setaffinity(0, affinity)

    def _probe(self) -> float:
        start = perf_counter()
        with subprocess.Popen(self.args, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        return elapsed

    def median(self) -> float:
        """Run the probes still left, then the median over all of them."""
        self.run_due(float("inf"))
        describe("set-up", self.times, "fresh interpreters")
        return statistics.median(self.times)


def peak_rss_mb(children_kib: int) -> float:
    """Peak resident set of this process, plus children_kib (a child's peak)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib) / 1024


class Run:
    """Repeats passes of one workload, checking each, and keeps their timings."""

    def __init__(self, workloads, workload: str, seed: int, inputs: dict, stored: str | None):
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.stored = stored
        self.first_digest: str | None = None
        self.attempted = 0
        self.failed = 0
        # The sharded oracle's workers inherit the parent's CPU affinity.
        self.cpu = None if workload == "oracle-sharded" else workloads.QuietCpu()

    def one_pass(self, tracer=None) -> "Timed":
        cpu0 = self.workloads.cpu_seconds()
        start = perf_counter()
        p = self.workloads.run_pass(self.workload, self.inputs, tracer, self.cpu)
        wall = perf_counter() - start
        cpu = self.workloads.cpu_seconds() - cpu0
        if self.first_digest is None:
            self.first_digest = p.digest
        for want, what in ((self.first_digest, "the first pass"), (self.stored, "digests.json")):
            if want is not None and p.digest != want:
                p.fail("digest", f"output digest differs from {what}")
        self.attempted += p.attempted
        self.failed += p.failed
        for message in p.errors:
            print(f"FAILED {message}", file=sys.stderr)
        return Timed(p, wall, cpu)


@dataclass
class Timed:
    """A pass with its wall and CPU time."""

    p: object
    wall: float
    cpu: float


def fastest_of(values: list[float]) -> float:
    """Expected minimum of FASTEST_OF samples drawn from values without replacement.

    This is the mean, over every FASTEST_OF-subset of values, of its
    minimum: sorted ascending, the i-th value (from 0) is the minimum of
    C(n-1-i, k-1) of the C(n, k) subsets. Its expectation does not depend
    on n, so a faster program that fits more passes into a run does not
    get a lower figure from sampling alone, as it would from min(values).
    """
    xs = sorted(values)
    k = min(FASTEST_OF, len(xs))
    return sum(x * comb(len(xs) - 1 - i, k - 1) for i, x in enumerate(xs)) / comb(len(xs), k)


def fastest_parts(passes: list[Timed], pick) -> tuple[float, float]:
    """Wall and CPU time of a pass, each part taken as pick() over the passes.

    The parts are the operations of the pass plus the remainder (the
    benchmark's checks and loop). With pick=fastest_of every part is near
    its fastest: on a shared VM each CPU runs for seconds at a time about
    1.5 times slower than otherwise, a median over whole passes follows
    those stretches, and the fastest samples of each part do not.
    """
    keys = set().union(*(t.p.op_s for t in passes))
    wall = sum(pick([t.p.op_s[k] for t in passes if k in t.p.op_s]) for k in keys)
    cpu = sum(pick([t.p.op_cpu[k] for t in passes if k in t.p.op_cpu]) for k in keys)
    wall += pick([t.wall - sum(t.p.op_s.values()) for t in passes])
    cpu += pick([t.cpu - sum(t.p.op_cpu.values()) for t in passes])
    return wall, cpu


def describe(label: str, values: list[float], samples: str = "passes") -> None:
    """Median and quartiles of per-pass values, with the sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    print(f"  {label}: median {statistics.median(values):.4f} s, "
          f"quartiles {q1:.4f}-{q3:.4f} s, {len(values)} {samples}")


def report_ops(passes: list[Timed]) -> None:
    """Per-operation-group medians over passes, for reading by people."""
    totals = []
    for t in passes:
        per_group: dict[str, float] = {}
        for (group, _), seconds in t.p.op_s.items():
            per_group[group] = per_group.get(group, 0.0) + seconds
        totals.append(per_group)
    for group in totals[0]:
        seconds = statistics.median(g.get(group, 0.0) for g in totals)
        line = f"  op {group}: {seconds:.4f} s"
        hosts = passes[0].p.op_hosts.get(group)
        if hosts:
            line += f", {hosts / seconds:.0f} hosts/s"
        print(line)


def end_to_end(run: Run, seconds: float) -> dict:
    probes = SetupProbes(run.workloads, run.workload, run.seed, seconds)
    passes: list[Timed] = []
    children_kib = 0
    start = perf_counter()
    while len(passes) < FASTEST_OF or perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run.one_pass())
        if len(passes) == 1 and run.workload == "oracle-sharded":
            # The largest pool worker of the first pass, read before any
            # set-up probe has been reaped and could count as the largest child.
            children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        probes.run_due(perf_counter() - start)
    # A sharded operation waits for workers on every CPU, so its fastest
    # sample needs all of them fast at once and varies from run to run;
    # the median of its many short passes is steadier.
    pick = fastest_of if run.cpu is not None else statistics.median
    wall_s, cpu_s = fastest_parts(passes, pick)
    report_ops(passes)
    describe("pass wall", [t.wall for t in passes])
    describe("pass cpu", [t.cpu for t in passes])
    return {
        "wall_s": wall_s,
        "hosts_per_s": passes[0].p.hosts / wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(children_kib),
        "setup_s": probes.median(),
    }


def per_layer(run: Run, seconds: float) -> dict:
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    plain: list[Timed] = []
    traced: list[Timed] = []
    layers = []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or (
        perf_counter() - start + plain[-1].wall + traced[-1].wall <= seconds
    ):
        plain.append(run.one_pass())
        tracer.install()
        try:
            traced.append(run.one_pass(tracer))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer.summary(), traced[-1].p, traced[-1].wall, LAYERS))
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.untraced_wall_s"] = statistics.median(t.wall for t in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    describe("untraced pass wall", [t.wall for t in plain])
    describe("traced pass wall", [t.wall for t in traced])
    path = BENCH / "out" / f"spans-{run.workload}-seed{run.seed}.csv.gz"
    tracer.write(str(path))
    print(f"  spans of the last traced pass: {path.relative_to(ROOT)}")
    if run.workload == "oracle-sharded":
        print("  note: only the parent process records spans; its oracle spans "
              "include the wait for the worker processes")
    return out


def layer_metrics(s, p, wall: float, layers) -> dict:
    """Per-layer metrics of one traced pass from its span summary s."""
    count_calls = s.n_calls(name="counting.count")
    count_s = s.seconds(name="counting.count")
    counter_hosts = p.counts["oracle.counter_hosts"]
    scored = s.n_calls(name="counting.count", parent_layer="oracle")
    covered = sum(s.self_seconds(layer=layer) for layer in layers + ("bench",))
    m = {
        "counting.count_calls": count_calls,
        "counting.count_s": count_s,
        "counting.count_us_per_call": 1e6 * count_s / count_calls if count_calls else 0.0,
        "counting.star_matching_s": s.seconds(name="counting.star_matching"),
        "counting.automorphism_s": s.seconds(name="counting.automorphism"),
        "oracle.calls": p.counts["oracle.calls"],
        "oracle.hosts": p.counts["oracle.hosts"],
        "oracle.scored_ratio": scored / counter_hosts if counter_hosts else 0.0,
        "oracle.witness_iso_calls": s.n_calls(name="graphs.iso", parent_layer="oracle"),
        "oracle.witness_iso_s": s.seconds(name="graphs.iso", parent_layer="oracle"),
        "oracle.recheck_s": s.seconds(name="counting.copies", parent_layer="oracle"),
        "graphs.builds": s.n_calls(name="graphs.build"),
        "graphs.build_s": s.seconds(name="graphs.build"),
        "graphs.iso_calls": s.n_calls(name="graphs.iso"),
        "graphs.iso_s": s.seconds(name="graphs.iso"),
        "constructions.calls": s.n_calls(layer="constructions"),
        "constructions.s": s.seconds(layer="constructions"),
        "asymptotics.scan_s": s.seconds(name="asymptotics.crossover_scan"),
        "asymptotics.scan_samples": p.counts["asymptotics.scan_samples"],
        "transform.shift_s": s.seconds(name="transform.shift"),
        "transform.shift_moves": p.counts["transform.shift"],
        "transform.fold_s": s.seconds(name="transform.fold"),
        "transform.fold_steps": p.counts["transform.step1"],
        "transform.pack_s": s.seconds(name="transform.pack"),
        "transform.pack_steps": p.counts["transform.step2"],
        "transform.loop_s": s.self_seconds(name="transform.run_transformation"),
        "decomposition.partition_s": s.seconds(name="decomposition.star_partition"),
        "decomposition.trees": p.counts["decomposition.trees"],
        "edgelist.parse_s": s.seconds(name="edgelist.parse"),
        "edgelist.bytes": p.counts["edgelist.bytes"],
        "reporting.emit_s": s.seconds(name="reporting.emit"),
        "reporting.bytes": p.counts["reporting.bytes"],
        "bench.self_s": s.self_seconds(layer="bench"),
        "trace.spans": s.spans,
        "trace.wall_s": wall,
        "trace.uncovered_share": 1 - covered / wall,
    }
    for layer in layers:
        m[f"{layer}.self_s"] = s.self_seconds(layer=layer)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "excount" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"error: {ROOT} is not an excount source checkout "
            "(needs src/excount and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    inputs = workloads.prepare(args.workload, args.seed)
    if args.workload == "oracle-sharded":
        print(f"oracle-sharded: {inputs['threads']} worker processes "
              f"(os.cpu_count() = {os.cpu_count()})")
    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    stored = digests.get(args.workload, {}).get(str(args.seed))
    run = Run(workloads, args.workload, args.seed, inputs, stored)

    if args.trace:
        values = per_layer(run, args.seconds)
    else:
        values = end_to_end(run, args.seconds)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(m['name'] for m in declared)}"
        )
    print(f"{args.workload} seed {args.seed}: digest {run.first_digest} "
          f"({'compared with the stored one' if stored else 'no stored digest'}), "
          f"fail_ratio {run.failed / max(run.attempted, 1):.6f} "
          f"({run.failed}/{run.attempted})")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
