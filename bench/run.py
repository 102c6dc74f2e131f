"""Run a workload of the divflag benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  One workload runs in this single-threaded process; ``all`` runs
each workload in a fresh process of its own, one after another.

The set-up (a fresh import of ``divflag`` plus building the workload's
inputs) runs several times before the first round and once more before
each later one; its median is reported as ``setup_s``.  Whole rounds of the
workload's operations run until ``--seconds`` have passed, each round on a
fresh import of the package, as each CLI command would start from a fresh
process.  ``wall_s`` sums, over the operations, each operation's median
time across rounds.  Every time is taken at the machine's nominal speed
(see ``speed.py``): the host's own speed drifts more than a change worth
detecting.  Every output is checked; the last
line printed is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 1`` the metrics are the per-layer ones,
taken from spans recorded around the calls between divflag's modules.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import tracing
from speed import Speedometer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 4  # before the first round; one more before each later round

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("exactalg.calls", "count"),
    ("exactalg.kernel_solves", "count"),
    ("exactalg.self_s", "s"),
    ("intpoly.divisions", "count"),
    ("intpoly.self_s", "s"),
    ("arrangement.restrictions", "count"),
    ("arrangement.self_s", "s"),
    ("lattice.builds", "count"),
    ("lattice.flats", "count"),
    ("lattice.self_s", "s"),
    ("multi.exp2_calls", "count"),
    ("multi.exp2_solver_calls", "count"),
    ("multi.self_s", "s"),
    ("freeness.search_s", "s"),
    ("freeness.verify_s", "s"),
    ("freeness.chi_computations", "count"),
    ("freeness.if_nodes", "count"),
    ("freeness.self_s", "s"),
    ("jsonio.bytes_written", "bytes"),
    ("jsonio.self_s", "s"),
    ("catalog.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Outcome(NamedTuple):
    name: str
    seconds: float  # wall-clock time
    scaled: float  # the same at the machine's nominal speed
    ok: bool
    detail: str  # the check's summary, or why the operation failed


def fresh_import():
    """Import divflag from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "divflag" or m.startswith("divflag.")]:
        del sys.modules[name]
    lib = importlib.import_module("divflag")
    importlib.import_module("divflag.cli")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise ImportError(f"divflag imported from {lib.__file__}, not from {SRC}")
    return lib


def run_round(lib, ops, meter: Speedometer, tracer=None) -> list[Outcome]:
    """Each operation once; an exception or a failed check fails only that
    operation.  Only ``op.run`` is timed."""

    def traced(op):
        with tracer.operation(op.name):
            return op.run(lib)

    outcomes = []
    for op in ops:
        meter.seconds = meter.scaled = 0.0
        try:
            if op.prepare is not None:
                op.prepare()
            output = meter.time(lambda: op.run(lib) if tracer is None else traced(op))
            outcomes.append(Outcome(op.name, meter.seconds, meter.scaled, True, op.check(output)))
        except Exception as exc:  # the operation failed; the benchmark carries on
            outcomes.append(Outcome(op.name, meter.seconds, meter.scaled, False,
                                    f"{type(exc).__name__}: {exc}"))
    return outcomes


def new_tracer(keep_spans: bool) -> tracing.Tracer:
    tracer = tracing.Tracer(keep_spans=keep_spans)
    tracer.hook("lattice.build_lattice",
                lambda t, args, lat: t.add("lattice.flats", sum(map(len, lat.levels))))
    tracer.hook("freeness.inductively_free",
                lambda t, args, result: t.add("freeness.if_nodes", result.nodes))
    tracer.hook("multi.exp2", lambda t, args, result: t.add(
        "multi.exp2_solver_calls", int(args[0].mult.total > 2 * len(args[0].base) - 1)))
    tracer.hook("jsonio.save_json",
                lambda t, args, result: t.add("jsonio.bytes_written", os.path.getsize(args[0])))
    return tracer


def layer_counts(tracer) -> dict[str, int]:
    return {
        "exactalg.calls": sum(n for (_, callee), n in tracer.edges.items()
                              if callee.startswith("exactalg.")),
        "exactalg.kernel_solves": tracer.calls.get("exactalg.kernel_basis", 0),
        "intpoly.divisions": tracer.calls.get("intpoly.div_rem", 0),
        "arrangement.restrictions": tracer.calls.get("arrangement.restriction", 0),
        "lattice.builds": tracer.calls.get("lattice.build_lattice", 0),
        "lattice.flats": tracer.quantities.get("lattice.flats", 0),
        "multi.exp2_calls": tracer.calls.get("multi.exp2", 0),
        "multi.exp2_solver_calls": tracer.quantities.get("multi.exp2_solver_calls", 0),
        "freeness.chi_computations": tracer.edges.get(("freeness", "lattice.char_data"), 0),
        "freeness.if_nodes": tracer.quantities.get("freeness.if_nodes", 0),
        "jsonio.bytes_written": tracer.quantities.get("jsonio.bytes_written", 0),
        "trace.spans": tracer.span_count,
    }


def layer_times(tracer) -> dict[str, float]:
    def inclusive(*names):
        return sum(tracer.inclusive_s.get(n, 0.0) for n in names)

    times = {f"{layer}.self_s": s for layer, s in tracer.self_s.items() if layer != "catalog"}
    times["freeness.search_s"] = inclusive("freeness.divisional_flag_search",
                                           "freeness.inductively_free", "freeness.hereditarily_df")
    times["freeness.verify_s"] = inclusive("freeness.DivisionalFlag.verify",
                                           "freeness.IFCertificate.verify")
    return times


def tally(ops, rounds: list[list[Outcome]]) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  A failed operation leaves the outputs
    correct only when it is one of the known faults; each distinct failure
    is reported once on stderr."""
    faults = {op.name: op.fault for op in ops}
    correct = True
    reported = set()
    for outcome in (o for r in rounds for o in r if not o.ok):
        known = faults[outcome.name]
        correct = correct and known is not None
        if (outcome.name, outcome.detail) not in reported:
            reported.add((outcome.name, outcome.detail))
            print(f"known fault ({known})" if known else "FAILED", f"{outcome.name}: {outcome.detail}",
                  file=sys.stderr)
    attempted = sum(len(r) for r in rounds)
    return correct, attempted, sum(not o.ok for r in rounds for o in r)


def median_by_op(rounds: list[list[Outcome]]) -> float:
    return sum(statistics.median(r[i].scaled for r in rounds) for i in range(len(rounds[0])))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = WORKLOADS[name]
    workdir = os.path.join(OUT, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times = []
        meter = Speedometer()

        def timed_setup(tracer=None):
            def set_up():
                lib = fresh_import()
                if tracer is not None:
                    tracer.install(lib)
                return setup(lib, seed, workdir)

            gc.collect()
            ops = meter.time(set_up)
            setup_times.append(meter.scaled)
            return ops

        setup_tracer = new_tracer(keep_spans=True) if trace else None
        for _ in range(1 if trace else SETUP_REPEATS):
            ops = timed_setup(setup_tracer)

        rounds: list[list[Outcome]] = []
        tracers = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            if rounds and not trace:
                ops = timed_setup()  # spreads the set-up samples over the run
            lib = fresh_import()
            gc.collect()
            tracer = None
            if trace:
                tracer = new_tracer(keep_spans=not tracers)
                tracer.install(lib)
                tracers.append(tracer)
            rounds.append(run_round(lib, ops, meter, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed = tally(ops, rounds)
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": median_by_op(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        counts = [layer_counts(t) for t in tracers]
        if any(c != counts[0] for c in counts):
            print("FAILED: per-layer counts differ between rounds", file=sys.stderr)
            correct = False
        times = [layer_times(t) for t in tracers]
        values = dict(counts[0])
        for key in times[0]:
            values[key] = statistics.median(t[key] for t in times)
        values["catalog.self_s"] = setup_tracer.self_s["catalog"]
        values["trace.wall_s"] = median_by_op(rounds)
        through, crossing = tracing.per_call_cost()
        spans = sum(tracers[0].edges.values())
        values["trace.overhead_s"] = (sum(tracers[0].calls.values()) - spans) * through + \
            spans * crossing
        units = dict(PER_LAYER)
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "setup": setup_tracer.spans,
                       "first_round": tracers[0].spans}, fh)
            fh.write("\n")

    return {
        "workload": name,
        "rounds": [round(sum(o.seconds for o in r), 3) for r in rounds],
        "scaled": [round(sum(o.scaled for o in r), 3) for r in rounds],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}: {len(result['rounds'])} rounds "
          f"of {', '.join(map(str, result['rounds']))} s, "
          f"at nominal speed {', '.join(map(str, result['scaled']))} s, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for key, metric in result["metrics"].items():
        print(f"  {key:28s} {metric['value']:14.6f} {metric['unit']}")


def run_all(args) -> dict:
    """Each workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        *summary, last = proc.stdout.strip().splitlines()
        print("\n".join(summary))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divflag", "__init__.py")):
        print(f"error: no divflag sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        result = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
