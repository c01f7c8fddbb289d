"""marklat benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload {extremal,census_lattice} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from the repository root; it needs nothing but the standard
library to time the program and scipy to check the extremal probe.

One caller runs one operation at a time (a closed loop).  Every
operation runs in a fresh interpreter (worker.py) with PYTHONPATH=src,
as each CLI call starts cold, and the timer runs inside that
interpreter.  The probe is the exception: its queries share one warm
interpreter and are timed one by one.  A pass runs every operation of
the workload once; passes repeat while another one fits in --seconds,
and there is always at least one.  Times are taken at each operation's
fastest pass and rescaled to a reference host speed (``end_to_end``).
With --trace 1 an untraced and a traced pass alternate, so the tracing
overhead is measured in the same run.  Every output is checked
(workloads.py); a wrong output, an exception or a non-zero exit counts
as a failed operation, and each probe query counts as one operation.

Standard output: one line per metric (name, value, unit), one context
line, and last one JSON object with the keys correct, attempted, failed
and metrics.  Spans of traced passes are written to
.bench_work/<workload>-trace.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
F85 = SRC / "marklat" / "data" / "f85.json"
# a run must end within 180 s; operations still running then are killed
RUN_LIMIT_S = 170
# worker.calibrate's fastest time on the host the benchmark was defined
# on (2 cores, Python 3.11); end-to-end times are rescaled to that speed
CALIBRATION_REF_S = 0.00115

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "probe_p50_ms": "ms",
    "probe_p95_ms": "ms",
}
PER_LAYER = {
    "feasibility.calls": "count",
    "feasibility.s": "s",
    "feasibility.call_p50_ms": "ms",
    "feasibility.call_p95_ms": "ms",
    "feasibility.rows_mean": "rows",
    "feasibility.infeasible": "count",
    "boolmaps.labelings": "count",
    "boolmaps.dfs_s": "s",
    "boolmaps.labelings_per_s": "1/s",
    "boolmaps.is_representable_calls": "count",
    "boolmaps.is_representable_self_s": "s",
    "boolmaps.representable_ratio": "1",
    "boolmaps.report_to_json_s": "s",
    "weights.induced_map_calls": "count",
    "weights.induced_map_s": "s",
    "weights.phi_count_s": "s",
    "hasse.build_calls": "count",
    "hasse.build_s": "s",
    "hasse.to_dot_s": "s",
    "hasse.diagram_to_json_s": "s",
    "core.enumerate_words_calls": "count",
    "core.enumerate_words_s": "s",
    "counting.rows": "count",
    "counting.census_rows_s": "s",
    "counting.s_bruteforce_s": "s",
    "counting.s_recursive_s": "s",
    "counting.s_convolution_s": "s",
    "cli.main_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_ratio": "1",
}


@dataclass
class Outcome:
    """What one operation returned, and which of its queries failed."""

    op: workloads.Op
    result: dict | None
    problems: list
    digests: dict | None = None
    out_bytes: int = 0

    @property
    def failed(self) -> int:
        return self.op.queries if self.result is None else len(self.problems)


class Deadline(Exception):
    pass


def run_op(op, workdir: Path, traced: bool, deadline: float, expected: dict) -> Outcome:
    """Run one operation in a fresh interpreter and check its outputs."""
    spec = dict(op.spec, name=op.name, trace=traced, src=str(SRC))
    (workdir / "spec.json").write_text(json.dumps(spec), "utf-8")
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    for name in op.files:
        (workdir / name).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "spec.json", "result.json"],
                cwd=workdir,
                env=env,
                stdout=out,
                stderr=err,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise Deadline(op.name) from None
    if proc.returncode != 0 or not result_path.exists():
        tail = (workdir / "stderr").read_text("utf-8", "replace").strip().splitlines()[-1:]
        return Outcome(op, None, [f"worker exited with {proc.returncode}: {' '.join(tail)}"])
    result = json.loads(result_path.read_text("utf-8"))
    outputs = {"stdout": (workdir / "stdout").read_bytes()}
    for name in op.files:
        if (workdir / name).exists():
            outputs[name] = (workdir / name).read_bytes()
            (workdir / name).unlink()
    digests = {name: workloads.digest(data) for name, data in outputs.items()}
    problems = op.check(result, outputs, digests, expected)
    return Outcome(op, result, problems, digests, sum(map(len, outputs.values())))


def run_pass(ops, workdir, traced, deadline, expected) -> list:
    outcomes = []
    for op in ops:
        outcome = run_op(op, workdir, traced, deadline, expected)
        for problem in outcome.problems[:5]:
            print(f"FAILED {op.name}: {problem}", file=sys.stderr)
        outcomes.append(outcome)
    return outcomes


def percentiles(samples) -> tuple:
    """Median and 95th percentile; 0 for an empty sample."""
    if not samples:
        return 0.0, 0.0
    if len(samples) == 1:
        return samples[0], samples[0]
    return statistics.median(samples), statistics.quantiles(samples, n=20)[-1]


def fastest(passes) -> tuple:
    """Each operation's fastest time across the passes, and each probe
    query's.  The host's speed drifts over tens of seconds; an
    operation's fastest repeat is its cost with the least of that drift."""
    ops, queries = defaultdict(list), defaultdict(list)
    for outcomes in passes:
        for i, o in enumerate(outcomes):
            if o.result is None:
                continue
            if "queries" in o.result:
                for k, answer in enumerate(o.result["queries"]):
                    queries[k].append(answer["s"])
            else:
                ops[i].append(o.result["op_s"])
    return [min(v) for v in ops.values()], [min(v) for v in queries.values()]


def wall(passes) -> float:
    """One pass's total, each operation and query at its fastest."""
    ops, queries = fastest(passes)
    return sum(ops) + sum(queries)


def end_to_end(passes) -> dict:
    """The end-to-end metrics over the untraced passes.  Times are
    rescaled by the host's speed: the shared host slows down for tens of
    seconds at a time, which the fastest pass cannot undo when a whole
    run falls in a slow spell.  The run's fastest calibration, like its
    fastest operations, shows the host at its best within the run."""
    done = [o for p in passes for o in p if o.result]
    if not done:
        return {}
    scale = CALIBRATION_REF_S / min(o.result["calib_s"] for o in done)
    p50, p95 = percentiles(fastest(passes)[1])
    return {
        "wall_s": scale * wall(passes),
        "setup_s": scale * statistics.median(o.result["setup_s"] for o in done),
        "peak_rss_mb": max(o.result["peak_rss_kb"] / 1024 for o in done),
        "probe_p50_ms": scale * 1e3 * p50,
        "probe_p95_ms": scale * 1e3 * p95,
    }


def layer_metrics(outcomes) -> dict:
    """Per-layer counts and times of one traced pass, from its spans."""
    spans = defaultdict(list)  # name -> [(duration, self time, note)]
    for o in outcomes:
        raw = o.result.get("spans", []) if o.result else []
        for span, own in zip(raw, self_times(raw)):
            spans[span[0]].append((span[2] - span[1], own, span[5]))

    def total(name):
        return sum(d for d, _, _ in spans[name])

    def yielded(name):
        return sum(1 for _, _, note in spans[name] if note)

    lp = spans["feasibility.feasible_point"]
    lp_p50, lp_p95 = percentiles([d * 1e3 for d, _, _ in lp])
    reps = spans["boolmaps.is_representable"]
    labelings, dfs_s = yielded("boolmaps.enumerate_wbm"), total("boolmaps.enumerate_wbm")
    return {
        "feasibility.calls": len(lp),
        "feasibility.s": total("feasibility.feasible_point"),
        "feasibility.call_p50_ms": lp_p50,
        "feasibility.call_p95_ms": lp_p95,
        "feasibility.rows_mean": statistics.mean(n[0] for _, _, n in lp) if lp else 0.0,
        "feasibility.infeasible": sum(1 for _, _, n in lp if n[1]),
        "boolmaps.labelings": labelings,
        "boolmaps.dfs_s": dfs_s,
        "boolmaps.labelings_per_s": labelings / dfs_s if dfs_s else 0.0,
        "boolmaps.is_representable_calls": len(reps),
        "boolmaps.is_representable_self_s": sum(own for _, own, _ in reps),
        "boolmaps.representable_ratio": sum(n for _, _, n in reps) / len(reps) if reps else 0.0,
        "boolmaps.report_to_json_s": total("boolmaps.report_to_json"),
        "weights.induced_map_calls": len(spans["weights.induced_map"]),
        "weights.induced_map_s": total("weights.induced_map"),
        "weights.phi_count_s": total("weights.phi_count"),
        "hasse.build_calls": len(spans["hasse.build"]),
        "hasse.build_s": total("hasse.build"),
        "hasse.to_dot_s": total("hasse.to_dot"),
        "hasse.diagram_to_json_s": total("hasse.diagram_to_json"),
        "core.enumerate_words_calls": len(spans["core.enumerate_words"]),
        "core.enumerate_words_s": total("core.enumerate_words"),
        "counting.rows": yielded("counting.census_rows"),
        "counting.census_rows_s": total("counting.census_rows"),
        "counting.s_bruteforce_s": total("counting.s_bruteforce"),
        "counting.s_recursive_s": total("counting.s_recursive"),
        "counting.s_convolution_s": total("counting.s_convolution"),
        "cli.main_s": total("cli.main"),
        "cli.out_bytes": sum(o.out_bytes for o in outcomes if o.op.spec["kind"] == "cli"),
    }


def per_layer(untraced, traced) -> dict:
    """Medians across the traced passes, and the tracing overhead."""
    per_pass = [layer_metrics(p) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_ratio"] = wall(traced) / wall(untraced) - 1
    return out


def commit() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one pass of a 20-query probe")
    args = parser.parse_args(argv)
    if not (SRC / "marklat" / "__init__.py").is_file():
        print(f"error: no marklat sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    expected = workloads.load_expected()
    ops = workloads.operations(args.workload, args.seed, str(F85), smoke=args.smoke)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    modes = (False, True) if args.trace else (False,)
    passes = {mode: [] for mode in modes}
    timed_out = None
    try:
        measure_start = time.monotonic()
        while timed_out is None:
            t0 = time.monotonic()
            for traced in modes:
                try:
                    passes[traced].append(run_pass(ops, workdir, traced, started + RUN_LIMIT_S, expected))
                except Deadline as exc:
                    timed_out = str(exc)
                    break
            spent = time.monotonic() - t0
            if args.smoke or time.monotonic() + spent > measure_start + args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [o for mode in modes for p in passes[mode] for o in p]
    attempted = sum(o.op.queries for o in done)
    failed = sum(o.failed for o in done)
    if timed_out is not None:
        print(f"FAILED {timed_out}: still running at the {RUN_LIMIT_S} s limit", file=sys.stderr)
        attempted += 1
        failed += 1
    if not passes[False] or (args.trace and not passes[True]):
        metrics = {}
    elif args.trace:
        metrics = per_layer(passes[False], passes[True])
    else:
        metrics = end_to_end(passes[False])
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {metrics.get(name, 'n/a')} {unit}")
    fail_ratio = failed / attempted if attempted else 1.0
    print(f"fail_ratio {fail_ratio} 1")

    answers = [a for p in passes[False] for o in p if o.result for a in o.result.get("queries", ())]
    representable = [a["representable"] for a in answers if "representable" in a]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(passes[False]), "traced": len(passes.get(True, ()))},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "probe_representable_share": sum(representable) / len(representable) if representable else None,
    }
    print("context " + json.dumps(context, sort_keys=True))
    if args.trace and passes[True]:
        trace_out = [{"op": o.op.name, "spans": o.result["spans"]} for p in passes[True] for o in p if o.result]
        (WORK / f"{args.workload}-trace.json").write_text(json.dumps(trace_out), "utf-8")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
