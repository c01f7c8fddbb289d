"""Run one benchmark operation in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json, with marklat's ``src``
directory on PYTHONPATH.  The import of marklat.cli and marklat.boolmaps
is timed first, as the set-up every CLI call pays; then a fixed loop
that gauges the host's speed (``calibrate``).  The operation's own
standard output goes to this process's standard output; timings,
answers, peak resident memory and (when the spec asks for tracing) the
spans go to RESULT.json.
"""

import sys
from time import perf_counter

_t0 = perf_counter()
import marklat.boolmaps  # noqa: E402
import marklat.cli  # noqa: E402

SETUP_S = perf_counter() - _t0

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from fractions import Fraction  # noqa: E402

from marklat import boolmaps, cli, core, hasse  # noqa: E402
from marklat.core import LatticeParams  # noqa: E402


class _Untraced:
    """Stands in for spans.Tracer when tracing is off."""

    op = None

    def span(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs), None


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.  VmHWM counts only
    what was mapped since exec; ru_maxrss also keeps the peak of the
    parent this process was forked from."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def calibrate() -> float:
    """Best of three timings of a fixed piece of pure-Python work
    (rational arithmetic, dicts, bit counts and string building, as in
    marklat's own hot paths), with the garbage collector off: the host's
    speed just before the operation, independent of marklat."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            acc = Fraction(0)
            table = {}
            out = []
            for i in range(1, 500):
                acc += Fraction(i % 7 - 3, i % 5 + 1)
                key = (i & 0x3F, i >> 3)
                table[key] = table.get(key, 0) + (i * 2654435761 & 0xFFFF).bit_count()
                out.append(f"{i % 10}{i % 7}|{i % 3}")
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best


def _sorted_strings(words) -> list:
    return sorted(str(w) for w in words)


def run_cold(spec, tracer) -> dict:
    """Time the one call a cold operation makes and return its answer."""
    kind = spec["kind"]
    tracer.op = spec["name"]
    if kind == "cli":
        t0 = perf_counter()
        rc, _ = tracer.span("cli.main", cli.main, spec["argv"])
        sys.stdout.flush()
        return {"op_s": perf_counter() - t0, "rc": rc}
    params = LatticeParams(spec["n"], spec.get("r", 0))
    if kind == "census":
        # consume every labeling; keep only what the checks need
        def consume():
            hist = {}
            first = last = None
            for bmap in boolmaps.enumerate_wbm(params, n_guard=spec["n_guard"]):
                if first is None:
                    first = bmap
                last = bmap
                hist[bmap.p_count] = hist.get(bmap.p_count, 0) + 1
            return hist, first, last

        t0 = perf_counter()
        (hist, first, last), _ = tracer.span("bench.census", consume)
        op_s = perf_counter() - t0
        return {
            "op_s": op_s,
            "count": sum(hist.values()),
            "hist": {str(k): v for k, v in sorted(hist.items())},
            "first": _sorted_strings(first.p_set),
            "last": _sorted_strings(last.p_set),
        }
    if kind == "gamma":
        call = (boolmaps.gamma, params)
    elif kind == "gamma_tilde":
        call = (lambda p: boolmaps.gamma_tilde(p, n_guard=spec["n_guard"]), params)
    elif kind == "psi":
        call = (boolmaps.psi, spec["n"], spec["d"])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    t0 = perf_counter()
    res, _ = tracer.span("bench." + kind, *call)
    return {"op_s": perf_counter() - t0, "value": res.value}


def run_probe(spec, tracer) -> dict:
    """Answer every probe query in this warm interpreter, ``rounds``
    times over, and keep each query's fastest time.  Inputs are parsed
    and lattices built before the first timed query."""
    kind = spec["kind"]
    queries = spec["queries"]
    lattices = {}
    for q in queries:
        key = (q["n"], q["r"])
        if key not in lattices:
            params = LatticeParams(*key)
            if kind == "probe_representable":
                lattices[key] = {str(w): w for w in core.enumerate_words(params)}
            else:
                hasse.build(params)
    calls = []
    for q in queries:
        params = LatticeParams(q["n"], q["r"])
        if kind == "probe_representable":
            words = lattices[(q["n"], q["r"])]
            bmap = boolmaps.BooleanMap(params, frozenset(words[s] for s in q["p"]))
            calls.append((boolmaps.is_representable, bmap))
        else:
            calls.append((core.enumerate_d_slice, params, q["d"]))
    answers = [None] * len(calls)
    for _ in range(spec["rounds"]):
        for i, call in enumerate(calls):
            tracer.op = f"{spec['name']}#{i}"
            t0 = perf_counter()
            try:
                res, _ = tracer.span("bench." + kind, *call)
            except Exception as exc:  # one failed query must not end the probe
                res = f"{type(exc).__name__}: {exc}"
            s = perf_counter() - t0
            first = answers[i]
            if first is None:
                answers[i] = {"s": s, "res": res}
                continue
            first["s"] = min(first["s"], s)
            if res != first["res"]:
                first["res"] = "the answer changed between rounds"
    for a in answers:
        if isinstance(a["res"], str):
            a["error"] = a.pop("res")
    for a in answers:
        res = a.pop("res", None)
        if res is None:
            continue
        if kind == "probe_representable":
            w = res.witness
            a["representable"] = res.representable
            a["witness"] = [[str(v) for v in w.pos_values], [str(v) for v in w.neg_values]] if w else None
        else:
            a["digest"] = hashlib.sha256("\n".join(_sorted_strings(res)).encode()).hexdigest()
    return {"op_s": sum(a["s"] for a in answers), "queries": answers}


def main(spec_path, result_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if os.path.commonpath([src, os.path.realpath(marklat.__file__)]) != src:
        print(f"marklat was imported from {marklat.__file__}, not from {src}", file=sys.stderr)
        return 3
    calib_s = calibrate()
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        tracer = _Untraced()
    try:
        if spec["kind"].startswith("probe_"):
            out = run_probe(spec, tracer)
        else:
            out = run_cold(spec, tracer)
    finally:
        if spec["trace"]:
            tracer.restore()
    out["setup_s"] = SETUP_S
    out["calib_s"] = calib_s
    out["peak_rss_kb"] = peak_rss_kb()
    if spec["trace"]:
        out["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
