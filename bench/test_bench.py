"""Tests of the benchmark itself: tracing, self time, the independent
reference and a smoke run of every workload.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import spans  # noqa: E402
from marklat import LatticeParams, boolmaps, cli, core, counting, enumerate_wbm, leq  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _patched_names():
    targets = [(module, attr) for _, module, attr, _ in spans.FUNCTIONS]
    targets += [(module, attr) for _, module, attr in spans.GENERATORS]
    return [(sys.modules[module], attr) for module, attr in targets]


def test_wrappers_record_spans_and_restore_the_originals(capsys):
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in _patched_names()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, attr) is not fn for mod, attr, fn in originals)
        assert boolmaps.gamma(LatticeParams(4, 2)).value == 9
        tracer.op = "cli"
        assert cli.main(["count", "--n-max", "2"]) == 0
        assert cli.main(["enumerate", "--n", "3", "--r", "1"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert all(getattr(mod, attr) is fn for mod, attr, fn in originals)
    names = {s[0] for s in tracer.spans}
    assert {
        "boolmaps.enumerate_wbm",
        "boolmaps.is_representable",
        "feasibility.feasible_point",
        "weights.induced_map",
        "hasse.build",
        "core.enumerate_words",
        "counting.census_rows",
        "counting.s_bruteforce",
    } <= names
    lp = [s for s in tracer.spans if s[0] == "feasibility.feasible_point"]
    assert all(tracer.spans[s[3]][0] == "boolmaps.is_representable" for s in lp)
    rows = [s for s in tracer.spans if s[0] == "counting.census_rows"]
    assert sum(s[5] for s in rows) == len(list(counting.census_rows(2)))
    # the CLI calls its own imported copy of enumerate_words
    assert any(s[0] == "core.enumerate_words" and s[4] == "cli" for s in tracer.spans)
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_self_time_subtracts_the_union_of_children():
    s = [
        ["root", 0.0, 10.0, None, "op", None],
        ["a", 1.0, 3.0, 0, "op", None],
        ["b", 2.0, 5.0, 0, "op", None],  # overlaps a: [1, 5] is covered once
        ["c", 8.0, 12.0, 0, "op", None],  # clipped to the parent's end
        ["a.1", 1.5, 2.5, 1, "op", None],
        ["other", 20.0, 21.0, None, "op2", None],
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


@pytest.mark.parametrize("n, r", [(4, 2), (5, 3), (5, 1)])
def test_reference_agrees_with_marklat(n, r):
    params = LatticeParams(n, r)
    lat = reference.Lattice(n, r)
    words = {w.mask: w for w in core.enumerate_words(params)}
    assert all(lat.strings[m] == str(w) for m, w in words.items())
    for i in range(1 << n):
        for k in range(1 << n):
            assert bool(lat.up[i] >> k & 1) == leq(words[i], words[k])
    ours = sorted(lat.weighted_labelings())
    theirs = sorted(sum(1 << w.mask for w in b.p_set) for b in enumerate_wbm(params))
    assert ours == theirs


def test_reference_checks_both_answers():
    params = LatticeParams(5, 3)
    lat = reference.Lattice(5, 3)
    seen = set()
    for bmap in enumerate_wbm(params):
        pm = sum(1 << w.mask for w in bmap.p_set)
        res = boolmaps.is_representable(bmap)
        if res.representable:
            w = res.witness
            assert reference.witness_error(lat, pm, w.pos_values, w.neg_values) is None
            assert reference.witness_error(lat, pm ^ 1 << 1, w.pos_values, w.neg_values) is not None
        assert reference.highs_infeasible(lat, pm) is not res.representable
        seen.add(res.representable)
    assert seen == {True, False}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert f"{m['name']} {value} {m['unit']}" in lines


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "census_lattice", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
