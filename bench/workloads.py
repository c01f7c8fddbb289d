"""The benchmark's workloads: their operations, seeded inputs and checks.

Cold operations are fixed cases; the seed draws the probe's queries.
Every check compares against facts that do not come from the code under
test: digests recorded at the seed commit (expected.json), closed forms,
and the independent reference in reference.py.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import reference

HERE = Path(__file__).resolve().parent
PROBE_SIZE = 200

# gamma(L(6,3)) and psi(6,2) stay out: each takes about 70 s at the seed
# commit, and the extremal probe already runs the LP at n = 6.  The
# labeling census and the lattice cases share one workload: both bypass
# the LP, and two workloads leave each run long enough to repeat its
# passes on a host whose speed drifts.
NAMES = ("extremal", "census_lattice")


@dataclass
class Op:
    """One operation: a spec for worker.py, the files it writes inside
    its work directory, and a check that returns one message per failed
    query (a cold operation is one query)."""

    name: str
    spec: dict
    check: Callable
    files: tuple = ()
    queries: int = 1


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text("utf-8"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _problems(*items) -> list:
    """A cold operation's failure: at most one message."""
    found = [m for m in items if m]
    return ["; ".join(found)] if found else []


def _cli(argv, files=(), fact=None, name=None) -> Op:
    """A CLI call checked against recorded digests of its stdout and of
    every file it writes, plus an optional fact on its JSON stdout."""
    name = name or "cli " + " ".join(argv)

    def check(result, outputs, digests, expected):
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        want = expected["outputs"].get(name)
        if want is None:
            return ["no recorded digest"]
        wrong = sorted(k for k in want if digests.get(k) != want[k])
        return _problems(
            f"output differs from the seed commit: {', '.join(wrong)}" if wrong else None,
            fact(json.loads(outputs["stdout"])) if fact else None,
        )

    return Op(name, {"kind": "cli", "argv": list(argv)}, check, tuple(files))


def _value(kind, want, **spec) -> Op:
    name = kind + " " + " ".join(f"{k}={v}" for k, v in spec.items())

    def check(result, outputs, digests, expected):
        return _problems(result["value"] != want and f"value {result['value']}, expected {want}")

    return Op(name, {"kind": kind, **spec}, check)


def _gamma_fact(n):
    want = 2 ** (n - 1) + 1

    def fact(doc):
        if doc["gamma"] != want or doc["gamma_tilde"] != want:
            return f"gamma {doc['gamma']} and gamma_tilde {doc['gamma_tilde']}, expected {want}"
        return None

    return fact


def _census(n, r, n_guard) -> Op:
    name = f"census n={n} r={r}"

    def check(result, outputs, digests, expected):
        want = expected["census"]
        wrong = [k for k in ("count", "hist", "first", "last") if result[k] != want.get(k)]
        return _problems(wrong and f"labelings differ from the seed commit: {', '.join(wrong)}")

    return Op(name, {"kind": "census", "n": n, "r": r, "n_guard": n_guard}, check)


def _probe(name, kind, queries, check_query, rounds) -> Op:
    """Queries answered in one warm interpreter.  A probe much shorter
    than a second runs its queries for several rounds, each query
    keeping its fastest time, so that one slow moment of the host does
    not decide every sample; the rounds are fixed, so traced counts
    repeat."""
    def check(result, outputs, digests, expected):
        answers = result["queries"]
        if len(answers) != len(queries):
            return [f"{len(answers)} answers to {len(queries)} queries"] * len(queries)
        out = []
        for i, answer in enumerate(answers):
            problem = answer.get("error") or check_query(i, answer)
            if problem:
                out.append(f"query {i}: {problem}")
        return out

    return Op(name, {"kind": kind, "queries": queries, "rounds": rounds}, check, queries=len(queries))


def probe_representable(rng, size) -> Op:
    """Weighted labelings of L(6,3) and L(6,4), half each; about a third
    are representable.  Each lattice's labelings are sorted by the size
    of their boundary, which sets the LP's rows, and drawn systematically
    from a seeded offset, so every seed sees the same spread of LP sizes.
    Positive answers are checked by exact sums, negative ones by HiGHS."""
    inputs = []
    for r in (3, 4):
        lat = reference.Lattice(6, r)
        maps = sorted(lat.weighted_labelings(), key=lambda pm: (lat.boundary_size(pm), pm))
        step = len(maps) / (size // 2)
        offset = rng.random() * step
        inputs += [(lat, maps[int(offset + k * step)]) for k in range(size // 2)]
    rng.shuffle(inputs)
    queries = [
        {"n": lat.n, "r": lat.r, "p": [lat.strings[m] for m in range(1 << lat.n) if pm >> m & 1]}
        for lat, pm in inputs
    ]
    verdicts = {}

    def check_query(i, answer):
        lat, pm = inputs[i]
        if answer["representable"]:
            if answer["witness"] is None:
                return "representable without a witness"
            return reference.witness_error(lat, pm, *answer["witness"])
        if i not in verdicts:
            verdicts[i] = reference.highs_infeasible(lat, pm)
        return None if verdicts[i] else "HiGHS finds a valuation for a map called not representable"

    return _probe("probe is_representable L(6,3|4)", "probe_representable", queries, check_query, 1)


def probe_d_slice(rng, size) -> Op:
    """enumerate_d_slice on L(11, r) for one seeded r and seeded d,
    checked against the reference's own rendering of every d-subset.  At
    n = 11 the warm lattice stays below the peak memory of the n = 14 CLI
    calls."""
    n = 11
    r = rng.randint(0, n)
    queries = [{"n": n, "r": r, "d": rng.randint(1, n)} for _ in range(size)]
    wanted = {}

    def check_query(i, answer):
        q = queries[i]
        key = (q["r"], q["d"])
        if key not in wanted:
            words = sorted(
                reference.word_string(n, q["r"], m) for m in range(1 << n) if bin(m).count("1") == q["d"]
            )
            wanted[key] = digest("\n".join(words).encode())
        return answer["digest"] != wanted[key] and f"words differ for r={q['r']} d={q['d']} (expected {comb(n, q['d'])})"

    return _probe("probe enumerate_d_slice L(11,r)", "probe_d_slice", queries, check_query, 100)


def operations(workload: str, seed: int, f85_path: str, smoke: bool = False) -> list:
    """The ordered operations of one pass.  The smoke pass is a 20-query
    probe alone."""
    rng = random.Random(seed)
    size = 20 if smoke else PROBE_SIZE
    if workload == "extremal":
        cold = [_cli(["report", "--n", "5", "--r", str(r)], fact=_gamma_fact(5)) for r in range(1, 5)]
        cold += [_value("gamma", 17, n=5, r=r) for r in range(2, 5)]
        cold.append(_value("psi", 3, n=5, d=2))
        probe = probe_representable(rng, size)
    elif workload == "census_lattice":
        cold = [_census(7, 5, 7)]
        cold += [_value("gamma_tilde", 33, n=6, r=r, n_guard=6) for r in range(1, 6)]
        cold += [_value("gamma_tilde", 65, n=7, r=r, n_guard=7) for r in (1, 2, 6)]
        for n, r in ((12, 6), (13, 6), (14, 7)):
            stem = f"hasse-{n}-{r}"
            cold.append(_cli(["hasse", "--n", str(n), "--r", str(r), "--dot", f"{stem}.dot", "--json", f"{stem}.json"], files=(f"{stem}.dot", f"{stem}.json")))
        cold.append(_cli(["hasse", "--n", "14", "--r", "3", "--order", "leftright", "--dot", "hasse-14-3-lr.dot"], files=("hasse-14-3-lr.dot",)))
        cold.append(_cli(["enumerate", "--n", "14", "--r", "7"]))
        cold.append(_cli(["enumerate", "--n", "14", "--r", "7", "--d", "7", "--json"]))
        cold.append(_cli(["count", "--n-max", "14"]))
        cold.append(_cli(["weights-eval", "--fn", f85_path, "--d", "5"], fact=_f85_fact, name="cli weights-eval f85 --d 5"))
        probe = probe_d_slice(rng, size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [probe] if smoke else cold + [probe]


def _f85_fact(doc):
    return doc["phi_count"] != 16 and f"phi_count {doc['phi_count']}, expected 16"
