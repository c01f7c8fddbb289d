import hashlib
import io
import json
import subprocess
import sys

import pytest

from marklat.cli import main
from marklat.core import GenOrder, LatticeParams, enumerate_d_slice, enumerate_words
from marklat.hasse import build, write_dot, write_json
from marklat.weights import load_f85, nr_function_to_json

from helpers import MALFORMED_JSON, oracle_dot, oracle_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    from importlib import resources

    return json.loads(resources.files("marklat.schemas").joinpath(name).read_text())


class TestUsage:
    def test_no_verb(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_unknown_verb(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert "enumerate" in out


class TestEnumerate:
    def test_plain_lines(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--r", "2")
        assert code == 0
        assert out == "".join(f"{w}\n" for w in enumerate_words(LatticeParams(3, 2)))
        assert len(out.splitlines()) == 8

    def test_json_document(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, err = run(capsys, "enumerate", "--n", "3", "--r", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("enumerate.json"))
        assert doc["count"] == 8
        assert doc["d"] is None

    def test_d_slice(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "4", "--r", "2", "--d", "2", "--json")
        doc = json.loads(out)
        assert doc["count"] == 6
        assert all(s.count("0") == 2 for s in doc["words"])

    def test_domain_error_exit(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--r", "4")
        assert code == 3
        assert "error:" in err

    def test_listings_match_the_word_path(self, capsys):
        # every L(n, r) with n <= 9, without --d and for every d
        for n in range(10):
            for r in range(n + 1):
                p = LatticeParams(n, r)
                for d in [None, *range(1, n + 1)]:
                    words = enumerate_words(p) if d is None else enumerate_d_slice(p, d)
                    flags = ["--n", str(n), "--r", str(r)] + ([] if d is None else ["--d", str(d)])
                    code, out, err = run(capsys, "enumerate", *flags)
                    assert (code, err) == (0, "")
                    assert out == "".join(f"{w}\n" for w in words), (n, r, d)
                    code, out, err = run(capsys, "enumerate", *flags, "--json")
                    assert (code, err) == (0, "")
                    doc = {"n": n, "r": r, "d": d, "count": len(words), "words": [str(w) for w in words]}
                    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n", (n, r, d)

    @pytest.mark.parametrize("d", [0, 5])
    def test_d_out_of_range_exit(self, capsys, d):
        for fmt in ([], ["--json"]):
            code, out, err = run(capsys, "enumerate", "--n", "4", "--r", "2", "--d", str(d), *fmt)
            assert (code, out) == (3, "")
            assert err == f"error: need an int d with 1 <= d <= n, got d={d} for n=4\n"


class TestHasse:
    def test_writes_dot_and_json(self, capsys, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        dot = tmp_path / "d.dot"
        js = tmp_path / "d.json"
        code, out, err = run(
            capsys, "hasse", "--n", "4", "--r", "2", "--dot", str(dot), "--json", str(js)
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph lattice {")
        doc = json.loads(js.read_text())
        jsonschema.validate(doc, load_schema("hasse_diagram.json"))
        assert doc["params"] == {"n": 4, "r": 2}

    def test_files_match_the_whole_text_oracles(self, capsys, tmp_path):
        dot = tmp_path / "d.dot"
        js = tmp_path / "d.json"
        code, out, err = run(
            capsys, "hasse", "--n", "12", "--r", "6", "--dot", str(dot), "--json", str(js)
        )
        assert code == 0
        assert out == f"wrote {dot}\nwrote {js}\n"
        d = build(LatticeParams(12, 6))
        assert dot.read_bytes() == oracle_dot(d).encode()
        assert js.read_bytes() == oracle_json(d).encode()

    def test_order_flag(self, capsys, tmp_path):
        dot = tmp_path / "d.dot"
        js = tmp_path / "d.json"
        code, out, err = run(
            capsys,
            "hasse", "--n", "6", "--r", "3",
            "--order", "leftright",
            "--dot", str(dot), "--json", str(js),
        )
        assert code == 0
        assert json.loads(js.read_text())["order"] == "leftright"

    def test_bad_order_rejected(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "hasse", "--n", "3", "--r", "1",
            "--order", "spiral", "--dot", str(tmp_path / "x.dot"),
        )
        assert code == 2

    def test_unwritable_path(self, capsys, tmp_path):
        dot = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, "hasse", "--n", "3", "--r", "1", "--dot", str(dot))
        assert code == 3
        assert err.startswith("error: ") and "FileNotFoundError" not in err
        assert not dot.exists()


class TestCount:
    def test_stdout_csv(self, capsys):
        code, out, err = run(capsys, "count", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,r,k,s_recursive,s_convolution,s_bruteforce,agree"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "census.csv"
        code, out, err = run(capsys, "count", "--n-max", "2", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("n,r,k,")

    def test_unwritable_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "census.csv"
        code, out, err = run(capsys, "count", "--n-max", "2", "--out", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "FileNotFoundError" not in err

    def test_over_the_cap_writes_nothing(self, capsys, tmp_path):
        # the cap is checked before the header or the --out file is written
        code, out, err = run(capsys, "count", "--n-max", "21")
        assert code == 4 and out == ""
        path = tmp_path / "census.csv"
        code, out, err = run(capsys, "count", "--n-max", "21", "--out", str(path))
        assert code == 4 and out == ""
        assert not path.exists()


class TestWeightsEval:
    def write_fn(self, tmp_path, doc):
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_f85_document(self, capsys, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        path = self.write_fn(tmp_path, nr_function_to_json(load_f85()))
        code, out, err = run(capsys, "weights-eval", "--fn", path, "--d", "5")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("weights_eval.json"))
        assert doc["is_weight"] is True
        assert doc["alpha_count"] == 129
        assert doc["phi_count"] == 16
        assert doc["gamma_d_upper_bound"] == 16
        assert doc["total"] == "0"
        assert doc["sigma"]["00000|000"] == "0"
        assert len(doc["sigma"]) == 256

    def test_non_weight_has_null_bound(self, capsys, tmp_path):
        path = self.write_fn(
            tmp_path, {"n": 3, "r": 1, "tilde": ["1"], "bar": ["-2", "-3"]}
        )
        code, out, err = run(capsys, "weights-eval", "--fn", path, "--d", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_weight"] is False
        assert doc["gamma_d_upper_bound"] is None

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "weights-eval", "--fn", str(tmp_path / "none.json"), "--d", "1"
        )
        assert code == 3

    def test_invalid_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, out, err = run(capsys, "weights-eval", "--fn", str(path), "--d", "1")
        assert code == 3

    def test_malformed_files_exit(self, capsys, tmp_path):
        for name, data in MALFORMED_JSON.items():
            path = tmp_path / name
            path.write_bytes(data)
            code, out, err = run(capsys, "weights-eval", "--fn", str(path), "--d", "1")
            assert code == 3 and name in err

    def test_unknown_key_exit(self, capsys, tmp_path):
        path = self.write_fn(
            tmp_path, {"n": 2, "r": 1, "tilde": [1], "bar": [-1], "typo_zero": 5}
        )
        code, out, err = run(capsys, "weights-eval", "--fn", path, "--d", "1")
        assert code == 3
        assert "typo_zero" in err

    def test_d_is_required(self, capsys, tmp_path):
        path = self.write_fn(tmp_path, nr_function_to_json(load_f85()))
        code, out, err = run(capsys, "weights-eval", "--fn", path)
        assert code == 2


class TestGammaAndReport:
    def test_gamma_document(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, err = run(capsys, "gamma", "--n", "3", "--r", "1")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("gamma_report.json"))
        assert doc["gamma"] == 5
        assert doc["gamma_tilde"] == 5
        assert doc["wb_count"] == 1
        assert doc["rwb_count"] == 1
        assert "non_representable" not in doc
        # the all-marks word sits at rank 1 here and leads the canonical order
        assert doc["minimizer"]["p_set"][0] == "1|12"

    def test_report_document(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, err = run(capsys, "report", "--n", "4", "--r", "2", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("gamma_report.json"))
        assert doc["d"] == 2
        assert "non_representable" in doc
        assert doc["rwb_count"] + len(doc["non_representable"]) == doc["wb_count"]

    def test_out_of_scale_exit(self, capsys):
        code, out, err = run(capsys, "gamma", "--n", "6", "--r", "3")
        assert code == 4
        assert "out of desk scale" in err

    def test_guard_override_allows_larger_n(self, capsys):
        code, out, err = run(capsys, "gamma", "--n", "5", "--r", "4", "--n-guard", "5")
        assert code == 0
        assert json.loads(out)["gamma"] >= 17

    def test_cap_exit(self, capsys):
        code, out, err = run(capsys, "report", "--n", "4", "--r", "2", "--cap", "2")
        assert code == 4

    def test_negative_cap_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "gamma", "--n", "3", "--r", "1", "--cap", "-3")
        assert code == 3
        assert "cap" in err and "exceeded" not in err

    def test_boundary_r_exit(self, capsys):
        code, out, err = run(capsys, "gamma", "--n", "3", "--r", "3")
        assert code == 3

    def test_unexpected_failure_exit(self, capsys, monkeypatch):
        import marklat.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("wired to fail")

        monkeypatch.setattr(cli_mod.boolmaps, "wb_vs_rwb_report", boom)
        code, out, err = run(capsys, "gamma", "--n", "3", "--r", "1")
        assert code == 5
        assert "wired to fail" in err


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "marklat.cli", "enumerate", "--n", "2", "--r", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["0|1", "1|1", "0|0", "1|0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--n", "40", "--r", "20"],
            ["gamma", "--n", "40", "--r", "20", "--d", "20"],
            ["report", "--n", "40", "--r", "20"],
        ],
    )
    def test_guard_refuses_before_allocating(self, argv):
        # a 2^40-bit mask is 128 GiB: under a 2 GiB address space limit,
        # building one first ends in MemoryError (exit 5), not the guard
        pytest.importorskip("resource")
        limit = 2 << 30
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from marklat.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 4, proc.stderr
        assert "out of desk scale" in proc.stderr

    def test_console_script_if_installed(self):
        import shutil

        exe = shutil.which("marklat")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "count", "--n-max", "1"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,r,k,")


class TestPinnedBytes:
    # one sha256 over the enumerate listings of every L(n, r) with n <= 10
    # (plain and --json, without --d and for every d), the count CSV to
    # n = 14, and both Hasse writers on L(12, 6) and L(13, 6) in both
    # orders; recorded before the verbs wrote a word at a time
    PINNED = "42f30682df5e1af8ccc127fb2e73ac3c735669ec68502374a8a301543402c6da"

    def test_outputs_are_byte_identical(self, capsys):
        digest = hashlib.sha256()
        for n in range(11):
            for r in range(n + 1):
                for d in [None, *range(1, n + 1)]:
                    flags = [] if d is None else ["--d", str(d)]
                    for fmt in ([], ["--json"]):
                        code, out, err = run(
                            capsys, "enumerate", "--n", str(n), "--r", str(r), *flags, *fmt
                        )
                        assert code == 0, (n, r, d, fmt, err)
                        digest.update(out.encode())
        code, out, err = run(capsys, "count", "--n-max", "14")
        assert code == 0, err
        digest.update(out.encode())
        for n in (12, 13):
            for order in GenOrder:
                diagram = build(LatticeParams(n, 6), order)
                for writer in (write_dot, write_json):
                    out = io.StringIO()
                    writer(diagram, out)
                    digest.update(out.getvalue().encode())
        assert digest.hexdigest() == self.PINNED
