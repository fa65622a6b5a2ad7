import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubespec import cli, complex_model
from cubespec.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "cubespec" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_writes_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, stdout, _ = run(
            capsys,
            "build", "--m", "4", "--k", "2", "--hmin", "-2", "--hmax", "2",
            "-o", str(out),
        )
        assert code == 0
        assert stdout.strip() == "vertices=64 edges=256 squares=192"
        doc = json.loads(out.read_text())
        assert len(doc["vertices"]) == 64
        assert len(doc["edges"]) == 256
        assert len(doc["squares"]) == 192

    def test_span_too_small(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "build", "--m", "4", "--k", "2", "--hmin", "0", "--hmax", "0",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "square layer" in err

    def test_size_cap_exit(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "build", "--m", "10", "--k", "5", "--hmin", "-2", "--hmax", "2",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 3
        assert "size cap" in err

    def test_size_cap_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CUBESPEC_SIZE_CAP", "8")
        code, _, err = run(
            capsys,
            "build", "--m", "4", "--k", "2", "--hmin", "0", "--hmax", "2",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 3
        monkeypatch.setenv("CUBESPEC_SIZE_CAP", "64")
        code, _, _ = run(
            capsys,
            "build", "--m", "4", "--k", "2", "--hmin", "0", "--hmax", "2",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 0

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "build", "--m", "4")
        assert code == 2

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_cap_below_one_rejected(self, cap, capsys, tmp_path, monkeypatch):
        # a cap below 1 is bad input, not a resource limit
        out = tmp_path / "x.json"
        argv = ("build", "--m", "4", "--k", "2", "--hmin", "0", "--hmax", "2", "-o", str(out))
        code, _, err = run(capsys, *argv, f"--cap={cap}")
        assert code == 2
        assert f"argument --cap: must be at least 1, got {cap}" in err
        monkeypatch.setenv("CUBESPEC_SIZE_CAP", cap)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"CUBESPEC_SIZE_CAP: must be at least 1, got {cap}" in err
        assert not out.exists()

    BUILD_42 = ("build", "--m", "4", "--k", "2", "--hmin", "-3", "--hmax", "3")

    def test_stamp_adds_top_level_stamp(self, tmp_path, capsys):
        plain, stamped = tmp_path / "plain.json", tmp_path / "stamped.json"
        assert run(capsys, *self.BUILD_42, "-o", str(plain))[0] == 0
        assert run(capsys, *self.BUILD_42, "--stamp", "-o", str(stamped))[0] == 0
        doc = json.loads(stamped.read_text())
        assert list(doc)[-1] == "stamp"
        assert doc["stamp"]["tool"].startswith("cubespec ")
        assert "created" in doc["stamp"]
        del doc["stamp"]
        assert doc == json.loads(plain.read_text())
        # check loads a stamped document like any other
        code_plain, out_plain, _ = run(capsys, "check", str(plain), "--margin", "2", "--json")
        code, out, _ = run(capsys, "check", str(stamped), "--margin", "2", "--json")
        assert code == code_plain == 0
        assert out == out_plain

    def test_without_output_writes_stdout(self, capsys):
        code, stdout, err = run(capsys, *self.BUILD_42)
        assert code == 0
        assert len(json.loads(stdout)["vertices"]) == 80
        assert err.strip() == "vertices=80 edges=384 squares=320"

    def test_json_flag_removed(self, capsys):
        code, _, err = run(capsys, *self.BUILD_42, "--json")
        assert code == 2
        assert "--json" in err


class TestCheck:
    def build_complex(self, tmp_path, capsys, m="4", k="2", lo="-4", hi="4"):
        path = tmp_path / "complex.json"
        code, _, _ = run(
            capsys,
            "build", "--m", m, "--k", k, "--hmin", lo, "--hmax", hi,
            "-o", str(path),
        )
        assert code == 0
        return path

    def test_built_complex_clean_with_margin(self, tmp_path, capsys):
        path = self.build_complex(tmp_path, capsys)
        report = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "check", str(path), "--margin", "2", "-o", str(report)
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["clean"] is True
        assert doc["core"] == {"h_lo": -2, "h_hi": 2}
        assert "violations: self_cross=0 one_sided=0 self_osc=0 inter_osc=0" in stdout

    def test_built_document_margin_defaults_to_two(self, tmp_path, capsys):
        path = self.build_complex(tmp_path, capsys, k="3", lo="-3", hi="3")
        code, stdout, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["clean"] is True
        assert doc["core"] == {"h_lo": -1, "h_hi": 1}
        # margin 0 reports the truncation-boundary artefacts as findings
        code, stdout, _ = run(capsys, "check", str(path), "--margin", "0", "--json")
        assert code == 1
        doc = json.loads(stdout)
        assert len(doc["violations"]["inter_osc"]) == 648
        assert "core" not in doc
        # without params the document counts as hand-made and keeps margin 0
        raw = json.loads(path.read_text())
        raw["params"] = None
        path.write_text(json.dumps(raw))
        code, stdout, _ = run(capsys, "check", str(path), "--json")
        assert code == 1
        assert "core" not in json.loads(stdout)

    def test_default_margin_needs_room(self, tmp_path, capsys):
        path = self.build_complex(tmp_path, capsys, lo="0", hi="2")
        code, stdout, err = run(capsys, "check", str(path))
        assert code == 2
        assert "--margin 2" in err
        assert "violations" not in stdout

    def test_klein_bottle_fixture(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys,
            "check", str(FIXTURES / "klein_bottle.json"), "-o", str(report),
        )
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["one_sided"] == ["a"]
        assert doc["violations"]["one_sided"][0]["class"] == "a"

    def test_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "graph.dot"
        code, _, _ = run(
            capsys,
            "check", str(FIXTURES / "torus.json"), "--dot", str(dot), "--json",
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph interactions {")
        assert '"a" -- "b" [style=solid];' in text

    def test_margin_needs_heights(self, capsys):
        code, _, err = run(
            capsys, "check", str(FIXTURES / "torus.json"), "--margin", "1"
        )
        assert code == 2
        assert "height" in err

    @pytest.mark.parametrize("margin", ["10", "-2"])
    def test_margin_without_core_rejected(self, margin, tmp_path, capsys):
        path = self.build_complex(tmp_path, capsys, lo="-3", hi="3")
        code, stdout, err = run(capsys, "check", str(path), "--margin", margin)
        assert code == 2
        assert "--margin" in err
        assert "violations" not in stdout

    def test_margin_checked_before_any_kernel(self, tmp_path, capsys, monkeypatch):
        path = self.build_complex(tmp_path, capsys, lo="-3", hi="3")

        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran before the core was checked")

        for name in ("check_npc", "compute_hyperplanes", "interaction_report"):
            monkeypatch.setattr(cli, name, kernel)
        code, _, err = run(capsys, "check", str(path), "--margin", "4")
        assert code == 2
        assert "--margin 4 leaves no core edges" in err

    def test_non_integer_params_rejected(self, tmp_path, capsys):
        path = self.build_complex(tmp_path, capsys, lo="0", hi="2")
        doc = json.loads(path.read_text())
        doc["params"]["m"] = 4.5
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "params: m must be an integer" in err

    def test_document_indexed_once(self, tmp_path, capsys, monkeypatch):
        # the loader's validation hands its integer view to the kernels
        path = self.build_complex(tmp_path, capsys, lo="-3", hi="3")
        calls = []
        view = complex_model.ComplexIndex
        monkeypatch.setattr(
            complex_model, "ComplexIndex", lambda *fields: calls.append(1) or view(*fields)
        )
        code, _, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        assert len(calls) == 1

    def test_malformed_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [], "edges": []}')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "squares" in err


class TestVerify:
    def test_guarantee_pair_clean(self, capsys, tmp_path):
        out = tmp_path / "certs.json"
        code, _, _ = run(
            capsys, "verify", "--m", "4", "--k", "3", "-o", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_empty"] is True
        assert doc["quotient_order"] == 81
        assert len(doc["certificates"]) == 2 + 8 * 4
        assert all(s["match"] for s in doc["stabilizers"])

    def test_human_table(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--m", "4", "--k", "2")
        assert code == 0
        assert "interosc_2_4" in stdout
        assert "all_empty=True" in stdout
        assert "warning" not in stdout

    def test_hypotheses_warning_and_findings(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--m", "3", "--k", "2")
        assert code == 1
        assert "warning" in stdout
        assert "empty=NO" in stdout

    def test_cross_validate(self, capsys, tmp_path):
        out = tmp_path / "certs.json"
        code, stdout, _ = run(
            capsys,
            "verify", "--m", "4", "--k", "2", "--cross-validate",
            "--hmin", "-4", "--hmax", "4", "--margin", "2", "-o", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["cross_validation"]["agreement"] is True
        assert doc["cross_validation"]["class_mismatches"] == []
        assert "cross-validation agreement=True" in stdout

    @pytest.mark.parametrize("margin", ["10", "-2"])
    def test_cross_validate_margin_without_core_rejected(self, margin, capsys):
        code, _, err = run(
            capsys,
            "verify", "--m", "4", "--k", "2", "--cross-validate",
            "--hmin", "-3", "--hmax", "3", "--margin", margin, "--json",
        )
        assert code == 2
        assert "--margin" in err

    def test_cap_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--m", "4", "--k", "3", "--cap", "10")
        assert code == 3
        assert "size cap 10" in err
        code, _, _ = run(capsys, "verify", "--m", "4", "--k", "3", "--cap", "81")
        assert code == 0

    @pytest.mark.parametrize("cap", ["-1", "0"])
    @pytest.mark.parametrize("cross_validate", [False, True])
    def test_cap_below_one_rejected(self, cap, cross_validate, capsys, monkeypatch):
        argv = ["verify", "--m", "4", "--k", "3", "--json"]
        if cross_validate:
            argv += ["--cross-validate", "--hmin", "-5", "--hmax", "5"]
        code, stdout, err = run(capsys, *argv, "--cap", cap)
        assert (code, stdout) == (2, "")
        assert f"argument --cap: must be at least 1, got {cap}" in err
        monkeypatch.setenv("CUBESPEC_SIZE_CAP", cap)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert f"CUBESPEC_SIZE_CAP: must be at least 1, got {cap}" in err

    def test_order_past_the_default_cap(self, capsys):
        # 7^6 = 117649 > 65536: verify builds nothing, so without --cap or
        # the environment variable the group order is not bounded
        code, stdout, _ = run(capsys, "verify", "--m", "6", "--k", "7", "--json")
        assert code == 0
        assert json.loads(stdout)["all_empty"] is True
        # the cross-validation build keeps the default cap, checked up front
        code, stdout, err = run(
            capsys, "verify", "--m", "6", "--k", "7", "--cross-validate",
            "--hmin", "-9", "--hmax", "9", "--json",
        )
        assert code == 3
        assert stdout == ""
        assert "size cap 65536" in err

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBESPEC_SIZE_CAP", "10")
        code, _, err = run(capsys, "verify", "--m", "4", "--k", "3")
        assert code == 3
        assert "size cap 10" in err
        monkeypatch.setenv("CUBESPEC_SIZE_CAP", "81")
        code, _, _ = run(capsys, "verify", "--m", "4", "--k", "3")
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [["--hmin", "-5"], ["--hmax", "5"], ["--margin", "2"], ["--margin", "0"],
         ["--hmin", "-5", "--hmax", "5", "--margin", "2"]],
    )
    def test_cross_validation_flags_need_cross_validate(self, flags, capsys):
        code, stdout, err = run(capsys, "verify", "--m", "4", "--k", "2", *flags, "--json")
        assert code == 2
        assert stdout == ""
        assert f"{flags[0]} only applies with --cross-validate" in err

    def test_cross_validate_margin_defaults_to_two(self, capsys):
        argv = ("verify", "--m", "4", "--k", "2", "--cross-validate",
                "--hmin", "-3", "--hmax", "3", "--json")
        code, stdout, _ = run(capsys, *argv)
        # margin 2 leaves out the truncation-boundary artefacts
        assert code == 0
        assert json.loads(stdout)["cross_validation"]["margin"] == 2
        # margin 0 keeps them in the core
        code, stdout, _ = run(capsys, *argv, "--margin", "0")
        assert code == 1
        assert json.loads(stdout)["cross_validation"]["margin"] == 0

    def test_cross_validate_default_margin_needs_room(self, capsys):
        code, stdout, err = run(
            capsys,
            "verify", "--m", "4", "--k", "2", "--cross-validate",
            "--hmin", "-1", "--hmax", "2", "--json",
        )
        assert code == 2
        assert stdout == ""
        assert "--margin 2" in err

    def test_cross_validate_needs_span(self, capsys):
        code, _, err = run(
            capsys, "verify", "--m", "4", "--k", "2", "--cross-validate"
        )
        assert code == 2
        assert "hmin" in err


class TestAlgebraCommands:
    def test_snf_json_matrix(self, capsys, tmp_path):
        mat = tmp_path / "m.json"
        mat.write_text("[[2, 2, 2, 2]]")
        out = tmp_path / "snf.json"
        code, stdout, _ = run(
            capsys, "snf", "--matrix", str(mat), "-o", str(out)
        )
        assert code == 0
        assert stdout.strip() == "invariant_factors=2"
        doc = json.loads(out.read_text())
        assert doc["D"] == [[2, 0, 0, 0]]

    def test_snf_text_grid(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("2 4\n6 8\n")
        code, stdout, _ = run(capsys, "snf", "--matrix", str(mat))
        assert code == 0
        assert stdout.strip() == "invariant_factors=2,4"

    def test_snf_malformed(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("2 x\n")
        code, _, _ = run(capsys, "snf", "--matrix", str(mat))
        assert code == 2

    def test_abelianize(self, capsys):
        code, stdout, _ = run(capsys, "abelianize", "--m", "4", "--k", "2")
        assert code == 0
        assert stdout.strip() == "C2 x Z^3"

    def test_growth(self, capsys):
        code, stdout, _ = run(
            capsys, "growth", "--m", "4", "--k", "2", "--radius", "5"
        )
        assert code == 0
        assert stdout.strip() == "11"

    def test_growth_m3_rejected(self, capsys):
        code, _, _ = run(capsys, "growth", "--m", "3", "--k", "2", "--radius", "5")
        assert code == 2

    def test_torsion_probe(self, capsys, tmp_path):
        out = tmp_path / "probe.json"
        code, stdout, _ = run(
            capsys, "torsion-probe", "--m", "4", "--k", "3", "-o", str(out)
        )
        assert code == 0
        assert "period=3" in stdout
        doc = json.loads(out.read_text())
        assert doc["period"] == 3
        assert doc["ones_exactly_at_multiples_of_k"] is True
        assert doc["values"][:4] == [1, 3, 3, 1]


class TestDeterminism:
    def run_twice(self, capsys, tmp_path, *argv):
        paths = []
        for n in (1, 2):
            out = tmp_path / f"out{n}.json"
            code = main(list(argv) + ["-o", str(out)])
            capsys.readouterr()
            assert code in (0, 1)
            paths.append(out.read_bytes())
        return paths

    def test_byte_identical_outputs(self, capsys, tmp_path):
        build = ["build", "--m", "4", "--k", "2", "--hmin", "-2", "--hmax", "2"]
        a, b = self.run_twice(capsys, tmp_path, *build)
        assert a == b
        verify = ["verify", "--m", "4", "--k", "2"]
        a, b = self.run_twice(capsys, tmp_path, *verify)
        assert a == b
        complex_path = tmp_path / "c.json"
        main(build[:1] + build[1:] + ["-o", str(complex_path)])
        capsys.readouterr()
        check = ["check", str(complex_path), "--margin", "2"]
        a, b = self.run_twice(capsys, tmp_path, *check)
        assert a == b

    def test_stamp_opts_in_metadata(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code, _, _ = run(
            capsys,
            "verify", "--m", "4", "--k", "2", "--stamp", "-o", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["stamp"]["tool"].startswith("cubespec")


class TestFixtureRegression:
    @pytest.mark.parametrize(
        "name",
        [
            "torus",
            "klein_bottle",
            "osculating_wedge",
            "link_triangle",
            "double_glue",
            "same_type_corner",
        ],
    )
    def test_report_matches_sidecar(self, name, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "check", str(FIXTURES / f"{name}.json"), "-o", str(report)
        )
        got = json.loads(report.read_text())
        want = json.loads((FIXTURES / f"{name}.expected.json").read_text())
        assert got == want
        assert code == (0 if want["clean"] else 1)


def test_python_m_cubespec_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cubespec", "abelianize", "--m", "4", "--k", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "C2 x Z^3"
    proc = subprocess.run(
        [sys.executable, "-m", "cubespec", "build", "--m", "4"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
