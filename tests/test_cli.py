import argparse
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cubespec import cli, complex_model, hyperplane_engine, verifier
from cubespec.coeff_group import GroupParams
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

    def test_walk_that_does_not_close_refused(self, tmp_path, capsys, monkeypatch):
        build = complex_model.build_quotient_complex

        def flipped(*args, **kwargs):
            cells = build(*args, **kwargs)
            cells.sides[5] ^= 1  # side 1 of square 1 runs down its edge
            return cells

        monkeypatch.setattr(complex_model, "build_quotient_complex", flipped)
        with pytest.raises(complex_model.ComplexFormatError) as fault:
            complex_model.validate_complex(flipped(GroupParams(4, 2), -3, 3))
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, *self.BUILD_42, "-o", str(out))
        assert code == 2
        assert err == f"error: {fault.value}\n" and "walk does not close" in err
        assert stdout == "" and not out.exists()


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

    def test_margin_needs_a_vertex(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"params": null, "vertices": [], "edges": [], "squares": []}')
        code, stdout, err = run(capsys, "check", str(path), "--margin", "1")
        assert (code, stdout) == (2, "")
        assert err == "error: vertices: --margin needs at least one vertex\n"

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

        monkeypatch.setattr(complex_model, "check_npc", kernel)
        for name in ("compute_hyperplanes", "interaction_report"):
            monkeypatch.setattr(hyperplane_engine, name, kernel)
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

    @pytest.mark.parametrize("source", ["same_type_corner", "osculating_wedge", "built"])
    def test_no_cell_records(self, source, tmp_path, capsys, monkeypatch):
        # the loader reads a document straight into its integer view
        if source == "built":
            path = self.build_complex(tmp_path, capsys, k="3", lo="-3", hi="3")
        else:
            path = FIXTURES / f"{source}.json"
        for name in ("Vertex", "Edge", "Square", "SquareComplex"):
            assert not hasattr(complex_model, name)  # the records live in the test oracle
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code in (0, 1) and json.loads(out)["npc"]["passed"]

    def test_unknown_fields_change_nothing(self, tmp_path, capsys):
        path = self.build_complex(tmp_path, capsys, k="3", lo="-3", hi="3")
        code, want, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        doc = json.loads(path.read_text())
        doc["provenance"] = {"note": "hello", "edges": []}
        for section in ("vertices", "edges", "squares"):
            for rec in doc[section][::7]:
                rec["colour"] = ["red", {"depth": None}]
        for rec in doc["squares"][::5]:
            rec["boundary"][1]["weight"] = 1.5
        path.write_text(json.dumps(doc))
        code, got, _ = run(capsys, "check", str(path), "--json")
        assert (code, got) == (0, want)

    def test_malformed_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [], "edges": []}')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "squares" in err

    def test_nesting_too_deep_for_the_decoder(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        nested = "[" * 100000 + "]" * 100000
        deep.write_text(f'{{"params": null, "vertices": [], "edges": [], "squares": [], "a": {nested}}}')
        code, out, err = run(capsys, "check", str(deep))
        assert (code, out) == (2, "")
        assert err == "error: $: nesting too deep for the JSON decoder\n"

    def test_non_utf8_document_names_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: ") and "utf-8" in err
        # past the first block the message is still that of the whole file decoded at once
        late = tmp_path / "late.json"
        late.write_bytes(b'{"a": "' + b"x" * 100_000 + b'\xff"}')
        with pytest.raises(UnicodeDecodeError) as whole:
            late.read_bytes().decode("utf-8")
        code, out, err = run(capsys, "check", str(late))
        assert (code, out) == (2, "")
        assert err == f"error: {late}: {whole.value}\n"
        assert "utf-8" in err and "position 100007" in err


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

    def test_cross_validate_indexes_its_build_once(self, capsys, monkeypatch):
        # the build's columns become one view, which cross-validation reads
        calls = []
        made = complex_model.validate_complex

        def counted(cells):
            calls.append(1)
            return made(cells)

        for module in (complex_model, cli, verifier):
            monkeypatch.setattr(module, "validate_complex", counted, raising=False)
        code, _, _ = run(
            capsys,
            "verify", "--m", "4", "--k", "2", "--cross-validate",
            "--hmin", "-4", "--hmax", "4", "--json",
        )
        assert code == 0
        assert len(calls) == 1

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
        # a given cap bounds the order all the same
        code, stdout, err = run(capsys, "verify", "--m", "6", "--k", "7", "--cap", "65536")
        assert (code, stdout) == (3, "")
        assert "coefficient group order 117649 exceeds size cap 65536" in err
        # the cross-validation build keeps the default cap, checked up front
        code, stdout, err = run(
            capsys, "verify", "--m", "6", "--k", "7", "--cross-validate",
            "--hmin", "-9", "--hmax", "9", "--json",
        )
        assert code == 3
        assert stdout == ""
        assert "size cap 65536" in err

    @pytest.mark.parametrize("m, k", [(5, 11), (4, 13)])
    def test_regime_pairs_past_the_cap(self, m, k, capsys):
        # 11^5 and 13^4 exceed the default cap: every family is empty and
        # certified by its named character, the only character verify tries
        code, stdout, _ = run(capsys, "verify", "--m", str(m), "--k", str(k), "--json")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["all_empty"] is True
        families = [c for c in doc["certificates"] if c["named_character"] is not None]
        assert len(families) == 8 * m
        assert all(c["named_character_valid"] is True for c in families)

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

    @pytest.mark.parametrize("text, factors", [("5", "5"), ("-3\n", "3")])
    def test_snf_one_entry_grid(self, text, factors, capsys, tmp_path):
        # a lone integer is a 1 x 1 grid, although JSON would decode it
        mat = tmp_path / "m.txt"
        mat.write_text(text)
        code, stdout, _ = run(capsys, "snf", "--matrix", str(mat))
        assert (code, stdout) == (0, f"invariant_factors={factors}\n")

    def test_snf_malformed_json_names_the_file(self, capsys, tmp_path):
        mat = tmp_path / "m.json"
        mat.write_text("[[1, 2]")
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {mat}: not a JSON array: ")

    def test_snf_malformed(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("2 x\n")
        code, _, _ = run(capsys, "snf", "--matrix", str(mat))
        assert code == 2

    def test_snf_nesting_too_deep(self, capsys, tmp_path):
        mat = tmp_path / "m.json"
        mat.write_text("[" * 100000)
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err == f"error: {mat}: nesting too deep for the JSON decoder\n"

    @pytest.mark.parametrize(
        "rows, entry",
        [("[[1.5, 2], [3, 4]]", "[0][0] is 1.5"), ("[[1, 2], [3, true]]", "[1][1] is true"),
         ('[[1, "2"]]', '[0][1] is "2"'), ("[[1, [2]]]", "[0][1] is [2]"),
         ("2 x\n", "[0][1] is 'x'"), ("2 1.5\n", "[0][1] is '1.5'"),
         ("1 2\n\n3 y\n", "[1][1] is 'y'")],
    )
    def test_snf_non_integer_entry_rejected(self, rows, entry, capsys, tmp_path):
        # int() would truncate 1.5 and take true as 1; a grid names its token
        mat = tmp_path / "m.json"
        mat.write_text(rows)
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err == f"error: {mat}: entry {entry}, expected an integer\n"

    @pytest.mark.parametrize("rows", ["1 2\n3\n", "[[1, 2], [3]]"])
    def test_snf_ragged_rows_name_the_file(self, rows, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text(rows)
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err == f"error: {mat}: matrix rows must have equal length\n"

    def test_snf_non_utf8_matrix_names_the_file(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "snf", "--matrix", str(mat))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {mat}: ") and "utf-8" in err

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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("torsion-probe", "--m", "4", "--k", "3", "--window", "-2"), "--window"),
            (("growth", "--m", "4", "--k", "3", "--radius", "-1"), "--radius"),
        ],
    )
    def test_negative_width_names_the_argument(self, argv, flag, capsys):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert f"argument {flag}: must be at least 0, got {argv[-1]}" in err

    @pytest.mark.parametrize("window", ["0", "1", "8"])
    def test_window_below_3k_names_the_flag(self, window, capsys):
        code, stdout, err = run(
            capsys, "torsion-probe", "--m", "4", "--k", "3", "--window", window
        )
        assert (code, stdout) == (2, "")
        assert f"--window {window} is too short: need at least 3k = 9" in err

    def test_window_of_3k_accepted(self, capsys):
        code, stdout, _ = run(capsys, "torsion-probe", "--m", "4", "--k", "3", "--window", "9")
        assert code == 0
        assert "period=3" in stdout

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


class TestWriter:
    """Every report is the text of ``json.dumps(doc, indent=2) + "\\n"``.

    ``check`` declares its bigon pairs as ``Rows``, which the writer lays
    out from a row template a batch at a time, and every other member
    goes through ``json.dumps``.
    """

    # (m, k, h) -> bigon pairs of `check` at the default margin over +-h
    BUILDS = {(4, 2, 3): 0, (4, 3, 8): 1296, (3, 3, 8): 324}

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("writer")
        paths = {}
        for m, k, h in self.BUILDS:
            path = paths[m, k, h] = str(tmp / f"{m}-{k}-{h}.json")
            assert main(["build", "--m", str(m), "--k", str(k), "--hmin", str(-h),
                         "--hmax", str(h), "-o", path]) == 0
        return paths

    @staticmethod
    def assert_dumps_layout(text: str) -> dict:
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        return doc

    @pytest.mark.parametrize("build, code", [((4, 2, 3), 0), ((4, 3, 8), 0), ((3, 3, 8), 1)])
    @pytest.mark.parametrize("flags", [[], ["--stamp"]])
    def test_check_stdout(self, build, code, flags, docs, capsys):
        got, out, _ = run(capsys, "check", docs[build], "--json", *flags)
        assert got == code
        doc = self.assert_dumps_layout(out)
        assert len(doc["bigon_pairs"]) == self.BUILDS[build]
        assert list(doc)[-1] == ("stamp" if flags else "clean")
        assert doc["npc"]["passed"] == (build[0] == 4)

    def test_check_output_file(self, docs, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", docs[4, 3, 8], "-o", str(report), "--stamp")
        assert code == 0 and "classes=" in out
        self.assert_dumps_layout(report.read_text())
        code, out, _ = run(capsys, "check", docs[4, 3, 8], "--json")
        assert json.loads(report.read_text())["bigon_pairs"] == json.loads(out)["bigon_pairs"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--m", "4", "--k", "3", "--json"],
            ["verify", "--m", "3", "--k", "3", "--json", "--stamp"],
            ["verify", "--m", "4", "--k", "2", "--cross-validate", "--hmin", "-4", "--hmax", "4",
             "--json"],
        ],
    )
    def test_verify(self, argv, capsys):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1)
        self.assert_dumps_layout(out)

    def test_rows_written_without_a_second_copy(self, tmp_path):
        # one json.dumps of the report would hold the whole text and its list
        # of pieces, about 4.6 times the size of the text; the writer holds one batch
        rows = [[f"e/{i}/1/0,0,0", f"e/{i}/2/0,0,0", f"v/{i}/0,0", f"v/{i + 1}/0,é"]
                for i in range(40000)]
        want = json.dumps({"classes": 1, "bigon_pairs": rows, "clean": True}, indent=2) + "\n"
        doc = {"classes": 1, "bigon_pairs": cli._bigon_rows(rows), "clean": True}
        path = tmp_path / "report.json"
        args = argparse.Namespace(stamp=False, output=str(path), json=False)
        tracemalloc.start()
        try:
            cli._emit(doc, args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_text() == want
        assert peak < len(want) / 4


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


def test_build_and_check_import_no_verifier():
    # each command is its own process: build and check load neither the
    # symbolic route nor the algebra tools
    script = (
        "import sys, tempfile, os\n"
        "from cubespec.cli import main\n"
        "seen = []\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    path = os.path.join(tmp, 'x.json')\n"
        "    for argv in (['build', '--m', '4', '--k', '2', '--hmin', '-3', '--hmax', '3', '-o', path],\n"
        "                 ['check', path, '--json']):\n"
        "        assert main(argv) == 0\n"
        "        seen += [m for m in ('cubespec.verifier', 'cubespec.algebra_tools') if m in sys.modules]\n"
        "print(seen)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_and_plain_verify_import_no_hyperplane_engine():
    # the geometric route is loaded by `check` and `verify --cross-validate`
    # only: importing the CLI and a plain `verify` leave it out
    script = (
        "import sys, io, contextlib\n"
        "import cubespec.cli\n"
        "seen = ['import'] if 'cubespec.hyperplane_engine' in sys.modules else []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cubespec.cli.main(['verify', '--m', '4', '--k', '3', '--json'])\n"
        "assert code == 0 and 'cubespec.verifier' in sys.modules\n"
        "seen += ['verify'] if 'cubespec.hyperplane_engine' in sys.modules else []\n"
        "print(seen)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestCollector:
    """Commands run with the cyclic collector off.

    That rests on no command making reference cycles in proportion to its
    input: the garbage ``gc.collect()`` finds after ``main()`` must not
    grow with the complex.  The count itself is argparse's and is not
    pinned.
    """

    SPANS = [("4", "2", "3"), ("4", "3", "8")]

    @staticmethod
    def argv(command, m, k, h, doc):
        span = ("--hmin", f"-{h}", "--hmax", h)
        if command == "build":
            return ["build", "--m", m, "--k", k, *span, "-o", doc]
        if command == "check":
            return ["check", doc, "--json"]
        return ["verify", "--m", m, "--k", k, "--cross-validate", *span, "--json"]

    @staticmethod
    def garbage_after(capsys, argv):
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
        finally:
            found = gc.collect()
            gc.enable()
        capsys.readouterr()
        return found

    @pytest.mark.parametrize("command", ["build", "check", "cross-validate"])
    def test_garbage_does_not_grow_with_the_input(self, command, capsys, tmp_path):
        argvs = []
        for m, k, h in self.SPANS:
            doc = str(tmp_path / f"{m}-{k}-{h}.json")
            assert main(self.argv("build", m, k, h, doc)) == 0
            argvs.append(self.argv(command, m, k, h, doc))
        main(argvs[0])  # the first run of a command imports its modules
        counts = [self.garbage_after(capsys, argv) for argv in argvs]
        assert counts[0] == counts[1]

    def test_command_runs_without_the_collector(self, capsys, monkeypatch):
        seen = []

        def verify_all(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        real = verifier.verify_all
        monkeypatch.setattr(verifier, "verify_all", verify_all)
        assert gc.isenabled()
        assert run(capsys, "verify", "--m", "4", "--k", "3")[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "--m", "4", "--k", "3"], 0),
            (["verify", "--m", "3", "--k", "3"], 1),
            (["check", "missing.json"], 2),
            (["build", "--m", "4", "--k", "3", "--hmin", "-2", "--hmax", "2", "--cap", "5"], 3),
        ],
    )
    def test_collector_state_restored(self, argv, code, enabled, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
