"""End-to-end CLI behavior: subcommands, exit codes, byte-identical outputs."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import by_id, make_line_scenario, make_symmetric_direct

from datamarket.cli import cli
from datamarket.effort import _CLOSED_FORMS, EffortSet, exponential_model
from datamarket.market import DataSourceSpec, MarketScenario
from datamarket.scenario import GenerationSpec, generate_scenario, serialize_scenario


def _cli_env():
    """The environment with this checkout's `src` on PYTHONPATH, so that
    `python -m datamarket.cli` runs with nothing installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_cli(*argv):
    """`python -m datamarket.cli argv...` in a process of its own."""
    return subprocess.run([sys.executable, "-m", "datamarket.cli", *argv],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)


@pytest.fixture
def symmetric_file(tmp_path):
    path = tmp_path / "symmetric.json"
    path.write_text(serialize_scenario(make_symmetric_direct()))
    return path


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(serialize_scenario(
        make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8)))
    return path


class TestSolve:
    def test_symmetric_fixture_report(self, symmetric_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert cli(["solve", str(symmetric_file), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "unique_a_infinite_c"
        assert doc["diagnostics"]["spectral_radius"] == pytest.approx(0.5, abs=1e-12)
        for sid in ("s1", "s2"):
            for bid in ("b1", "b2"):
                assert doc["a"][sid][bid] == pytest.approx(2.0, rel=1e-12)

    def test_byte_identical_reruns(self, symmetric_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cli(["solve", str(symmetric_file), "--output", str(out1)])
        cli(["solve", str(symmetric_file), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bounded_scenario_uses_bounded_solver(self, tmp_path):
        path = tmp_path / "bounded.json"
        path.write_text(serialize_scenario(
            make_symmetric_direct(e_max=math.log(3.0))))
        out = tmp_path / "result.json"
        assert cli(["solve", str(path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "converged_bounded"
        assert sum(doc["a"]["s1"].values()) == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("flag, value", [("--tol", "1e-10"), ("--max-iter", "100000"),
                                             ("--bounded-damping", "0.5")])
    def test_solver_options_are_usage_errors(self, tmp_path, flag, value):
        # the bounded solver's damping, budget and stop are constants: a
        # market has one answer, whatever the command line
        path = tmp_path / "bounded.json"
        path.write_text(serialize_scenario(
            make_symmetric_direct(e_max=math.log(3.0))))
        assert cli(["solve", str(path), flag, value]) == 3

    @pytest.mark.parametrize("flag", ["--grid-radius", "--grid-points"])
    def test_grid_options_are_usage_errors(self, symmetric_file, tmp_path, flag):
        # the certificate's grid follows each source's smallest positive
        # weight, so there is nothing to set
        result = tmp_path / "result.json"
        assert cli(["solve", str(symmetric_file), "--output", str(result)]) == 0
        assert cli(["certify", str(symmetric_file), str(result), flag, "1"]) == 3


class TestValidate:
    def test_valid_scenario(self, symmetric_file):
        assert cli(["validate", str(symmetric_file)]) == 0

    def test_mixed_effort_sets_exit_one(self, tmp_path):
        scn = make_line_scenario(n_aggregators=1)
        mixed_sources = list(scn.sources)
        mixed_sources[0] = DataSourceSpec(
            mixed_sources[0].id, mixed_sources[0].feature,
            exponential_model(8.0, 1.0, EffortSet("bounded", e_max=2.0)),
            mixed_sources[0].sharing)
        mixed = MarketScenario(tuple(mixed_sources), scn.aggregators,
                               scn.ground_truth)
        path = tmp_path / "mixed.json"
        path.write_text(serialize_scenario(mixed))
        assert cli(["validate", str(path)]) == 1

    def test_parse_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli(["validate", str(bad)]) == 1

    @pytest.mark.parametrize("edit, location", [
        (lambda doc: doc["sources"].__setitem__(0, 7), "sources[0]"),
        (lambda doc: doc["direct_parameters"]["xi"].update(b9={"s1": {"s1": 1.0}}),
         "document"),
    ], ids=["non-object-source", "xi-of-unknown-aggregator"])
    def test_malformed_document_exit_one(self, tmp_path, capsys, edit, location):
        doc = json.loads(serialize_scenario(make_symmetric_direct()))
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli(["validate", str(bad)]) == 1
        assert f"datamarket: {location}: " in capsys.readouterr().err


class TestDerive:
    def test_writes_all_tables(self, symmetric_file, tmp_path):
        outdir = tmp_path / "tables"
        assert cli(["derive", str(symmetric_file), "--output", str(outdir)]) == 0
        for name in ("beta.csv", "gamma.csv", "xi.csv", "xi_matrix.csv"):
            assert (outdir / name).exists()
        gamma = (outdir / "gamma.csv").read_text().splitlines()
        assert gamma[0] == "source,aggregator,gamma"
        assert gamma[1] == "s1,b1,1.0"
        matrix = (outdir / "xi_matrix.csv").read_text().splitlines()
        assert matrix[0] == "row_source,row_aggregator,s1:b1,s1:b2,s2:b1,s2:b2"

    def test_stdout_mode(self, symmetric_file, capsys):
        assert cli(["derive", str(symmetric_file)]) == 0
        out = capsys.readouterr().out
        assert "# beta.csv" in out and "# xi_matrix.csv" in out


class TestSweepAlpha:
    def test_past_threshold_row_is_none(self, symmetric_file, capsys):
        assert cli(["sweep-alpha", str(symmetric_file), "--alphas", "2.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,rho,status,max_a_total"
        assert lines[1].startswith("2.0,1.0,none,")

    def test_closed_form_row(self, symmetric_file, capsys):
        assert cli(["sweep-alpha", str(symmetric_file), "--alphas", "0.0,1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        a0 = lines[1].split(",")
        assert float(a0[3]) == pytest.approx(2.0, rel=1e-12)
        a1 = lines[2].split(",")
        assert float(a1[3]) == pytest.approx(4.0, rel=1e-9)

    def test_bad_alphas_exit_one(self, symmetric_file):
        assert cli(["sweep-alpha", str(symmetric_file), "--alphas", "x,y"]) == 1

    def test_failed_solve_exit_two(self, symmetric_file, monkeypatch, capsys):
        def unsolved(system, rhs):  # the least-squares solves on the basis
            return rhs

        monkeypatch.setattr(np.linalg, "solve", unsolved)
        assert cli(["sweep-alpha", str(symmetric_file), "--alphas", "0.5"]) == 2
        assert "solver failure" in capsys.readouterr().err


class TestCertifyAndWelfare:
    def test_certify_solved_result(self, symmetric_file, tmp_path):
        out = tmp_path / "result.json"
        cli(["solve", str(symmetric_file), "--output", str(out)])
        assert cli(["certify", str(symmetric_file), str(out)]) == 0

    def test_certify_corrupted_result_exit_two(self, symmetric_file, tmp_path):
        out = tmp_path / "result.json"
        cli(["solve", str(symmetric_file), "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["a"]["s1"]["b1"] += 0.1
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(doc))
        assert cli(["certify", str(symmetric_file), str(corrupted)]) == 2

    @pytest.mark.parametrize("field, value", [("canonical_c", 1e6), ("efforts", 123.0)])
    def test_certify_checks_document_c_and_efforts(self, tmp_path, field, value):
        # every c set to 1e6, or every effort to 123, with a intact
        scenario = tmp_path / "scenario.json"
        scenario.write_text(serialize_scenario(generate_scenario(GenerationSpec(8, 2), 0)))
        out = tmp_path / "result.json"
        assert cli(["solve", str(scenario), "--output", str(out)]) == 0
        assert cli(["certify", str(scenario), str(out)]) == 0
        doc = json.loads(out.read_text())
        if field == "canonical_c":
            doc[field] = {sid: {bid: value for bid in row} for sid, row in doc[field].items()}
        else:
            doc[field] = {sid: value for sid in doc[field]}
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(doc))
        assert cli(["certify", str(scenario), str(corrupted)]) == 2

    def test_certify_bounded_radius_out_of_bracket_exit_two(self, tmp_path, capsys):
        scenario, out = tmp_path / "scenario.json", tmp_path / "result.json"
        scenario.write_text(serialize_scenario(generate_scenario(
            GenerationSpec(24, 3, family="mixed", bounded=True), 0)))
        assert cli(["solve", str(scenario), "--output", str(out)]) == 0
        assert cli(["certify", str(scenario), str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["diagnostics"]["spectral_radius"] = 1e6
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli(["certify", str(scenario), str(out)]) == 2
        assert "[FAIL] radius-bracket" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, seed, status", [
        (GenerationSpec(24, 3, family="mixed"), 0, "converged_bounded"),
        (GenerationSpec(48, 4, family="mixed", bounded=True), 3, "unique_a_infinite_c"),
    ], ids=["unbounded-as-bounded", "bounded-as-unbounded"])
    def test_certify_relabelled_result_exit_two(self, tmp_path, capsys, spec, seed, status):
        scenario, out = tmp_path / "scenario.json", tmp_path / "result.json"
        scenario.write_text(serialize_scenario(generate_scenario(spec, seed)))
        assert cli(["solve", str(scenario), "--output", str(out)]) == 0
        assert cli(["certify", str(scenario), str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["status"] = status
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli(["certify", str(scenario), str(out)]) == 2
        assert f"status {status} is not this market's" in capsys.readouterr().out

    def test_welfare_report(self, symmetric_file, tmp_path):
        result = tmp_path / "result.json"
        report = tmp_path / "welfare.json"
        cli(["solve", str(symmetric_file), "--output", str(result)])
        assert cli(["welfare", str(symmetric_file), str(result),
                    "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        expected = (1 + 4 * math.log(2.0)) / (2 + 2 * math.log(2.0))
        assert doc["poa"] == pytest.approx(expected, rel=1e-9)
        assert doc["efficient_possible"] is False


class TestNoEquilibrium:
    # rho = 9.21: solve reports status none, and the commands that need a
    # solved equilibrium refuse its result
    def test_commands_after_a_none_result(self, tmp_path, capsys):
        scenario, result = tmp_path / "scenario.json", tmp_path / "result.json"
        assert cli(["generate", "--n", "6", "--m", "3", "--mode", "direct", "--coupling-scale",
                    "2", "--seed", "0", "--output", str(scenario)]) == 0
        capsys.readouterr()
        assert cli(["solve", str(scenario), "--output", str(result)]) == 0
        assert json.loads(result.read_text())["status"] == "none"
        assert "no equilibrium exists at this coupling level" in capsys.readouterr().err
        assert cli(["certify", str(scenario), str(result)]) == 2
        assert "result has no solved equilibrium to certify" in capsys.readouterr().err
        for command, *options in (["welfare"], ["simulate", "--rounds", "1", "--seed", "0"]):
            assert cli([command, str(scenario), str(result), *options]) == 1, command
            assert capsys.readouterr().err.endswith(" requires a solved equilibrium\n"), command

    def test_sweep_whose_scaled_radius_overflows(self, tmp_path, capsys):
        # alpha 1e308 times rho = 9.21 is not finite: exit 1 naming the
        # alpha, and no CSV, so no rho of inf
        scenario, out = tmp_path / "scenario.json", tmp_path / "sweep.csv"
        assert cli(["generate", "--n", "6", "--m", "3", "--mode", "direct", "--coupling-scale",
                    "2", "--seed", "0", "--output", str(scenario)]) == 0
        capsys.readouterr()
        assert cli(["sweep-alpha", str(scenario), "--alphas", "0.05,1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "alpha 1e+308 times the spectral radius" in captured.err
        assert cli(["sweep-alpha", str(scenario), "--alphas", "1e308",
                    "--output", str(out)]) == 1
        assert not out.exists()


class TestResultOfAnotherMarket:
    # markets a (8 sources) and b (9 sources); certify b with a's result,
    # welfare and simulate a with b's result
    @pytest.mark.parametrize("command, market, solved", [
        ("certify", "b", "a"), ("welfare", "a", "b"), ("simulate", "a", "b")])
    def test_exit_one_naming_the_pair(self, tmp_path, capsys, command, market, solved):
        for name, n in (("a", 8), ("b", 9)):
            (tmp_path / f"{name}.json").write_text(
                serialize_scenario(generate_scenario(GenerationSpec(n, 2), 0)))
        result = tmp_path / f"r{solved}.json"
        assert cli(["solve", str(tmp_path / f"{solved}.json"), "--output", str(result)]) == 0
        out = tmp_path / "out"
        options = {"certify": [], "welfare": ["--output", str(out)],
                   "simulate": ["--rounds", "2", "--seed", "0", "--output", str(out)]}
        capsys.readouterr()
        assert cli([command, str(tmp_path / f"{market}.json"), str(result),
                    *options[command]]) == 1
        assert "first mismatched pair (s009, b001)" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_csv_schema_and_determinism(self, line_file, tmp_path):
        result = tmp_path / "result.json"
        cli(["solve", str(line_file), "--output", str(result)])
        csv1, csv2 = tmp_path / "rounds1.csv", tmp_path / "rounds2.csv"
        for out in (csv1, csv2):
            assert cli(["simulate", str(line_file), str(result),
                        "--rounds", "20", "--seed", "42",
                        "--output", str(out)]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        lines = csv1.read_text().splitlines()
        assert lines[0].startswith("round,y_s1,")
        assert "loss_b1" in lines[0] and "p_s1_b1" in lines[0]
        assert len(lines) == 21

    def test_direct_mode_simulation_rejected(self, symmetric_file, tmp_path):
        result = tmp_path / "result.json"
        cli(["solve", str(symmetric_file), "--output", str(result)])
        assert cli(["simulate", str(symmetric_file), str(result),
                    "--rounds", "5", "--seed", "1"]) == 1


class TestGenerate:
    def test_deterministic_documents(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "--n", "4", "--m", "2", "--seed", "9"]
        assert cli(argv + ["--output", str(a)]) == 0
        assert cli(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_scenario_is_usable(self, tmp_path):
        path = tmp_path / "scn.json"
        assert cli(["generate", "--n", "5", "--m", "2", "--seed", "3",
                    "--output", str(path)]) == 0
        assert cli(["validate", str(path)]) == 0
        result = tmp_path / "result.json"
        assert cli(["solve", str(path), "--output", str(result)]) in (0,)

    def test_defaults_are_the_generation_spec_defaults(self, capsys):
        assert cli(["generate", "--n", "6", "--m", "2"]) == 0
        assert capsys.readouterr().out == serialize_scenario(
            generate_scenario(GenerationSpec(6, 2), 0))

    def test_infeasible_spec_exit_three(self):
        assert cli(["generate", "--n", "2", "--m", "1", "--d", "1"]) == 3
        assert cli(["generate", "--n", "4", "--m", "1", "--family", "custom"]) == 3

    @pytest.mark.parametrize("family", [form.name for form in _CLOSED_FORMS.values()]
                             + ["mixed"])
    def test_each_family_generates(self, tmp_path, family):
        path = tmp_path / "scn.json"
        assert cli(["generate", "--n", "6", "--m", "2", "--seed", "2", "--family", family,
                    "--output", str(path)]) == 0
        names = {s["effort"]["family"] for s in json.loads(path.read_text())["sources"]}
        assert names == ({form.name for form in _CLOSED_FORMS.values()}
                         if family == "mixed" else {family})


class TestBadInput:
    @pytest.mark.parametrize("args, code", [
        (["simulate", "{scenario}", "{result}", "--rounds", "2", "--seed", "-1",
          "--output", "{out}"], 1),
        (["generate", "--n", "8", "--m", "2", "--seed", "-3", "--output", "{out}"], 3),
        (["generate", "--n", "4", "--m", "2", "--mode", "direct", "--coupling-scale", "-1",
          "--output", "{out}"], 3),
        (["generate", "--n", "4", "--m", "2", "--mode", "direct", "--coupling-scale", "nan",
          "--output", "{out}"], 3),
    ])
    def test_flag_out_of_range_exits_without_traceback(self, line_file, tmp_path, capsys,
                                                       args, code):
        result, out = tmp_path / "result.json", tmp_path / "out"
        assert cli(["solve", str(line_file), "--output", str(result)]) == 0
        capsys.readouterr()
        paths = {"scenario": line_file, "result": result, "out": out}
        assert cli([arg.format(**paths) for arg in args]) == code
        assert capsys.readouterr().err.startswith("datamarket: ")
        assert not out.exists()

    # an output in a missing directory, or derive's table directory over an
    # existing file: exit 1 with the CLI's message naming the path, where an
    # OSError escaping cli() would end in a traceback
    @pytest.mark.parametrize("args", [
        ["solve", "{scenario}", "--output", "{missing}"],
        ["welfare", "{scenario}", "{result}", "--output", "{missing}"],
        ["sweep-alpha", "{scenario}", "--alphas", "0.5", "--output", "{missing}"],
        ["simulate", "{scenario}", "{result}", "--rounds", "2", "--seed", "0",
         "--output", "{missing}"],
        ["generate", "--n", "4", "--m", "2", "--output", "{missing}"],
        ["derive", "{scenario}", "--output", "{result}"],
    ], ids=lambda args: args[0])
    def test_unwritable_output_exits_one(self, line_file, tmp_path, capsys, args):
        result = tmp_path / "result.json"
        assert cli(["solve", str(line_file), "--output", str(result)]) == 0
        capsys.readouterr()
        paths = {"scenario": line_file, "result": result,
                 "missing": tmp_path / "missing" / "out"}
        argv = [arg.format(**paths) for arg in args]
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("datamarket: cannot write ") and argv[-1] in err
        assert "Traceback" not in err

    # a reader that closes stdout early, as `derive market.json | head -c 20`
    # does: exit 1 with one line, and no traceback, nor the interpreter's
    # "Exception ignored" from its flush of stdout at exit
    def test_closed_stdout_exits_one(self, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(serialize_scenario(generate_scenario(GenerationSpec(48, 4), 0)))
        with subprocess.Popen([sys.executable, "-m", "datamarket.cli", "derive", str(path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=_cli_env()) as proc:
            proc.stdout.read(20)  # about 1 MB follows, far past a pipe's buffer
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        lines = err.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("datamarket: cannot write stdout")

    def test_stdout_closed_at_start_exits_one(self, symmetric_file, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", None)  # what a process started with fd 1 closed sees
        assert cli(["validate", str(symmetric_file)]) == 1
        assert capsys.readouterr().err == "datamarket: cannot write stdout: it is closed\n"

    # run as a user runs it, in a process of its own: a document that is not
    # UTF-8 (a UTF-16 byte-order mark), one nested too deep to decode, a
    # directory and a missing file each exit 1 with one message
    @pytest.mark.parametrize("command, document", [
        ("validate", "utf16"), ("certify", "utf16"), ("validate", "nested"),
        ("certify", "nested"), ("validate", "directory"), ("certify", "missing")])
    def test_unreadable_document_exits_one_without_traceback(self, symmetric_file, tmp_path,
                                                             command, document):
        paths = {"utf16": tmp_path / "utf16.json", "nested": tmp_path / "nested.json",
                 "directory": tmp_path, "missing": tmp_path / "missing.json"}
        paths["utf16"].write_bytes(b"\xff\xfe{\x00}\x00")
        paths["nested"].write_text("[" * 200_000)
        # certify reads the scenario first, so the bad document is its result
        argv = ([str(paths[document])] if command == "validate"
                else [str(symmetric_file), str(paths[document])])
        proc = _run_cli(command, *argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("datamarket: ") and "Traceback" not in proc.stderr

    # a result written under schema 1 (with a_total and the polytope) is
    # refused by each subcommand that reads one: exit 1 with the reader's
    # message, which names both versions and the way to upgrade, no output
    @pytest.mark.parametrize("args", [
        ["certify", "{scenario}", "{result}"],
        ["welfare", "{scenario}", "{result}", "--output", "{out}"],
        ["simulate", "{scenario}", "{result}", "--rounds", "2", "--seed", "0",
         "--output", "{out}"],
    ], ids=lambda args: args[0])
    def test_version_one_result_exits_one(self, line_file, tmp_path, capsys, args):
        result, out = tmp_path / "result.json", tmp_path / "out"
        assert cli(["solve", str(line_file), "--output", str(result)]) == 0
        doc = json.loads(result.read_text())
        doc["schema_version"] = 1
        result.write_text(json.dumps(doc))
        capsys.readouterr()
        paths = {"scenario": line_file, "result": result, "out": out}
        assert cli([arg.format(**paths) for arg in args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"^datamarket: .*schema_version 1 unsupported: .* version 2; "
                         r"run solve again", captured.err)
        assert not out.exists()

    @pytest.mark.parametrize("bounded, value", [
        (False, "half-a_lower"), (False, "zero"), (False, "negative"), (True, "zero")])
    def test_weight_out_of_incentive_range_exits_two(self, tmp_path, capsys, bounded, value):
        # a single-buyer source's weight, so its total, moved out of range:
        # a failed check, with no traceback and no warning on stderr
        scenario = generate_scenario(
            GenerationSpec(8, 2, family="mixed", sharing_density=0.5, bounded=bounded), 0)
        path, result = tmp_path / "scenario.json", tmp_path / "result.json"
        path.write_text(serialize_scenario(scenario))
        assert cli(["solve", str(path), "--output", str(result)]) == 0
        doc = json.loads(result.read_text())
        sid, [bid] = next((sid, source.sharing) for sid, source
                          in sorted(by_id(scenario.sources).items()) if len(source.sharing) == 1)
        lower = by_id(scenario.sources)[sid].effort_model.incentive_bounds.a_lower
        moved = {"half-a_lower": 0.5 * lower, "zero": 0.0,
                 "negative": -doc["a"][sid][bid]}[value]
        doc["a"][sid][bid] = moved
        result.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli(["certify", str(path), str(result)]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("certification FAILED") and err == ""
        if not bounded:
            assert f"source {sid}: total {moved!r} outside its incentive range" in out


def small_document(bounded):
    """The sweep's document: 8 sources of both families, 2 aggregators."""
    spec = GenerationSpec(8, 2, family="mixed", bounded=bounded)
    return json.loads(serialize_scenario(generate_scenario(spec, 3)))


def edited(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def numeric_fields(doc, path=()):
    """The path of every float in a document, in document order."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from numeric_fields(value, path + (key,))
    elif isinstance(doc, float):
        yield path


NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def exempt(command, out):
    """A successful command's stdout without the two non-finite values it may
    print: a none result's NaN residual, and a none sweep point's max_a_total."""
    if command == "solve":
        report = json.loads(out)
        if report["status"] == "none":
            report["diagnostics"].pop("max_residual")
        return json.dumps(report)
    if command == "sweep-alpha":
        return "\n".join(line.rsplit(",", 1)[0] if ",none," in line else line
                         for line in out.splitlines())
    return out


class TestNonfiniteInput:
    # one field at a value whose bound, net demand or round is not finite:
    # exit 1 naming the field, pair or round, nothing non-finite on stdout
    @pytest.mark.parametrize("bounded, path, value, commands, named", [
        (True, ("sources", 2, "effort", "set", "e_max"), 1000.0,
         ("validate", "derive", "solve"), "sources[2].effort: incentive bound inf at effort 1000"),
        (False, ("sources", 0, "effort", "sigma0"), 1e-300,
         ("validate", "derive", "solve"), "sources[0].effort: incentive bound inf at effort 0"),
        (False, ("aggregators", 0, "eta"), 5e-324,
         ("validate", "derive", "solve", "simulate"), "[nonfinite-demand] (s001, b001)"),
        (False, ("ground_truth", "intercept"), 1e300,
         ("simulate",), "round 0 (seed 1) has a non-finite"),
    ], ids=["e_max", "sigma0", "eta", "intercept"])
    def test_exit_one_naming_the_field(self, tmp_path, capsys, bounded, path, value,
                                       commands, named):
        doc = small_document(bounded)
        scenario, result = tmp_path / "scenario.json", tmp_path / "result.json"
        scenario.write_text(json.dumps(doc))
        assert cli(["solve", str(scenario), "--output", str(result)]) == 0
        scenario.write_text(json.dumps(edited(doc, path, value)))
        for command in commands:
            extra = {"simulate": [str(result), "--rounds", "2", "--seed", "1"]}
            capsys.readouterr()
            assert cli([command, str(scenario)] + extra.get(command, [])) == 1
            out, err = capsys.readouterr()
            assert named in out + err and "Traceback" not in err
            assert not NONFINITE.search(out)

    # Each float of the document's first exponential and first inverse-power
    # source, first aggregator and ground truth, one at a time, at each
    # extreme, through every subcommand that reads a scenario.
    @pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
    def test_extreme_values_exit_documented_codes(self, tmp_path, capsys, bounded):
        doc = small_document(bounded)
        families = [source["effort"]["family"] for source in doc["sources"]]
        swept = {("sources", families.index(name)) for name in set(families)}
        swept |= {("aggregators", 0), ("ground_truth",)}
        base, solved = tmp_path / "base.json", tmp_path / "solved.json"
        base.write_text(json.dumps(doc))
        assert cli(["solve", str(base), "--output", str(solved)]) == 0
        scenario, own = tmp_path / "scenario.json", tmp_path / "own.json"
        for path in numeric_fields(doc):
            if path[:2] not in swept and path[:1] not in swept:
                continue
            for value in (1e-300, 1e300, 5e-324, 1.7e308):
                scenario.write_text(json.dumps(edited(doc, path, value)))
                result = solved  # the edited document's own result, once solved
                for argv in (["validate"], ["derive"], ["solve"], ["certify", "{result}"],
                             ["welfare", "{result}"], ["sweep-alpha", "--alphas", "0.5,2"],
                             ["simulate", "{result}", "--rounds", "2", "--seed", "1"]):
                    capsys.readouterr()
                    code = cli([argv[0], str(scenario)]
                               + [arg.format(result=result) for arg in argv[1:]])
                    out = capsys.readouterr().out
                    assert code in (0, 1, 2, 3), (path, value, argv[0])
                    if code != 0:
                        continue
                    if argv[0] == "solve":
                        own.write_text(out)
                        result = own
                    assert not NONFINITE.search(exempt(argv[0], out)), (path, value, argv[0])

    # A direct market whose coupling entries are finite but whose products
    # overflow: at 1e200 the demand-scaled Krylov basis does (rho is 4.6e200),
    # at 1e308 rho itself exceeds the float range.  Validation and derivation
    # pass; the radius falls back to a start from ones, and a radius past the
    # float range fails the result's diagnostics check.
    @pytest.mark.parametrize("scale, bounded, codes, message", [
        ("1e200", False, {"solve": 0, "sweep-alpha": 0}, "no equilibrium exists"),
        ("1e200", True, {"solve": 0, "sweep-alpha": 1}, "requires unbounded effort sets"),
        ("1e308", False, {"solve": 1, "sweep-alpha": 1}, "spectral radius inf is not finite"),
        ("1e308", True, {"solve": 1, "sweep-alpha": 1}, "spectral_radius is not finite: inf"),
    ], ids=["1e200", "1e200-bounded", "1e308", "1e308-bounded"])
    def test_coupling_past_the_float_range(self, tmp_path, capsys, scale, bounded, codes,
                                           message):
        scenario = tmp_path / "scenario.json"
        assert cli(["generate", "--n", "6", "--m", "3", "--mode", "direct", "--seed", "0",
                    "--coupling-scale", scale, "--output", str(scenario)]
                   + (["--bounded"] if bounded else [])) == 0
        errors = ""
        for argv in (["validate"], ["derive"], ["solve"], ["sweep-alpha", "--alphas", "0.5"]):
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli([argv[0], str(scenario)] + argv[1:])
            out, err = capsys.readouterr()
            assert code == codes.get(argv[0], 0), argv[0]
            assert "Traceback" not in err
            assert not NONFINITE.search(exempt(argv[0], out) if code == 0 else out), argv[0]
            errors += err
        assert message in errors


class TestUsage:
    def test_unknown_command(self):
        assert cli(["frobnicate"]) == 3

    def test_missing_required_argument(self):
        assert cli(["simulate", "scenario.json", "result.json"]) == 3

    def test_console_script_help(self):
        proc = _run_cli("--help")
        assert proc.returncode == 0
        assert "sweep-alpha" in proc.stdout
