"""Front-end tests: scenario parsing, output formats, overrides, exit codes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import szilard
from szilard import EngineConfig, HardAssertionError
from szilard.cli import main, parse_scenario, run_records


def _write(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def _library_doc(**params):
    merged = {"q": 0.3, "N": 6}
    merged.update(params)
    return {"name": "smoke", "scenario": "example_I", "params": merged}


def _explicit_block(**extra):
    """Eigenstate record-write qubit, written entrywise."""
    re = lambda x: [float(x), 0.0]
    p_up = [[re(1), re(0)], [re(0), re(0)]]
    p_dn = [[re(0), re(0)], [re(0), re(1)]]
    zero2 = [[re(0), re(0)], [re(0), re(0)]]
    block = {
        "temperature": 1.0,
        "omega": 1.0,
        "levels": 6,
        "h_s": [[re(0.5), re(0)], [re(0), re(-0.5)]],
        "h_d": zero2,
        "rho_s": [[re(0.3), re(0)], [re(0), re(0.7)]],
        "demon_initial": [re(1), re(0)],
        "target": [
            {"label": "+", "value": 0.5, "projector": p_up},
            {"label": "-", "value": -0.5, "projector": p_dn},
        ],
        "pointer": [
            {"label": "+", "value": 1.0, "projector": p_up},
            {"label": "-", "value": -1.0, "projector": p_dn},
        ],
        "transitions": [
            {"outcome": "+", "sys_in": [re(1), re(0)],
             "sys_out": [re(1), re(0)], "pointer_out": [re(1), re(0)]},
            {"outcome": "-", "sys_in": [re(0), re(1)],
             "sys_out": [re(0), re(1)], "pointer_out": [re(0), re(1)]},
        ],
    }
    block.update(extra)
    return block


class TestParseScenario:
    def test_library_reference(self):
        runs = parse_scenario(_library_doc())
        assert len(runs) == 1
        assert runs[0].scenario == "example_I"
        assert runs[0].sweep_parameter is None
        assert runs[0].config.label == "example_I"

    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            parse_scenario({"name": "x"})
        with pytest.raises(ValueError, match="exactly one"):
            parse_scenario(
                {"scenario": "example_I", "config": _explicit_block()}
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="field 'engine'"):
            parse_scenario({"scenario": "example_I", "engine": 1})

    def test_sweep_needs_parameter_and_values(self):
        doc = _library_doc()
        doc["sweep"] = {"parameter": "N"}
        with pytest.raises(ValueError, match="field 'sweep'"):
            parse_scenario(doc)
        doc["sweep"] = {"parameter": "N", "values": []}
        with pytest.raises(ValueError, match="sweep.values"):
            parse_scenario(doc)

    def test_sweep_expands_in_order(self):
        doc = _library_doc()
        doc["sweep"] = {"parameter": "N", "values": [5, 8]}
        runs = parse_scenario(doc)
        assert [r.sweep_value for r in runs] == [5, 8]
        assert all(r.sweep_parameter == "N" for r in runs)
        assert [r.config.weight.levels for r in runs] == [5, 8]

    def test_overrides_take_precedence(self):
        runs = parse_scenario(_library_doc(), overrides={"kb": 2.5})
        assert runs[0].config.thermo.kb == 2.5

    def test_non_conforming_flag_passes_through(self):
        doc = _library_doc()
        doc["non_conforming"] = True
        runs = parse_scenario(doc)
        assert runs[0].config.non_conforming

    def test_non_conforming_library_engine_is_built_once(self, monkeypatch):
        built = []
        original = EngineConfig.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(EngineConfig, "__init__", counted)
        runs = parse_scenario({"scenario": "example_I", "non_conforming": True})
        assert len(built) == 1
        config = runs[0].config
        assert config.non_conforming and not config.conforming
        assert config.certification.passed

    def test_document_must_be_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            parse_scenario(["not", "a", "mapping"])


class TestExplicitConfig:
    def test_explicit_engine_runs(self):
        runs = parse_scenario({"name": "x", "config": _explicit_block()})
        records = run_records(runs)
        works = {
            b["outcome"]: b["work"] for b in records[0]["branches"]
        }
        assert works["+"] == pytest.approx(1.0, abs=1e-9)
        assert works["-"] == pytest.approx(0.0, abs=1e-9)
        assert records[0]["certification"]["conforming"]

    def test_missing_field_named(self):
        block = _explicit_block()
        del block["h_s"]
        with pytest.raises(ValueError, match="config.h_s"):
            parse_scenario({"config": block})

    def test_bad_entry_carries_full_path(self):
        block = _explicit_block()
        block["rho_s"][0][0] = 0.3  # bare number instead of a pair
        with pytest.raises(ValueError, match=r"config\.rho_s\[0\]\[0\]"):
            parse_scenario({"config": block})

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="config.coupling"):
            parse_scenario({"config": _explicit_block(coupling=1.0)})

    def test_unknown_erasure_mode(self):
        with pytest.raises(ValueError, match="config.erasure"):
            parse_scenario({"config": _explicit_block(erasure="free")})

    def test_swap_erasure_mode(self):
        runs = parse_scenario(
            {"config": _explicit_block(erasure="swap")}
        )
        records = run_records(runs)
        assert not records[0]["erasure"]["landauer_optimal"]
        assert records[0]["erasure"]["q"] >= 0.0


class TestRunCommand:
    def test_json_output(self, tmp_path, capsys):
        path = _write(tmp_path, _library_doc())
        assert main(["run", path, "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "smoke"
        assert payload["seed"] == 7
        rec = payload["records"][0]
        assert rec["ledger"]["w_avg"] == pytest.approx(0.3, abs=1e-9)
        assert rec["features"]["f1_repeatable"] is True
        assert rec["certification"]["conforming"] is True

    def test_csv_rows_are_exact(self, tmp_path, capsys):
        path = _write(tmp_path, _library_doc())
        assert main(["run", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # pure window states make the lifted branch exactly one quantum
        assert lines == [
            "outcome,probability,work,weight_entropy_change",
            "+,0.3,1.0,0.0",
            "-,0.7,0.0,0.0",
        ]

    def test_output_file(self, tmp_path, capsys):
        path = _write(tmp_path, _library_doc())
        out = tmp_path / "result.json"
        assert main(["run", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["records"]

    def test_format_from_output_block(self, tmp_path, capsys):
        doc = _library_doc()
        doc["output"] = {"format": "csv"}
        path = _write(tmp_path, doc)
        assert main(["run", path]) == 0
        assert capsys.readouterr().out.startswith("outcome,probability")

    def test_unknown_format_fails(self, tmp_path, capsys):
        doc = _library_doc()
        doc["output"] = {"format": "xml"}
        path = _write(tmp_path, doc)
        assert main(["run", path]) == 1
        assert "unknown output format" in capsys.readouterr().err

    def test_sweep_is_deterministic(self, tmp_path, capsys):
        doc = _library_doc()
        doc["sweep"] = {"parameter": "N", "values": [5, 8, 12]}
        path = _write(tmp_path, doc)
        assert main(["run", path]) == 0
        first = capsys.readouterr().out
        assert main(["run", path]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert [r["sweep"]["value"] for r in payload["records"]] == [5, 8, 12]

    def test_plot_data_csv(self, tmp_path, capsys):
        doc = _library_doc()
        doc["sweep"] = {"parameter": "N", "values": [5, 8]}
        path = _write(tmp_path, doc)
        assert main(["run", path, "--format", "csv", "--plot-data"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sweep_value,outcome,work,weight_entropy_change"
        assert len(lines) == 1 + 4  # two sweep points, two branches each
        assert lines[1].startswith("5,+,")
        assert lines[3].startswith("8,+,")

    def test_env_kb_override(self, tmp_path, capsys, monkeypatch):
        path = _write(tmp_path, _library_doc())
        assert main(["run", path]) == 0
        base = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("SZILARD_KB", "2.0")
        assert main(["run", path]) == 0
        doubled = json.loads(capsys.readouterr().out)
        q0 = base["records"][0]["erasure"]["q"]
        q1 = doubled["records"][0]["erasure"]["q"]
        assert q1 == pytest.approx(2.0 * q0, rel=1e-12)

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        path = _write(tmp_path, _library_doc())
        assert main(["run", path]) == 0
        base = capsys.readouterr().out
        monkeypatch.setenv("SZILARD_KB", "5.0")
        assert main(["run", path, "--kb", "1.0"]) == 0
        assert capsys.readouterr().out == base

    def test_env_seed_recorded(self, tmp_path, capsys, monkeypatch):
        path = _write(tmp_path, _library_doc())
        monkeypatch.setenv("SZILARD_SEED", "11")
        assert main(["run", path]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    def test_bad_env_value_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        path = _write(tmp_path, _library_doc())
        monkeypatch.setenv("SZILARD_KB", "warm")
        assert main(["run", path]) == 1
        assert "SZILARD_KB" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", [_library_doc(), {"config": _explicit_block()}],
        ids=["library", "explicit"],
    )
    @pytest.mark.parametrize(
        "source, value", [("flag", "-1"), ("flag", "inf"), ("env", "nan")]
    )
    def test_bad_tol_s_exit_code(self, tmp_path, capsys, monkeypatch, doc,
                                 source, value):
        # these used to exit 0, scoring the weight entropy against the bad
        # tolerance
        path = _write(tmp_path, doc)
        argv = ["run", path]
        if source == "flag":
            argv.append(f"--tol-s={value}")
        else:
            monkeypatch.setenv("SZILARD_TOL_S", value)
        assert main(argv) == 1
        assert "tol_s" in capsys.readouterr().err

    def test_unknown_scenario_exit_code(self, tmp_path, capsys):
        path = _write(tmp_path, {"scenario": "bogus"})
        assert main(["run", path]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["run", "/nonexistent/scenario.yaml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_yaml_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("{unclosed", encoding="utf-8")
        assert main(["run", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_hermitian_hamiltonian_exit_code(self, tmp_path, capsys, entry):
        # 0.01i on the diagonal, or on one off-diagonal entry only; this used
        # to exit 2 on a hard assertion inside the unitary completion
        block = _explicit_block()
        i, j = entry
        block["h_d"][i][j] = [0.0, 0.01]
        path = _write(tmp_path, {"name": "x", "config": block})
        assert main(["run", path]) == 1
        assert "Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["h_s", "h_d"])
    def test_non_hermitian_hamiltonian_names_its_field(
        self, tmp_path, capsys, field
    ):
        block = _explicit_block()
        block[field][0][0] = [0.5, 0.01]
        path = _write(tmp_path, {"name": "x", "config": block})
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert f"field 'config.{field}'" in err and "Hermitian" in err

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"scenario": "example_I", "params": [1, 2]}, "field 'params'"),
            ({"scenario": "example_I", "params": "abc"}, "field 'params'"),
            ({"scenario": "example_I", "output": "json"}, "field 'output'"),
            ({"config": _explicit_block(temperature=[1, 2])},
             "field 'config.temperature'"),
            ({"config": _explicit_block(kb="warm")}, "field 'config.kb'"),
            ({"config": _explicit_block(omega=[1])}, "field 'config.omega'"),
            ({"config": _explicit_block(levels=5.5)}, "field 'config.levels'"),
            ({"config": _explicit_block(dim="big")}, "field 'config.dim'"),
            ({"config": _explicit_block(tol_s=[0.1])}, "field 'config.tol_s'"),
            ({"config": "abc"}, "field 'config'"),
            ({"scenario": "example_I", "params": {"q": "abc"}}, "parameter 'q'"),
            ({"scenario": "example_I", "params": {"q": [1]}}, "parameter 'q'"),
            # ranks used to be read by int(), or to end in a TypeError
            ({"scenario": "degenerate_circumvention",
              "params": {"d": 3, "ranks": [2.7, 1.3]}}, "parameter 'ranks'"),
            ({"scenario": "degenerate_circumvention", "params": {"ranks": "22"}},
             "parameter 'ranks'"),
            ({"scenario": "degenerate_circumvention", "params": {"ranks": True}},
             "parameter 'ranks'"),
            ({"scenario": "degenerate_circumvention",
              "params": {"ranks": [2, None]}}, "parameter 'ranks'"),
            # an integer path is a file descriptor to open(); this one can
            # never be open, so the old behaviour fails without writing
            ({"scenario": "example_I", "output": {"path": 2**31 - 1}},
             "field 'output.path'"),
            ({"scenario": "example_I", "output": {"format": ["csv"]}},
             "field 'output.format'"),
            ({"scenario": "example_I", "non_conforming": "false"},
             "field 'non_conforming'"),
            ({"config": _explicit_block(), "non_conforming": "false"},
             "field 'non_conforming'"),
            ({"config": _explicit_block(non_conforming="false")},
             "field 'config.non_conforming'"),
            ({"config": _explicit_block(degenerate_target="false")},
             "field 'config.degenerate_target'"),
            ({"config": _explicit_block(), "params": {"q": 0.9, "bogus": 1}},
             "field 'params'"),
            # misspelt output keys used to be ignored, and the JSON went
            # to stdout
            ({"scenario": "example_I",
              "output": {"pth": "out.json", "fromat": "csv"}},
             "field 'output.fromat'"),
            ({"scenario": "example_I",
              "output": {"format": "json", "file": "out.json"}},
             "field 'output.file'"),
        ],
    )
    def test_malformed_field_exit_code(self, tmp_path, capsys, doc, named):
        # each of these used to end in a traceback, in a message that named
        # no field, or in a run that read the value some other way (an
        # integer path as a file descriptor, the string "false" as true,
        # params beside an explicit config ignored)
        path = _write(tmp_path, doc)
        assert main(["run", path]) == 1
        assert named in capsys.readouterr().err

    def test_hard_assertion_exit_code(self, tmp_path, capsys, monkeypatch):
        path = _write(tmp_path, _library_doc())

        def boom(runs):
            raise HardAssertionError("forced for the exit-code contract")

        monkeypatch.setattr("szilard.cli.run_records", boom)
        assert main(["run", path]) == 2
        assert "hard assertion failed" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().out


class TestScanCommand:
    def test_json_payload(self, capsys):
        assert main(["scan", "--count", "4", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4
        assert payload["seed"] == 3
        assert payload["all_three_count"] == 0
        assert len(payload["records"]) == 4
        assert sum(p["count"] for p in payload["pattern_counts"]) == 4

    def test_env_seed_equivalent_to_flag(self, capsys, monkeypatch):
        assert main(["scan", "--count", "3", "--seed", "9"]) == 0
        explicit = capsys.readouterr().out
        monkeypatch.setenv("SZILARD_SEED", "9")
        assert main(["scan", "--count", "3"]) == 0
        assert capsys.readouterr().out == explicit

    def test_csv_output(self, capsys):
        assert main(["scan", "--count", "4", "--seed", "3",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,f1,f2,f3,min_work,w_net_coarse,w_net_avg"
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] in "01" and cells[2] in "01" and cells[3] in "01"

    def test_bad_count_exit_code(self, capsys):
        assert main(["scan", "--count", "0"]) == 1
        assert "positive" in capsys.readouterr().err


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["szilard"] == "szilard.cli:main"
    # run the target the way the generated console-script wrapper does
    env = dict(os.environ, PYTHONPATH=str(Path(szilard.__file__).parents[1]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from szilard.cli import main; sys.exit(main())",
            "scan", "--count", "1", "--seed", "1",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 1


@pytest.mark.skipif(
    shutil.which("szilard") is None,
    reason="no szilard executable on PATH (package not installed)",
)
def test_console_script_installed():
    exe = shutil.which("szilard")
    assert exe is not None
    proc = subprocess.run(
        [exe, "scan", "--count", "1", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1
