"""Front-end tests: scenario parsing, output formats, overrides, exit codes."""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import szilard
import szilard.cli as cli
from szilard import EngineConfig, HardAssertionError
from szilard.cli import main, parse_scenario, run_records
from szilard.qop import REQUIRED


def _write(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def _library_doc(**params):
    merged = {"q": 0.3, "N": 6}
    merged.update(params)
    return {"name": "smoke", "scenario": "example_I", "params": merged}


def _explicit_set(path, value):
    """The explicit block with the entry at ``path`` (keys and indices)
    replaced by ``value``; a JSON round trip unshares the block's rows."""
    block = json.loads(json.dumps(_explicit_block()))
    here = block
    for key in path[:-1]:
        here = here[key]
    here[path[-1]] = value
    return block


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


def _zero_outcome_block(field):
    """The explicit block with a third outcome ``z`` of zero projector in
    ``field``, and (for the pointer) identity feedback for all three."""
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    eye = [[[float(i == j), 0.0] for j in range(20)] for i in range(20)]
    block = _explicit_block()
    block[field].append({"label": "z", "value": 7.0, "projector": zero})
    if field == "pointer":
        block["feedback"] = [{"label": l, "unitary": eye} for l in "+-z"]
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
        with pytest.raises(ValueError, match="field 'sweep.values': missing"):
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

    def test_library_erasure_is_an_unknown_parameter(self, monkeypatch):
        # library engines are Landauer-optimal; ``erasure: swap`` used to
        # build and then fail inside the cycle on an unknown erasure mode
        ran = []
        monkeypatch.setattr("szilard.cli.run_cycle", ran.append)
        with pytest.raises(ValueError, match="unknown parameter 'erasure'"):
            run_records(parse_scenario(_library_doc(erasure="swap")))
        assert ran == []

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

    def test_unknown_format_fails_before_any_cycle(self, tmp_path, capsys,
                                                   monkeypatch):
        # this used to be rejected only after every cycle had run, naming
        # no field
        ran = []
        monkeypatch.setattr("szilard.cli.run_cycle", ran.append)
        doc = _library_doc()
        doc["output"] = {"format": "xml"}
        path = _write(tmp_path, doc)
        assert main(["run", path]) == 1
        assert "field 'output.format'" in capsys.readouterr().err
        assert ran == []

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
        "name, value, noun",
        [("SZILARD_KB", "warm", "a number"), ("SZILARD_TOL_S", "1e-9x", "a number"),
         ("SZILARD_SEED", "1.5", "an integer")],
    )
    def test_bad_env_value_names_its_kind(self, tmp_path, capsys, monkeypatch,
                                          name, value, noun):
        path = _write(tmp_path, _library_doc())
        monkeypatch.setenv(name, value)
        assert main(["run", path]) == 1
        want = f"environment variable {name} is not {noun}: {value!r}"
        assert want in capsys.readouterr().err

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
        # tolerance, and then to exit 1 naming no field
        path = _write(tmp_path, doc)
        argv = ["run", path]
        if source == "flag":
            argv.append(f"--tol-s={value}")
        else:
            monkeypatch.setenv("SZILARD_TOL_S", value)
        assert main(argv) == 1
        named = "field 'config.tol_s'" if "config" in doc else "parameter 'tol_s'"
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, flags, env, named",
        [
            (_library_doc(kb=math.inf), [], None, "parameter 'kb'"),
            ({"config": _explicit_block(kb=math.inf)}, [], None,
             "field 'config.kb'"),
            (_library_doc(), ["--kb", "inf"], None, "parameter 'kb'"),
            ({"config": _explicit_block()}, ["--kb", "inf"], None,
             "field 'config.kb'"),
            (_library_doc(), [], "inf", "parameter 'kb'"),
            ({"config": _explicit_block()}, [], "inf", "field 'config.kb'"),
            (_library_doc(temperature=math.inf), [], None,
             "parameter 'temperature'"),
            ({"config": _explicit_block(temperature=math.inf)}, [], None,
             "field 'config.temperature'"),
        ],
        ids=["library-kb", "explicit-kb", "library-flag", "explicit-flag",
             "library-env", "explicit-env", "library-temperature",
             "explicit-temperature"],
    )
    def test_non_finite_context_exit_code(self, tmp_path, capsys, monkeypatch,
                                          doc, flags, env, named):
        # an infinite kb or temperature used to exit 0 and write NaN and
        # Infinity tokens, which are not JSON
        if env is not None:
            monkeypatch.setenv("SZILARD_KB", env)
        assert main(["run", _write(tmp_path, doc), *flags]) == 1
        out = capsys.readouterr()
        assert named in out.err and "finite" in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "doc",
        [{"scenario": "null_engine",
          "params": {"kb": 1e-200, "temperature": 1e-200}},
         {"scenario": "degenerate_circumvention",
          "params": {"temperature": 1e-320}},
         {"scenario": "example_I", "params": {"kb": 1e200, "temperature": 1e200}}],
        ids=["kt-underflows", "beta-overflows", "kt-overflows"],
    )
    def test_degenerate_thermal_energy_exit_code(self, tmp_path, capsys, doc):
        # each factor is finite and positive, but their product was not: a
        # zero kT divided by zero, an infinite beta met non-finite entries
        # and an infinite kT wrote NaN
        assert main(["run", _write(tmp_path, doc)]) == 1
        out = capsys.readouterr()
        assert "kb * temperature" in out.err and "Traceback" not in out.err
        assert out.out == ""

    @pytest.mark.parametrize("scenario", szilard.SCENARIO_NAMES)
    def test_output_depends_on_kb_and_temperature_through_kt(
        self, tmp_path, capsys, scenario
    ):
        # (kb, T) -> (kb / 2^k, 2^k T) keeps kT exactly; the work floor
        # once read T alone
        outs = []
        for k in (0, 1, 30):
            params = {"kb": 2.0**-k, "temperature": 2.0**k}
            path = _write(tmp_path, {"scenario": scenario, "params": params})
            assert main(["run", path]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_json_output_rejects_non_finite_numbers(
        self, tmp_path, capsys, monkeypatch
    ):
        # a NaN that reaches the writer fails the run rather than being
        # written as a bare NaN token
        monkeypatch.setattr(
            "szilard.cli.run_records", lambda runs: [{"work": math.nan}]
        )
        assert main(["run", _write(tmp_path, _library_doc())]) == 1
        assert capsys.readouterr().out == ""

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
            # an integer past the float range used to end in an
            # OverflowError traceback
            ({"scenario": "example_I", "params": {"N": 10**400}},
             "parameter 'N'"),
            # ranks used to be read by int(), or to end in a TypeError
            ({"scenario": "degenerate_circumvention",
              "params": {"d": 3, "ranks": [2.7, 1.3]}}, "parameter 'ranks[0]'"),
            ({"scenario": "degenerate_circumvention", "params": {"ranks": "22"}},
             "parameter 'ranks'"),
            ({"scenario": "degenerate_circumvention", "params": {"ranks": True}},
             "parameter 'ranks'"),
            ({"scenario": "degenerate_circumvention",
              "params": {"ranks": [2, None]}}, "parameter 'ranks[1]'"),
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
            # the explicit config derives these two from the target and the
            # document; a config that set them is refused, not overridden
            ({"config": _explicit_block(non_conforming=False),
              "non_conforming": True},
             "unknown field 'config.non_conforming'"),
            ({"config": _explicit_block(degenerate_target=False)},
             "unknown field 'config.degenerate_target'"),
            # null, numbers and booleans used to be read with str(): the run
            # was named "None", a null scenario was "unknown scenario
            # 'None'", and labels null and "None" collided naming no field
            ({"name": 5, "scenario": "example_I"}, "field 'name'"),
            ({"scenario": None}, "'scenario'"),
            ({"scenario": "example_I",
              "sweep": {"parameter": "q", "values": [0.3], "x": 1}},
             "unknown field 'sweep.x'"),
            ({"scenario": "example_I", "sweep": {"parameter": 5, "values": [1]}},
             "field 'sweep.parameter'"),
            ({"config": _explicit_set(("target", 0, "label"), None)},
             "field 'config.target[0].label': missing"),
            ({"config": _explicit_set(("target", 0, "label"), True)},
             "field 'config.target[0].label'"),
            ({"config": _explicit_set(("transitions", 1, "outcome"), 1)},
             "field 'config.transitions[1].outcome'"),
            # an integer key used to end in a TypeError traceback
            ({"scenario": "example_I", "params": {1: 2}}, "field 'params'"),
            # a value whose construction fails names its field
            ({"config": _explicit_set(("rho_s", 1, 1), [1.7, 0.0])},
             "field 'config.rho_s'"),
            ({"config": _explicit_set(("demon_initial", 0), [2.0, 0.0])},
             "field 'config.demon_initial'"),
            ({"config": _explicit_set(
                ("target", 1, "projector"), [[[0.5, 0], [0.5, 0]],
                                             [[0.5, 0], [0.5, 0]]])},
             "field 'config.target'"),
            # matrix entries and observable values are read as numbers: a
            # boolean entry used to read as 1 or 0, a boolean value as 1.0,
            # and a string value failed naming no field
            ({"config": _explicit_set(("h_d", 0, 0), [False, False])},
             "field 'config.h_d[0][0]'"),
            ({"config": _explicit_set(
                ("pointer", 0, "projector", 0, 0), [True, False])},
             "field 'config.pointer[0].projector[0][0]'"),
            ({"config": _explicit_set(("h_s", 0, 0), [math.inf, 0.0])},
             "field 'config.h_s[0][0]'"),
            ({"config": _explicit_set(("target", 0, "value"), True)},
             "field 'config.target[0].value'"),
            ({"config": _explicit_set(("target", 1, "value"), "x")},
             "field 'config.target[1].value'"),
            ({"config": _explicit_set(("pointer", 0, "value"), None)},
             "field 'config.pointer[0].value'"),
            ({"config": _explicit_set(("target", 0, "value"), math.nan)},
             "field 'config.target[0].value'"),
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
            # the context and the weight are built from these after the
            # reader, and their messages used to name no field
            ({"config": _explicit_block(levels=0)}, "field 'config.levels'"),
            ({"config": _explicit_block(omega=-1)}, "field 'config.omega'"),
            ({"config": _explicit_block(levels=3, dim=4)},
             "field 'config.dim'"),
            ({"config": _explicit_block(temperature=0)},
             "field 'config.temperature'"),
            ({"config": _explicit_block(kb=-1)}, "field 'config.kb'"),
            # library parameters reached the context, the weight and the
            # engine unnamed, as did the explicit config's tolerance
            ({"scenario": "example_I", "params": {"kb": -1}}, "parameter 'kb'"),
            ({"scenario": "example_II", "params": {"omega": -1}},
             "parameter 'omega'"),
            ({"scenario": "example_I", "params": {"temperature": 0}},
             "parameter 'temperature'"),
            ({"scenario": "example_I", "params": {"tol_s": -1}},
             "parameter 'tol_s'"),
            ({"scenario": "null_engine", "params": {"kb": "warm"}},
             "parameter 'kb'"),
            ({"config": _explicit_block(tol_s=-1)}, "field 'config.tol_s'"),
            # a zero projector passed every observable check: in the pointer
            # it ended in "SVD did not converge", in the target it ran
            ({"config": _zero_outcome_block("pointer")},
             "field 'config.pointer': outcome 'z': projector is zero"),
            ({"config": _zero_outcome_block("target")},
             "field 'config.target': outcome 'z': projector is zero"),
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

    @pytest.mark.parametrize(
        "doc",
        [{"scenario": name, "params": params} for name, params in [
            ("reservoir_circumvention", {"dim_R": 40}),
            ("example_II", {"N": 1100}),
            ("degenerate_circumvention", {"d": 3, "ranks": [2, 1], "N": 700}),
            ("example_II", {"N": 10**30}),
        ]] + [{"config": _explicit_block(dim=1025)},
              {"config": _explicit_block(levels=1022)}],
    )
    def test_oversize_engine_exit_code(self, tmp_path, capsys, doc):
        assert main(["run", _write(tmp_path, doc)]) == 1
        assert "exceeds limit" in capsys.readouterr().err

    def test_hard_assertion_exit_code(self, tmp_path, capsys, monkeypatch):
        path = _write(tmp_path, _library_doc())

        def boom(runs):
            raise HardAssertionError("forced for the exit-code contract")

        monkeypatch.setattr("szilard.cli.run_records", boom)
        assert main(["run", path]) == 2
        assert "hard assertion failed" in capsys.readouterr().err

    def test_pointer_outcome_without_a_transition_needs_feedback(
        self, tmp_path, capsys
    ):
        # a qutrit pointer whose outcome z no transition writes: building
        # the ladder strokes once ended in KeyError: 'z'
        re = lambda x: [float(x), 0.0]
        basis = lambda i: [re(j == i) for j in range(3)]
        block = _explicit_block(
            h_d=[[re(0)] * 3 for _ in range(3)],
            demon_initial=basis(0),
            pointer=[
                {"label": l, "value": float(i),
                 "projector": [[re(i == j == k) for k in range(3)] for j in range(3)]}
                for i, l in enumerate("+-z")
            ],
        )
        for t, i in zip(block["transitions"], (0, 1)):
            t["pointer_out"] = basis(i)
        assert main(["run", _write(tmp_path, {"config": block})]) == 1
        assert "field 'config.feedback'" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().out


@functools.cache
def _feedback_doc():
    """An explicit document that writes its feedback out as rows: the
    strokes the parser builds for the explicit block at one window level."""
    block = _explicit_block(levels=1)
    config = parse_scenario({"config": block})[0].config
    block["feedback"] = [
        {"label": label,
         "unitary": [[[float(z.real), float(z.imag)] for z in row]
                     for row in u.entries]}
        for label, u in config.feedback.branch_unitaries
    ]
    return json.dumps({"name": "t", "config": block})


def _library_full():
    return {
        "name": "t", "scenario": "example_I", "params": {"q": 0.3, "N": 6},
        "sweep": {"parameter": "q", "values": [0.3]},
        "output": {"format": "json"}, "non_conforming": False,
    }


def _explicit_full():
    return {"name": "t", "config": _explicit_block(
        kb=1.0, dim=10, erasure="swap", tol_s=1e-9)}


def _feedback_full():
    return json.loads(_feedback_doc())


# every block the reader knows: where it sits in a document that is valid
# as given, and the table the reader reads it against
_BLOCKS = [
    ("document", _library_full, (), cli._DOCUMENT),
    ("sweep", _library_full, ("sweep",), cli._SWEEP),
    ("output", _library_full, ("output",), cli._OUTPUT),
    ("config", _explicit_full, ("config",), cli._CONFIG),
    ("target", _explicit_full, ("config", "target", 0), cli._OUTCOME),
    ("pointer", _explicit_full, ("config", "pointer", 1), cli._OUTCOME),
    ("transition", _explicit_full, ("config", "transitions", 1),
     cli._TRANSITION),
    ("feedback", _feedback_full, ("config", "feedback", 0), cli._BRANCH),
]


def _path(location):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in location).lstrip(".")


def _block_at(doc, location):
    for k in location:
        doc = doc[k]
    return doc


def _run(tmp_path, capsys, doc):
    code = main(["run", _write(tmp_path, doc)])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFieldTable:
    """Each block read against its table: an unknown key, a value of the
    wrong kind and a null each behave the same way for every key."""

    @pytest.mark.parametrize("full", [_library_full, _explicit_full,
                                      _feedback_full])
    def test_full_documents_run(self, tmp_path, capsys, full):
        assert _run(tmp_path, capsys, full())[0] == 0

    @pytest.mark.parametrize("name, full, location, table", _BLOCKS,
                             ids=[b[0] for b in _BLOCKS])
    def test_unknown_key(self, tmp_path, capsys, name, full, location, table):
        doc = full()
        _block_at(doc, location)["bogus"] = 1
        code, _, err = _run(tmp_path, capsys, doc)
        prefix = _path(location) + "." if location else ""
        assert code == 1 and f"unknown field '{prefix}bogus'" in err

    @pytest.mark.parametrize(
        "full, location, key, kind, default",
        [(full, location, key, kind, default)
         for _, full, location, table in _BLOCKS
         for key, (kind, default) in table.items()],
        ids=[f"{name}.{key}" for name, _, _, table in _BLOCKS for key in table],
    )
    def test_wrong_kind_and_null(self, tmp_path, capsys, full, location, key,
                                 kind, default):
        named = _path(location + (key,))
        doc = full()
        _block_at(doc, location)[key] = 5 if kind is str else "abc"
        code, out, err = _run(tmp_path, capsys, doc)
        assert (code, out) == (1, "") and f"field '{named}'" in err
        doc = full()
        _block_at(doc, location)[key] = None
        if default is REQUIRED:
            code, out, err = _run(tmp_path, capsys, doc)
            assert (code, out) == (1, "")
            assert f"field '{named}': missing" in err
        else:
            # a null reads as the key's default, the same as leaving it out
            absent = full()
            _block_at(absent, location).pop(key, None)
            assert _run(tmp_path, capsys, doc) == _run(tmp_path, capsys, absent)

    def test_null_name_is_the_default(self, tmp_path, capsys):
        # this run used to be named "None"
        doc = _library_doc()
        doc["name"] = None
        assert main(["run", _write(tmp_path, doc)]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "scenario"

    def test_null_erasure_is_landauer_optimal(self, tmp_path, capsys):
        # this used to fail as "unknown mode None"
        code, out, _ = _run(tmp_path, capsys,
                            {"config": _explicit_block(erasure=None)})
        assert code == 0
        assert json.loads(out)["records"][0]["erasure"]["landauer_optimal"]


def _readme_tables():
    """Each markdown table of the README as {first-column key: default}."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    tables, rows = [], {}
    for line in readme.read_text(encoding="utf-8").splitlines() + [""]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) > 2:
            rows[cells[0].strip("`")] = cells[2]
        elif rows:
            tables.append(rows)
            rows = {}
    return tables


@pytest.mark.parametrize(
    "name, table",
    [("document", cli._DOCUMENT), ("sweep", cli._SWEEP),
     ("output", cli._OUTPUT), ("config", cli._CONFIG),
     ("outcome", cli._OUTCOME), ("transition", cli._TRANSITION),
     ("feedback", cli._BRANCH)],
)
def test_readme_documents_every_block(name, table):
    # the scenario-file section has one table per block: the same keys,
    # and "required" exactly where the reader requires the key
    documented = [t for t in _readme_tables() if set(t) == set(table)]
    assert len(documented) == 1, name
    required = {k for k, (_, default) in table.items() if default is REQUIRED}
    assert {k for k, d in documented[0].items() if d == "required"} == required


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

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_negative_seed_exit_code(self, capsys, monkeypatch, source):
        # numpy's own refusal named neither the flag nor the variable
        argv = ["scan", "--count", "1"]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("SZILARD_SEED", "-1")
        assert main(argv) == 1
        assert "seed must be non-negative, got -1" in capsys.readouterr().err


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
