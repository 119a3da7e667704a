import csv
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coldsnap
from coldsnap.cli import main
from coldsnap.report import compare_scenarios, export_exposure
from coldsnap.valuation import METRICS

TRIALS = "60"


@pytest.fixture(scope="module")
def runs(demo_config_path, tmp_path_factory):
    """Base, CO, and RO-HI demo runs shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli_runs")
    dirs = {}
    for name in ("base", "co", "ro-hi"):
        out = root / name
        code = main(["run", "--config", str(demo_config_path), "--scenario", name,
                     "--trials", TRIALS, "--out", str(out)])
        assert code == 0
        dirs[name] = out
    return dirs


class TestRunCommand:
    def test_artifacts_written(self, runs):
        for name in ("trials.csv", "summary.json", "histogram.csv",
                     "exposure.csv", "manifest.json"):
            assert (runs["base"] / name).exists(), name

    def test_base_has_near_zero_nei(self, runs):
        base = json.loads((runs["base"] / "summary.json").read_text())
        co = json.loads((runs["co"] / "summary.json").read_text())
        assert base["nei_total"]["mean"] < 0.01 * co["nei_total"]["mean"]
        assert base["n_death"]["mean"] == 0.0
        assert base["c_build"]["mean"] == 0.0

    def test_trials_csv_money_formatting(self, runs):
        lines = (runs["co"] / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,c_vsl,c_medical,c_prod,c_build,c_cic,total,n_death,n_injured"
        cells = lines[1].split(",")
        for cell in cells[1:7]:
            whole, frac = cell.split(".")
            assert len(frac) == 2

    def test_byte_identical_reruns(self, demo_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["run", "--config", str(demo_config_path), "--scenario", "co",
                         "--trials", "30", "--out", str(out)])
            assert code == 0
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "exposure.csv").read_bytes() == (out2 / "exposure.csv").read_bytes()

    def test_fewer_trials_write_a_prefix_of_trials_csv(self, demo_config_path, tmp_path):
        rows = {}
        for n in (70, 200):
            out = tmp_path / str(n)
            code = main(["run", "--config", str(demo_config_path), "--scenario", "co",
                         "--trials", str(n), "--out", str(out)])
            assert code == 0
            rows[n] = (out / "trials.csv").read_text().splitlines()
        assert len(rows[70]) == 71 and rows[70] == rows[200][:71]

    def test_availability_per_slot_matches_its_constant(self, demo_config_path, tmp_path):
        # ro-di's constant availability written out for the window's 96
        # one-hour slots.
        config = json.loads(demo_config_path.read_text())
        config["weather_path"] = str(demo_config_path.parent / config["weather_path"])
        rodi = config["scenarios"]["ro-di"]
        rodi["availability"] = [rodi.pop("availability_constant")] * 96
        slots = tmp_path / "slots.json"
        slots.write_text(json.dumps(config))
        outs = []
        for path in (demo_config_path, slots):
            outs.append(tmp_path / path.stem)
            assert main(["run", "--config", str(path), "--scenario", "ro-di", "--trials", "20",
                         "--out", str(outs[-1])]) == 0
        for name in ("trials.csv", "exposure.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("threads", ["0", "-2", "100000"])
    def test_threads_out_of_range_exits_2_naming_flag(self, demo_config_path, tmp_path, capsys,
                                                      threads):
        code = main(["run", "--config", str(demo_config_path), "--scenario", "co",
                     "--trials", "2", "--out", str(tmp_path / "out"), "--threads", threads])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trials", ["0", "1000000000000"])
    def test_trials_out_of_range_exits_2_naming_key(self, demo_config_path, tmp_path, capsys,
                                                    trials):
        code = main(["run", "--config", str(demo_config_path), "--scenario", "co",
                     "--trials", trials, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "n_trials" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_summary_se_recomputable_from_trials_csv(self, runs):
        summary = json.loads((runs["co"] / "summary.json").read_text())
        lines = (runs["co"] / "trials.csv").read_text().splitlines()
        header = lines[0].split(",")
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert len(values) == summary["n_trials"]
        for j, name in enumerate(header[1:], start=1):
            se = values[:, j].std() / math.sqrt(len(values))
            # trials.csv rounds money to cents.
            assert summary[name]["se"] == pytest.approx(se, rel=1e-6, abs=1e-3), name
            assert summary[name]["se"] == summary[name]["std"] / math.sqrt(len(values))
        assert summary["c_vsl"]["se"] > 0.0

    def test_missing_weather_exits_2_with_path(self, demo_config_path, tmp_path, capsys):
        config = json.loads(demo_config_path.read_text())
        config["weather_path"] = "nope_missing.csv"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nope_missing.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("update, named", [
        # Not a whole multiple or divisor of the weather file's 300 s step.
        ({"dt_s": 450.0}, "config key 'dt_s' must be a whole multiple or divisor"),
        # co isolates some small C&I customers behind faults.
        ({"valuation": {"cic": {"tables": {
            table: {"base": 1.0, "per_hour": 2.0, "per_kwh": 0.5, "slope_beyond_cap": 1.5}
            for table in ("residential", "large_medium_ci")}}}},
         "config key 'valuation.cic.tables' has no interruption-cost table 'small_ci'"),
    ])
    def test_bad_input_exits_2_before_the_output_directory(self, demo_config_path, tmp_path,
                                                           capsys, update, named):
        config = {**json.loads(demo_config_path.read_text()), **update}
        config["weather_path"] = str(demo_config_path.parent / config["weather_path"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main(["run", "--config", str(bad), "--scenario", "co",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("route, named", [
        ("config", "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        # Past the first 8 KiB of the file, which a text reader decodes at once.
        ("weather", "not UTF-8 text: byte 0xff; file={path}; row=500"),
        ("population", "not UTF-8 text: byte 0xe9; file={path}; row=5"),
        ("long_cell", "unreadable CSV text: field larger than field limit (131072); "
                      "file={path}; row=10"),
        # A config that is a symlink to itself, and a run directory whose
        # name is longer than the OS allows.
        ("loop", "cannot open {path}: Too many levels of symbolic links"),
        ("long_dir", "cannot open {path}/summary.json: File name too long"),
    ], ids=["config", "weather", "population", "long_cell", "loop", "long_dir"])
    def test_unreadable_text_exits_2_naming_the_file(self, demo_config_path, tmp_path, capsys,
                                                     route, named):
        from coldsnap.population import save_population, synthesize_population
        from coldsnap.scenario import load_config

        config = json.loads(demo_config_path.read_text())
        weather = (demo_config_path.parent / config["weather_path"]).read_bytes().split(b"\n")
        path = tmp_path / f"{route}.csv"
        if route == "population":
            save_population(synthesize_population(
                load_config(demo_config_path).population_spec, 42)[:20], path)
            lines = path.read_bytes().split(b"\n")
            lines[4] = lines[4].replace(b"median", "médian".encode("latin-1"))
            path.write_bytes(b"\n".join(lines))
            config["population"] = {"path": str(path)}
        elif route in ("weather", "long_cell"):
            if route == "weather":
                weather[499] = weather[499].replace(b"-", b"\xff", 1)
            else:
                weather[9] = weather[9].replace(b",", b"," + b"1" * 200_000, 1)
            path.write_bytes(b"\n".join(weather))
            config["weather_path"] = str(path)
        elif route == "loop":
            path = tmp_path / "loop.json"
            path.symlink_to(path)
        elif route == "long_dir":
            path = tmp_path / ("d" * 300)
        config["weather_path"] = str(demo_config_path.parent / config["weather_path"])
        bad = tmp_path / "bad.json"
        bad.write_bytes((b"\xff" if route == "config" else b"") + json.dumps(config).encode())
        command = (["compare", str(path), str(path)] if route == "long_dir" else
                   ["run", "--config", str(path if route == "loop" else bad), "--scenario", "co",
                    "--trials", "5"])
        code = main([*command, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert named.format(path=path) in err and str(bad if route == "config" else path) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out, reason", [
        ("taken", "File exists"),
        ("taken/sub", "Not a directory"),
        pytest.param("x" * 300, "File name too long", id="too_long-File name too long"),
        ("denied", "Permission denied"),
        ("read_only", "Read-only file system"),
    ])
    def test_unusable_output_path_exits_2_naming_it(self, demo_config_path, tmp_path, capsys,
                                                    monkeypatch, out, reason):
        (tmp_path / "taken").write_text("a file, not a folder")
        target = tmp_path / out
        # The suite may run as root, whom no permission bit stops, and on a
        # writable disk: these refusals are stood in for.
        refused = {"denied": errno.EACCES, "read_only": errno.EROFS}.get(out)
        if refused is not None:
            mkdir = Path.mkdir

            def refusing_mkdir(path, *args, **kwargs):
                if path == target:
                    raise OSError(refused, os.strerror(refused), str(path))
                return mkdir(path, *args, **kwargs)

            monkeypatch.setattr(Path, "mkdir", refusing_mkdir)
        code = main(["run", "--config", str(demo_config_path), "--trials", "5",
                     "--out", str(target)])
        assert code == 2
        assert f"error: cannot open {target}: {reason}" in capsys.readouterr().err
        assert [(p.name, p.is_file()) for p in tmp_path.iterdir()] == [("taken", True)]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_unacknowledged_default_cic_rejected(self, demo_config_path, tmp_path, capsys):
        config = json.loads(demo_config_path.read_text())
        config["valuation"].pop("acknowledge_default_cic")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "acknowledge_default_cic" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("n_trials",), "x"),
        (("scenarios", "co", "shed_fraction"), 2),
        (("scenarios", "co", "shed_fraction"), -0.1),
    ])
    def test_bad_config_value_exits_2_naming_key(self, demo_config_path, tmp_path, capsys,
                                                 path, value):
        config = json.loads(demo_config_path.read_text())
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        config["weather_path"] = str(demo_config_path.parent / config["weather_path"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main(["run", "--config", str(bad), "--scenario", "co",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert path[-1] in capsys.readouterr().err

    def test_manifest_contains_provenance_and_stable_hash(self, runs):
        manifest = json.loads((runs["base"] / "manifest.json").read_text())
        assert manifest["engine"] == "coldsnap"
        assert "curve_fit_provenance" not in manifest
        assert manifest["materialized_config"]["hazard"]["rr_model"]["fit_points"]
        summary = json.loads((runs["base"] / "summary.json").read_text())
        assert manifest["config_hash"] == summary["config_hash"]

    def test_traces_flag_writes_traces(self, demo_config_path, tmp_path):
        out = tmp_path / "traced"
        code = main(["run", "--config", str(demo_config_path), "--scenario", "base",
                     "--trials", "2", "--out", str(out), "--traces"])
        assert code == 0
        header = (out / "traces.csv").read_text().splitlines()[0]
        assert header == "building_id,timestamp,t_in_c,powered,hvac_kw"


class TestCompare:
    def test_nei_reduction_reported(self, runs, tmp_path):
        out = tmp_path / "cmp.csv"
        rows = compare_scenarios([runs["co"], runs["ro-hi"]], out)
        nei = next(r for r in rows if r["metric"] == "nei_total_mean")
        reduction = -nei["ro-hi_delta_pct"]
        assert reduction >= 40.0
        assert out.exists()

    def test_identical_runs_have_zero_deltas(self, runs, tmp_path):
        rows = compare_scenarios([runs["base"], runs["base"]], tmp_path / "c.csv")
        for row in rows:
            for key, value in row.items():
                if key.endswith("_delta_pct"):
                    assert value == pytest.approx(0.0)

    def test_population_mismatch_rejected(self, demo_config_path, runs, tmp_path, capsys):
        out = tmp_path / "other_seed"
        code = main(["run", "--config", str(demo_config_path), "--scenario", "base",
                     "--trials", "5", "--seed", "99", "--out", str(out)])
        assert code == 0
        code = main(["compare", str(runs["base"]), str(out),
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "population" in capsys.readouterr().err

    def test_cli_compare_prints_table(self, runs, tmp_path, capsys):
        code = main(["compare", str(runs["co"]), str(runs["ro-hi"]),
                     "--out", str(tmp_path / "c.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "nei_total_mean" in text

    def test_output_in_a_missing_folder_exits_2_naming_it(self, runs, tmp_path, capsys):
        out = tmp_path / "missing" / "c.csv"
        code = main(["compare", str(runs["co"]), str(runs["ro-hi"]), "--out", str(out)])
        assert code == 2
        assert f"error: cannot open {out}: No such file or directory" in capsys.readouterr().err

    def test_single_dir_rejected(self, runs, tmp_path, capsys):
        code = main(["compare", str(runs["base"]), "--out", str(tmp_path / "c.csv")])
        assert code == 2

    def test_zero_baseline_delta_is_undefined(self, tmp_path, capsys):
        means = {"base": 0.0, "co": 81_200_000.0}
        dirs = []
        for name, vsl in means.items():
            summary = {m: {"mean": 0.0} for m in METRICS}
            summary.update(scenario=name, population_digest="d", mean_rr_population=1.0)
            summary["c_vsl"]["mean"] = vsl
            dirs.append(tmp_path / name)
            dirs[-1].mkdir()
            (dirs[-1] / "summary.json").write_text(json.dumps(summary))
        out = tmp_path / "c.csv"
        rows = {r["metric"]: r for r in compare_scenarios(dirs, out)}
        assert rows["c_vsl_mean"]["co_delta_pct"] is None
        assert rows["c_vsl_mean"]["base_delta_pct"] == 0.0
        assert rows["c_cic_mean"]["co_delta_pct"] == 0.0
        assert rows["mean_rr_population"]["co_delta_pct"] == 0.0
        with open(out, newline="") as handle:
            table = {r["metric"]: r for r in csv.DictReader(handle)}
        assert table["c_vsl_mean"]["co_delta_pct"] == ""
        assert table["c_cic_mean"]["co_delta_pct"] == "0.0000"
        code = main(["compare", *map(str, dirs), "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        vsl = lines.index(next(line for line in lines if line.startswith("c_vsl_mean")))
        assert lines[vsl + 1].split() == ["vs", "first", "(%)", "+0.0%", "n/a"]

    def test_same_scenario_runs_labelled_by_directory(self, demo_config_path, runs, tmp_path,
                                                      capsys):
        more = tmp_path / "co40"
        code = main(["run", "--config", str(demo_config_path), "--scenario", "co",
                     "--trials", "40", "--out", str(more)])
        assert code == 0
        out = tmp_path / "c.csv"
        code = main(["compare", str(runs["co"]), str(more), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            reader = csv.DictReader(handle)
            table = {r["metric"]: r for r in reader}
        labels = [str(runs["co"]), str(more)]
        assert reader.fieldnames == ["metric", *labels, *(f"{lb}_delta_pct" for lb in labels)]
        for label, run in zip(labels, (runs["co"], more)):
            summary = json.loads((run / "summary.json").read_text())
            assert table["total_mean"][label] == f"{summary['total']['mean']:.4f}"
        assert table["total_mean"][f"{labels[0]}_delta_pct"] == "0.0000"
        # The printed table stays aligned under labels longer than a number.
        printed = capsys.readouterr().out.splitlines()
        printed = printed[printed.index(next(ln for ln in printed if ln.startswith("metric"))):-1]
        assert printed[0].endswith(labels[1]) and len({len(line) for line in printed}) == 1

    def test_same_directory_twice_gets_two_columns(self, runs, tmp_path):
        rows = compare_scenarios([runs["co"], runs["co"]], tmp_path / "c.csv")
        assert [k for k in rows[0] if not k.endswith("_delta_pct")] == [
            "metric", f"{runs['co']}#1", f"{runs['co']}#2"]

    @pytest.mark.parametrize("text, reason", [
        ("not json", "is not valid JSON: Expecting value"),
        ("[]", "has no number at key 'c_vsl.mean'"),
        (None, "has no number at key 'c_vsl.mean'"),  # a real summary without c_vsl
    ])
    def test_malformed_summary_exits_2_naming_file(self, runs, tmp_path, capsys, text, reason):
        if text is None:
            summary = json.loads((runs["ro-hi"] / "summary.json").read_text())
            del summary["c_vsl"]
            text = json.dumps(summary)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "summary.json").write_text(text)
        code = main(["compare", str(runs["co"]), str(bad), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad / "summary.json") in err and reason in err

    def test_reordering_inputs_permutes_columns_only(self, runs, tmp_path):
        forward = compare_scenarios([runs["co"], runs["ro-hi"]], tmp_path / "f.csv")
        backward = compare_scenarios([runs["ro-hi"], runs["co"]], tmp_path / "b.csv")
        for f_row, b_row in zip(forward, backward):
            assert f_row["metric"] == b_row["metric"]
            assert f_row["co"] == b_row["co"]
            assert f_row["ro-hi"] == b_row["ro-hi"]


class TestExportExposure:
    def test_class_means_ordered_in_rolling_run(self, runs):
        rows = export_exposure(runs["ro-hi"])
        temps = [r["mean_t_in_c"] for r in rows]
        risks = [r["mean_rr"] for r in rows]
        assert temps == sorted(temps)
        assert risks == sorted(risks, reverse=True)

    def test_base_class_means_inside_deadband(self, runs):
        rows = export_exposure(runs["base"])
        for row in rows:
            assert 19.5 <= row["mean_t_in_c"] <= 20.5

    def test_grouped_counts_sum_to_population(self, runs):
        rows = export_exposure(runs["base"])
        summary = json.loads((runs["base"] / "summary.json").read_text())
        assert sum(r["n_buildings"] for r in rows) == summary["n_buildings"]

    def test_missing_run_dir_rejected(self, tmp_path, capsys):
        code = main(["export-exposure", str(tmp_path / "nothing")])
        assert code == 2

    def test_summary_csv_written(self, runs):
        export_exposure(runs["ro-hi"])
        assert (runs["ro-hi"] / "insulation_summary.csv").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda rows: [row[:3] + row[4:] for row in rows], "row=1; column=insulation"),
        (lambda rows: with_cells(rows, (5, 6, "x")), "row=6; column=min_t_in_c"),
        (lambda rows: with_cells(rows, (9, 3, "excelent")), "row=10; column=insulation"),
        # The lowest row first, then insulation before the numbers.
        (lambda rows: with_cells(rows, (9, 3, "excelent"), (7, 7, "x"), (7, 5, "")),
         "row=8; column=mean_t_in_c"),
        (lambda rows: with_cells(rows, (7, 7, "x"), (7, 3, "excelent")),
         "row=8; column=insulation"),
    ])
    def test_malformed_exposure_exits_2_naming_file_row_column(self, runs, tmp_path, capsys,
                                                               edit, named):
        with open(runs["base"] / "exposure.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][3] == "insulation" and rows[0][6] == "min_t_in_c"
        with open(tmp_path / "exposure.csv", "w", newline="") as handle:
            csv.writer(handle).writerows(edit(rows))
        assert main(["export-exposure", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"file={tmp_path / 'exposure.csv'}" in err and named in err


def with_cells(rows, *cells):
    """A copy of CSV `rows` with each (row, column, text) cell set."""
    rows = [list(row) for row in rows]
    for row, column, text in cells:
        rows[row][column] = text
    return rows


class TestDemoCommand:
    def test_demo_writes_assets(self, tmp_path):
        code = main(["demo", "--out", str(tmp_path / "assets")])
        assert code == 0
        assert (tmp_path / "assets" / "demo_config.json").exists()
        assert (tmp_path / "assets" / "demo_weather.csv").exists()


def python_m_cli(*args):
    """`python -m coldsnap.cli ARGS` in a child process, importing this
    package."""
    path = [str(Path(coldsnap.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "coldsnap.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


class TestChildProcess:
    """The exit code of a command reaches the process that started it."""

    def test_demo_exits_0(self, tmp_path):
        result = python_m_cli("demo", "--out", str(tmp_path / "assets"))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "assets" / "demo_config.json").exists()

    def test_bad_config_value_exits_2_naming_it_before_the_output_directory(
            self, demo_config_path, tmp_path):
        config = json.loads(demo_config_path.read_text())
        config["weather_path"] = str(demo_config_path.parent / config["weather_path"])
        config["valuation"]["cic"] = {"season_multiplier": -2}
        bad = tmp_path / "negative_season.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "out"
        result = python_m_cli("run", "--config", str(bad), "--scenario", "co", "--trials", "20",
                              "--out", str(out))
        assert result.returncode == 2
        assert "'valuation.cic.season_multiplier'" in result.stderr
        assert not out.exists()


class TestPopulationFileRoute:
    def test_run_from_population_csv(self, demo_config_path, tmp_path):
        import csv as _csv

        from coldsnap.population import (
            BuildingKind, PopulationSpec, save_population, synthesize_population,
        )
        from coldsnap.scenario import population_digest

        spec = PopulationSpec(
            counts={BuildingKind.SINGLE_FAMILY: 30, BuildingKind.OFFICE: 2})
        pop = synthesize_population(spec, seed=4)
        pop_csv = tmp_path / "pop.csv"
        save_population(pop, pop_csv)

        config = json.loads(demo_config_path.read_text())
        config["population"] = {"path": str(pop_csv)}
        config["weather_path"] = str(demo_config_path.parent / "demo_weather.csv")
        cfg_path = tmp_path / "file_pop.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = main(["run", "--config", str(cfg_path), "--scenario", "co",
                     "--trials", "5", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_buildings"] == 32
        assert summary["population_digest"] == population_digest(pop)
        with open(out / "exposure.csv", newline="") as handle:
            assert len(list(_csv.DictReader(handle))) == 32

    def test_demo_population_from_csv_writes_the_same_outputs(self, demo_config_path, runs,
                                                              tmp_path):
        from coldsnap.population import save_population, synthesize_population
        from coldsnap.scenario import load_config

        loaded = load_config(demo_config_path)
        pop_csv = tmp_path / "population.csv"
        save_population(synthesize_population(loaded.population_spec, loaded.seed), pop_csv)
        config = json.loads(demo_config_path.read_text())
        config["population"] = {"path": str(pop_csv)}
        config["weather_path"] = str(demo_config_path.parent / config["weather_path"])
        cfg_path = tmp_path / "csv_config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--scenario", "co", "--trials", TRIALS,
                     "--out", str(out)]) == 0
        # The columnar exposure reader on both routes.
        for run in (runs["co"], out):
            assert main(["export-exposure", str(run)]) == 0
        for name in ("trials.csv", "exposure.csv", "insulation_summary.csv"):
            assert (runs["co"] / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.fixture(scope="class")
    def small_pop_csv(self, tmp_path_factory):
        from coldsnap.population import (
            BuildingKind, PopulationSpec, save_population, synthesize_population,
        )

        spec = PopulationSpec(counts={BuildingKind.SINGLE_FAMILY: 10, BuildingKind.OFFICE: 2})
        path = tmp_path_factory.mktemp("small_pop") / "pop.csv"
        save_population(synthesize_population(spec, seed=4), path)
        return path

    @pytest.mark.parametrize("column", ["floor_area_m2", "ua_w_per_k", "thermal_mass_j_per_k",
                                        "hvac_heat_w", "setpoint_c", "deadband_c",
                                        "avg_annual_kwh"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_2_naming_row_and_column(
            self, demo_config_path, small_pop_csv, tmp_path, capsys, column, value):
        with open(small_pop_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows[7][column] = value
        pop_csv = tmp_path / "pop.csv"
        with open(pop_csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        config = json.loads(demo_config_path.read_text())
        config["population"] = {"path": str(pop_csv)}
        config["weather_path"] = str(demo_config_path.parent / "demo_weather.csv")
        cfg_path = tmp_path / "file_pop.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["run", "--config", str(cfg_path), "--scenario", "co",
                     "--trials", "5", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"file={pop_csv}; row=9; column={column}" in err
        assert f"got {value}" in err
