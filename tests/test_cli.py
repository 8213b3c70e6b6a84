"""End-to-end command-line tests driven through main(argv)."""

import csv
import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rmdshrink.cli import build_parser, main
from rmdshrink.io import parse_scenarios, rows_to_csv, scenario_id, scenario_row
from rmdshrink.simulate import run_scenario

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_planted_csv(path, seed=42, n=60, p=3, k=3, header=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X[:k] += 50.0
    lines = []
    if header is not None:
        lines.append(",".join(header))
    lines += [",".join(f"{v:.10f}" for v in row) for row in X]
    path.write_text("\n".join(lines) + "\n")
    return k


def tiny_config(reps=2, seed=11, variant="v1"):
    return {
        "family": "NormalMixture",
        "p": 2,
        "n": 40,
        "alpha": 0.1,
        "delta": 10.0,
        "lambda": 1.0,
        "reps": reps,
        "seed": seed,
        "variant": variant,
    }


def read_rows(path):
    """The rows of a CSV with a header, as dicts of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def simulate_with_literal(tmp_path, capsys, key, literal):
    """Run simulate on tiny_config() with one value replaced by a raw JSON literal."""
    body = tiny_config()
    body[key] = "<value>"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body).replace('"<value>"', literal))
    code = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "m.csv")])
    return code, capsys.readouterr().err


def refused_between_good_configs():
    """A good scenario, one v6 refuses structurally (n < p), another good one."""
    refused = tiny_config(variant="v6")
    refused.update(p=5, n=4)
    return [tiny_config(), refused, tiny_config(seed=12, variant="v4")]


class TestDetect:
    def test_planted_rows_flagged_json(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        out = tmp_path / "report.json"
        k = write_planted_csv(data)
        code = main(["detect", "--input", str(data), "--variant", "v6",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["variant"] == "v6"
        assert payload["flagged_indices"][:k] == list(range(k))
        assert payload["threshold"] > 0
        assert len(payload["d2"]) == len(payload["flags"]) == 60
        assert all(payload["flags"][:k])
        assert "flagged" in capsys.readouterr().out

    def test_csv_format(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "report.csv"
        write_planted_csv(data)
        code = main(["detect", "--input", str(data), "--format", "csv",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,d2,flag"
        assert len(lines) == 61
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "1"

    def test_header_names_carried_into_report(self, tmp_path):
        data = tmp_path / "named.csv"
        out = tmp_path / "report.json"
        write_planted_csv(data, header=["a", "b", "c"])
        code = main(["detect", "--input", str(data), "--has-header",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["columns"] == ["a", "b", "c"]

    def test_header_of_the_wrong_width_is_rejected(self, tmp_path, capsys):
        data = tmp_path / "named.csv"
        out = tmp_path / "report.json"
        write_planted_csv(data, p=2, header=["a", "b", "c"])
        code = main(["detect", "--input", str(data), "--has-header",
                     "--output", str(out)])
        assert code == 1
        assert "header has 3 cells, expected 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header", [None, ["x1", "x2", "x3"]])
    def test_byte_order_mark_is_ignored(self, tmp_path, header):
        plain = tmp_path / "plain.csv"
        marked = tmp_path / "marked.csv"
        write_planted_csv(plain, header=header)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for data in (plain, marked):
            out = tmp_path / f"{data.stem}.json"
            argv = ["detect", "--input", str(data), "--output", str(out)]
            assert main(argv + (["--has-header"] if header else [])) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[1] == reports[0]
        assert reports[1]["columns"] == header

    def test_unknown_variant_is_a_usage_error(self, tmp_path):
        data = tmp_path / "data.csv"
        write_planted_csv(data)
        with pytest.raises(SystemExit) as err:
            main(["detect", "--input", str(data), "--variant", "v9",
                  "--output", str(tmp_path / "x.json")])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["detect", "boxplot"])
    def test_seed_is_a_usage_error(self, tmp_path, command):
        # --seed belongs to simulate and bench; detect and boxplot have no seed to set.
        data = tmp_path / "data.csv"
        write_planted_csv(data)
        with pytest.raises(SystemExit) as err:
            main(["--seed", "1", command, "--input", str(data),
                  "--output", str(tmp_path / "x.json")])
        assert err.value.code == 2

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["detect", "--input", str(tmp_path / "absent.csv"),
                     "--output", str(tmp_path / "x.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_cell_reports_position(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n")
        code = main(["detect", "--input", str(data),
                     "--output", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err and "oops" in err

    @pytest.mark.parametrize("cell", ["1_0", "\uff11\uff12", "\u0663"])
    def test_cell_that_is_not_a_plain_ascii_number_is_refused(self, tmp_path, capsys, cell):
        data = tmp_path / "bad.csv"
        data.write_text(f"1.0,2.0\n3.0,{cell}\n5.0,6.0\n", encoding="utf-8")
        out = tmp_path / "x.json"
        assert main(["detect", "--input", str(data), "--output", str(out)]) == 1
        assert f"non-numeric cell {cell!r} at row 2, column 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("existing_mode", [None, 0o640], ids=["new", "existing_0640"])
    def test_output_has_the_permissions_of_a_plain_write(self, tmp_path, existing_mode):
        data = tmp_path / "data.csv"
        write_planted_csv(data)
        out = tmp_path / "report.json"
        plain = tmp_path / "plain.txt"
        if existing_mode is not None:
            for path in (out, plain):
                path.touch()
                path.chmod(existing_mode)
        umask = os.umask(0o022)
        try:
            assert main(["detect", "--input", str(data), "--output", str(out)]) == 0
            with open(plain, "w"):
                pass
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_failed_run_leaves_no_output(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("1.0,2.0\n3.0,oops\n")
        out = tmp_path / "never.json"
        assert main(["detect", "--input", str(data), "--output", str(out)]) == 1
        assert not out.exists()


class TestSimulate:
    def test_csv_metrics(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        out = tmp_path / "metrics.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["variant"] == "v1" and row["reps"] == "2"
        assert 0.0 <= float(row["c"]) <= 1.0 and 0.0 <= float(row["f"]) <= 1.0
        assert "c=" in capsys.readouterr().out

    def test_seed_override_applies_to_all_scenarios(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([tiny_config(seed=11), tiny_config(seed=99)]))
        out = tmp_path / "m.csv"
        code = main(["simulate", "--seed", "12345", "--config", str(cfg),
                     "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert [r["seed"] for r in rows] == ["12345", "12345"]
        assert rows[0]["c"] == rows[1]["c"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        body = tiny_config()
        body["spread"] = 3
        cfg.write_text(json.dumps(body))
        code = main(["simulate", "--config", str(cfg),
                     "--output", str(tmp_path / "m.csv")])
        assert code == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        body = tiny_config()
        del body["reps"]
        cfg.write_text(json.dumps(body))
        code = main(["simulate", "--config", str(cfg),
                     "--output", str(tmp_path / "m.csv")])
        assert code == 1
        assert "missing keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key,literal", [
        ("p", "2.9"),
        ("p", "1e400"),
        ("n", "40.0"),
        ("reps", "2.7"),
        ("reps", "true"),
        ("seed", "null"),
        ("alpha", '"0.1"'),
        ("delta", "false"),
        ("lambda", "NaN"),
        ("lambda", "1e400"),
    ])
    def test_config_number_of_the_wrong_type_is_rejected(self, tmp_path, capsys,
                                                         key, literal):
        code, err = simulate_with_literal(tmp_path, capsys, key, literal)
        assert code == 1
        assert f"scenario 0: {key} must be" in err
        assert "Traceback" not in err

    def test_non_integer_config_count_names_scenario_and_value(self, tmp_path, capsys):
        code, err = simulate_with_literal(tmp_path, capsys, "p", "2.5")
        assert code == 1
        assert err == "error: scenario 0: p must be an integer, got 2.5\n"

    @pytest.mark.parametrize("key,literal", [
        ("variant", '["v1"]'),
        ("variant", "6"),
        ("family", "5"),
        ("family", '"Cauchy"'),
        ("alpha", "0.6"),
        ("seed", "-1"),
    ])
    def test_refused_config_scenario_is_named(self, tmp_path, capsys, key, literal):
        code, err = simulate_with_literal(tmp_path, capsys, key, literal)
        assert code == 1
        assert err.startswith("error: scenario 0: ")
        assert "Traceback" not in err

    def test_metrics_columns_are_the_config_keys(self, tmp_path):
        # Two scenarios that differ only in alpha, delta, lambda and seed.
        configs = [tiny_config(), tiny_config(seed=12)]
        configs[1].update(alpha=0.15, delta=7.5, **{"lambda": 2.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(configs))
        for command, results in [("simulate", ["c", "min_c", "f", "fscore"]),
                                 ("bench", ["median_seconds"])]:
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--output", str(out)]) == 0
            header = out.read_text().splitlines()[0].split(",")
            assert header == ["scenario", *configs[0], *results], command
            rows = read_rows(out)
            assert len(rows) == len(configs)
            for row, config in zip(rows, configs):
                # The spec columns, typed as the config types them, are the spec that ran.
                typed = {key: type(value)(row[key]) for key, value in config.items()}
                assert parse_scenarios(json.dumps(typed)) == parse_scenarios(json.dumps(config))

    def test_byte_order_mark_config_gives_the_same_rows(self, tmp_path):
        plain = tmp_path / "plain.json"
        marked = tmp_path / "marked.json"
        plain.write_text(json.dumps([tiny_config(), tiny_config(seed=12, variant="v4")]))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        tables = []
        for cfg in (plain, marked):
            out = tmp_path / f"{cfg.stem}.csv"
            assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
            tables.append(read_rows(out))
        assert len(tables[0]) == 2
        assert tables[1] == tables[0]

    def test_repeated_config_key_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p": 3, ' + json.dumps(tiny_config())[1:])
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "repeats key 'p'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = main(["simulate", "--config", str(cfg),
                     "--output", str(tmp_path / "m.csv")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(first)]) == 0
        assert main(["simulate", "--config", str(cfg), "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_numpy_and_python_floats_are_written_alike(self):
        assert rows_to_csv(["a", "b"], [{"a": np.float64(0.1), "b": 0.1}]) == "a,b\n0.1,0.1\n"

    def test_no_partial_files_left_behind(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert out.exists()
        assert [p for p in os.listdir(tmp_path) if p.endswith(".part")] == []


    def test_refused_scenario_is_skipped_and_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        configs = refused_between_good_configs()
        cfg.write_text(json.dumps(configs))
        out = tmp_path / "m.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        refused_id = scenario_id(parse_scenarios(json.dumps(configs[1]))[0])
        err = capsys.readouterr().err
        assert f"ABORTED {refused_id}: replicate 0 (seed 11): " in err
        assert err.count("NormalMixture") == 1
        rows = read_rows(out)
        assert [(r["variant"], r["seed"]) for r in rows] == [("v1", "11"), ("v4", "12")]

    def test_status_line_reports_smallest_replicate_c(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert "min_c=" in capsys.readouterr().out


class TestConfigs:
    EXPECTED = {
        "normal_grid.json": 36,
        "heavy_tails.json": 18,
        "breakdown.json": 20,
        "transformed.json": 39,
        "timing.json": 24,
    }

    def test_every_config_parses_with_its_scenario_count(self):
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(self.EXPECTED)
        for name, count in self.EXPECTED.items():
            specs = parse_scenarios((CONFIGS / name).read_text())
            assert len(specs) == count, name
            ids = [scenario_id(s) for s in specs]
            assert len(set(ids)) == len(ids), name

    def test_timing_scenarios_are_medians_of_at_least_five_runs(self):
        specs = parse_scenarios((CONFIGS / "timing.json").read_text())
        assert all(s.reps >= 5 for s in specs)


class TestBoxplot:
    def test_counts_partition(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        out = tmp_path / "box.json"
        write_planted_csv(data)
        code = main(["boxplot", "--input", str(data), "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        counts = payload["counts"]
        assert counts["inside_fences"] + counts["outside_fences"] == counts["flagged_total"]
        assert counts["flagged_total"] >= 3
        assert len(payload["rows"]) == len(payload["flags"]) == 60
        assert sorted(payload["depth_order"]) == list(range(60))
        assert "outside the fences" in capsys.readouterr().out


class TestBench:
    def test_smoke_and_csv_output(self, tmp_path, capsys):
        config = tiny_config()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        [row] = read_rows(out)
        assert row["variant"] == "v1" and row["reps"] == "2"
        assert float(row["median_seconds"]) > 0
        # The status line names the scenario and prints the row's result column.
        [status] = capsys.readouterr().out.splitlines()
        spec_id = scenario_id(parse_scenarios(json.dumps(config))[0])
        assert status.startswith(f"{spec_id}: median_seconds=")
        assert row["scenario"] == spec_id

    def test_csv_header_is_the_keys_bench_variant_returns(self, tmp_path):
        # The bench header is the keys of the row scenario_row builds for bench.
        config = tiny_config()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--config", str(cfg), "--output", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        spec = parse_scenarios(json.dumps(config))[0]
        assert header == list(scenario_row("bench", run_scenario(spec)))

    def test_refused_scenario_is_skipped_and_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        configs = refused_between_good_configs()
        cfg.write_text(json.dumps(configs))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        refused_id = scenario_id(parse_scenarios(json.dumps(configs[1]))[0])
        aborted = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith(f"ABORTED {refused_id}: ")]
        assert len(aborted) == 1
        assert "replicate 0 (seed 11)" in aborted[0]
        rows = read_rows(out)
        assert [(r["variant"], r["seed"]) for r in rows] == [("v1", "11"), ("v4", "12")]


class TestReadme:
    def test_every_command_line_parses(self):
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(),
                            re.MULTILINE | re.DOTALL)
        commands = [shlex.split(line, comments=True)
                    for block in blocks for line in block.splitlines()
                    if line.startswith("rmdshrink ")]
        assert ["simulate", "--seed"] in [argv[1:3] for argv in commands]
        for argv in commands:
            build_parser().parse_args(argv[1:])


def test_import_loads_no_heavy_scipy_module():
    # Importing the package and its CLI loads scipy.special only: the
    # benchmark's setup time and peak RSS include this import.
    heavy = ("scipy.linalg", "scipy.stats", "scipy.optimize", "scipy.sparse")
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import rmdshrink, rmdshrink.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
