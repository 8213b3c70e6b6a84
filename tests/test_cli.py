"""End-to-end command-line tests driven through main(argv)."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from rmdshrink.cli import main
from rmdshrink.io import (
    metrics_rows_from_csv,
    metrics_rows_from_json,
    parse_scenarios,
    scenario_id,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_unknown_variant_is_a_usage_error(self, tmp_path):
        data = tmp_path / "data.csv"
        write_planted_csv(data)
        with pytest.raises(SystemExit) as err:
            main(["detect", "--input", str(data), "--variant", "v9",
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
        rows = metrics_rows_from_csv(out.read_text())
        assert len(rows) == 1
        row = rows[0]
        assert row["variant"] == "v1" and row["reps"] == 2
        assert 0.0 <= row["c"] <= 1.0 and 0.0 <= row["f"] <= 1.0
        assert "c=" in capsys.readouterr().out

    def test_json_and_csv_agree(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([tiny_config(), tiny_config(variant="v4")]))
        out_csv = tmp_path / "m.csv"
        out_json = tmp_path / "m.json"
        assert main(["simulate", "--config", str(cfg), "--output", str(out_csv)]) == 0
        assert main(["simulate", "--config", str(cfg), "--format", "json",
                     "--output", str(out_json)]) == 0
        from_csv = metrics_rows_from_csv(out_csv.read_text())
        from_json = metrics_rows_from_json(out_json.read_text())
        for a, b in zip(from_csv, from_json):
            for key in ("scenario", "variant", "c", "f", "fscore", "seed"):
                assert a[key] == b[key]

    def test_seed_override_applies_to_all_scenarios(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([tiny_config(seed=11), tiny_config(seed=99)]))
        out = tmp_path / "m.csv"
        code = main(["--seed", "12345", "simulate", "--config", str(cfg),
                     "--output", str(out)])
        assert code == 0
        rows = metrics_rows_from_csv(out.read_text())
        assert [r["seed"] for r in rows] == [12345, 12345]
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
        a = first.read_text().splitlines()
        b = second.read_text().splitlines()
        # every column except the timing one must match exactly
        strip = lambda line: ",".join(line.split(",")[:-1])
        assert [strip(l) for l in a] == [strip(l) for l in b]

    def test_no_partial_files_left_behind(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert out.exists()
        assert [p for p in os.listdir(tmp_path) if p.endswith(".part")] == []


    @pytest.mark.filterwarnings("ignore:fewer observations than dimensions")
    def test_refused_scenario_is_skipped_and_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        configs = refused_between_good_configs()
        cfg.write_text(json.dumps(configs))
        out = tmp_path / "m.csv"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        refused_id = scenario_id(parse_scenarios(json.dumps(configs[1]))[0])
        assert f"ABORTED {refused_id}: " in capsys.readouterr().err
        rows = metrics_rows_from_csv(out.read_text())
        assert [(r["variant"], r["seed"]) for r in rows] == [("v1", 11), ("v4", 12)]

    def test_status_line_reports_smallest_replicate_c(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        out = tmp_path / "m.json"
        assert main(["simulate", "--config", str(cfg), "--format", "json",
                     "--output", str(out)]) == 0
        assert "min_c=" in capsys.readouterr().out


class TestConfigs:
    EXPECTED = {
        "normal_grid.json": 36,
        "heavy_tails.json": 18,
        "breakdown.json": 20,
        "transformed.json": 39,
        "timing.json": 18,
    }

    def test_every_config_parses_with_its_scenario_count(self):
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(self.EXPECTED)
        for name, count in self.EXPECTED.items():
            specs = parse_scenarios((CONFIGS / name).read_text())
            assert len(specs) == count, name
            ids = [scenario_id(s) for s in specs]
            assert len(set(ids)) == len(ids), name


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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--config", str(cfg), "--measurements", "2",
                     "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "median seconds" in stdout and "v1" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,family,p,n,measurements,median_seconds"
        cells = lines[1].split(",")
        assert cells[0] == "v1" and float(cells[5]) > 0

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_measurements_below_one_is_a_usage_error(self, tmp_path, count):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        with pytest.raises(SystemExit) as err:
            main(["bench", "--config", str(cfg), "--measurements", count])
        assert err.value.code == 2

    @pytest.mark.filterwarnings("ignore:fewer observations than dimensions")
    def test_refused_scenario_is_skipped_and_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        configs = refused_between_good_configs()
        cfg.write_text(json.dumps(configs))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--config", str(cfg), "--measurements", "3",
                     "--output", str(out)])
        assert code == 1
        refused_id = scenario_id(parse_scenarios(json.dumps(configs[1]))[0])
        assert f"ABORTED {refused_id}: " in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert [line.split(",")[:4] for line in lines[1:]] == [
            ["v1", "NormalMixture", "2", "40"],
            ["v4", "NormalMixture", "2", "40"],
        ]
