"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def ticks_csv(tmp_path):
    rng = np.random.default_rng(0)
    keys = np.sort(rng.uniform(0, 1000, size=2000))
    measures = 100.0 + rng.uniform(0, 50, size=2000)
    path = tmp_path / "ticks.csv"
    lines = ["key,measure"] + [f"{k:.6f},{m:.6f}" for k, m in zip(keys, measures)]
    path.write_text("\n".join(lines))
    return path, keys, measures


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_requires_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "in.csv", "out.pfbin"])

    def test_build_budget_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "in.csv", "out.pfbin", "--eps-abs", "10", "--delta", "5"]
            )

    def test_query_parses(self):
        args = build_parser().parse_args(["query", "idx.pfbin", "1.0", "2.0", "--eps-rel", "0.01"])
        assert args.low == 1.0 and args.eps_rel == 0.01


class TestBuildQueryRoundTrip:
    def test_count_build_query_info(self, ticks_csv, tmp_path, capsys):
        csv_path, keys, _ = ticks_csv
        index_path = tmp_path / "count.pfbin"
        assert main(["build", str(csv_path), str(index_path),
                     "--aggregate", "count", "--eps-abs", "50"]) == 0
        assert index_path.exists()
        capsys.readouterr()  # discard the build banner

        assert main(["query", str(index_path), "100", "900", "--eps-abs", "50"]) == 0
        output = capsys.readouterr().out
        reported = float(output.split("=")[1].split("(")[0])
        exact = float(np.count_nonzero((keys >= 100) & (keys <= 900)))
        assert abs(reported - exact) <= 50 + 1e-6

        assert main(["info", str(index_path)]) == 0
        info_output = capsys.readouterr().out
        assert "segments" in info_output

    def test_max_build_and_query(self, ticks_csv, tmp_path, capsys):
        csv_path, keys, measures = ticks_csv
        index_path = tmp_path / "max.pfbin"
        assert main(["build", str(csv_path), str(index_path),
                     "--aggregate", "max", "--eps-abs", "10"]) == 0
        capsys.readouterr()  # discard the build banner
        assert main(["query", str(index_path), "200", "800"]) == 0
        output = capsys.readouterr().out
        reported = float(output.split("=")[1].split("(")[0])
        mask = (keys >= 200) & (keys <= 800)
        assert abs(reported - measures[mask].max()) <= 10 + 1e-6

    def test_build_with_delta(self, ticks_csv, tmp_path):
        csv_path, _, _ = ticks_csv
        index_path = tmp_path / "delta.pfbin"
        assert main(["build", str(csv_path), str(index_path),
                     "--aggregate", "count", "--delta", "25"]) == 0

    def test_missing_input_returns_error_code(self, tmp_path):
        assert main(["build", str(tmp_path / "missing.csv"), str(tmp_path / "o.pfbin"),
                     "--eps-abs", "50"]) == 2

    def test_query_missing_index_returns_error_code(self, tmp_path):
        assert main(["query", str(tmp_path / "missing.pfbin"), "0", "1"]) == 2


class TestIngest:
    def test_synthetic_stream_compacts_and_reports(self, capsys):
        assert main(["ingest", "--synthetic", "6000", "--delta", "40",
                     "--batch-size", "800", "--max-buffer", "1000"]) == 0
        output = capsys.readouterr().out
        assert "base:" in output
        assert "[compacted]" in output
        assert "done: 6000 records" in output
        # Every probe error printed must honor the certified bound (2*delta).
        for line in output.splitlines():
            if "|err|" in line:
                error = float(line.split("|err| ")[1].split(")")[0])
                assert error <= 80.0 + 1e-6

    def test_csv_stream(self, ticks_csv, capsys):
        csv_path, _, _ = ticks_csv
        assert main(["ingest", str(csv_path), "--aggregate", "max",
                     "--eps-abs", "20", "--batch-size", "400"]) == 0
        output = capsys.readouterr().out
        assert "done: 2000 records" in output

    def test_requires_exactly_one_source(self, ticks_csv):
        csv_path, _, _ = ticks_csv
        assert main(["ingest", "--delta", "10"]) == 2  # neither
        assert main(["ingest", str(csv_path), "--synthetic", "100",
                     "--delta", "10"]) == 2  # both

    def test_requires_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "--synthetic", "100"])
