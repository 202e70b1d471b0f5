"""Tests for the CLI entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import (
    _build_parser,
    _deployment_config,
    _parse_listen,
    _query_parts,
    main,
)
from repro.experiments.harness import MultiViewRunConfig


class TestCli:
    def test_run_command(self, capsys):
        assert main(["run", "--dataset", "tpcds", "--mode", "ep", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "avg L1 error" in out
        assert "realized epsilon" in out

    def test_table2_command(self, capsys):
        assert main(["table2", "--steps", "12"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_figure4_command(self, capsys):
        assert main(["figure4", "--steps", "12"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_figure5_command(self, capsys):
        assert main(["figure5", "--dataset", "tpcds", "--steps", "10"]) == 0
        assert "privacy vs" in capsys.readouterr().out

    def test_figure8_command(self, capsys):
        assert main(["figure8", "--steps", "10"]) == 0
        assert "truncation bound" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--mode", "quantum"])


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["multiview", "--query-every", "0"], "query_every must be >= 1"),
        (["multiview", "--steps", "0"], "n_steps must be >= 1"),
        (["multiview", "--epsilon", "0"], "total_epsilon must be positive"),
        (["multiview", "--shards", "0"], "n_shards must be >= 1, got 0"),
        (["query", "--steps", "0"], "n_steps must be >= 1"),
        (["run", "--steps", "0"], "n_steps must be >= 1"),
        (["run", "--epsilon", "-1"], "total_epsilon must be positive"),
        (
            ["serve", "--steps", "4", "--snapshot-every", "0", "--snapshot", "x.snap"],
            "snapshot_every must be >= 1, got 0",
        ),
        (
            ["serve", "--listen", "127.0.0.1:0", "--tenant", "bad"],
            "malformed tenant spec 'bad'",
        ),
    ],
)
def test_rejected_values_end_in_one_line_not_a_traceback(argv, message, tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1
    [line] = done.stderr.strip().splitlines()  # one line, no traceback
    assert line.startswith("invalid configuration: ")
    assert message in line


class TestQueryCli:
    LIVE = ["query", "--dataset", "tpcds", "--steps", "8"]

    def test_flag_specified_multi_aggregate_group_by(self, capsys):
        assert (
            main(
                self.LIVE
                + [
                    "--count",
                    "--sum", "returns:return_ts",
                    "--avg", "returns:return_ts",
                    "--group-by", "sales:pid:0,1,2,3",
                    "--where", "sales:pid:0-30",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "plan: " in out
        assert "count" in out and "avg_returns_return_ts" in out
        assert "ground truth" in out

    def test_json_specified_query(self, capsys):
        spec = (
            '{"aggregates": [{"kind": "count"},'
            ' {"kind": "sum", "table": "returns", "column": "return_ts"}],'
            ' "predicate": [{"table": "sales", "column": "pid", "lo": 0,'
            ' "hi": 99}]}'
        )
        assert main(self.LIVE + ["--json", spec]) == 0
        assert "sum_returns_return_ts" in capsys.readouterr().out

    def test_defaults_to_count(self, capsys):
        assert main(self.LIVE) == 0
        assert "count" in capsys.readouterr().out

    def test_snapshot_roundtrip(self, capsys, tmp_path):
        snap = str(tmp_path / "cli-query.snap")
        assert (
            main(
                ["serve", "--dataset", "tpcds", "--steps", "8", "--clients",
                 "1", "--snapshot", snap]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["query", "--snapshot", snap, "--count"]) == 0
        out = capsys.readouterr().out
        assert "queried snapshot" in out and "(step 8)" in out

    def test_epsilon_release_reports_spend(self, capsys):
        assert main(self.LIVE + ["--count", "--epsilon", "0.5"]) == 0
        assert "released with epsilon=0.5" in capsys.readouterr().out

    def test_unknown_view_rejected(self):
        with pytest.raises(SystemExit, match="no registered view"):
            main(self.LIVE + ["--view", "ghost", "--count"])

    def test_malformed_flag_rejected(self):
        with pytest.raises(SystemExit, match="malformed"):
            main(self.LIVE + ["--sum", "no-colon"])

    def test_invalid_json_rejected(self):
        with pytest.raises(SystemExit, match="valid JSON"):
            main(self.LIVE + ["--json", "{nope"])

    def test_malformed_where_value_rejected(self):
        for bad in ("-5", "10-", "5--3", "x"):
            with pytest.raises(SystemExit, match="malformed --where"):
                main(self.LIVE + ["--count", "--where", f"sales:pid:{bad}"])

    def test_malformed_group_by_domain_rejected(self):
        with pytest.raises(SystemExit, match="malformed --group-by"):
            main(self.LIVE + ["--count", "--group-by", "sales:pid:1,x"])

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(SystemExit, match="epsilon must be positive"):
            main(self.LIVE + ["--count", "--epsilon", "0"])

    def test_structurally_invalid_json_rejected_cleanly(self):
        for bad in (
            '{"predicate": [{"table": "sales", "column": "pid", "lo": 0}]}',
            '{"aggregates": [{"kind": "sum"}]}',
            '{"group_by": {"table": "sales"}}',
            '{"aggregates": ["count"]}',
        ):
            with pytest.raises(SystemExit, match="malformed --json"):
                main(self.LIVE + ["--json", bad])


class TestListenAddress:
    @pytest.mark.parametrize(
        "value, expected",
        [
            ("127.0.0.1:0", ("127.0.0.1", 0)),
            ("localhost:65535", ("localhost", 65535)),
            ("[::1]:9731", ("[::1]", 9731)),
        ],
    )
    def test_parses_host_and_port(self, value, expected):
        assert _parse_listen(value) == expected

    @pytest.mark.parametrize(
        "value", ["", "no-port", ":7001", "host:", "host:-1", "host:abc"]
    )
    def test_malformed_rejected(self, value):
        with pytest.raises(SystemExit, match="malformed --connect"):
            _parse_listen(value, flag="--connect")

    def test_port_out_of_range_rejected(self):
        with pytest.raises(SystemExit, match="out of range"):
            _parse_listen("host:99999")


class TestScanBackendChoices:
    """Scans run in-process or in local worker processes only; every
    subcommand with ``--scan-backend`` refuses the retired value."""

    @pytest.mark.parametrize(
        "argv",
        [["multiview"], ["serve"], ["resume", "--snapshot", "x.snap"], ["query"]],
        ids=["multiview", "serve", "resume", "query"],
    )
    def test_remote_scan_backend_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--scan-backend", "remote"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'remote'" in capsys.readouterr().err


class TestDeploymentFlags:
    """`multiview` and `serve` declare one deployment flag group, and
    `multiview`, `serve` and `query` read it into one config."""

    ARGV = [
        "--dataset", "cpdb", "--epsilon", "1.5", "--steps", "7", "--seed", "3",
        "--query-every", "2", "--shards", "4", "--scan-backend", "thread",
        "--no-incremental",
    ]
    HELP_ORDER = (
        "--dataset", "--epsilon EPSILON", "--steps STEPS", "--seed SEED",
        "--query-every QUERY_EVERY", "--shards SHARDS", "--scan-backend",
        "--no-incremental",
    )

    @pytest.mark.parametrize("command", ["multiview", "serve"])
    def test_every_flag_reaches_the_config(self, command):
        args = _build_parser().parse_args([command, *self.ARGV])
        assert _deployment_config(args) == MultiViewRunConfig(
            dataset="cpdb", total_epsilon=1.5, n_steps=7, seed=3, query_every=2,
            n_shards=4, scan_backend="thread", incremental=False,
        )

    @pytest.mark.parametrize("command, steps", [("multiview", 96), ("serve", 48)])
    def test_unset_flags_keep_the_config_defaults(self, command, steps):
        args = _build_parser().parse_args([command])
        assert _deployment_config(args) == MultiViewRunConfig(n_steps=steps)

    @pytest.mark.parametrize("command", ["multiview", "serve"])
    def test_help_lists_the_group_in_declaration_order(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out.split("\n\n", 1)[1]
        positions = [usage.index(flag) for flag in self.HELP_ORDER]
        assert positions == sorted(positions)

    def test_query_epsilon_is_the_release_epsilon(self):
        args = _build_parser().parse_args(["query", "--epsilon", "0.5"])
        assert args.epsilon == 0.5
        config = _deployment_config(args)
        assert config.total_epsilon == MultiViewRunConfig().total_epsilon
        assert config.n_steps == 24

    @pytest.mark.parametrize("shards, expected", [([], 1), (["--shards", "3"], 3)])
    def test_query_shards_apply_only_when_given(self, shards, expected):
        args = _build_parser().parse_args(["query", *shards])
        assert _deployment_config(args).n_shards == expected


class TestQueryParts:
    """`query` and `client` read one query from ``--json`` or the flags."""

    SPEC = (
        '{"view": "returns_canonical", "aggregates": [{"kind": "count"},'
        ' {"kind": "sum", "table": "returns", "column": "return_ts"}],'
        ' "predicate": [{"table": "sales", "column": "pid", "lo": 0, "hi": 99}]}'
    )
    FLAGS = [
        "--count", "--sum", "returns:return_ts", "--where", "sales:pid:0-99",
        "--view", "returns_canonical",
    ]

    @pytest.mark.parametrize("command", ["query", "client"])
    def test_json_and_flags_describe_the_same_query(self, command):
        head = [command] if command == "query" else [command, "--connect", "h:1"]
        parser = _build_parser()
        from_json = _query_parts(parser.parse_args([*head, "--json", self.SPEC]))
        from_flags = _query_parts(parser.parse_args([*head, *self.FLAGS]))
        assert from_json == from_flags
        assert from_json[3] == "returns_canonical"

    def test_view_flag_overrides_the_spec_view(self):
        args = _build_parser().parse_args(
            ["query", "--json", self.SPEC, "--view", "other"]
        )
        assert _query_parts(args)[3] == "other"
