"""Tests for the CLI entry point and the oblivious shuffle utility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import _parse_listen, main
from repro.common.types import multiset
from repro.mpc.runtime import MPCRuntime
from repro.oblivious.shuffle import oblivious_shuffle
from repro.oblivious.sort import network_comparator_count


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


class TestObliviousShuffle:
    def _shuffle(self, rows, flags, seed=0):
        runtime = MPCRuntime(seed=seed)
        with runtime.protocol("s") as ctx:
            out = oblivious_shuffle(ctx, rows, flags, payload_words=3)
            gates = ctx.gates
        return out, gates

    def test_preserves_multiset(self):
        rows = np.asarray([[i, i * 2] for i in range(17)], dtype=np.uint32)
        flags = np.asarray([i % 2 == 0 for i in range(17)])
        (out_rows, out_flags), _ = self._shuffle(rows, flags)
        assert multiset(out_rows) == multiset(rows)
        assert out_flags.sum() == flags.sum()

    def test_flags_travel_with_rows(self):
        rows = np.asarray([[i, 0] for i in range(20)], dtype=np.uint32)
        flags = np.asarray([i < 10 for i in range(20)])
        (out_rows, out_flags), _ = self._shuffle(rows, flags)
        for row, flag in zip(out_rows, out_flags):
            assert flag == (int(row[0]) < 10)

    def test_actually_permutes(self):
        rows = np.asarray([[i, 0] for i in range(64)], dtype=np.uint32)
        flags = np.ones(64, dtype=bool)
        (out_rows, _), _ = self._shuffle(rows, flags)
        assert (out_rows[:, 0] != rows[:, 0]).any()

    def test_different_runs_differ(self):
        rows = np.asarray([[i, 0] for i in range(32)], dtype=np.uint32)
        flags = np.ones(32, dtype=bool)
        (a, _), _ = self._shuffle(rows, flags, seed=1)
        (b, _), _ = self._shuffle(rows, flags, seed=2)
        assert (a[:, 0] != b[:, 0]).any()

    def test_charges_one_sort(self):
        rows = np.asarray([[i, 0] for i in range(16)], dtype=np.uint32)
        flags = np.ones(16, dtype=bool)
        runtime = MPCRuntime(seed=0)
        _, gates = self._shuffle(rows, flags)
        expected = network_comparator_count(16) * runtime.cost_model.compare_exchange_gates(3)
        assert gates == expected

    def test_trivial_inputs(self):
        rows = np.zeros((1, 2), dtype=np.uint32)
        flags = np.ones(1, dtype=bool)
        (out_rows, out_flags), gates = self._shuffle(rows, flags)
        assert (out_rows == rows).all()
        assert gates == 0
