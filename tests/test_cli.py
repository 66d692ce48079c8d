"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ReproError
from repro.cli import main
from repro.popcorn import load_xelf
from repro.workloads import profile_for


class TestList:
    def test_lists_all_paper_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("cg.A", "facedet.320", "digit.2000", "mg.B", "bfs.1000"):
            assert name in out
        assert "KNL_HW_CG_A" in out


class TestTables:
    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "FPGA_THR" in out and "KNL_HW_FD320" in out

    def test_table_3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "102" in capsys.readouterr().out

    def test_invalid_table_number(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "7"])


class TestFigures:
    def test_figure_10(self, capsys):
        assert main(["figure", "10"]) == 0
        out = capsys.readouterr().out
        assert "Popcorn" in out and "Xar-Trek" in out

    def test_figure_3_with_repeats(self, capsys):
        assert main(["figure", "3", "--repeats", "2"]) == 0
        assert "Vanilla Linux/ARM" in capsys.readouterr().out


class TestRun:
    def test_run_vanilla(self, capsys):
        assert main(["run", "digit.500", "--mode", "x86"]) == 0
        out = capsys.readouterr().out
        assert "883" in out  # Table 1's vanilla time
        assert "targets     : x86" in out

    def test_run_with_background_and_verification(self, capsys):
        code = main(
            ["run", "digit.2000", "--mode", "xar-trek", "--background", "40",
             "--functional"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified    : True" in out

    def test_run_throughput_window(self, capsys):
        assert main(
            ["run", "facedet.320", "--mode", "fpga", "--calls", "50",
             "--deadline", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "calls" in out

    def test_unknown_app_raises(self):
        # Library callers still get a KeyError (it is also a
        # ReproError); the CLI turns it into exit 2 (TestBadInput).
        with pytest.raises(KeyError) as excinfo:
            profile_for("nonsense.app")
        assert isinstance(excinfo.value, ReproError)
        assert str(excinfo.value) == "no profile for workload 'nonsense.app'"


class TestCompile:
    def test_compile_prints_artifacts(self, capsys):
        assert main(["compile", "--apps", "digit.500", "cg.A"]) == 0
        out = capsys.readouterr().out
        assert "multi-ISA binary" in out
        assert "xclbin" in out

    def test_compile_dumps_loadable_xelf(self, capsys, tmp_path):
        assert main(
            ["compile", "--apps", "digit.500", "--output-dir", str(tmp_path)]
        ) == 0
        binary, metadata = load_xelf(tmp_path / "digit.500.xelf")
        assert binary.name == "digit.500"
        assert len(metadata) == 3

    def test_compile_with_replication(self, capsys):
        assert main(["compile", "--apps", "digit.500", "--replicate-cus"]) == 0
        out = capsys.readouterr().out
        assert "compute units" in out
        assert "4" in out  # replicated


class TestTimelineExport:
    def test_run_writes_csv_timeline(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        assert main(
            ["run", "digit.500", "--mode", "xar-trek", "--timeline", str(path)]
        ) == 0
        content = path.read_text()
        assert content.startswith("time_s,kind,app,detail")
        assert "app-end" in content

    def test_run_writes_json_timeline(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        assert main(
            ["run", "digit.500", "--mode", "x86", "--timeline", str(path)]
        ) == 0
        decoded = json.loads(path.read_text())
        assert any(ev["kind"] == "app-end" for ev in decoded)


class TestReport:
    def test_quick_report_prints_all_tables_and_most_figures(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        for heading in ("Table 1", "Table 2", "Table 3", "Table 4",
                        "Figure 3", "Figure 6", "Figure 9", "Figure 10"):
            assert heading in out
        assert "Figure 7" not in out  # skipped in quick mode


class TestThresholds:
    def test_thresholds_text(self, capsys):
        assert main(["thresholds", "--apps", "digit.2000", "cg.A"]) == 0
        out = capsys.readouterr().out
        assert "digit.2000" in out and "cg.A" in out


class TestArgumentTypes:
    """Out-of-range flag values are usage errors: exit 2, one stderr
    line naming the value given, no traceback, nothing run."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "facedet.320", "--calls", "0"],
             "argument --calls: must be an integer >= 1, got '0'"),
            (["run", "facedet.320", "--background", "-5"],
             "argument --background: must be an integer >= 0, got '-5'"),
            (["chaos", "--quick", "--brownout-floor", "2"],
             "argument --brownout-floor: must be in [0, 1], got '2'"),
            (["chaos", "--quick", "--horizon", "-1"],
             "argument --horizon: must be a positive number, got '-1'"),
            (["fleet", "--background", "-3"],
             "argument --background: must be an integer >= 0, got '-3'"),
            (["fleet", "--jobs", "-2"],
             "argument --jobs: must be 'auto' or an integer >= 0, got '-2'"),
            (["traffic", "--spike-factor", "-1"],
             "argument --spike-factor: must be a positive number, got '-1'"),
            (["table", "1", "--jobs", "many"],
             "argument --jobs: must be 'auto' or an integer >= 0, got 'many'"),
            (["chaos", "--quick", "--slo-goodput", "nan"],
             "argument --slo-goodput: must be in [0, 1], got 'nan'"),
        ],
    )
    def test_exit_2_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro {argv[0]}: {message}\n"

    def test_cohort_clients_message_names_the_given_total(self, capsys):
        # Not the per-cohort split (-5 // 5 apps = -1).
        assert main(["cohort", "--clients", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro cohort: clients must be >= 1, got -5\n"

    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_calibration_error_is_a_repro_error(self):
        from repro.workloads import CalibrationError

        assert issubclass(CalibrationError, ReproError)


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "nosuch.1"], "no profile for workload 'nosuch.1'"),
            (["traffic", "--rate", "-1"], "must be positive, got -1.0"),
            (["chaos", "--plan", "/nonexistent/plan.json"], "cannot read fault plan"),
            (["cohort", "--clients", "0"], "clients must be >= 1, got 0"),
        ],
    )
    def test_one_line_and_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: ") and message in lines[0]
        assert "Traceback" not in captured.out + captured.err


class TestFleetBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--nodes", "0", "--clients", "20"], "a fleet needs >= 1 node, got 0"),
            (["--clients", "0"], "clients must be >= 1, got 0"),
            (["--gossip-interval", "0", "--clients", "20"], "gossip_interval_s"),
        ],
    )
    def test_one_line_and_exit_2(self, capsys, argv, message):
        assert main(["fleet", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro fleet: ") and message in lines[0]
        assert "Traceback" not in captured.err

    def test_bad_input_exits_2_from_the_module(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "--nodes", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
