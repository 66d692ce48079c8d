"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.popcorn import load_xelf


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
        with pytest.raises(KeyError):
            main(["run", "nonsense.app"])


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


class TestBench:
    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--scenarios", "nosuch", "--json", "-"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'nosuch'" in captured.err
        assert "Traceback" not in captured.out + captured.err
