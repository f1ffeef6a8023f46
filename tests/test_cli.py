"""CLI subcommands: outputs, artifacts, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from qibc import (
    AffineDecode,
    AlgorithmSpec,
    GateOp,
    QuerySpec,
    ValidationError,
    algorithm_to_json,
    build_bound_fixture,
    build_reversible_midpoint,
    constant,
    distribution_to_csv,
    function_to_json,
    measure,
    midpoint_algorithm,
    pwl,
    run,
)
from qibc.cli import complexity_table_rows, main
from qibc.serialize import dump_json_file
from helpers import package_env


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def midpoint_files(tmp_path):
    """A small midpoint algorithm plus a one-function family on disk."""
    alg, _ = build_reversible_midpoint(2, 3, constant(0.5), 0.0, 1.0)
    alg_path = tmp_path / "alg.json"
    dump_json_file(str(alg_path), algorithm_to_json(alg))
    f_path = tmp_path / "f.json"
    dump_json_file(str(f_path), function_to_json(constant(0.5)))
    fam_dir = tmp_path / "family"
    fam_dir.mkdir()
    dump_json_file(str(fam_dir / "f0.json"), function_to_json(constant(0.5)))
    return alg_path, f_path, fam_dir


class TestRadius:
    def test_worst_case_plain(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--design", "0.5", "--L", "1")
        assert (code, out) == (0, "0.25\n")

    def test_with_data_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "radius", "--design", "0.25,0.75", "--y", "0.25,0.25",
            "--L", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "h_lo": 0.125, "h_hi": 0.375, "radius": 0.125, "center": 0.25
        }

    def test_bad_design_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "radius", "--design", "0.9,0.1", "--L", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_inconsistent_data_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "radius", "--design", "0.4,0.6", "--y", "0.0,0.9", "--L", "1"
        )
        assert code == 2


class TestDesign:
    def test_n4(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--n", "4")
        assert (code, out) == (0, "[0.125, 0.375, 0.625, 0.875]\n")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        code, out, _ = run_cli(capsys, "design", "--n", "2", "--out", str(path))
        assert code == 0
        assert "design: n=2" in out
        assert json.loads(path.read_text()) == [0.25, 0.75]

    def test_invalid_n_exits_2(self, capsys):
        assert run_cli(capsys, "design", "--n", "0")[0] == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "design.json"
        code, out, err = run_cli(capsys, "design", "--n", "2", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("n", ["1048577", "1" + "0" * 400], ids=["first-past", "401-digits"])
    def test_n_past_the_size_budget_exits_4(self, capsys, n):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "design", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert err == "capacity exceeded: design size n exceeds the size budget of 2^20 items\n"

    def test_n_past_the_size_budget_no_traceback_in_a_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qibc", "design", "--n", "1" + "0" * 400],
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == (
            "capacity exceeded: design size n exceeds the size budget of 2^20 items\n"
        )
        assert "Traceback" not in proc.stderr


class TestMeps:
    def test_frozen_literal(self, capsys):
        assert run_cli(capsys, "meps", "--L", "1", "--eps", "0.05")[:2] == (0, "5\n")

    def test_negative_L_exits_2(self, capsys):
        assert run_cli(capsys, "meps", "--L", "-1", "--eps", "0.1")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("meps", "--L", "1e200", "--eps", "1e-100"),
            ("meps", "--L", "1", "--eps", "5e-324"),
            ("meps", "--L", "1e308", "--eps", "1e-300"),
            ("complexity-table", "--L", "1e200", "--eps", "1e-100"),
            ("complexity-table", "--L", "1", "--eps", "0.1,5e-324"),
        ],
    )
    def test_m_eps_beyond_2_53_exits_4(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert err.startswith("capacity exceeded: m(eps) for L=")

    def test_m_eps_beyond_2_53_no_traceback_in_a_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qibc", "meps", "--L", "1e200", "--eps", "1e-100"],
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.startswith("capacity exceeded:")
        assert "Traceback" not in proc.stderr


class TestComplexityTable:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "complexity-table", "--L", "1", "--eps", "0.0025")
        assert code == 0
        assert out == (
            "L,eps,m,comp,m3,qubit_bound\n"
            "1.0,0.0025000000000000001,100,100.0,34,4.0874628412503391\n"
        )

    def test_rows_monotone_in_eps(self, capsys):
        code, out, _ = run_cli(
            capsys, "complexity-table", "--L", "1", "--eps", "0.001,0.01,0.1"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ms = [int(r[2]) for r in rows]
        comps = [float(r[3]) for r in rows]
        bounds = [float(r[5]) for r in rows]
        assert ms == sorted(ms, reverse=True)
        assert comps == sorted(comps, reverse=True)
        assert bounds == sorted(bounds, reverse=True)

    def test_empty_lists_rejected(self):
        for Ls, epss in (((), (0.1,)), ((1.0,), ())):
            with pytest.raises(ValidationError) as exc:
                complexity_table_rows(Ls, epss, 1.0)
            assert str(exc.value) == "complexity tables need nonempty L and eps lists"

    def test_empty_list_exits_2(self, capsys):
        assert run_cli(capsys, "complexity-table", "--L", "", "--eps", "0.1")[0] == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "complexity-table", "--L", "0.5,1", "--eps", "0.05,0.005",
            "--out", str(path),
        )
        assert code == 0
        assert "complexity-table: 4 rows" in out
        assert path.read_text().startswith("L,eps,m,comp,m3,qubit_bound\n")


class TestFoolingPairAndFoil:
    def test_pair_document(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        code, out, _ = run_cli(
            capsys, "fooling-pair", "--design", "0.25,0.75", "--L", "1",
            "--out", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"f_plus", "f_minus", "gap"}
        assert doc["gap"] == 0.25

    def test_foil_certifies_radius(self, capsys, tmp_path):
        q = tmp_path / "quad.json"
        q.write_text('{"design": [0.5], "weights": [1.0]}')
        code, out, _ = run_cli(capsys, "foil", "--quadrature", str(q), "--L", "1")
        assert (code, out) == (0, "0.25\n")

    def test_foil_rejects_malformed_quadrature(self, capsys, tmp_path):
        q = tmp_path / "quad.json"
        q.write_text('{"design": [0.5], "weights": [1.0], "extra": 1}')
        assert run_cli(capsys, "foil", "--quadrature", str(q), "--L", "1")[0] == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert run_cli(capsys, "foil", "--quadrature", str(missing), "--L", "1")[0] == 2


class TestSimulate:
    def test_writes_distribution(self, capsys, tmp_path, midpoint_files):
        alg_path, f_path, _ = midpoint_files
        out_path = tmp_path / "dist.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--alg", str(alg_path), "--f", str(f_path),
            "--out", str(out_path),
        )
        assert code == 0
        assert "simulate: nu=10 queries=8 outcomes=32" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "j,p,phi"
        assert len(lines) == 33

    @pytest.mark.parametrize("kind", ["midpoint", "hadamard"])
    def test_csv_bytes_equal_dense_path(self, capsys, tmp_path, kind):
        if kind == "midpoint":
            alg = midpoint_algorithm(2, 3, -1.0, 1.0)
        else:
            alg = AlgorithmSpec(
                3, QuerySpec(1, 2, -1.0, 1.0), ((GateOp("H", (0,)),), (GateOp("H", (2,)),)),
                (0, 1, 2), AffineDecode(0.25, -1.0),
            )
        f = pwl(((0.0, -0.9), (0.5, 0.4), (1.0, 0.1)))
        alg_path, f_path, out_path = tmp_path / "alg.json", tmp_path / "f.json", tmp_path / "d.csv"
        dump_json_file(str(alg_path), algorithm_to_json(alg))
        dump_json_file(str(f_path), function_to_json(f))
        code, _, _ = run_cli(
            capsys, "simulate", "--alg", str(alg_path), "--f", str(f_path), "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_bytes() == distribution_to_csv(measure(run(alg, f), alg)).encode()

    def test_capacity_exit_4(self, capsys, tmp_path, midpoint_files):
        _, f_path, _ = midpoint_files
        big = midpoint_algorithm(10, 1, 0.0, 1.0)  # nu = 22 > 20-qubit cap
        alg_path = tmp_path / "big.json"
        dump_json_file(str(alg_path), algorithm_to_json(big))
        code, _, err = run_cli(
            capsys, "simulate", "--alg", str(alg_path), "--f", str(f_path)
        )
        assert code == 4
        assert err.startswith("capacity exceeded:")

    def test_gate_error_reaches_stderr(self, capsys, tmp_path, midpoint_files):
        alg_path, f_path, _ = midpoint_files
        alg = json.loads(alg_path.read_text())
        alg["layers"][0] = [{"gate": "swap", "targets": [0, 0]}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(alg))
        code, out, err = run_cli(capsys, "simulate", "--alg", str(bad), "--f", str(f_path))
        assert (code, out, err) == (2, "", "error: duplicate targets in (0, 0)\n")

    def test_malformed_algorithm_exits_2(self, capsys, tmp_path, midpoint_files):
        _, f_path, _ = midpoint_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"nu": 2}')
        assert run_cli(capsys, "simulate", "--alg", str(bad), "--f", str(f_path))[0] == 2

    def test_value_far_above_the_range_exits_0(self, capsys, tmp_path):
        alg_path, f_path = tmp_path / "alg.json", tmp_path / "f.json"
        dump_json_file(str(alg_path), algorithm_to_json(midpoint_algorithm(1, 2, 0.0, 1.0)))
        dump_json_file(str(f_path), function_to_json(constant(1e308)))
        code, out, _ = run_cli(capsys, "simulate", "--alg", str(alg_path), "--f", str(f_path))
        assert code == 0
        # both grid points take the top code 2^m'' - 1 = 3, so the sum is 6
        assert out.splitlines()[7] == "6,1.0,0.75"


    def test_range_width_overflow_exits_2(self, capsys, tmp_path):
        doc = algorithm_to_json(midpoint_algorithm(1, 2, 0.0, 1.0))
        doc["query"]["range"] = [-1e308, 1e308]
        alg_path, f_path = tmp_path / "alg.json", tmp_path / "f.json"
        dump_json_file(str(alg_path), doc)
        dump_json_file(str(f_path), function_to_json(constant(0.0)))
        code, out, err = run_cli(capsys, "simulate", "--alg", str(alg_path), "--f", str(f_path))
        assert (code, out) == (2, "")
        assert err == "error: query range width must be finite, got [-1e+308, 1e+308]\n"


class TestErrorAndExtract:
    @pytest.fixture
    def dist_csv(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("j,p,phi\n0,0.5,1.1\n1,0.3,1.2\n2,0.2,2.0\n")
        return path

    def test_error_greedy(self, capsys, dist_csv):
        code, out, _ = run_cli(
            capsys, "error", "--dist", str(dist_csv), "--truth", "1.0"
        )
        assert code == 0
        assert float(out) == pytest.approx(0.2, abs=1e-12)

    def test_error_brute_force_agrees(self, capsys, dist_csv):
        greedy = run_cli(capsys, "error", "--dist", str(dist_csv), "--truth", "1.0")[1]
        brute = run_cli(
            capsys, "error", "--dist", str(dist_csv), "--truth", "1.0", "--brute-force"
        )[1]
        assert greedy == brute

    def test_extract_literal(self, capsys, dist_csv):
        code, out, _ = run_cli(capsys, "extract", "--dist", str(dist_csv), "--eps", "0.2")
        assert code == 0
        assert float(out) == 1.1  # printed in 17-digit round-trip form

    def test_extract_premise_violation_exits_3(self, capsys, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("j,p,phi\n0,0.5,0.0\n1,0.5,9.0\n")
        code, _, err = run_cli(capsys, "extract", "--dist", str(path), "--eps", "0.1")
        assert code == 3
        assert err.startswith("premise violation:")


class TestVerifyBound:
    def test_bundled_fixture_satisfied(self, capsys, tmp_path):
        fx = build_bound_fixture(1.0 / 40.0)
        alg_path = tmp_path / "alg.json"
        dump_json_file(str(alg_path), algorithm_to_json(fx.algorithm))
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        for i, f in enumerate(fx.family):
            dump_json_file(str(fam_dir / f"f{i}.json"), function_to_json(f))
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify-bound", "--alg", str(alg_path), "--family", str(fam_dir),
            "--L", "1", "--eps", "0.025", "--out", str(report_path),
        )
        assert code == 0
        assert "verify-bound: status=ok satisfied=true" in out
        doc = json.loads(report_path.read_text())
        assert doc["satisfied"] is True
        assert doc["evals_ok"] is True

    def test_premise_violation_exits_3(self, capsys, tmp_path):
        # constant 0.3 quantizes to 0.25, so the achieved error 0.05 breaks
        # any eps below it and the premise check must fail loudly
        alg, _ = build_reversible_midpoint(2, 3, constant(0.3), 0.0, 1.0)
        alg_path = tmp_path / "alg.json"
        dump_json_file(str(alg_path), algorithm_to_json(alg))
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        dump_json_file(str(fam_dir / "f0.json"), function_to_json(constant(0.3)))
        code, out, err = run_cli(
            capsys, "verify-bound", "--alg", str(alg_path), "--family", str(fam_dir),
            "--L", "1", "--eps", "0.01",
        )
        assert code == 3
        assert json.loads(out)["status"] == "not-applicable"
        assert err.startswith("premise violation:")

    def test_missing_family_directory_exits_2(self, capsys, tmp_path, midpoint_files):
        alg_path, _, _ = midpoint_files
        missing = tmp_path / "missing"
        code, out, err = run_cli(
            capsys, "verify-bound", "--alg", str(alg_path), "--family", str(missing),
            "--L", "1", "--eps", "0.1",
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot list family directory {missing}: ")

    def test_empty_family_exits_2(self, capsys, tmp_path, midpoint_files):
        alg_path, _, _ = midpoint_files
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, _ = run_cli(
            capsys, "verify-bound", "--alg", str(alg_path), "--family", str(empty),
            "--L", "1", "--eps", "0.1",
        )
        assert code == 2


class TestHarness:
    def test_version_string(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out == "qibc 0.1.0 (schema 2)\n"

    def test_no_command_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_cli_module_main_guard(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qibc.cli", "meps", "--L", "1", "--eps", "0.05"],
            env=package_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "5\n"

    def test_python_m_qibc_keeps_exit_codes(self):
        def run(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "qibc", *argv],
                env=package_env(),
                capture_output=True,
                text=True,
            )

        version = run("--version")
        assert (version.returncode, version.stdout) == (0, "qibc 0.1.0 (schema 2)\n")
        unknown = run("frobnicate")
        assert unknown.returncode == 2
        assert "Traceback" not in unknown.stderr


COMMANDS = (
    "radius", "design", "meps", "complexity-table", "fooling-pair",
    "foil", "simulate", "error", "extract", "verify-bound",
)


class TestStderrPinned:
    """Exact stderr and exit codes of argument errors, for every subcommand."""

    def test_malformed_list(self, capsys):
        code, out, err = run_cli(capsys, "radius", "--design", "0.1,abc", "--L", "1")
        assert (code, out, err) == (2, "", "error: malformed --design: '0.1,abc'\n")

    def test_empty_list(self, capsys):
        code, out, err = run_cli(capsys, "complexity-table", "--L", ",", "--eps", "0.1")
        assert (code, out, err) == (
            2, "", "error: --L must be a nonempty comma-separated list\n"
        )

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_no_arguments_exits_2_with_usage(self, capsys, cmd):
        code, out, err = run_cli(capsys, cmd)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: qibc {cmd} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_help_exits_0(self, capsys, cmd):
        code, out, err = run_cli(capsys, cmd, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: qibc {cmd} ")


class TestUnreadableInputExits2:
    """Files the CLI cannot read or parse exit 2 with an error line, not a traceback."""

    @pytest.fixture
    def files(self, tmp_path, midpoint_files):
        alg_path, f_path, _ = midpoint_files
        alg = json.loads(alg_path.read_text())
        for name, key, value in (
            ("nu_abc", "nu", "abc"),
            ("measure_abc", "measure", ["abc"]),
            ("scale_abc", "decode", {"scale": "abc", "offset": 0}),
        ):
            (tmp_path / f"{name}.json").write_text(json.dumps({**alg, key: value}))
        (tmp_path / "utf16.csv").write_text("j,p,phi\n0,1.0,0.0\n", encoding="utf-16")
        (tmp_path / "utf16.json").write_text('{"nu": 2}', encoding="utf-16")
        (tmp_path / "design_a.json").write_text('{"design": ["a"], "weights": [1.0]}')
        (tmp_path / "fractional.json").write_text(json.dumps({  # int() would truncate these
            "nu": 2.7, "query": None, "layers": [[{"gate": "X", "targets": [0.9]}]],
            "measure": [1.5, 0.2], "decode": {"scale": 1.0, "offset": 0.0},
        }))
        (tmp_path / "weights_x.json").write_text('{"design": [0.5], "weights": ["x"]}')
        (tmp_path / "adir").mkdir()
        (tmp_path / "deep.json").write_text("[" * 200_000)
        inf_layers = [[{"gate": "X", "targets": ["INF"]}], *alg["layers"][1:]]
        for name, doc in (
            ("nu_inf", {**alg, "nu": "INF"}),
            ("targets_inf", {**alg, "layers": inf_layers}),
        ):  # 1e999 parses as an infinite float
            (tmp_path / f"{name}.json").write_text(json.dumps(doc).replace('"INF"', "1e999"))
        return tmp_path, f_path

    @pytest.mark.parametrize(
        "argv",
        [
            ("error", "--dist", "{d}/missing.csv", "--truth", "0"),
            ("error", "--dist", "{d}/adir", "--truth", "0"),
            ("extract", "--dist", "{d}/utf16.csv", "--eps", "0.1"),
            ("simulate", "--alg", "{d}/utf16.json", "--f", "{f}"),
            ("foil", "--quadrature", "{d}/design_a.json", "--L", "1"),
            ("foil", "--quadrature", "{d}/weights_x.json", "--L", "1"),
            ("simulate", "--alg", "{d}/nu_abc.json", "--f", "{f}"),
            ("simulate", "--alg", "{d}/measure_abc.json", "--f", "{f}"),
            ("simulate", "--alg", "{d}/scale_abc.json", "--f", "{f}"),
            ("simulate", "--alg", "{d}/deep.json", "--f", "{f}"),
            ("simulate", "--alg", "{d}/nu_inf.json", "--f", "{f}"),
            ("simulate", "--alg", "{d}/targets_inf.json", "--f", "{f}"),
            ("simulate", "--alg", "{d}/fractional.json", "--f", "{f}"),
        ],
        ids=["missing-csv", "directory-csv", "utf16-csv", "utf16-json",
             "non-numeric-design", "non-numeric-weights", "non-numeric-nu",
             "non-numeric-measure", "non-numeric-decode-scale", "deeply-nested-json",
             "infinite-nu", "infinite-target", "fractional-indices"],
    )
    def test_exit_2_without_traceback(self, files, argv):
        d, f = files
        proc = subprocess.run(
            [sys.executable, "-m", "qibc", *(a.format(d=d, f=f) for a in argv)],
            env=package_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    def test_stdout_byte_identical(self, capsys):
        first = run_cli(capsys, "complexity-table", "--L", "0.5,1,2", "--eps", "0.05,0.005")
        second = run_cli(capsys, "complexity-table", "--L", "0.5,1,2", "--eps", "0.05,0.005")
        assert first == second

    def test_artifacts_byte_identical(self, capsys, tmp_path, midpoint_files):
        alg_path, f_path, _ = midpoint_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_path in (a, b):
            code, _, _ = run_cli(
                capsys, "simulate", "--alg", str(alg_path), "--f", str(f_path),
                "--out", str(out_path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
