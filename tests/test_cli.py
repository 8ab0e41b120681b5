import csv
import json

import numpy as np
import pytest

from concentratable import (
    QubitSet,
    ce_purity,
    ghz_closed_form,
    make_haar_random,
    make_product,
    statevector_to_dict,
    w_closed_form,
)
import concentratable.cli as cli_module
from concentratable.cli import main
from concentratable.swaptest import distribution_from_dict, histogram_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def product_file(tmp_path):
    psi = make_product([(1, 0), (0.6, 0.8), (1 / np.sqrt(2), 1j / np.sqrt(2))])
    path = tmp_path / "product.json"
    path.write_text(json.dumps(statevector_to_dict(psi)))
    return str(path)


class TestCe:
    def test_ghz3_full_mask(self, capsys):
        code, out, _ = run_cli(capsys, "ce", "--ghz", "3", "--subset-mask", "0b111")
        assert code == 0
        assert "0.375" in out

    def test_w3_single_cardinality(self, capsys):
        code, out, _ = run_cli(capsys, "ce", "--w", "3", "--cardinality", "1")
        assert code == 0
        assert "0.222222222222" in out

    def test_malformed_amplitude_pair_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1], [0, 0]]}))
        code, out, err = run_cli(capsys, "ce", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed state record")

    def test_product_file_all_cardinalities(self, capsys, product_file):
        code, out, _ = run_cli(capsys, "ce", "--file", product_file, "--all-cardinalities")
        assert code == 0
        values = [
            float(line.split(" = ")[1].split("[")[0]) for line in out.strip().splitlines()
        ]
        assert len(values) == 3
        assert all(abs(v) < 1e-12 for v in values)

    def test_all_subsets_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "ce.csv"
        code, _, _ = run_cli(
            capsys, "ce", "--ghz", "3", "--all-subsets",
            "--output", str(out_path), "--format", "csv",
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 7
        by_mask = {int(r["mask"]): float(r["value"]) for r in rows}
        assert by_mask[0b111] == pytest.approx(0.375)
        assert by_mask[0b001] == pytest.approx(0.25)

    @pytest.mark.parametrize("sweep", ["--all-subsets", "--all-cardinalities"])
    def test_sweep_matches_per_subset_purity_sum(self, capsys, tmp_path, sweep):
        out_path = tmp_path / "ce.csv"
        code, out, _ = run_cli(
            capsys, "ce", "--haar", "5", "--state-seed", "11", sweep,
            "--output", str(out_path), "--format", "csv",
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        psi = make_haar_random(5, 11)
        masks = range(1, 32) if sweep == "--all-subsets" else [(1 << c) - 1 for c in range(1, 6)]
        assert [int(r["mask"]) for r in rows] == list(masks)
        lines = out.strip().splitlines()
        for row, line in zip(rows, lines, strict=True):
            expected = ce_purity(psi, QubitSet(5, int(row["mask"])))
            assert row["method"] == "purity_sum"
            assert int(row["cardinality"]) == expected.s.cardinality
            assert abs(float(row["value"]) - expected.value) <= 1e-15
            assert line.endswith(f" = {expected.value:.12g}  [purity_sum]")

    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "ce.json"
        code, _, _ = run_cli(
            capsys, "ce", "--w", "4", "--cardinality", "2", "--output", str(out_path)
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["results"][0]["value"] == pytest.approx(5 / 16)

    def test_haar_requires_state_seed(self, capsys):
        code, _, err = run_cli(capsys, "ce", "--haar", "3", "--cardinality", "1")
        assert code == 2
        assert "state-seed" in err

    def test_conflicting_sources(self, capsys):
        code, _, _ = run_cli(capsys, "ce", "--ghz", "3", "--w", "3")
        assert code == 2

    def test_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("CE_MAX_QUBITS", "8")
        code, _, err = run_cli(
            capsys, "ce", "--ghz", "5", "--cardinality", "5",
            "--method", "distribution_zero_set",
        )
        assert code == 3
        assert "CE_MAX_QUBITS" in err

    @pytest.mark.parametrize("n", ["40", "100000000000"])
    def test_oversized_generated_state_is_a_budget_error(self, capsys, n):
        code, out, err = run_cli(capsys, "ce", "--ghz", n)
        assert code == 3
        assert out == ""
        assert err.startswith(f"budget error: a {n}-qubit state") and "CE_MAX_QUBITS" in err

    def test_state_file_with_enormous_n_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1000000000000, "amplitudes": [[1, 0], [0, 0]]}))
        code, out, err = run_cli(capsys, "ce", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: expected 2^1000000000000 amplitudes")

    def test_malformed_register_cap_is_a_validation_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CE_MAX_QUBITS", "abc")
        code, _, err = run_cli(capsys, "dist", "--ghz", "3")
        assert code == 2
        assert err.startswith("error:") and "CE_MAX_QUBITS" in err


class TestDist:
    def test_ghz3_table(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--ghz", "3", "--check-odd-zero")
        assert code == 0
        table = {}
        for line in out.strip().splitlines():
            parts = line.split()
            if len(parts) == 2 and set(parts[0]) <= {"0", "1"}:
                table[parts[0]] = float(parts[1])
        assert table["000"] == pytest.approx(5 / 8)
        for z in ("011", "101", "110"):
            assert table[z] == pytest.approx(1 / 8)
        for z in ("001", "010", "100", "111"):
            assert table[z] == 0.0

    def test_w4_weight_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--w", "4")
        assert code == 0
        for line in out.strip().splitlines():
            z, p = line.split()
            if z.count("1") == 2:
                assert float(p) == pytest.approx(1 / 16)
            elif z != "0000":
                assert float(p) == pytest.approx(0.0, abs=1e-12)

    def test_product_single_row(self, capsys, product_file):
        code, out, _ = run_cli(capsys, "dist", "--file", product_file)
        assert code == 0
        table = dict(line.split() for line in out.strip().splitlines())
        assert float(table["000"]) == pytest.approx(1.0)

    def test_output_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "dist.json"
        code, _, _ = run_cli(capsys, "dist", "--w", "3", "--output", str(out_path))
        assert code == 0
        dist = distribution_from_dict(json.loads(out_path.read_text()), 3)
        assert dist.probability("000") == pytest.approx(2 / 3)


    def test_failed_write_leaves_no_files(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli_module.os, "replace", refuse)
        path = tmp_path / "dist.json"
        code, _, err = run_cli(capsys, "dist", "--ghz", "3", "--output", str(path))
        assert code == 2
        assert f"error: cannot write {path}: disk full" in err
        assert list(tmp_path.iterdir()) == []

    def test_output_in_missing_directory_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(capsys, "dist", "--ghz", "2", "--output", str(path))
        assert code == 2
        assert f"error: cannot write {path}: No such file or directory" in err
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.iterdir()) == []


class TestSample:
    def test_seed_reproducibility_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "sample", "--ghz", "4", "--shots", "2000",
                "--seed", "99", "--output", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_single_shot_even_weight(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--ghz", "3", "--shots", "1", "--seed", "5")
        assert code == 0
        z, count = out.strip().splitlines()[0].split()
        assert count == "1"
        assert z.count("1") % 2 == 0

    def test_estimate_reported(self, capsys, tmp_path):
        out_path = tmp_path / "hist.json"
        code, out, _ = run_cli(
            capsys, "sample", "--ghz", "4", "--shots", "5000",
            "--seed", "17", "--output", str(out_path),
        )
        assert code == 0
        assert "CE estimate" in out
        data = json.loads(out_path.read_text())
        hist = histogram_from_dict(data, 4)
        assert hist.shots == 5000
        assert abs(data["estimate"]["value"] - 7 / 16) < 0.05


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "20", "--n-max", "4", "--seed", "3")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_single_property_with_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--property", "error-bound",
            "--epsilon", "0.1", "--trials", "200", "--seed", "4",
        )
        assert code == 0
        assert "error-bound" in out

    def test_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--trials", "10", "--n-max", "3",
            "--property", "closed-forms", "--output", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report[0]["name"] == "closed-forms"
        assert report[0]["passed"] is True

    def test_violation_exits_one_with_witness(self, capsys, monkeypatch):
        # Swap the singlet and symmetric roles of each pair in the pair-basis
        # kernel and the suite must exit 1 naming a witness.
        import concentratable.swaptest as swaptest_module

        original = swaptest_module._pair_hadamard

        def roles_swapped(amps, m, labels):
            original(amps, m, labels)
            for k in labels:
                view = swaptest_module._pair_view(amps, m, k)
                up, down = view[:, 0, :, 1], view[:, 1, :, 0]
                up[...], down[...] = down.copy(), up.copy()

        monkeypatch.setattr(swaptest_module, "_pair_hadamard", roles_swapped)
        code, out, err = run_cli(
            capsys, "verify", "--trials", "10", "--n-max", "3",
            "--property", "odd-weight-zero", "--seed", "5",
        )
        assert code == 1
        assert "[FAIL]" in out
        assert "witness" in err and "state_seed" in err

    def test_commands_back_to_back_in_one_process(self, capsys):
        # The parser is built once per process; every call still parses its own
        # arguments and keeps its documented output and exit code.
        code, out, err = run_cli(capsys, "ce", "--ghz", "3", "--subset-mask", "0b111")
        assert (code, err) == (0, "")
        assert out == "C(mask=0b111, c=3) = 0.375  [purity_sum]\n"
        code, out, err = run_cli(capsys, "dist", "--ghz", "2")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["00  0.75", "01  0", "10  0", "11  0.25"]
        code, out, err = run_cli(
            capsys, "verify", "--trials", "5", "--n-max", "3", "--property", "closed-forms"
        )
        assert (code, err) == (0, "")
        assert out.startswith("[PASS] closed-forms: max violation")
        with pytest.raises(SystemExit) as usage:
            main(["ce", "--no-such-option"])
        captured = capsys.readouterr()
        assert usage.value.code == 2
        assert captured.out == ""
        assert "usage: concentratable" in captured.err
        assert "unrecognized arguments: --no-such-option" in captured.err
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        assert version.value.code == 0
        assert capsys.readouterr().out == "concentratable 0.1.0\n"
        code, out, _ = run_cli(capsys, "ce", "--w", "3", "--cardinality", "1")
        assert code == 0
        assert "0.222222222222" in out
        assert cli_module._build_parser() is cli_module._build_parser()

    def test_zero_trials_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2
        assert out == ""
        assert "error: trials must be >= 1, got 0" in err

    def test_n_max_below_two_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n-max", "1")
        assert code == 2
        assert out == ""
        assert "error: n_max must be >= 2, got 1" in err


class TestCompare:
    def test_rows_positive_and_exact(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n-max", "10")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows
        for row in rows:
            n, c = int(row["n"]), int(row["cardinality"])
            assert float(row["delta"]) > 0
            # CSV must reproduce the closed forms exactly.
            assert float(row["ghz"]) == ghz_closed_form(n, c)
            assert float(row["w"]) == w_closed_form(n, c)
            assert float(row["delta"]) == ghz_closed_form(n, c) - w_closed_form(n, c)

    def test_columns(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n-max", "4")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "n,cardinality,ghz,w,delta"


class TestDistill:
    def test_ghz4_runs_report_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "distill", "--ghz", "4", "--runs", "20", "--seed", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20
        pair_counts = [int(line.split("bell_pairs=")[1].split()[0]) for line in lines]
        assert all(c % 2 == 0 for c in pair_counts)
        assert any(c > 0 for c in pair_counts)
        assert all("FIDELITY VIOLATION" not in line for line in lines)

    def test_w3_outcomes_give_two_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "distill", "--w", "3", "--runs", "30", "--seed", "7")
        assert code == 0
        for line in out.strip().splitlines():
            pairs = int(line.split("bell_pairs=")[1].split()[0])
            assert pairs in (0, 2)

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_is_a_validation_error(self, capsys, runs):
        code, out, err = run_cli(capsys, "distill", "--ghz", "3", "--seed", "1", "--runs", runs)
        assert code == 2
        assert out == ""
        assert err == f"error: --runs must be >= 1, got {runs}\n"

    def test_product_state_never_concentrates(self, capsys, product_file):
        code, out, _ = run_cli(
            capsys, "distill", "--file", product_file, "--runs", "10", "--seed", "8"
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert "bell_pairs=0" in line


class TestSeeds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ce", "--haar", "3", "--state-seed", "-1"],
            ["dist", "--haar", "3", "--state-seed", "-1"],
            ["sample", "--haar", "3", "--state-seed", "-1", "--shots", "5", "--seed", "1"],
            ["sample", "--ghz", "3", "--shots", "5", "--seed", "-1"],
            ["distill", "--ghz", "3", "--seed", "-1"],
            ["verify", "--trials", "1", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_a_validation_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"
