import csv
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from concentratable import (
    QubitSet,
    ce_purity,
    concentratable_entanglement,
    ghz_closed_form,
    make_haar_random,
    make_product,
    statevector_to_dict,
    w_closed_form,
)
import concentratable
import concentratable.cli as cli_module
from concentratable import reductions, verify
from concentratable.cli import main
from concentratable.swaptest import distribution_from_dict, distribution_to_dict, histogram_from_dict


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

    @pytest.mark.parametrize(
        "sweep, method",
        [
            pytest.param(sweep, method, id=sweep if method == "auto" else f"{sweep}-{method}")
            for method in ("auto", "distribution_zero_set", "even_weight_sum")
            for sweep in ("--all-subsets", "--all-cardinalities")
        ],
    )
    def test_sweep_matches_per_subset_purity_sum(self, capsys, tmp_path, sweep, method):
        # A sweep reads every value from one table; the one-subset route of the
        # same method is the reference. The SWAP-test routes sum their law in
        # another order than the one-subset route, so they agree within 1e-12.
        out_path = tmp_path / "ce.csv"
        code, out, _ = run_cli(
            capsys, "ce", "--haar", "5", "--state-seed", "11", sweep, "--method", method,
            "--output", str(out_path), "--format", "csv",
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        psi = make_haar_random(5, 11)
        masks = range(1, 32) if sweep == "--all-subsets" else [(1 << c) - 1 for c in range(1, 6)]
        assert [int(r["mask"]) for r in rows] == list(masks)
        lines = out.strip().splitlines()
        tolerance = 1e-15 if method == "auto" else 1e-12
        for row, line in zip(rows, lines, strict=True):
            expected = concentratable_entanglement(psi, QubitSet(5, int(row["mask"])), method)
            assert row["method"] == expected.method
            assert int(row["cardinality"]) == expected.s.cardinality
            assert abs(float(row["value"]) - expected.value) <= tolerance
            assert line.endswith(f" = {expected.value:.12g}  [{expected.method}]")
        # The bytes of one print per result, from the exact values the CSV holds.
        assert out == "".join(
            f"C(mask={int(r['mask']):#b}, c={r['cardinality']}) = {float(r['value']):.12g}  [{r['method']}]\n"
            for r in rows
        )

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

    @pytest.mark.parametrize("n", ["1e400", '"two"', "null", "1.5", "true"])
    def test_state_file_with_non_integer_n_is_a_validation_error(self, capsys, tmp_path, n):
        # 1e400 parses as an infinite float, which int() refuses with OverflowError;
        # int() would read 1.5 and true as 1.
        path = tmp_path / "bad.json"
        path.write_text('{"n": %s, "amplitudes": [[1, 0], [0, 0]]}' % n)
        code, out, err = run_cli(capsys, "ce", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed state record") and "Traceback" not in err

    def test_state_file_that_is_not_utf8_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "ce", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: state file is not valid JSON") and "Traceback" not in err

    def test_malformed_register_cap_is_a_validation_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CE_MAX_QUBITS", "abc")
        code, _, err = run_cli(capsys, "dist", "--ghz", "3")
        assert code == 2
        assert err.startswith("error:") and "CE_MAX_QUBITS" in err


def cli_outputs(capsys, tmp_path, *argv):
    """stdout and the --output file's bytes of one command."""
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0
    return out, path.read_bytes()


class TestOutputBytes:
    """``dist`` and ``sample`` write the bytes they wrote when every plan ran by the
    per-node walk, whether a plan runs gathered or by a program."""

    COMMANDS = [
        ("dist", "--haar", "8", "--state-seed", "3"),
        ("dist", "--haar", "7", "--state-seed", "5", "--subset-mask", "0b1101111"),
        ("dist", "--haar", "6", "--state-seed", "1"),
        ("dist", "--haar", "10", "--state-seed", "3"),
        ("dist", "--haar", "9", "--state-seed", "5", "--subset-mask", "0b110111011"),
        ("sample", "--haar", "8", "--state-seed", "3", "--shots", "1000", "--seed", "7"),
        ("sample", "--haar", "5", "--state-seed", "2", "--shots", "500", "--seed", "1"),
    ]

    def test_gathered_form_matches_per_node_walk(self, capsys, tmp_path, monkeypatch):
        # A plan's first run walks it; the second and later runs take its gathered form.
        first = [cli_outputs(capsys, tmp_path, *argv) for argv in self.COMMANDS]
        gathered = [cli_outputs(capsys, tmp_path, *argv) for argv in self.COMMANDS]
        assert reductions._plan(8, 255).scratch.gathered and reductions._plan(10, 1023).scratch.gathered
        # Plans built from here on run one state by the per-node walk, never gathered or by a program.
        monkeypatch.setattr(reductions, "_gathered", lambda plan: None)
        monkeypatch.setattr(reductions, "_program_purities", lambda amps, plan: None)
        reductions._plan.cache_clear()
        try:
            walked = [cli_outputs(capsys, tmp_path, *argv) for argv in self.COMMANDS * 2]
        finally:
            reductions._plan.cache_clear()
        assert walked == first + gathered

    PROGRAM_COMMANDS = [
        ("dist", "--haar", "11", "--state-seed", "3"),
        ("dist", "--haar", "7", "--state-seed", "5", "--subset-mask", "0b101"),
        ("sample", "--haar", "11", "--state-seed", "3", "--shots", "1000", "--seed", "7"),
    ]

    def test_program_matches_per_node_walk(self, capsys, tmp_path, monkeypatch):
        # The first one-state call of a plan walks it; the second builds its program.
        first = [cli_outputs(capsys, tmp_path, *argv) for argv in self.PROGRAM_COMMANDS]
        programs = [cli_outputs(capsys, tmp_path, *argv) for argv in self.PROGRAM_COMMANDS]
        assert reductions._plan(11, 2047).scratch.program is not None
        assert reductions._plan(7, 0b101).scratch.program is not None
        monkeypatch.setattr(reductions, "_program_purities", lambda amps, plan: None)
        walked = [cli_outputs(capsys, tmp_path, *argv) for argv in self.PROGRAM_COMMANDS]
        assert walked == programs == first

    @pytest.mark.parametrize(
        "argv, stdout_sha256, output_sha256",
        [
            (
                ("dist", "--ghz", "8"),
                "d0214ced94152c1743bfa6227cbdc33934c0c1b25e1028e1fa551367ecde8157",
                "d5acd2b52054967175b9aa357ec0888089e21f3df12c8da1cd3d952a08ec154c",
            ),
            (
                ("sample", "--ghz", "8", "--shots", "1000", "--seed", "7"),
                "1772baeef28cab50f619ea392f3e45b5627574937e0e7573daf33f65d0a0b3cd",
                "6e6cc1be2a38149c561876174a6ddf1a1276a67b3e61053e7dfd9c3f0155f01c",
            ),
        ],
    )
    def test_ghz8_bytes_are_pinned(self, capsys, tmp_path, argv, stdout_sha256, output_sha256):
        # GHZ purities come out the same in any summation order, so these digests,
        # taken when every plan ran by the per-node walk, hold on any BLAS.
        out, data = cli_outputs(capsys, tmp_path, *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(data).hexdigest() == output_sha256


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

    @pytest.mark.parametrize("subset", [("--cardinality", "2"), ("--subset-mask", "0b10110")])
    def test_check_odd_zero_refuses_part_of_the_register(self, capsys, subset):
        # Short of the whole register P(odd) = (1 - Tr rho_s^2) / 2 > 0: no law is computed.
        code, out, err = run_cli(
            capsys, "dist", "--haar", "5", "--state-seed", "4192", "--check-odd-zero", *subset
        )
        tested = 2 if subset[0] == "--cardinality" else 3
        assert (code, out) == (2, "")
        assert err.startswith("error: --check-odd-zero needs the whole register tested")
        assert f"{tested} of 5 qubits" in err

    @pytest.mark.parametrize("subset", [(), ("--cardinality", "5"), ("--subset-mask", "0b11111")])
    def test_check_odd_zero_passes_on_the_whole_register(self, capsys, subset):
        code, out, err = run_cli(
            capsys, "dist", "--haar", "5", "--state-seed", "4192", "--check-odd-zero", *subset
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "odd-weight outcomes all vanish (<= 1e-10)"

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

    def test_output_through_a_symlink_updates_its_target(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to("target.json")
        code, _, _ = run_cli(capsys, "dist", "--ghz", "3", "--output", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == "target.json"
        text = target.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert distribution_from_dict(json.loads(text), 3).probability("000") == pytest.approx(5 / 8)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_output_through_a_dangling_symlink_creates_its_target(self, capsys, tmp_path):
        link = tmp_path / "link.json"
        link.symlink_to("target.json")
        code, _, _ = run_cli(capsys, "dist", "--ghz", "2", "--output", str(link))
        assert code == 0
        assert link.is_symlink()
        assert json.loads((tmp_path / "target.json").read_text())["tested_mask"] == 3

    def test_output_to_a_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, encoding="utf-8") as handle:
                received.append(handle.read())

        # A daemon: were the FIFO replaced, the reader would wait on it forever.
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, _, _ = run_cli(capsys, "dist", "--ghz", "3", "--output", str(fifo))
        reader.join(timeout=30)
        assert code == 0
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        dist = distribution_from_dict(json.loads(received[0]), 3)
        assert received[0] == json.dumps(distribution_to_dict(dist), sort_keys=True) + "\n"
        assert list(tmp_path.iterdir()) == [fifo]

    def test_identical_copies_answer_past_the_two_copy_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--haar", "12", "--state-seed", "3", "--check-odd-zero"
        )
        assert code == 0
        *lines, verdict = out.splitlines()
        assert len(lines) == 1 << 12
        assert verdict == "odd-weight outcomes all vanish (<= 1e-10)"
        z, p = lines[0].split()
        ce = ce_purity(make_haar_random(12, 3), QubitSet.full(12)).value
        assert z == "0" * 12 and float(p) == pytest.approx(1.0 - ce, abs=1e-11)

    def test_past_the_purity_term_cap_is_a_budget_error(self, capsys):
        code, out, err = run_cli(capsys, "dist", "--haar", "15", "--state-seed", "3")
        assert code == 3
        assert out == ""
        assert err == "budget error: 32768 purity terms for n=15 (cap 14)\n"


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


    def test_shot_count_past_int64_is_a_validation_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--ghz", "4", "--shots", "100000000000000000000", "--seed", "7"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: shots must be in 1..9223372036854775807")
        assert "Traceback" not in err

    def test_trillion_shots(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--ghz", "4", "--shots", "1000000000000", "--seed", "7"
        )
        assert code == 0
        *counts, estimate = out.strip().splitlines()
        assert sum(int(line.split()[1]) for line in counts) == 10**12
        assert "(1000000000000 shots)" in estimate

    def test_identical_copies_answer_past_the_two_copy_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--haar", "13", "--state-seed", "3",
            "--shots", "1000", "--seed", "7",
        )
        assert code == 0
        *counts, estimate = out.splitlines()
        assert sum(int(line.split()[1]) for line in counts) == 1000
        assert all(len(line.split()[0]) == 13 for line in counts)
        assert estimate.endswith("(1000 shots)")


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

    @pytest.mark.parametrize("extra", [[], ["--property", "error-bound"]])
    @pytest.mark.parametrize("epsilon", ["0", "-0.1", "1.5", "nan", "inf"])
    def test_epsilon_outside_the_unit_interval_is_refused_first(self, capsys, epsilon, extra):
        # Refused before the first check runs, with error-bound's own message.
        code, out, err = run_cli(capsys, "verify", "--epsilon", epsilon, "--trials", "200", *extra)
        assert code == 2
        assert out == ""
        assert f"error: epsilon must lie in (0, 1], got {float(epsilon)}" in err

    def test_epsilon_below_the_floor_is_a_validation_error(self, capsys):
        # 4 eps^2 = 4e-16 lies under the rounding of the excess: refused, not a violation.
        code, out, err = run_cli(
            capsys, "verify", "--property", "error-bound", "--epsilon", "1e-8", "--trials", "200"
        )
        assert code == 2
        assert out == ""
        assert "error: epsilon 1e-08 is below the error-bound floor 1e-06" in err
        assert "rounding" in err

    def test_epsilon_is_not_checked_without_error_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--property", "closed-forms", "--epsilon", "0", "--n-max", "3"
        )
        assert code == 0
        assert out.startswith("[PASS] closed-forms")

    def test_n_max_below_two_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n-max", "1")
        assert code == 2
        assert out == ""
        assert "error: n_max must be >= 2, got 1" in err

    @pytest.mark.parametrize("n_max", [15, 25])
    def test_closed_forms_past_the_purity_term_cap_is_a_budget_error(self, capsys, n_max):
        # Refused before the first purity array: n_max = 25 used to build them up to n = 20.
        code, out, err = run_cli(
            capsys, "verify", "--n-max", str(n_max), "--trials", "1", "--property", "closed-forms"
        )
        assert code == 3
        assert out == ""
        assert err == f"budget error: {1 << n_max} purity terms for n={n_max} (cap 14)\n"

    def test_all_properties_past_the_purity_term_cap_are_refused_before_any_check(self, capsys, monkeypatch):
        # closed-forms comes twelfth; the eleven checks ahead of it must not run first.
        ran = []
        for name in verify.CHECKS:
            monkeypatch.setitem(verify.CHECKS, name, lambda name=name, **kw: ran.append(name))
        code, out, err = run_cli(capsys, "verify", "--n-max", "15")
        assert code == 3
        assert out == ""
        assert err == f"budget error: {1 << 15} purity terms for n=15 (cap 14)\n"
        assert ran == []


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

    def test_past_the_table_cap_is_a_budget_error(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, "compare", "--n-max", "100000000", "--output", str(path))
        assert code == 3
        assert out == ""
        assert err == "budget error: closed-form table to n=100000000 (cap n <= 1024)\n"
        assert not path.exists()


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

    def test_same_seed_same_output(self, capsys):
        argv = ["distill", "--haar", "5", "--state-seed", "3", "--runs", "20", "--seed", "11"]
        first, second = (run_cli(capsys, *argv) for _ in range(2))
        assert first[0] == 0
        assert first[1].encode() == second[1].encode()

    def test_fewer_runs_print_the_first_lines(self, capsys):
        state = ["--haar", "4", "--state-seed", "5"]
        _, short, _ = run_cli(capsys, "distill", *state, "--runs", "5", "--seed", "2")
        _, long, _ = run_cli(capsys, "distill", *state, "--runs", "20", "--seed", "2")
        assert short.splitlines() == long.splitlines()[:5]

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_is_a_validation_error(self, capsys, runs):
        code, out, err = run_cli(capsys, "distill", "--ghz", "3", "--seed", "1", "--runs", runs)
        assert code == 2
        assert out == ""
        assert err == f"error: --runs must be >= 1, got {runs}\n"

    @pytest.mark.parametrize("state", ["haar", "product"])
    def test_two_copy_cap_refuses_before_any_run(self, capsys, tmp_path, state):
        # The law of 11-qubit copies is within reach; conditioning on an outcome
        # is not. A product state draws only all-zero runs, which need no conditioning.
        if state == "haar":
            source = ["--haar", "11", "--state-seed", "1"]
        else:
            path = tmp_path / "product11.json"
            path.write_text(json.dumps(statevector_to_dict(make_product([(1, 0)] * 11))))
            source = ["--file", str(path)]
        code, out, err = run_cli(capsys, "distill", *source, "--runs", "20", "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("budget error: two 11-qubit copies need 22 simulated qubits")

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
            # The seed is checked before the 21-qubit state is refused by its cap.
            ["ce", "--haar", "21", "--state-seed", "-1"],
        ],
    )
    def test_negative_seed_is_a_validation_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"


class TestClosedStdout:
    @staticmethod
    def run_with_reader(tmp_path, argv, read_first_line):
        """Exit code, first stdout line and stderr of one CLI process whose
        reader closes stdout after one line, or before reading anything."""
        src = str(Path(concentratable.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)  # stdout keeps its default block buffer
        with open(tmp_path / "stderr.txt", "wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "concentratable.cli", *argv],
                stdout=subprocess.PIPE, stderr=err_file, env=env,
            )
            first = proc.stdout.readline() if read_first_line else b""
            proc.stdout.close()
            code = proc.wait(timeout=120)
        return code, first, (tmp_path / "stderr.txt").read_text()

    @pytest.mark.parametrize("output", [False, True])
    def test_reader_that_closes_early_gets_exit_141_and_no_traceback(self, tmp_path, output):
        # 4,096 lines of about 21 bytes overrun a 64 KiB pipe buffer, so the
        # write after the reader has gone fails with EPIPE.
        path = tmp_path / "dist.json"
        argv = ["dist", "--haar", "12", "--state-seed", "3"]
        if output:
            argv += ["--output", str(path)]
        code, first, err = self.run_with_reader(tmp_path, argv, read_first_line=True)
        assert first.startswith(b"000000000000  ")
        assert code == cli_module.EXIT_BROKEN_PIPE == 141
        assert err == ""
        # The table is printed before the file is written: it is absent or whole.
        if path.exists():
            assert len(json.loads(path.read_text())["entries"]) == 1 << 12
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failing_command_with_buffered_output_prints_only_its_error(self, tmp_path):
        # The table fits the stdout buffer; the closed pipe shows at the flush
        # after the validation error, which must not end in "Exception ignored".
        path = tmp_path / "missing" / "dist.json"
        argv = ["dist", "--ghz", "3", "--output", str(path)]
        code, _, err = self.run_with_reader(tmp_path, argv, read_first_line=False)
        assert code == 141
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_in_process_stdout_without_a_descriptor(self, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["ce", "--ghz", "3"]) == 141
        assert capsys.readouterr().err == ""
