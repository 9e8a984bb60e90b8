import contextlib
import io
import json
import math
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pulsegate import hs_fidelity, sequence_unitary
from pulsegate.cli import NAMED_GATES, canonical_json, main
from pulsegate.ir import VirtualZ, XYPulse
from pulsegate.su2 import rx


GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_cases() -> list[list[str]]:
    """Every `compile` invocation the golden file records, in file order."""
    cases = []
    for name in NAMED_GATES:
        for axes in ("6", "18", "34"):
            for eps in ("1e-2", "1e-6"):
                cases.append(["compile", "--gate", name, "--axes", axes, "--epsilon", eps])
        cases.append(["compile", "--gate", name, "--baseline"])
        cases.append(["compile", "--gate", name, "--format", "text"])
    cases += [
        ["compile", "--euler=-0.4,1.1,2.5", "--epsilon", "1e-6"],
        ["compile", "--axis=-0.6,0,0.8", "--angle", "1.3", "--epsilon", "1e-6"],
        ["compile", "--matrix", "[[0,1],[1,0]]"],
        ["compile", "--matrix", "[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]"],
    ]
    # a 14-bit phase grid: large enough for the windowed axis choice
    fine = ["--axes", "16386"]
    for name in NAMED_GATES:
        for eps in ("1e-2", "1e-6"):
            cases.append(["compile", "--gate", name, *fine, "--epsilon", eps])
    cases += [
        ["compile", "--euler=-0.4,1.1,2.5", *fine, "--epsilon", "1e-6"],
        ["compile", "--axis=-0.6,0,0.8", "--angle", "1.3", *fine, "--epsilon", "1e-6"],
        ["compile", "--matrix", "[[0,1],[1,0]]", *fine],
        ["compile", "--matrix", "[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]", *fine],
    ]
    return cases


def _stdout_of(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _mask_time(text: str) -> str:
    text = re.sub(r'"compile_time_s": [^,}]+', '"compile_time_s": <masked>', text)
    return re.sub(r"^time: .*$", "time: <masked>", text, flags=re.M)


def golden_text(workdir: Path) -> str:
    """Exit code and stdout of every golden case, then of `verify` on each JSON schedule.

    Wall-clock compile times are masked; everything else must be byte-stable.
    """
    schedule = workdir / "schedule.json"
    chunks = []
    for argv in golden_cases():
        code, out = _stdout_of(argv)
        chunks.append(f"$ pulsegate {shlex.join(argv)}\nexit {code}\n{_mask_time(out)}")
        if "text" not in argv:
            schedule.write_text(out)
            code, out = _stdout_of(["verify", "--schedule", str(schedule)])
            chunks.append(f"$ pulsegate verify\nexit {code}\n{out}")
    return "".join(chunks)


class TestGateSpecs:
    def test_named_x_matches_x_rotation(self):
        assert abs(hs_fidelity(NAMED_GATES["X"], rx(math.pi)) - 1.0) < 1e-14

    def test_all_named_gates_unitary(self):
        for name, u in NAMED_GATES.items():
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12, name

    def test_euler_spec_hadamard(self, capsys):
        code, out, _ = run_cli(
            capsys, "compile", "--euler", "1.5707963,0,3.1415926", "--epsilon", "1e-4"
        )
        assert code == 0
        doc = json.loads(out)
        steps = [XYPulse(p["phase_rad"], p["angle_rad"]) for p in doc["pulses"]]
        steps.append(VirtualZ(doc["frame_phase_rad"]))
        h = NAMED_GATES["H"]
        assert 1.0 - hs_fidelity(h, sequence_unitary(steps)) <= 1e-4 + 1e-6

    def test_non_unitary_matrix_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--matrix", "[[1,0],[0,2]]")
        assert code == 2
        assert "unitary" in err

    def test_unknown_gate_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--gate", "Q")
        assert code == 2

    def test_axis_angle_spec(self, capsys):
        code, out, _ = run_cli(
            capsys, "compile", "--axis", "0,0,1", "--angle", "0.7", "--epsilon", "1e-6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pulses"] == []
        assert doc["distance_rad"] == 0


class TestCompile:
    def test_hadamard_json(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--gate", "H", "--axes", "18", "--epsilon", "1e-4")
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon"] <= 1e-4
        assert doc["distance_rad"] < math.pi
        assert doc["n_axes"] == 18
        assert doc["pulse_count"] == len(doc["pulses"])

    def test_z_gate_needs_no_pulses(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--gate", "Z")
        assert code == 0
        doc = json.loads(out)
        assert doc["pulses"] == []
        assert doc["distance_rad"] == 0

    def test_baseline_hadamard(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--gate", "H", "--baseline")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["pulses"]) == 2
        assert doc["distance_rad"] == pytest.approx(math.pi)

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--gate", "H", "--format", "text")
        assert code == 0
        assert "pulse count" in out


class TestVerify:
    def compile_to_file(self, capsys, tmp_path, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "schedule.json"
        path.write_text(out)
        return path

    def test_round_trip_ok(self, capsys, tmp_path):
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "H")
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path), "--gate", "H")
        assert code == 0
        assert "OK" in out

    def test_verify_uses_embedded_target(self, capsys, tmp_path):
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "T")
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 0

    def test_perturbed_pulse_fails(self, capsys, tmp_path):
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "H")
        doc = json.loads(path.read_text())
        assert doc["pulses"], "need at least one pulse to perturb"
        doc["pulses"][0]["angle_rad"] += 0.1
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path), "--gate", "H")
        assert code == 1
        assert "MISMATCH" in out

    def test_empty_schedule_vs_identity(self, capsys, tmp_path):
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "I")
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path), "--gate", "I")
        assert code == 0
        assert "achieved epsilon: 0" in out


class TestSerialization:
    def test_byte_identical_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "compile", "--gate", "H")
        assert code == 0
        reparsed = canonical_json(json.loads(out))
        assert reparsed == out

    def test_17_digit_floats_survive(self):
        doc = {"x": 1.0 / 3.0, "y": [math.pi, 1e-300]}
        text = canonical_json(doc)
        again = json.loads(text)
        assert again["x"] == 1.0 / 3.0
        assert again["y"] == [math.pi, 1e-300]


class TestUsageErrors:
    """Bad input ends in exit 1 or 2 with a one-line message, never a traceback."""

    def test_nan_euler_target_rejected(self, capsys):
        code, out, err = run_cli(capsys, "compile", "--euler=nan,0,0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_flat_matrix_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--matrix", "[1,2]")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_too_few_axes_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--gate", "H", "--axes", "3")
        assert code == 2 and "n_axes" in err
        code, _, err = run_cli(capsys, "bench", "--axes-list", "3", "--eps-decades", "1:1")
        assert code == 2 and "n_axes" in err


class TestVerifyRobustness:
    def schedule(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "compile", "--gate", "H")
        assert code == 0
        return json.loads(out)

    def verify(self, capsys, tmp_path, doc):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "verify", "--schedule", str(path))

    def test_nan_pulse_angle_is_mismatch(self, capsys, tmp_path):
        doc = self.schedule(capsys, tmp_path)
        doc["pulses"][0]["angle_rad"] = math.nan
        code, out, _ = self.verify(capsys, tmp_path, doc)
        assert code == 1
        assert "MISMATCH" in out

    def test_non_unit_target_axis_is_usage_error(self, capsys, tmp_path):
        doc = self.schedule(capsys, tmp_path)
        doc["target"] = {"axis": [1, 1, 1], "angle": 0.5}
        code, _, err = self.verify(capsys, tmp_path, doc)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [{"pulses": []}, []])
    def test_malformed_schedule(self, capsys, tmp_path, doc):
        code, _, err = self.verify(capsys, tmp_path, doc)
        assert code == 1
        assert err.startswith("error: malformed schedule") and err.count("\n") == 1


class TestGolden:
    def test_output_is_byte_identical_to_golden(self, tmp_path):
        assert golden_text(tmp_path) == GOLDEN.read_text()


class TestBenchCommand:
    def test_small_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--axes-list", "6,10", "--eps-decades", "1:2", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "n_axes,eps_target,eps_mean,dist_mean,pulses_mean,time_mean_s,failures"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "6" and float(first[1]) == 1e-1
        assert all(line.split(",")[-1] == "0" for line in lines[1:])

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--axes-list", "6", "--eps-decades", "1:1",
            "--out", "/nonexistent-dir/rows.csv",
        )
        assert code == 1

    def test_bad_decades(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--eps-decades", "8:1")
        assert code == 2


if __name__ == "__main__":
    # Rewrite the golden file: PYTHONPATH=src python tests/test_cli.py
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(golden_text(Path(tmp)))
    sys.exit(0)
