import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsegate
from pulsegate import cli, greedy, hs_fidelity, sequence_unitary
from pulsegate.cli import NAMED_GATES, build_parser, main
from pulsegate.greedy import MAX_AXES
from pulsegate.ir import CompiledGate, VirtualZ, XYPulse
from pulsegate.su2 import rx


GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
# JSON inputs that cannot be read: bytes that are not UTF-8, and nesting too deep to parse
NOT_UTF8 = b"\xff\xfe[[1,0],[0,1]]"
DEEP = "[" * 100000 + "]" * 100000


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
    # a 14-bit phase grid (2 + 2**14 axes): the step's phase-index arithmetic on a large grid
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


def _outcome(argv: list[str]) -> tuple[object, str, str]:
    """Exit status, stdout and stderr of one in-process call.

    The status is `main`'s return value: `main` reports every failure
    itself, argparse's usage errors included, and raises only for `-h`.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_text(workdir: Path) -> str:
    """Exit code and stdout of every golden case, then of `verify` on each JSON schedule."""
    schedule = workdir / "schedule.json"
    chunks = []
    for argv in golden_cases():
        code, out, _ = _outcome(argv)
        chunks.append(f"$ pulsegate {shlex.join(argv)}\nexit {code}\n{out}")
        if "text" not in argv:
            schedule.write_text(out)
            code, out, _ = _outcome(["verify", "--schedule", str(schedule)])
            chunks.append(f"$ pulsegate verify\nexit {code}\n{out}")
    return "".join(chunks)


class TestGateSpecs:
    def test_named_x_matches_x_rotation(self):
        assert abs(hs_fidelity(NAMED_GATES["X"], rx(math.pi)) - 1.0) < 1e-14

    def test_all_named_gates_unitary(self):
        for name, u in NAMED_GATES.items():
            u = np.asarray(u)
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

    def test_named_gate_unitary_cannot_be_written(self):
        # the spec holds the target as nested tuples, which cannot be written
        spec = cli.gate_spec_from_json({"gate": "H"})
        with pytest.raises(TypeError):
            spec.unitary[0][0] = 5
        assert _outcome(["compile", "--gate", "H"])[0] == 0

    def test_unknown_gate_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--gate", "Q")
        assert code == 2
        assert err == 'error: unknown gate "Q"; known: I, X, Y, Z, H, S, T, SX\n'

    def test_description_without_a_json_form_is_a_gate_spec_error(self):
        # only a library caller can pass one; the echo shows its repr, and raises nothing else
        with pytest.raises(cli.GateSpecError, match="^unrecognized target spec: \"array"):
            cli.gate_spec_from_json(np.eye(2))
        with pytest.raises(cli.GateSpecError, match="^gate needs a name, got \""):
            cli.gate_spec_from_json({"gate": np.int64(3)})

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

    def test_file_with_a_compile_time_still_verifies(self, capsys, tmp_path):
        # schedule files once carried the compile's wall time; verify reads no unknown key
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "H")
        doc = json.loads(path.read_text())
        doc["compile_time_s"] = 0.001
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--schedule", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("-> OK\n")

    @pytest.mark.parametrize("field, value, line", [
        ("distance_rad", 0.001, "distance_rad: 1.5707963267948966 (declared 0.001) -> MISMATCH"),
        ("pulse_count", 99, "pulse_count: 1 (declared 99) -> MISMATCH"),
    ])
    def test_false_cost_field_is_a_mismatch(self, capsys, tmp_path, field, value, line):
        # the error is met, so the epsilon line still reads OK; the false field fails the file
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "H")
        _, honest, _ = run_cli(capsys, "verify", "--schedule", str(path))
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "verify", "--schedule", str(path)) == (1, f"{line}\n{honest}", "")

    def test_non_canonical_pulses_verify_when_the_costs_count_them(self, capsys, tmp_path):
        # a phase past 2*pi and a zero-angle pulse are physically valid, but they are pulses
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "H")
        doc = json.loads(path.read_text())
        doc["pulses"] = [{**p, "phase_rad": p["phase_rad"] + 2 * math.pi} for p in doc["pulses"]]
        doc["pulses"].append({"phase_rad": 0.0, "angle_rad": 0.0})
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 1 and out.startswith("pulse_count: 2 (declared 1) -> MISMATCH\n")
        doc["pulse_count"] = 2
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--schedule", str(path))
        assert (code, err) == (0, "") and out.startswith("achieved epsilon:") and out.endswith("-> OK\n")

    @pytest.mark.parametrize("value", [1.0, 1.5])
    def test_pulse_count_that_is_not_a_json_integer_is_malformed(self, capsys, tmp_path, value):
        # 1.0 is not read as 1
        path = self.compile_to_file(capsys, tmp_path, "compile", "--gate", "H")
        doc = json.loads(path.read_text())
        doc["pulse_count"] = value
        path.write_text(json.dumps(doc))
        message = f"error: malformed schedule: malformed number in pulse_count: {value}\n"
        assert run_cli(capsys, "verify", "--schedule", str(path)) == (1, "", message)


class TestSerialization:
    FLOAT_KEYS = ("eps_target", "frame_phase_rad", "epsilon", "distance_rad")

    def test_byte_identical_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "compile", "--gate", "H")
        assert code == 0
        assert json.dumps(json.loads(out)) + "\n" == out

    def test_17_digit_floats_survive(self):
        x = (1.0 / 3.0, math.pi, 1e-300, 5e-324, 0.1 + 0.2)
        spec = cli.gate_spec_from_json({"euler": list(x[:3])})
        pulses = tuple(XYPulse(v, v) for v in x)
        gate = CompiledGate(pulses, x[3], x[2], x[1], len(pulses), 3)
        doc = json.loads(cli.schedule_to_json(spec, 6, x[0], gate))
        assert doc["target"]["euler"] == list(x[:3])
        assert doc["pulses"] == [{"phase_rad": v, "angle_rad": v} for v in x]
        assert [doc[key] for key in self.FLOAT_KEYS] == [x[0], x[3], x[2], x[1]]

    def test_zeros_parse_back_as_floats(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--gate", "I")
        assert code == 0
        doc = json.loads(out)
        assert doc["pulses"] == []
        for key in self.FLOAT_KEYS:
            assert isinstance(doc[key], float), key


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--gate", "H", "--bogus"],
            [],
            ["compile", "--axis", "-1,0,0", "--angle", "0.7"],
            ["compile", "--gate", "H", "--epsilon", "abc"],
            ["compile", "--gate", "H", "--format", "xml"],
        ],
        ids=["unknown-flag", "no-subcommand", "axis-space-form", "epsilon-abc", "format-xml"],
    )
    def test_argparse_error_is_one_line(self, capsys, argv):
        # returned, not raised as SystemExit, so an in-process caller gets the status
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["compile", "--axis", "0,0,1"], "error: --axis requires --angle\n"),
            (
                ["compile", "--matrix", '[[1, "a"], [0, 1]]'],
                'error: matrix entry must be a number or [re, im] pair: "a"\n',
            ),
            (["compile", "--matrix", '[[["1",0],0],[0,1]]'], 'error: malformed number in matrix: "1"\n'),
        ],
        ids=["axis-without-angle", "matrix-entry", "matrix-pair-string"],
    )
    def test_target_error_names_the_flaw(self, argv, err):
        assert _outcome(argv) == (2, "", err)

    def test_error_line_of_200_characters_is_kept_whole(self):
        message = "x" * (200 - len("error: "))
        assert cli._error_line(Exception(message)) == "error: " + message
        cut = cli._error_line(Exception(message + "y"))
        assert len(cut) == 200 and cut.endswith("xy") and "..." in cut

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pulsegate compile")

    @pytest.mark.parametrize(
        "target, pulse",
        [
            (list(range(5000)), None),
            (json.loads("[" * 900 + "]" * 900), None),
            ({"matrix": [["a" * 5000, 0], [0, 1]]}, None),
            ({"euler": ["x" * 5000, 0, 0]}, None),
            ({"gate": "q" * 5000}, None),
            ({f"k{i}" * 1000: "v" * 1000 for i in range(9)}, None),
            (None, "a" * 5000),
        ],
        ids=["wide", "nested-900", "matrix-entry", "euler-number", "gate-name", "dict", "pulse-phase"],
    )
    def test_echoed_value_is_cut_short(self, tmp_path, target, pulse):
        # uncut, these lines ran to thousands of characters
        _, out, _ = _outcome(["compile", "--gate", "H"])
        doc = json.loads(out)
        if target is not None:
            doc["target"] = target
        if pulse is not None:
            doc["pulses"][0]["phase_rad"] = pulse
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        code, out, err = _outcome(["verify", "--schedule", str(path)])
        assert code == (1 if pulse else 2) and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) <= 201, err

    def test_matrix_entry_nested_to_the_parse_limit_is_one_line(self):
        # json.dumps can run out of stack on an entry json.loads could still read; the echo
        # then prints [...], and past the parse limit the matrix cannot be read at all
        for depth in range(1, sys.getrecursionlimit() + 100):
            entry = "[" * depth + "]" * depth
            code, out, err = _outcome(["compile", f"--matrix=[[{entry}, 0], [0, 1]]"])
            assert code == 2 and out == "", depth
            assert err.startswith("error:") and err.count("\n") == 1 and len(err) <= 201, (depth, err)
            if err.startswith("error: cannot read matrix:"):
                break
        else:
            pytest.fail("no nesting depth reached the parse limit")

    @pytest.mark.parametrize(
        "content", [NOT_UTF8, DEEP.encode(), None], ids=["file-not-utf8", "file-deep", "inline-deep"]
    )
    def test_unreadable_matrix_is_usage_error(self, capsys, tmp_path, content):
        if content is None:
            flag = f"--matrix={DEEP}"
        else:
            path = tmp_path / "m.json"
            path.write_bytes(content)
            flag = f"--matrix-file={path}"
        code, out, err = run_cli(capsys, "compile", flag)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read matrix:") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["Infinity", "NaN", "[1, NaN]"])
    def test_non_finite_matrix_is_one_line_without_warning(self, entry):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _outcome(["compile", "--matrix", f"[[{entry}, 0], [0, 1]]"])
        assert code == 2 and out == "" and not caught
        assert err == "error: non-finite number in matrix\n"

    @pytest.mark.parametrize("entry", ["1e308", "-1e308", "1e200", "[0, 1e200]"])
    @pytest.mark.parametrize("form", ["--matrix", "--matrix-file"])
    def test_overflowing_matrix_is_one_line_without_warning(self, tmp_path, form, entry):
        # squaring such an entry overflows; it is refused before the unitarity product
        matrix = f"[[{entry}, 0], [0, {entry}]]"
        if form == "--matrix-file":
            path = tmp_path / "m.json"
            path.write_text(matrix)
            matrix = str(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _outcome(["compile", form, matrix])
        assert code == 2 and out == "" and not caught
        assert err == "error: matrix is not unitary within 1e-9\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--gate", "H", "--angle", "nan"],
            ["compile", "--angle", "0.7"],
            ["verify", "--schedule", "SCHEDULE", "--angle", "nan"],
            ["verify", "--schedule", "SCHEDULE", "--gate", "H", "--angle", "inf"],
        ],
        ids=["compile-gate", "compile-alone", "verify-embedded-target", "verify-gate"],
    )
    def test_angle_without_axis_is_usage_error(self, tmp_path, argv):
        code, out, _ = _outcome(["compile", "--gate", "H"])
        assert code == 0
        schedule = tmp_path / "h.json"
        schedule.write_text(out)
        code, out, err = _outcome([str(schedule) if a == "SCHEDULE" else a for a in argv])
        assert code == 2 and out == ""
        assert err == "error: --angle requires --axis\n"

    def test_huge_axis_count_compiles(self):
        code, out, err = _outcome(["compile", "--gate", "H", "--axes", "99999999999"])
        assert code == 0 and err == ""
        assert json.loads(out)["n_axes"] == 99999999999

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--gate", "H", "--axes", str(10**400)],
            ["compile", "--gate", "H", "--axes", str(MAX_AXES + 1)],
            ["bench", "--axes-list", str(10**400), "--eps-decades", "1:1"],
            ["bench", "--axes-list", f"6,{MAX_AXES + 1}", "--eps-decades", "1:1"],
        ],
        ids=["compile-googol-cubed", "compile-max-plus-one", "bench-googol-cubed", "bench-max-plus-one"],
    )
    def test_axis_count_above_max_is_usage_error(self, argv):
        code, out, err = _outcome(argv)
        assert code == 2 and out == ""
        assert err == f"error: n_axes must be <= {MAX_AXES}\n"

    def test_too_few_axes_is_usage_error(self, capsys):
        for n in ("3", "4", "5"):
            code, _, err = run_cli(capsys, "compile", "--gate", "H", "--axes", n)
            assert code == 2 and err == f"error: n_axes must be >= 6, got {n}\n"
            code, _, err = run_cli(capsys, "bench", "--axes-list", n, "--eps-decades", "1:1")
            assert code == 2 and err == f"error: n_axes must be >= 6, got {n}\n"

    @pytest.mark.parametrize("argv, message", [
        (["compile", "--gate", "H", "--axes", "{9}"], f"n_axes must be <= {MAX_AXES}"),
        (["compile", "--gate", "H", "--axes", "-{9}"], "n_axes must be >= 6, got -" + "9" * 65 + "..." + "9" * 99),
        (["bench", "--axes-list", "{9}", "--eps-decades", "1:1"], f"n_axes must be <= {MAX_AXES}"),
        (["bench", "--axes-list", "6", "--eps-decades", "1:{9}"], "eps_target must be in [1e-24, 1)"),
    ], ids=["compile-axes", "compile-axes-negative", "bench-axes-list", "bench-eps-decades-hi"])
    def test_integer_flag_of_any_length_gives_its_range_error(self, argv, message):
        # int() refuses text of over 4,300 digits, and str() an int that long: 5,000 nines
        # read and echo as 400 do, and the line is cut to the same 200 characters
        for digits in (400, 5000):
            code, out, err = _outcome([arg.replace("{9}", "9" * digits) for arg in argv])
            assert (code, out, err) == (2, "", f"error: {message}\n"), digits

    @pytest.mark.parametrize("text", ["9" * 5000 + ".0", "9" * 5000 + "e1", "\x1c" + "9" * 5000],
                             ids=["fraction", "exponent", "file-separator-pad"])
    def test_long_text_that_int_would_refuse_anyway_is_malformed(self, text):
        # only a text integer too long for int() is read another way; a Decimal would take these
        code, out, err = _outcome(["compile", "--gate", "H", "--axes", text])
        assert (code, out) == (2, "") and err.startswith("error: malformed number in --axes: ")

    def test_compile_failure_is_one_line(self, monkeypatch):
        # a step that lowers no error is the loop's one failure; it carries the error it stalled at
        monkeypatch.setattr(greedy, "best_axis_step", lambda state, axes, angle: (0, math.inf, state))
        code, out, err = _outcome(["compile", "--gate", "H", "--axes", "6", "--epsilon", "1e-8"])
        assert code == 1 and out == ""
        assert err == "error: compilation failed: no axis lowers the error (best error 1, 0 steps)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--gate", "H", "--epsilon", "1e-25"],
            ["compile", "--gate", "H", "--epsilon", "1e-25", "--baseline"],
            ["bench", "--axes-list", "6", "--eps-decades", "1:25"],
            ["bench", "--axes-list", "6", "--eps-decades", "1:1000000"],
            ["bench", "--axes-list", "6", "--eps-decades", f"{10**400}:{10**400}"],
        ],
        ids=["compile", "compile-baseline", "bench", "bench-million-decades", "bench-decade-past-float"],
    )
    def test_eps_below_floor_is_usage_error(self, argv):
        # bench refuses each decade as it is made, before a list of a million exists
        tracemalloc.start()
        try:
            code, out, err = _outcome(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: eps_target must be in [1e-24, 1)\n"
        assert peak < 1 << 20

    @pytest.mark.parametrize("flag, text, echo", [
        pytest.param(flag, text, echo, id=f"{flag[2:]}-{form}")
        for flag in ("--axes", "--epsilon", "--axes-list", "--eps-decades")
        for form, text, echo in [
            ("underscore", "1_0", '"1_0"'),
            ("arabic-indic", "\u0661", '"\\u0661"'),
            ("letters", "abc", '"abc"'),
            ("empty", "", '""'),
        ]
    ])
    def test_number_text_in_a_python_literal_form_is_usage_error(self, flag, text, echo):
        # int() and float() would read 1_0 as 10 and an Arabic-Indic digit as its value; every
        # number flag refuses those, letters and empty text in one message that echoes JSON
        command = ["bench"] if flag in ("--axes-list", "--eps-decades") else ["compile", "--gate", "H"]
        assert _outcome([*command, flag, text]) == (2, "", f"error: malformed number in {flag}: {echo}\n")

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_epsilon_names_its_flag(self, text):
        argv = ["compile", "--gate", "H", f"--epsilon={text}"]
        assert _outcome(argv) == (2, "", "error: non-finite number in --epsilon\n")

    @pytest.mark.parametrize("argv", [
        ["compile", "--gate", "Q", "--axes", "abc"],
        ["compile", "--axes", "abc"],
        ["compile", "--euler=1,2", "--axes", "abc", "--baseline"],
    ], ids=["unknown-gate", "no-target", "short-euler-baseline"])
    def test_a_malformed_flag_is_reported_before_the_target(self, argv):
        assert _outcome(argv) == (2, "", 'error: malformed number in --axes: "abc"\n')

    @pytest.mark.parametrize("argv, err", [
        (["--eps-decades", "1"], "need eps decades LO:HI with 1 <= LO <= HI"),
        (["--eps-decades", "1:2:3"], "need eps decades LO:HI with 1 <= LO <= HI"),
        (["--axes-list", ",6"], 'malformed number in --axes-list: ""'),
        (["--axes-list", "6,,10"], 'malformed number in --axes-list: ""'),
    ], ids=["one-decade", "three-decades", "leading-comma", "double-comma"])
    def test_wrong_shaped_bench_list_is_usage_error(self, argv, err):
        # these printed Python's own unpack and int() errors
        assert _outcome(["bench", *argv]) == (2, "", f"error: {err}\n")

    def test_number_text_keeps_surrounding_spaces(self):
        spaced = _outcome(["compile", "--euler=1, 2, 3", "--axes", " 6 ", "--epsilon", " 1e-3\t"])
        assert spaced == _outcome(["compile", "--euler=1,2,3", "--axes", "6", "--epsilon", "1e-3"])
        assert spaced[0] == 0


class TestParserReuse:
    """One parser serves every `main` call in a process and keeps nothing between them."""

    def test_no_parser_built_after_first_call(self, monkeypatch, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, out, _ = _outcome(["compile", "--gate", "H"])
        assert code == 0
        schedule = tmp_path / "h.json"
        schedule.write_text(out)
        built.clear()
        for argv in (
            ["compile", "--gate", "X", "--baseline"],
            ["verify", "--schedule", str(schedule)],
            ["compile", "--bogus"],
            [],
            ["compile", "--gate", "H", "--format", "text"],
        ):
            _outcome(argv)
        assert built == []
        assert build_parser() is build_parser()

    def test_output_unchanged_after_usage_error_or_mismatch(self, tmp_path):
        argv = ["compile", "--gate", "H"]
        first = _outcome(argv)
        assert first[0] == 0
        doc = json.loads(first[1])
        doc["pulses"][0]["angle_rad"] += 0.1
        mismatch = tmp_path / "mismatch.json"
        mismatch.write_text(json.dumps(doc))
        for disturb in (
            ["compile", "--gate", "H", "--epsilon", "abc"],
            ["compile", "--axis", "-1,0,0", "--angle", "0.7"],
            ["verify", "--schedule", str(mismatch), "--gate", "H"],
        ):
            code, out, _ = _outcome(disturb)
            assert code in (1, 2)
            if disturb[0] == "verify":
                assert "MISMATCH" in out
            again = _outcome(argv)
            assert again[0] == 0 and again[2] == ""
            assert again[1] == first[1]

    def test_commands_are_dispatched_by_name(self, monkeypatch):
        build_parser()  # a parser built before the rebinding must still see it
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.schedule) or 0)
        assert main(["verify", "--schedule", "s.json"]) == 0
        assert seen == ["s.json"]

    def test_a_command_line_is_parsed_once_by_its_command_parser(self, monkeypatch, tmp_path):
        parsed = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting_parse(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
        code, out, _ = _outcome(["compile", "--gate", "H"])
        assert code == 0 and parsed == ["pulsegate compile"]
        schedule = tmp_path / "h.json"
        schedule.write_text(out)
        for argv in (["verify", "--schedule", str(schedule)], ["compile", "--gate", "X", "--baseline"]):
            parsed.clear()
            assert _outcome(argv)[0] == 0
            assert parsed == [f"pulsegate {argv[0]}"]
        # the console script calls main() with no argv, so it reads sys.argv
        monkeypatch.setattr(sys, "argv", ["pulsegate", "verify", "--schedule", str(schedule)])
        parsed.clear()
        assert _outcome(None)[0] == 0
        assert parsed == ["pulsegate verify"]

    @pytest.mark.parametrize(
        "argv, err",
        [
            ([], "error: the following arguments are required: command\n"),
            (
                ["frobnicate"],
                "error: argument command: invalid choice: 'frobnicate' (choose from 'compile', 'bench', 'verify')\n",
            ),
        ],
        ids=["empty", "unknown-command"],
    )
    def test_a_line_without_a_command_gets_the_top_level_error(self, argv, err):
        assert _outcome(argv) == (2, "", err)


# Tokens that parse to a NaN or an infinity; "-inf" and "-Infinity" contain one.
NONFINITE = ("nan", "NaN", "inf", "Infinity", "1e999")
_finite = st.floats(-4, 4).map(repr)
# Python's literal forms that a number given as text must not take: `_` and non-ASCII digits
LITERAL_FORMS = ("1_0", "\u0661", "2\u0660", "1_0e-5", "1_8")
_number = st.one_of(_finite, _finite, st.sampled_from(NONFINITE + LITERAL_FORMS + ("-inf", "abc", "", "0x1", "2")),
                    st.sampled_from([" 2 ", "\t-1"]))
_triple = st.one_of(
    st.lists(_finite, min_size=3, max_size=3).map(",".join),
    st.lists(_number, min_size=1, max_size=4).map(",".join),
)
_unit_axis = st.one_of(
    st.sampled_from(["0,0,1", "1,0,0", "0,-1,0", "0.6,0,0.8", "-0.6,0,0.8", "0,0,0"]),
    st.sampled_from(["nan,0,1", "0,inf,0", "0.6,0,NaN", "1e999,0,0"]),
    _triple,
)


def _rotation_json(t: float, bad: str | None, k: int) -> str:
    """A real rotation matrix as JSON, with entry k replaced by `bad` if given."""
    entries = [repr(math.cos(t)), repr(-math.sin(t)), repr(math.sin(t)), repr(math.cos(t))]
    if bad is not None:
        entries[k] = bad
    a, b, c, d = entries
    return f"[[{a}, {b}], [{c}, {d}]]"


_json_scalar = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
_matrix = st.one_of(
    st.builds(
        _rotation_json,
        st.floats(-4, 4),
        st.sampled_from([None, None, "NaN", "Infinity", "-Infinity", "[1, NaN]", "[0, 1]", "1e308", "1e200"]),
        st.integers(0, 3),
    ),
    st.lists(
        st.lists(st.one_of(_json_scalar, st.lists(_json_scalar, max_size=3)), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    ).map(json.dumps),
    st.recursive(_json_scalar, lambda inner: st.lists(inner, max_size=3), max_leaves=6).map(json.dumps),
    st.sampled_from(["[[0,1],[1,0]]", "[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]", "[[1,0],[0", "", DEEP]),
)
_TARGETS = {
    "--gate": st.sampled_from(list(NAMED_GATES) + ["h", "sx", "Q", "", "CNOT"]),
    "--euler": _triple,
    "--axis": _unit_axis,
    "--matrix": _matrix,
}
# axis counts far beyond any compile budget: valid, at the bound, past it, and past any float
HUGE_COUNTS = ("99999999999", str(MAX_AXES), str(MAX_AXES + 1), str(10**400))
# values argparse itself rejects, or reads as a number too large to use, echoing them whole
_LONG = st.sampled_from(["9" * 5000, "x" * 5000])
_OPTIONS = {
    "--angle": _number | _LONG,
    "--axes": st.one_of(st.integers(4, 64), st.integers(-2, 64)).map(str)
    | st.sampled_from(["x", "1.5", "", " 6 ", *LITERAL_FORMS, *HUGE_COUNTS])
    | _LONG,
    "--epsilon": st.one_of(
        st.floats(1e-8, 0.5).map(repr),
        st.sampled_from(["nan", "inf", "abc", "0", "-1", "1", "1e-8", *LITERAL_FORMS]),
        _LONG,
    ),
    "--format": st.sampled_from(["json", "json", "text", "xml"]) | _LONG,
}


_BENCH_OPTIONS = {
    # one or two counts; each sweep cell is 128 compiles, so valid counts stay small
    "--axes-list": st.lists(
        st.one_of(
            st.integers(4, 40).map(str),
            st.sampled_from(HUGE_COUNTS[:2]),
            st.sampled_from(["3", "-6", "x", "", "1e3", "\u0666", "1_0", *HUGE_COUNTS[2:]]),
        ),
        min_size=1,
        max_size=2,
    ).map(",".join),
    "--eps-decades": st.sampled_from(["1:1", "1:2", "2:3", "3:3"])
    | st.sampled_from(["2:1", "0:1", "1", "a:b", "1:2:3", "", "1:400", "1:100000000000", "1:\u0661", "1_0:1_1"]),
}


def _literal_form(flags: dict, names) -> bool:
    """Whether a number flag among `names` holds `_` or a non-ASCII character."""
    return any("_" in flags[n] or not flags[n].isascii() for n in names if n in flags)


def _nonfinite_target(flags: dict) -> bool:
    """Whether a target flag or --angle holds a NaN or an infinity."""

    def bad(flag):
        return flag in flags and any(t in flags[flag] for t in NONFINITE)

    return any(bad(flag) for flag in ("--euler", "--matrix", "--axis", "--angle"))


class TestCliProperty:
    """Every argv ends in exit 0, 1 or 2 with at most one `error:` line (-h left out)."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-property")
        code, out, _ = _outcome(["compile", "--gate", "H"])
        assert code == 0
        doc = json.loads(out)
        (root / "ok.json").write_text(out)
        doc["pulses"][0]["angle_rad"] += 0.1
        (root / "mismatch.json").write_text(json.dumps(doc))
        doc["pulses"][0]["angle_rad"] = math.nan
        (root / "nan-pulse.json").write_text(json.dumps(doc))
        doc["pulses"][0]["angle_rad"] = math.inf
        (root / "inf-pulse.json").write_text(json.dumps(doc))
        doc["pulses"][0]["angle_rad"] = 0.5
        doc["frame_phase_rad"] = -math.inf
        (root / "inf-frame.json").write_text(json.dumps(doc))
        doc["frame_phase_rad"] = 0.0
        doc["epsilon"] = math.inf
        (root / "inf-epsilon.json").write_text(json.dumps(doc))
        (root / "garbage.json").write_text("{not json")
        (root / "matrix.json").write_text("[[0,1],[1,0]]")
        (root / "nan-matrix.json").write_text("[[NaN,0],[0,1]]")
        (root / "not-utf8.json").write_bytes(NOT_UTF8)
        (root / "deep.json").write_text(DEEP)
        absent = {"absent.json": root / "absent.json", "long.json": root / ("d" * 150) / ("f" * 150)}
        return {p.name: str(p) for p in root.iterdir()} | {k: str(p) for k, p in absent.items()}

    @pytest.fixture(scope="class")
    def out_paths(self, tmp_path_factory):
        """`bench --out` targets: a new file, a directory, and a path in a missing directory."""
        root = tmp_path_factory.mktemp("cli-property-out")
        return [str(root / "rows.csv"), str(root), str(root / "absent" / "rows.csv")]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_argv_exits_0_1_or_2(self, files, data):
        draw = data.draw
        paths = st.sampled_from(sorted(files)).map(files.get)
        command = [*["compile"] * 6, "verify", "verify", "frobnicate", None][draw(st.integers(0, 9))]
        form = draw(st.sampled_from([*_TARGETS, "--matrix", "--matrix-file", None]))
        flags = {}
        if form == "--matrix-file":
            flags[form] = draw(paths)
        elif form is not None:
            flags[form] = draw(_TARGETS[form])
        # --axis needs --angle; with any other form (or none) --angle is a usage error
        if draw(st.integers(0, 5)) >= (1 if form == "--axis" else 5):
            flags["--angle"] = draw(_number)
        if command == "verify" and draw(st.integers(0, 5)):
            flags["--schedule"] = draw(paths)
        if command != "verify":
            for name in draw(st.lists(st.sampled_from(sorted(_OPTIONS)), max_size=3, unique=True)):
                flags.setdefault(name, draw(_OPTIONS[name]))
        if not draw(st.integers(0, 5)):  # a second target flag
            name = draw(st.sampled_from(sorted(_TARGETS)))
            flags.setdefault(name, draw(_TARGETS[name]))
        argv = [] if command is None else [command]
        for name, value in draw(st.permutations(list(flags.items()))):
            # mostly "--flag=value": the space form reads a leading minus as a flag
            argv += [f"{name}={value}"] if draw(st.integers(0, 3)) else [name, value]
        argv += [[], [], [], [], ["--baseline"], ["--baseline"], ["--bogus"]][draw(st.integers(0, 6))]

        code, out, err = self.check(argv)
        if code == 0:
            nan_file = flags.get("--matrix-file") == files["nan-matrix.json"]
            assert not (_nonfinite_target(flags) or nan_file), (argv, out)
            assert not _literal_form(flags, ("--euler", "--axis", "--angle", "--axes", "--epsilon")), (argv, out)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_bench_argv_exits_0_1_or_2(self, out_paths, data):
        draw = data.draw
        flags = {name: draw(option) for name, option in _BENCH_OPTIONS.items()}
        if draw(st.integers(0, 2)):
            flags["--out"] = draw(st.sampled_from(out_paths))
        argv = ["bench"]
        for name, value in draw(st.permutations(list(flags.items()))):
            argv += [f"{name}={value}"] if draw(st.integers(0, 3)) else [name, value]
        if not draw(st.integers(0, 7)):
            argv.append("--bogus")
        code, _, _ = self.check(argv)
        if code == 0:
            assert not _literal_form(flags, ("--axes-list", "--eps-decades")), argv

    @staticmethod
    def check(argv):
        """Run one argv and assert the exit-status, warning and stderr properties."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning would be more stderr lines
            code, out, err = _outcome(argv)

        assert code in (0, 1, 2), (argv, code, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, (argv, err)
        assert all(len(line) <= 200 for line in err.splitlines()), (argv, err)
        if code == 2:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, (argv, err)
        if code == 0:
            assert err == "", (argv, err)
        return code, out, err


def _fields(args: argparse.Namespace) -> str:
    """The Namespace's fields but `command`, as a string that a NaN value equals."""
    return repr(sorted((k, v) for k, v in vars(args).items() if k != "command"))


def _parsed(parser: argparse.ArgumentParser, argv: list[str]) -> tuple[str, str]:
    """("ok", the fields of the Namespace `parser` returns) or ("error", the ArgumentError's text)."""
    try:
        return "ok", _fields(parser.parse_args(argv))
    except argparse.ArgumentError as exc:
        return "error", str(exc)


_PATHS = st.sampled_from(["s.json", "-s.json", ""])
# values a space-form parse reads as a flag, or as a value only after "="
_DASHED = st.sampled_from(["-1", "-0.6,0,0.8", "-inf", "-x", "-", "--"])
# each command's flags and the strategies of their values; None marks a flag that takes no value
_COMMAND_FLAGS = {
    "compile": {**_TARGETS, **_OPTIONS, "--matrix-file": _PATHS, "--baseline": None},
    "verify": {**_TARGETS, "--angle": _number, "--matrix-file": _PATHS, "--schedule": _PATHS},
    "bench": {**_BENCH_OPTIONS, "--out": _PATHS},
}
# abbreviations argparse expands (--eps, --base, --sch) or finds ambiguous (--ax, --a), and unknown flags
_ODD_FLAGS = ("--eps", "--ax", "--a", "--base", "--sch", "--form", "--axes-l", "--bogus", "-x")


class TestDifferentialParse:
    """`main` parses a line that starts with a command as the full parser would, or fails as it would."""

    @staticmethod
    def check(argv: list[str]) -> None:
        parser = build_parser()
        full = _parsed(parser, argv)
        assert _parsed(parser._commands[argv[0]], argv[1:]) == full, argv
        dispatched = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("cmd_compile", "cmd_bench", "cmd_verify"):
                mp.setattr(cli, name, lambda args: dispatched.append(_fields(args)) or 0)
            outcome = _outcome(argv)
        if full[0] == "ok":
            assert outcome == (0, "", "") and dispatched == [full[1]], argv
        else:
            err = cli._error_line(argparse.ArgumentError(None, full[1])) + "\n"
            assert outcome == (2, "", err) and dispatched == [], (argv, outcome)

    def test_golden_lines(self):
        lines = [shlex.split(line)[2:] for line in GOLDEN.read_text().splitlines() if line.startswith("$ ")]
        assert len(lines) > 100
        for argv in lines:
            self.check(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--eps=1e-3", "--ax", "6", "--gate", "H"],
            ["compile", "--epsilon", "-1", "--gate", "H"],
            ["compile", "--axis=-0.6,0,0.8", "--angle=-1.3"],
            ["compile", "--gate", "H", "--gate", "X", "--axes", "6", "--axes=10"],
            ["compile", "--gate", "H", "--", "--baseline"],
            ["compile", "--", "--gate", "H"],
            ["compile", "--gate"],
            ["compile", "--baseline=1"],
            ["verify", "--sch", "s.json", "--bogus"],
            ["verify", "--gate", "H"],
            ["bench", "--axes-l", "6", "--out"],
            ["bench", "stray"],
        ],
    )
    def test_listed_line(self, argv):
        self.check(argv)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_drawn_line(self, data):
        draw = data.draw
        command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
        flags = _COMMAND_FLAGS[command]
        argv = [command]
        if command == "verify":  # without its required flag, every verify line would fail
            argv += ["--schedule", "s.json"]
        known = st.sampled_from(sorted(flags))
        for name in draw(st.lists(known | known | st.sampled_from(_ODD_FLAGS), max_size=4)):
            values = flags.get(name, _DASHED | _PATHS)
            form = draw(st.sampled_from(["=", "=", " ", " ", "missing"]))
            if values is None or form == "missing":
                argv.append(name)
            elif form == "=":
                argv.append(f"{name}={draw(values)}")
            else:
                argv += [name, draw(values | _DASHED)]
        if not draw(st.integers(0, 5)):
            argv.insert(draw(st.integers(1, len(argv))), "--")
        self.check(argv)


class TestVerifyRobustness:
    def schedule(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "compile", "--gate", "H")
        assert code == 0
        return json.loads(out)

    def verify(self, capsys, tmp_path, doc):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "verify", "--schedule", str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "pulses": {}}, "pulses must be a list of objects, got {}"),
        (lambda doc: {**doc, "pulses": ""}, 'pulses must be a list of objects, got ""'),
        (lambda doc: {**doc, "pulses": {"x": 1}}, 'pulses must be a list of objects, got {"x": 1}'),
        (lambda doc: {**doc, "pulses": [[]]}, "pulses must be a list of objects, got [[]]"),
        (lambda doc: {**doc, "pulses": None}, "pulses must be a list of objects, got null"),
        (lambda doc: [doc["target"]], 'the schedule must be a JSON object, got [{"gate": "H"}]'),
    ], ids=["empty-object", "empty-string", "object", "list-of-lists", "null", "document-list"])
    def test_wrong_shape_is_malformed(self, capsys, tmp_path, edit, message):
        # an empty object or string is not a schedule without pulses, and no shape may
        # reach the user in Python's own wording
        code, out, err = self.verify(capsys, tmp_path, edit(self.schedule(capsys, tmp_path)))
        assert (code, out, err) == (1, "", f"error: malformed schedule: {message}\n")

    @pytest.mark.parametrize("field", ["phase_rad", "angle_rad", "frame_phase_rad"])
    def test_nan_number_is_malformed(self, capsys, tmp_path, field):
        # each schedule number is checked where it is read, so a NaN never reaches the evaluator
        doc = self.schedule(capsys, tmp_path)
        if field == "frame_phase_rad":
            doc[field] = math.nan
        else:
            doc["pulses"][0][field] = math.nan
        code, out, err = self.verify(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed schedule") and err.count("\n") == 1
        assert field in err

    def test_non_unit_target_axis_is_usage_error(self, capsys, tmp_path):
        doc = self.schedule(capsys, tmp_path)
        doc["target"] = {"axis": [1, 1, 1], "angle": 0.5}
        code, _, err = self.verify(capsys, tmp_path, doc)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["phase_rad", "angle_rad", "frame_phase_rad"])
    def test_infinite_number_is_malformed(self, capsys, tmp_path, field, value):
        doc = self.schedule(capsys, tmp_path)
        if field == "frame_phase_rad":
            doc[field] = value
        else:
            doc["pulses"][-1][field] = value
        code, out, err = self.verify(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed schedule") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("field", ["phase_rad", "frame_phase_rad", "epsilon"])
    def test_integer_too_large_for_a_float_is_malformed(self, capsys, tmp_path, field):
        doc = self.schedule(capsys, tmp_path)
        if field == "phase_rad":
            doc["pulses"][0][field] = 10**400
        else:
            doc[field] = 10**400
        code, out, err = self.verify(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed schedule") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("value", [True, False, "0.5", " 1_0 "])
    @pytest.mark.parametrize(
        "field", ["phase_rad", "angle_rad", "frame_phase_rad", "epsilon", "eps_target", "distance_rad", "pulse_count"])
    def test_boolean_is_malformed(self, capsys, tmp_path, field, value):
        # and any other non-number: Python's bool is an int, and float() reads
        # strings, but a JSON true, false or string is not a number
        doc = self.schedule(capsys, tmp_path)
        if field in ("phase_rad", "angle_rad"):
            doc["pulses"][0][field] = value
        else:
            doc[field] = value
        code, out, err = self.verify(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed schedule") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["epsilon", "eps_target"])
    def test_non_finite_epsilon_is_malformed(self, capsys, tmp_path, field, value):
        # NaN too: min(declared, nan) is declared, so each is checked on its own
        doc = self.schedule(capsys, tmp_path)
        doc[field] = value
        code, out, err = self.verify(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed schedule") and err.count("\n") == 1
        assert field in err

    def test_loose_declared_epsilon_does_not_hide_a_miss(self, capsys, tmp_path):
        doc = self.schedule(capsys, tmp_path)
        doc["epsilon"] = 1.0
        doc["pulses"] = [{"phase_rad": 0.3, "angle_rad": 1.0}, {"phase_rad": 2.0, "angle_rad": 0.4},
                         {"phase_rad": 4.0, "angle_rad": 2.0}]
        code, out, _ = self.verify(capsys, tmp_path, doc)
        assert code == 1
        assert out.endswith("(declared 1) -> MISMATCH\n")

    @pytest.mark.parametrize("change, message", [
        (lambda d: d.update(epsilon=math.nan), "non-finite number in epsilon"),
        (lambda d: d["pulses"][0].update(angle_rad=math.inf), "non-finite number in angle_rad"),
        (lambda d: d.pop("pulses"), 'missing field "pulses"'),
        (lambda d: d["pulses"][0].pop("phase_rad"), 'missing field "phase_rad"'),
    ], ids=["nan-epsilon", "inf-angle", "no-pulses", "no-phase"])
    def test_malformed_schedule_message(self, capsys, tmp_path, change, message):
        # the message itself, with no exception class name around it
        doc = self.schedule(capsys, tmp_path)
        change(doc)
        code, out, err = self.verify(capsys, tmp_path, doc)
        assert code == 1 and out == ""
        assert err == f"error: malformed schedule: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("n_axes", 3, "n_axes must be >= 6, got 3"),
        ("n_axes", 5, "n_axes must be >= 6, got 5"),
        ("n_axes", -18, "n_axes must be >= 6, got -18"),
        ("n_axes", MAX_AXES + 1, f"n_axes must be <= {MAX_AXES}"),
        ("n_axes", "18", 'malformed number in n_axes: "18"'),
        ("n_axes", 18.0, "malformed number in n_axes: 18.0"),
        ("n_axes", True, "malformed number in n_axes: true"),
        ("n_axes", None, "malformed number in n_axes: null"),
        ("iterations", -5, "iterations must be >= 0, got -5"),
        ("iterations", 2.0, "malformed number in iterations: 2.0"),
        ("iterations", "3", 'malformed number in iterations: "3"'),
        ("eps_target", 5.0, "eps_target must be in [1e-24, 1)"),
        ("eps_target", 1.0, "eps_target must be in [1e-24, 1)"),
        ("eps_target", 1e-25, "eps_target must be in [1e-24, 1)"),
        ("eps_target", 0, "eps_target must be in [1e-24, 1)"),
        ("eps_target", -1e-4, "eps_target must be in [1e-24, 1)"),
    ])
    def test_setting_that_compile_refuses_is_malformed(self, capsys, tmp_path, field, value, message):
        # each field alone: n_axes, iterations and eps_target must be values a compile accepts
        doc = self.schedule(capsys, tmp_path)
        doc[field] = value
        assert self.verify(capsys, tmp_path, doc) == (1, "", f"error: malformed schedule: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["--baseline"], ["--axes", "6", "--epsilon", "0.999"], ["--axes", str(MAX_AXES), "--epsilon", "1e-24"],
    ], ids=["baseline", "fewest-axes", "most-axes"])
    def test_settings_that_compile_writes_verify(self, capsys, tmp_path, argv):
        # the baseline writes n_axes 0; the identity takes 0 iterations
        for gate in ("H", "I"):
            code, out, _ = run_cli(capsys, "compile", "--gate", gate, *argv)
            assert code == 0
            doc = json.loads(out)
            code, out, err = self.verify(capsys, tmp_path, doc)
            assert (code, err) == (0, "") and out.endswith("-> OK\n"), (gate, doc)

    @pytest.mark.parametrize("doc", [{"pulses": []}, []])
    def test_malformed_schedule(self, capsys, tmp_path, doc):
        code, _, err = self.verify(capsys, tmp_path, doc)
        assert code == 1
        assert err.startswith("error: malformed schedule") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [NOT_UTF8, DEEP.encode()], ids=["not-utf8", "deep"])
    def test_unreadable_schedule(self, capsys, tmp_path, content):
        path = tmp_path / "schedule.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read schedule:") and err.count("\n") == 1


# The same target as flags and as a schedule file's description, and the
# error both must print; flags None: no flag form; message None: a valid
# target, or an error whose wording is not pinned.
TARGET_FORMS = [
    pytest.param(["--euler=-0.4,1.1,2.5"], {"euler": [-0.4, 1.1, 2.5]}, None, id="euler"),
    pytest.param(["--axis=-0.6,0,0.8", "--angle=1.3"], {"axis": [-0.6, 0, 0.8], "angle": 1.3}, None, id="axis"),
    pytest.param(["--gate", "h"], {"gate": "H"}, None, id="gate-lowercase-flag"),
    pytest.param(["--gate", "H"], {"gate": "h"}, None, id="gate-lowercase-file"),
    pytest.param(["--euler=1,2"], {"euler": [1, 2]}, "euler needs 3 numbers, got 2", id="euler-count"),
    pytest.param(["--axis=0,0,1,0", "--angle=1"], {"axis": [0, 0, 1, 0], "angle": 1},
                 "axis needs 3 numbers, got 4", id="axis-count"),
    pytest.param(["--euler=1,abc,3"], {"euler": [1, "abc", 3]}, 'malformed number in euler: "abc"',
                 id="euler-number"),
    pytest.param(["--axis=0,x,1", "--angle=1"], {"axis": [0, "x", 1], "angle": 1},
                 'malformed number in axis: "x"', id="axis-number"),
    pytest.param(["--euler=inf,0,0"], {"euler": [math.inf, 0, 0]}, "non-finite number in euler",
                 id="euler-inf"),
    pytest.param(["--axis=0,0,1", "--angle=inf"], {"axis": [0, 0, 1], "angle": math.inf},
                 "non-finite number in angle", id="angle-inf"),
    # finite angles, but lam + phi overflows to inf and the unitary reads NaN
    pytest.param(["--euler=0,1e308,1e308"], {"euler": [0, 1e308, 1e308]},
                 "target unitary is not finite", id="euler-sum-overflows"),
    pytest.param(None, {"gate": 5}, "gate needs a name, got 5", id="gate-int"),
    pytest.param(None, {"gate": ["H"]}, 'gate needs a name, got ["H"]', id="gate-list"),
    pytest.param(None, {"gate": {"a": 1}}, 'gate needs a name, got {"a": 1}', id="gate-dict"),
    pytest.param(None, {"gate": None}, "gate needs a name, got null", id="gate-null"),
    pytest.param(None, {"axis": [0, 0, 1]}, 'axis target needs "angle"', id="axis-no-angle"),
    pytest.param(["--axis=0,0,1", "--angle=x"], {"axis": [0, 0, 1], "angle": "x"}, 'malformed number in angle: "x"',
                 id="angle-number"),
    pytest.param(None, {"axis": [0, 0, 1], "angle": None}, "malformed number in angle: null", id="angle-null"),
    # a number given as text is plain ASCII: float() would also read Python's literal forms
    pytest.param(["--euler=1_0,0,0"], {"euler": ["1_0", 0, 0]}, 'malformed number in euler: "1_0"',
                 id="euler-underscore"),
    pytest.param(["--euler=\u0661,0,0"], {"euler": ["\u0661", 0, 0]}, 'malformed number in euler: "\\u0661"',
                 id="euler-arabic-indic-digit"),
    pytest.param(["--axis=0,0,1", "--angle=1_0"], {"axis": [0, 0, 1], "angle": "1_0"},
                 'malformed number in angle: "1_0"', id="angle-underscore"),
    pytest.param(["--axis=0,0,\uff11", "--angle=1"], {"axis": [0, 0, "\uff11"], "angle": 1},
                 'malformed number in axis: "\\uff11"', id="axis-fullwidth-digit"),
    pytest.param(["--euler=nan,0,0"], {"euler": ["nan", 0, 0]}, "non-finite number in euler", id="euler-nan-text"),
    pytest.param(["--euler=1, 2, 3"], {"euler": ["1", " 2", " 3 "]}, None, id="euler-spaces"),
    pytest.param(None, {"euler": 5}, "euler needs a list of 3 numbers, got 5", id="euler-not-a-list"),
    pytest.param(None, {"euler": "1,2,3"}, 'euler needs a list of 3 numbers, got "1,2,3"', id="euler-string"),
    # an error line over 200 characters is cut in the middle: 10**400 has 401 digits
    pytest.param(None, {"euler": [1, 2, 10**400]}, "malformed number in euler: 1" + "0" * 63 + "..." + "0" * 99,
                 id="euler-int-too-large"),
    pytest.param(None, 5, "unrecognized target spec: 5", id="target-int"),
    # an echo is the JSON text, nested values included
    pytest.param(None, {"foo": [1, 2]}, 'unrecognized target spec: {"foo": [1, 2]}', id="target-nested-short"),
    pytest.param(None, {"matrix": [[10**400, 0], [0, 1]]}, "malformed number in matrix: 1" + "0" * 62 + "..." + "0" * 99,
                 id="matrix-int-too-large"),
    pytest.param(None, {"matrix": [1, 2]}, "matrix must be 2x2", id="matrix-flat"),
    pytest.param(None, {"matrix": [[["a", 0], 0], [0, 1]]}, 'malformed number in matrix: "a"',
                 id="matrix-pair-string"),
    # a matrix has no flag form, so a number written as a string is malformed, though float() reads it
    pytest.param(None, {"matrix": [[["1", 0], 0], [0, 1]]}, 'malformed number in matrix: "1"',
                 id="matrix-pair-numeric-string"),
    pytest.param(None, {"matrix": [[[" 1_0 ", 0], [0, 0]], [[0, 0], [1, 0]]]}, 'malformed number in matrix: " 1_0 "',
                 id="matrix-pair-underscore-string"),
    # a JSON true or false is not a number, though Python's bool is an int
    pytest.param(None, {"matrix": [[True, False], [False, True]]}, "malformed number in matrix: true",
                 id="matrix-bool"),
    pytest.param(None, {"matrix": [[[1, False], 0], [0, 1]]}, "malformed number in matrix: false",
                 id="matrix-pair-bool"),
    pytest.param(None, {"axis": [0, 0, 1], "angle": True}, "malformed number in angle: true", id="angle-bool"),
    pytest.param(None, {"axis": [0, False, 1], "angle": 1}, "malformed number in axis: false", id="axis-bool"),
    pytest.param(None, {"euler": [1, True, 3]}, "malformed number in euler: true", id="euler-bool"),
]


@pytest.mark.parametrize("flags, description, message", TARGET_FORMS)
def test_flags_and_files_resolve_alike(tmp_path, flags, description, message):
    """`verify` of one H schedule prints the same whether its target comes from flags or the file."""
    code, out, _ = _outcome(["compile", "--gate", "H"])
    assert code == 0
    doc = json.loads(out)
    doc["target"] = description
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc))
    code, out, err = from_file = _outcome(["verify", "--schedule", str(path)])
    if flags is not None:
        assert _outcome(["verify", "--schedule", str(path), *flags]) == from_file
    try:
        spec = cli.gate_spec_from_json(description)
    except cli.GateSpecError:
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        if message is not None:
            assert err == f"error: {message}\n"
        return
    assert message is None
    assert code in (0, 1) and err == ""
    if flags is not None:
        from_flags = cli.resolve_gate_spec(build_parser().parse_args(["compile", *flags]))
        assert from_flags.description == spec.description
        assert np.array_equal(from_flags.unitary, spec.unitary)
    if description.get("gate") == "h":
        assert code == 0 and spec.description == {"gate": "H"}


def _src_env() -> dict:
    """The environment for a fresh interpreter that imports this pulsegate."""
    src = str(Path(pulsegate.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_import_and_usage_errors_load_no_numpy():
    """numpy loads on the first call that builds an array.

    Not on import, a usage error, resolving a named or matrix target, or
    checking and decomposing a 2x2 given as tuples.
    """
    script = textwrap.dedent("""
        import contextlib, io, sys
        import pulsegate
        from pulsegate import GreedyConfig, allowed_axes
        from pulsegate.cli import gate_spec_from_json, main
        from pulsegate.su2 import euler_zxz, is_unitary, quaternion
        allowed_axes(16386)
        GreedyConfig(1e-8)
        h = gate_spec_from_json({"gate": "H"}).unitary
        gate_spec_from_json({"matrix": [[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]]})
        assert is_unitary(h) and not is_unitary(((1, 0), (0, 2)))
        quaternion(h)
        euler_zxz(h)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["compile", "--gate", "Q"]) == 2
            assert main(["compile", "--bogus"]) == 2
            try:
                main(["compile", "-h"])
            except SystemExit as exc:
                assert exc.code == 0
            else:
                raise AssertionError("-h did not exit")
            assert "numpy" not in sys.modules, "numpy loaded before any array was built"
            # nor the record machinery of dataclasses, which brings inspect, ast and dis along
            assert not {"dataclasses", "inspect"} & set(sys.modules), "dataclasses or inspect loaded"
            assert main(["compile", "--gate", "H"]) == 0  # one greedy_compile
        assert "numpy" in sys.modules
    """)
    done = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_import_loads_only_what_a_greedy_compile_uses():
    """`import pulsegate` loads su2, ir and greedy; u3, bench and their names load on first use."""
    script = textwrap.dedent("""
        import sys
        import pulsegate
        early = {"pulsegate.bench", "pulsegate.u3"} & set(sys.modules)
        assert not early, early
        assert set(pulsegate.__all__) <= set(dir(pulsegate)), set(pulsegate.__all__) - set(dir(pulsegate))
        from pulsegate import evaluation_dataset, fit_log_model, run_sweep, u3_compile
        bench, u3 = sys.modules["pulsegate.bench"], sys.modules["pulsegate.u3"]
        assert pulsegate.bench is bench and pulsegate.u3 is u3
        assert run_sweep is bench.run_sweep and evaluation_dataset is bench.evaluation_dataset
        assert fit_log_model is bench.fit_log_model and u3_compile is u3.u3_compile
    """)
    done = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_dir_lists_the_lazy_names_without_loading_them():
    """`dir(pulsegate)` names every `__all__` entry, `u3` and `bench`, and imports neither module.

    A fresh interpreter, because the test process has already loaded both.
    """
    script = textwrap.dedent("""
        import sys
        import pulsegate
        names = dir(pulsegate)
        missing = {*pulsegate.__all__, "u3", "bench"} - set(names)
        assert not missing, missing
        assert names == sorted(names), names
        loaded = {"pulsegate.bench", "pulsegate.u3"} & set(sys.modules)
        assert not loaded, loaded
    """)
    done = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_only_the_bench_command_loads_the_harness(tmp_path):
    """`compile`, `verify` and `compile --baseline` run without `pulsegate.bench`; `bench` loads it."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        import pulsegate.cli
        schedule, rows = sys.argv[1:]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert pulsegate.cli.main(["compile", "--gate", "H"]) == 0
        with open(schedule, "w") as fh:
            fh.write(out.getvalue())
        with contextlib.redirect_stdout(io.StringIO()):
            assert pulsegate.cli.main(["verify", "--schedule", schedule]) == 0
            assert pulsegate.cli.main(["compile", "--gate", "H", "--baseline"]) == 0
        assert "pulsegate.bench" not in sys.modules, "bench loaded before the bench command"
        assert pulsegate.cli.main(["bench", "--axes-list", "6", "--eps-decades", "1:1", "--out", rows]) == 0
        assert "pulsegate.bench" in sys.modules
    """)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "h.json"), str(tmp_path / "rows.csv")],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "rows.csv").read_text().startswith("n_axes,")


def test_module_entry_runs_main():
    # `python -m pulsegate.cli` is the entry a fresh process takes; it prints what `main` does
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "pulsegate.cli", *argv], env=_src_env(),
                              capture_output=True, text=True, timeout=60)

    done = run("compile", "--gate", "H")
    code, out, _ = _outcome(["compile", "--gate", "H"])
    assert done.returncode == code == 0, done.stderr
    assert done.stdout == out
    done = run()
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: the following arguments are required: command\n"


class TestGolden:
    def test_output_is_byte_identical_to_golden(self, tmp_path):
        assert golden_text(tmp_path) == GOLDEN.read_text()


class TestByteStableOutput:
    """`compile` output is a function of its argv alone: it reads no clock and keeps nothing between calls."""

    TARGETS = {
        "gate": ["--gate", "H"],
        "euler": ["--euler=-0.4,1.1,2.5"],
        "axis": ["--axis=-0.6,0,0.8", "--angle", "1.3"],
        "matrix": ["--matrix", "[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]"],
        "matrix-file": ["--matrix-file"],
    }
    SCHEDULE_KEYS = ["target", "n_axes", "eps_target", "pulses", "frame_phase_rad", "epsilon",
                     "distance_rad", "pulse_count", "iterations"]

    @pytest.mark.parametrize("mode", [[], ["--format", "text"], ["--baseline"], ["--baseline", "--format", "text"]])
    @pytest.mark.parametrize("form", TARGETS)
    def test_same_argv_prints_same_bytes(self, tmp_path, form, mode):
        target = self.TARGETS[form]
        if form == "matrix-file":
            path = tmp_path / "m.json"
            path.write_text(self.TARGETS["matrix"][1])
            target = [*target, str(path)]
        argv = ["compile", *target, "--epsilon", "1e-8", *mode]
        first = _outcome(argv)
        assert first[0] == 0 and first[2] == ""
        assert _outcome(argv) == first
        if "text" in mode:
            assert first[1].splitlines()[-1].startswith("iterations:")
        else:
            assert list(json.loads(first[1])) == self.SCHEDULE_KEYS


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

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--axes-list", "6", "--eps-decades", "1:1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_axes,eps_target,eps_mean,dist_mean,pulses_mean,time_mean_s,failures"
        assert len(lines) == 2 and lines[1].startswith("6,0.1,")

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
