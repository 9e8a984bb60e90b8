"""Command-line front end and serialization formats.

Subcommands:
    compile  -- compile one gate (greedy or two-pulse baseline) to JSON/text
    bench    -- run the (n_axes, eps_target) sweep over the 128-gate dataset
    verify   -- independently re-evaluate a schedule file against a target

Exit codes: 0 ok, 1 operational failure, 2 usage error; commands raise,
and `main` alone prints the `error:` line and picks the status.

Schedule files are JSON with fixed keys and shortest round-trip floats
(`json.dumps`), so serialize -> parse -> serialize is byte-identical.
`compile` reads no clock: its output is a function of its argv alone.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from typing import NamedTuple

from . import ir
from .greedy import CompileError, GreedyConfig, InvalidConfigurationError, allowed_axes, greedy_compile
from .su2 import entries, euler_matrix, is_unitary, rotation_unitary
from .u3 import u3_compile

_INV_SQRT2 = 1 / math.sqrt(2)
# entries are Python complex, in the 2x2 form GateSpec.unitary holds
NAMED_GATES = {
    "I": ((1 + 0j, 0j), (0j, 1 + 0j)),
    "X": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "Y": ((0j, -1j), (1j, 0j)),
    "Z": ((1 + 0j, 0j), (0j, -1 + 0j)),
    "H": ((_INV_SQRT2 + 0j, _INV_SQRT2 + 0j), (_INV_SQRT2 + 0j, -_INV_SQRT2 + 0j)),
    "S": ((1 + 0j, 0j), (0j, 1j)),
    "T": ((1 + 0j, 0j), (0j, cmath.exp(1j * math.pi / 4))),
    "SX": ((0.5 + 0.5j, 0.5 - 0.5j), (0.5 - 0.5j, 0.5 + 0.5j)),
}

def _echo(value) -> str:
    """An outside value as the JSON text of an error line; `[...]` for one nested too deep to write.

    An object JSON has no form for, which only a library caller can pass, shows as its repr in quotes.
    """
    try:
        return json.dumps(value, default=repr)
    except RecursionError:
        return "[...]"


def _error_line(exc: Exception) -> str:
    """`error: <exc>`, cut to its first 98 and last 99 characters around "..." when over 200.

    The one cut of an error line: echoed values, argparse's errors and OS paths alike.
    """
    line = f"error: {exc}"
    return line if len(line) <= 200 else line[:98] + "..." + line[-99:]


class GateSpecError(ValueError):
    """Unresolvable gate specification (usage error)."""


class CommandError(Exception):
    """An operational failure: `main` prints it as one `error:` line and returns 1."""


def _read_json(error: type[Exception], what: str, *, path: str | None = None, text: str | None = None):
    """The JSON in the UTF-8 file at `path`, or in `text`; any failure raises `error`."""
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


class GateSpec(NamedTuple):
    """A resolved target gate, as 2x2 rows of Python complex, plus its normalized JSON description."""

    description: dict
    unitary: tuple[tuple[complex, complex], tuple[complex, complex]]


def _matrix_from_json(data) -> tuple[tuple[complex, ...], ...]:
    """Accept [[a, b], [c, d]] with entries as JSON numbers or [re, im] pairs of them."""

    def pair(x) -> bool:
        return isinstance(x, list) and len(x) == 2

    def entry(x) -> complex:
        if isinstance(x, (int, float)):
            return complex(_number(x, "matrix"))
        if pair(x):
            return complex(*(_number(v, "matrix") for v in x))
        raise GateSpecError(f"matrix entry must be a number or [re, im] pair: {_echo(x)}")

    if not (pair(data) and all(map(pair, data))):
        raise GateSpecError("matrix must be 2x2")
    return tuple(tuple(entry(x) for x in row) for row in data)


# argparse dest names of the flags that describe a target, in flag order
TARGET_FLAGS = ("gate", "euler", "axis", "angle", "matrix", "matrix_file")


def resolve_gate_spec(args) -> GateSpec:
    """Turn the one target flag into the value a schedule file holds under its key, and resolve that."""
    given = [name for name in TARGET_FLAGS if name != "angle" and getattr(args, name) is not None]
    if args.angle is not None and args.axis is None:
        raise GateSpecError("--angle requires --axis")
    if len(given) != 1:
        raise GateSpecError("specify exactly one of --gate/--euler/--axis/--matrix/--matrix-file")
    (name,) = given
    if name == "axis" and args.angle is None:
        raise GateSpecError("--axis requires --angle")
    value = getattr(args, name)
    if name in ("euler", "axis"):
        value = value.split(",")
    elif name == "matrix":
        value = _read_json(GateSpecError, "matrix", text=value)
    elif name == "matrix_file":
        name, value = "matrix", _read_json(GateSpecError, "matrix", path=value)
    return gate_spec_from_json({name: value, "angle": args.angle})


def _numbers(description: dict, key: str) -> list[float]:
    """The 3 target numbers a description holds under `key`; errors name the key and the count."""
    values = description[key]
    if not isinstance(values, list):
        raise GateSpecError(f"{key} needs a list of 3 numbers, got {_echo(values)}")
    if len(values) != 3:
        raise GateSpecError(f"{key} needs 3 numbers, got {len(values)}")
    return [_number(x, key, text=True) for x in values]


def _number(x, key: str, kind: type = float, *, text: bool = False) -> float | int:
    """`x`, a finite JSON number, as `kind` (float or int); flags and target numbers pass `text`.

    Errors name `key`. Text is plain ASCII without `_`, surrounding spaces allowed: int() and
    float() also read Python's literal forms, `1_0` as 10 and an Arabic-Indic `١` as 1.
    """
    try:
        # Python's bool is an int, but a JSON true or false is not a number; nor is 1.0 an int
        if isinstance(x, bool) or (kind is int and isinstance(x, float)):
            raise TypeError
        if isinstance(x, str) and not (text and x.isascii() and "_" not in x):
            raise TypeError
        value = kind(x)
    except (TypeError, ValueError, OverflowError):
        # int() refuses a text integer of over 4,300 digits (Python's int-string limit); a Decimal reads it
        if not (kind is int and text and isinstance(x, str) and re.fullmatch(r"\s*[+-]?[0-9]+\s*", x, re.ASCII)):
            raise GateSpecError(f"malformed number in {key}: {_echo(x)}") from None
        import decimal
        value = int(decimal.Decimal(x))
    # only a float can be non-finite, and math.isfinite cannot take an int as large as 10**400
    if isinstance(value, float) and not math.isfinite(value):
        raise GateSpecError(f"non-finite number in {key}")
    return value


def gate_spec_from_json(description) -> GateSpec:
    """Build and validate the target a description names.

    The one place target values are counted, converted and checked:
    target flags (mapped to the description a schedule file would hold)
    and the `target` object of a schedule file both end here. The
    returned description is normalized to the form `compile` prints, gate
    names upper-cased and matrix entries as [re, im] pairs.
    """
    if not isinstance(description, dict):
        raise GateSpecError(f"unrecognized target spec: {_echo(description)}")
    try:
        if "gate" in description:
            name = description["gate"]
            if not isinstance(name, str):
                raise GateSpecError(f"gate needs a name, got {_echo(name)}")
            name = name.upper()
            if name not in NAMED_GATES:
                raise GateSpecError(f"unknown gate {_echo(name)}; known: {', '.join(NAMED_GATES)}")
            description, u = {"gate": name}, NAMED_GATES[name]
        elif "euler" in description:
            euler = _numbers(description, "euler")
            description, u = {"euler": euler}, euler_matrix(*euler)
        elif "axis" in description:
            if "angle" not in description:
                raise GateSpecError('axis target needs "angle"')
            axis = _numbers(description, "axis")
            angle = _number(description["angle"], "angle", text=True)
            description, u = {"axis": axis, "angle": angle}, rotation_unitary(axis, angle)
        elif "matrix" in description:
            u = _matrix_from_json(description["matrix"])
            if not is_unitary(u):
                raise GateSpecError("matrix is not unitary within 1e-9")
            description = {"matrix": [[[x.real, x.imag] for x in row] for row in u]}
        else:
            raise GateSpecError(f"unrecognized target spec: {_echo(description)}")
    except GateSpecError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GateSpecError(f"invalid target: {exc}") from exc
    a, b, c, d = entries(u)
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise GateSpecError("target unitary is not finite")
    return GateSpec(description, ((a, b), (c, d)))


# ---------------------------------------------------------------------------
# output formats


def schedule_to_json(spec: GateSpec, n_axes: int, eps_target: float, gate: ir.CompiledGate) -> str:
    return json.dumps(
        {
            "target": spec.description,
            "n_axes": n_axes,
            "eps_target": eps_target,
            "pulses": [{"phase_rad": p.phase, "angle_rad": p.angle} for p in gate.pulses],
            "frame_phase_rad": gate.frame_phase,
            "epsilon": gate.epsilon,
            "distance_rad": gate.distance,
            "pulse_count": gate.pulse_count,
            "iterations": gate.iterations,
        }
    ) + "\n"


def schedule_to_text(gate: ir.CompiledGate) -> str:
    lines = []
    for i, p in enumerate(gate.pulses):
        lines.append(f"pulse {i}: phase {p.phase:.12g} rad, angle {p.angle:.12g} rad")
    lines.append(f"frame phase: {gate.frame_phase:.12g} rad")
    lines.append(f"epsilon:     {gate.epsilon:.6g}")
    lines.append(f"distance:    {gate.distance:.12g} rad")
    lines.append(f"pulse count: {gate.pulse_count}")
    lines.append(f"iterations:  {gate.iterations}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _add_gate_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gate", help="named gate: " + ", ".join(NAMED_GATES))
    p.add_argument("--euler", metavar="T,P,L", help="ZXZ Euler angles in radians")
    p.add_argument("--axis", metavar="NX,NY,NZ", help="rotation axis (unit vector)")
    p.add_argument("--angle", help="rotation angle for --axis, radians")
    p.add_argument("--matrix", help="inline 2x2 matrix as JSON")
    p.add_argument("--matrix-file", help="path to a JSON 2x2 matrix")


def cmd_compile(args) -> int:
    # the flags are read first, so a malformed one is reported before a target error
    n_axes = _number(args.axes, "--axes", int, text=True)
    eps_target = _number(args.epsilon, "--epsilon", text=True)
    spec = resolve_gate_spec(args)
    config = GreedyConfig(eps_target)  # validates --epsilon for --baseline too
    axes = None if args.baseline else allowed_axes(n_axes)
    try:
        gate, _ = u3_compile(spec.unitary) if axes is None else greedy_compile(spec.unitary, axes, config)
    except CompileError as exc:
        steps = len(exc.steps)
        raise CommandError(f"compilation failed: {exc} (best error {exc.error:.12g}, {steps} steps)") from exc
    if args.format == "json":
        sys.stdout.write(schedule_to_json(spec, 0 if axes is None else n_axes, eps_target, gate))
    else:
        sys.stdout.write(schedule_to_text(gate))
    return 0


def cmd_bench(args) -> int:
    axes_list = [_number(x, "--axes-list", int, text=True) for x in args.axes_list.split(",")]
    decades = [_number(x, "--eps-decades", int, text=True) for x in args.eps_decades.split(":")]
    if len(decades) != 2 or not 1 <= decades[0] <= decades[1]:
        raise GateSpecError("need eps decades LO:HI with 1 <= LO <= HI")
    lo, hi = decades
    # each decade is checked as it is made, so a huge HI stops at the floor; decades
    # start at most at 400, where 10.0 ** (-k) is 0.0, since k must fit in a float
    eps_list = [GreedyConfig(10.0 ** (-k)).eps_target for k in range(min(lo, 400), hi + 1)]
    from . import bench  # only here: no other command sweeps
    rows = bench.run_sweep(axes_list, eps_list)
    lines = [",".join(bench.SweepRow._fields)]
    lines += [",".join(map(str, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CommandError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    doc = _read_json(CommandError, "schedule", path=args.schedule)
    given = any(getattr(args, name) is not None for name in TARGET_FLAGS)
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"the schedule must be a JSON object, got {_echo(doc)}")
        if not (isinstance(raw := doc["pulses"], list) and all(isinstance(p, dict) for p in raw)):
            raise TypeError(f"pulses must be a list of objects, got {_echo(raw)}")
        pulses = [ir.XYPulse(_number(p["phase_rad"], "phase_rad"), _number(p["angle_rad"], "angle_rad"))
                  for p in raw]
        frame, declared, eps_target = (_number(doc[f], f) for f in ("frame_phase_rad", "epsilon", "eps_target"))
        claims = (_number(doc["distance_rad"], "distance_rad"), _number(doc["pulse_count"], "pulse_count", int))
        target = None if given else doc["target"]
        # the settings a compile writes must be ones it accepts: n_axes 0 is the baseline
        if n_axes := _number(doc["n_axes"], "n_axes", int):
            allowed_axes(n_axes)
        if (iterations := _number(doc["iterations"], "iterations", int)) < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        GreedyConfig(eps_target)
    except KeyError as exc:
        raise CommandError(f"malformed schedule: missing field {_echo(exc.args[0])}") from exc
    except (TypeError, ValueError) as exc:
        raise CommandError(f"malformed schedule: {exc}") from exc
    spec = resolve_gate_spec(args) if given else gate_spec_from_json(target)
    eps = ir.schedule_error(spec.unitary, pulses, frame)
    ok = eps <= min(declared, eps_target) + ir.ERROR_SLACK
    # the cost fields are exactly those of the pulses as written, canonical or not
    costs = zip(("distance_rad", "pulse_count"), claims, (ir.distance(pulses), len(pulses)))
    wrong = [f"{field}: {true} (declared {claim}) -> MISMATCH" for field, claim, true in costs if claim != true]
    print(*wrong, f"achieved epsilon: {eps:.17g} (declared {declared:.17g}) -> {'OK' if ok else 'MISMATCH'}",
          sep="\n")
    return 0 if ok and not wrong else 1


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as `argparse.ArgumentError` for `main` to report, instead of exiting.

    Subparsers are built with the parent's class, so they inherit this.
    """

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    Parsing keeps no state in the parser: each `parse_args` returns a
    fresh Namespace, so one parser serves every `main` call in a process.
    """
    parser = _Parser(
        prog="pulsegate",
        description="Compile single-qubit gates to XY-plane pulses plus virtual-Z frame shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile one gate")
    _add_gate_spec_flags(p_compile)
    p_compile.add_argument("--axes", default=18, help="number of allowed axes (default 18)")
    p_compile.add_argument("--epsilon", default=1e-4, help="target gate error (default 1e-4)")
    p_compile.add_argument("--baseline", action="store_true", help="use the fixed two-pulse baseline")
    p_compile.add_argument("--format", choices=("json", "text"), default="json")

    p_bench = sub.add_parser("bench", help="run the benchmark sweep")
    p_bench.add_argument("--axes-list", default="6,10,18,34", help="comma-separated axis counts")
    p_bench.add_argument("--eps-decades", default="1:8", help="eps range as LO:HI decades (10^-LO..10^-HI)")
    p_bench.add_argument("--out", help="CSV output path (default stdout)")

    p_verify = sub.add_parser("verify", help="re-evaluate a schedule file")
    p_verify.add_argument("--schedule", required=True, help="schedule JSON path")
    _add_gate_spec_flags(p_verify)

    parser._commands = sub.choices  # each command's own parser, by name, for `main`
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; return 0, 1 or 2. Only `-h` raises (SystemExit(0))."""
    # looked up per call, not stored in the parser, so rebinding a command
    # function (a test double or a tracing wrapper) takes effect
    commands = {"compile": cmd_compile, "bench": cmd_bench, "verify": cmd_verify}
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a line is parsed once, by its command's parser; a line that does not start with a
        # command gets the top-level parser's help or usage error, which do not return
        command = argv[0] if argv and argv[0] in commands else parser.parse_args(argv).command
        return commands[command](parser._commands[command].parse_args(argv[1:]))
    except (CommandError, argparse.ArgumentError, GateSpecError, InvalidConfigurationError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1 if isinstance(exc, CommandError) else 2


if __name__ == "__main__":
    sys.exit(main())
