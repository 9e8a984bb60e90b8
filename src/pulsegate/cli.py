"""Command-line front end and serialization formats.

Subcommands:
    compile  -- compile one gate (greedy or two-pulse baseline) to JSON/text
    bench    -- run the (n_axes, eps_target) sweep over the 128-gate dataset
    verify   -- independently re-evaluate a schedule file against a target

Exit codes: 0 ok, 1 operational failure, 2 usage error.

Schedule files are JSON with fixed keys and shortest round-trip floats
(`json.dumps`), so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import bench, ir
from .greedy import CompileError, GreedyConfig, InvalidConfigurationError, allowed_axes, greedy_compile
from .su2 import euler_matrix, is_unitary, rotation_unitary
from .u3 import u3_compile

NAMED_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "SX": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
}
for _u in NAMED_GATES.values():
    _u.flags.writeable = False  # shared: each is handed out as GateSpec.unitary


class GateSpecError(ValueError):
    """Unresolvable gate specification (usage error)."""


@dataclass(frozen=True)
class GateSpec:
    """A resolved target gate plus its normalized JSON description."""

    description: dict
    unitary: np.ndarray


def _matrix_from_json(data) -> np.ndarray:
    """Accept [[a, b], [c, d]] with entries as numbers or [re, im] pairs."""

    def pair(x) -> bool:
        return isinstance(x, list) and len(x) == 2

    def entry(x) -> complex:
        if isinstance(x, (int, float)):
            return complex(_number(x, "matrix"))
        if pair(x):
            return complex(_number(x[0], "matrix"), _number(x[1], "matrix"))
        raise GateSpecError(f"matrix entry must be a number or [re, im] pair: {x!r}")

    if not (pair(data) and all(map(pair, data))):
        raise GateSpecError("matrix must be 2x2")
    return np.array([[entry(x) for x in row] for row in data])


# argparse dest names of the flags that describe a target, in flag order
TARGET_FLAGS = ("gate", "euler", "axis", "angle", "matrix", "matrix_file")


def resolve_gate_spec(args) -> GateSpec:
    """Map the target flags to the description a schedule file would hold, and resolve it."""
    given = [name for name in TARGET_FLAGS if name != "angle" and getattr(args, name) is not None]
    if args.angle is not None and args.axis is None:
        raise GateSpecError("--angle requires --axis")
    if len(given) != 1:
        raise GateSpecError("specify exactly one of --gate/--euler/--axis/--matrix/--matrix-file")
    (name,) = given
    value = getattr(args, name)
    if name == "gate":
        description = {"gate": value}
    elif name == "euler":
        description = {"euler": value.split(",")}
    elif name == "axis":
        if args.angle is None:
            raise GateSpecError("--axis requires --angle")
        description = {"axis": value.split(","), "angle": args.angle}
    else:
        try:
            if name == "matrix_file":
                with open(value) as fh:
                    value = fh.read()
            description = {"matrix": json.loads(value)}
        except (OSError, json.JSONDecodeError) as exc:
            raise GateSpecError(f"cannot read matrix: {exc}") from exc
    return gate_spec_from_json(description)


def _numbers(description: dict, key: str, count: int) -> list[float]:
    """The `count` numbers a description holds under `key`; errors name the key and the count."""
    values = description[key]
    if not isinstance(values, list):
        raise GateSpecError(f"{key} needs a list of {count} numbers, got {values!r}")
    if len(values) != count:
        raise GateSpecError(f"{key} needs {count} numbers, got {len(values)}")
    return [_number(x, key) for x in values]


def _number(x, key: str) -> float:
    """`x` as a finite float; an error names the key it came from."""
    try:
        value = float(x)
    except (TypeError, ValueError, OverflowError):
        raise GateSpecError(f"malformed number in {key}: {x!r}") from None
    if not math.isfinite(value):
        raise GateSpecError(f"{key} entries must be finite")
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
        raise GateSpecError(f"unrecognized target spec: {description!r}")
    try:
        if "gate" in description:
            name = description["gate"]
            if not isinstance(name, str):
                raise GateSpecError(f"gate needs a name, got {name!r}")
            name = name.upper()
            if name not in NAMED_GATES:
                raise GateSpecError(f"unknown gate {name!r}; known: {', '.join(NAMED_GATES)}")
            description, u = {"gate": name}, NAMED_GATES[name]
        elif "euler" in description:
            euler = _numbers(description, "euler", 3)
            description, u = {"euler": euler}, euler_matrix(*euler)
        elif "axis" in description:
            if "angle" not in description:
                raise GateSpecError('axis target needs "angle"')
            axis = _numbers(description, "axis", 3)
            angle = _number(description["angle"], "angle")
            description, u = {"axis": axis, "angle": angle}, rotation_unitary(axis, angle)
        elif "matrix" in description:
            u = _matrix_from_json(description["matrix"])
            if not is_unitary(u):
                raise GateSpecError("matrix is not unitary within 1e-9")
            description = {"matrix": [[[x.real, x.imag] for x in row] for row in u]}
        else:
            raise GateSpecError(f"unrecognized target spec: {description!r}")
    except GateSpecError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GateSpecError(f"invalid target: {exc}") from exc
    if not np.isfinite(u).all():
        raise GateSpecError("target unitary is not finite")
    return GateSpec(description, u)


# ---------------------------------------------------------------------------
# output formats


def schedule_to_json(
    spec: GateSpec, n_axes: int, eps_target: float, gate: ir.CompiledGate, compile_time_s: float
) -> str:
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
            "compile_time_s": compile_time_s,
        }
    ) + "\n"


def schedule_to_text(gate: ir.CompiledGate, compile_time_s: float) -> str:
    lines = []
    for i, p in enumerate(gate.pulses):
        lines.append(f"pulse {i}: phase {p.phase:.12g} rad, angle {p.angle:.12g} rad")
    lines.append(f"frame phase: {gate.frame_phase:.12g} rad")
    lines.append(f"epsilon:     {gate.epsilon:.6g}")
    lines.append(f"distance:    {gate.distance:.12g} rad")
    lines.append(f"pulse count: {gate.pulse_count}")
    lines.append(f"iterations:  {gate.iterations}")
    lines.append(f"time:        {compile_time_s:.6g} s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _add_gate_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gate", help="named gate: " + ", ".join(NAMED_GATES))
    p.add_argument("--euler", metavar="T,P,L", help="ZXZ Euler angles in radians")
    p.add_argument("--axis", metavar="NX,NY,NZ", help="rotation axis (unit vector)")
    p.add_argument("--angle", type=float, help="rotation angle for --axis, radians")
    p.add_argument("--matrix", help="inline 2x2 matrix as JSON")
    p.add_argument("--matrix-file", help="path to a JSON 2x2 matrix")


def cmd_compile(args) -> int:
    spec = resolve_gate_spec(args)
    config = GreedyConfig(eps_target=args.epsilon)  # validates --epsilon for --baseline too
    if args.baseline:
        t_start = time.perf_counter()
        gate, _ = u3_compile(spec.unitary)
        n_axes = 0
    else:
        axes = allowed_axes(args.axes)
        t_start = time.perf_counter()
        try:
            gate, _ = greedy_compile(spec.unitary, axes, config)
        except CompileError as exc:
            print(
                f"error: compilation failed: {exc} "
                f"(best error {exc.error:.12g}, {len(exc.steps)} steps)",
                file=sys.stderr,
            )
            return 1
        n_axes = args.axes
    seconds = time.perf_counter() - t_start
    if args.format == "json":
        sys.stdout.write(schedule_to_json(spec, n_axes, args.epsilon, gate, seconds))
    else:
        sys.stdout.write(schedule_to_text(gate, seconds))
    return 0


def cmd_bench(args) -> int:
    try:
        axes_list = [int(x) for x in args.axes_list.split(",")]
        lo, hi = (int(x) for x in args.eps_decades.split(":"))
    except ValueError as exc:
        raise GateSpecError(f"malformed bench arguments: {exc}") from exc
    if lo < 1 or hi < lo:
        raise GateSpecError("need eps decades LO:HI with 1 <= LO <= HI")
    # each decade is checked as it is made, so a huge HI stops at the floor
    eps_list = [GreedyConfig(10.0 ** (-k)).eps_target for k in range(lo, hi + 1)]
    rows = bench.run_sweep(axes_list, eps_list)
    names = [f.name for f in fields(bench.SweepRow)]
    lines = [",".join(names)]
    lines += [",".join(str(getattr(r, name)) for name in names) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.schedule) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read schedule: {exc}", file=sys.stderr)
        return 1
    given = any(getattr(args, name) is not None for name in TARGET_FLAGS)
    try:
        pulses = [ir.XYPulse(float(p["phase_rad"]), float(p["angle_rad"])) for p in doc["pulses"]]
        frame = float(doc["frame_phase_rad"])
        if any(math.isinf(x) for x in (frame, *(v for p in pulses for v in (p.phase, p.angle)))):
            raise ValueError("pulse and frame numbers must not be infinite")
        declared, eps_target = float(doc["epsilon"]), float(doc["eps_target"])
        # both, not only their min: min(declared, nan) is declared
        if not (math.isfinite(declared) and math.isfinite(eps_target)):
            raise ValueError("epsilon and eps_target must be finite")
        target = None if given else doc["target"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"error: malformed schedule: {exc!r}", file=sys.stderr)
        return 1
    spec = resolve_gate_spec(args) if given else gate_spec_from_json(target)
    eps = ir.schedule_error(spec.unitary, pulses, frame)
    ok = eps <= min(declared, eps_target) + ir.ERROR_SLACK
    print(f"achieved epsilon: {eps:.17g} (declared {declared:.17g}) -> {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error: <message>` line and exits 2.

    Subparsers are built with the parent's class, so they inherit this.
    """

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


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
    p_compile.add_argument("--axes", type=int, default=18, help="number of allowed axes (default 18)")
    p_compile.add_argument("--epsilon", type=float, default=1e-4, help="target gate error (default 1e-4)")
    p_compile.add_argument("--baseline", action="store_true", help="use the fixed two-pulse baseline")
    p_compile.add_argument("--format", choices=("json", "text"), default="json")

    p_bench = sub.add_parser("bench", help="run the benchmark sweep")
    p_bench.add_argument("--axes-list", default="6,10,18,34", help="comma-separated axis counts")
    p_bench.add_argument("--eps-decades", default="1:8", help="eps range as LO:HI decades (10^-LO..10^-HI)")
    p_bench.add_argument("--out", help="CSV output path (default stdout)")

    p_verify = sub.add_parser("verify", help="re-evaluate a schedule file")
    p_verify.add_argument("--schedule", required=True, help="schedule JSON path")
    _add_gate_spec_flags(p_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not stored in the parser, so rebinding a command
    # function (a test double or a tracing wrapper) takes effect
    commands = {"compile": cmd_compile, "bench": cmd_bench, "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (GateSpecError, InvalidConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
