"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload runs in the benchmark's process on one thread, in a closed
loop: the next target is sent when the previous one returns. The timer
wraps only the benchmark's own call into the program's entry point.
Checking happens after a pass, outside its timed region.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from array import array
from typing import NamedTuple

import numpy as np

from evaluator import schedule_error, verdict, within
from program import HAAR_AXES, HAAR_EPS

# Hooks every greedy compile passes through.
GREEDY_HOOKS = frozenset({
    "su2.rotation_unitary",
    "su2.hs_fidelity",
    "greedy.best_axis_step",
    "greedy.greedy_compile",
    "ir.merge_adjacent",
    "ir.absorb_virtual_z",
    "ir.sequence_unitary",
})
CLI_HOOKS = frozenset({
    "cli.build_parser",
    "cli.resolve_gate_spec",
    "cli.schedule_to_json",
    "cli.cmd_verify",
    "cli.main",
})


class Outcome(NamedTuple):
    key: tuple
    failed: bool  # counted in `failed`: the target did not get a schedule within eps
    wrong: bool  # the program's output contradicts a check: `correct` becomes false
    epsilon: float
    distance: float
    pulses: int
    iterations: int
    damped: int
    record: str  # deterministic description of the output, for the digest


def digest(outcomes) -> str:
    """sha256 over every output record, in key order, whatever order the targets ran in."""
    h = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.key):
        h.update(o.record.encode())
        h.update(b"\n")
    return h.hexdigest()


def _hex(x) -> str:
    return float(x).hex()


# --------------------------------------------------------------------------
# greedy_compile called directly


class GreedyItem(NamedTuple):
    key: tuple
    unitary: object  # numpy array handed to the program
    target: tuple  # the same matrix as nested Python complex tuples
    axes: object
    config: object
    eps: float


def _as_tuple(u) -> tuple:
    return tuple(tuple(complex(x) for x in row) for row in u)


class DirectCompile:
    """Shared code of the workloads that call `pulsegate.greedy_compile`."""

    target_hooks = GREEDY_HOOKS

    def run_pass(self, pg, state, items, mark=None):
        compile_ = pg.greedy_compile
        error_type = pg.CompileError
        clock = time.perf_counter
        lat = array("d")
        outs = []
        t_pass = clock()
        for i, item in enumerate(items):
            if mark is not None:
                mark(i)
            t0 = clock()
            try:
                out = compile_(item.unitary, item.axes, item.config)
            except error_type as exc:
                out = exc
            lat.append(clock() - t0)
            outs.append(out)
        return lat, outs, clock() - t_pass

    def check(self, item, out) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(item.key, True, False, math.nan, math.nan, 0, 0, 0,
                           f"{item.key} {type(out).__name__}")
        gate, report = out
        pulses = [(p.phase, p.angle) for p in gate.pulses]
        failed, wrong = verdict(schedule_error(item.target, pulses, gate.frame_phase),
                                item.eps, float(gate.epsilon))
        record = " ".join(
            [str(item.key)]
            + [f"{_hex(ph)},{_hex(an)}" for ph, an in pulses]
            + [f"frame={_hex(gate.frame_phase)}", f"eps={_hex(gate.epsilon)}",
               f"it={gate.iterations}"]
        )
        return Outcome(item.key, failed, wrong, float(gate.epsilon),
                       math.fsum(an for _, an in pulses), len(pulses),
                       report.iterations, report.damped_steps, record)


class PaperGrid(DirectCompile):
    name = "paper-grid"
    chunk = 256  # targets between reference-loop samples (tens of ms each)
    setup_hooks = frozenset({"greedy.allowed_axes", "bench.evaluation_dataset"})

    def axes_counts(self, pg):
        return tuple(pg.bench.DEFAULT_AXES_LIST)

    def inputs(self, seed, state, workdir):
        """Every (n_axes, eps) cell times the 128 grid targets, in a seeded order."""
        items = []
        for n_axes, axes in state["axes"].items():
            for eps, config in state["configs"].items():
                for ti, t in enumerate(state["dataset"]):
                    items.append(GreedyItem((n_axes, -eps, ti), t.unitary,
                                            _as_tuple(t.unitary), axes, config, eps))
        random.Random(seed).shuffle(items)
        return items

    def cross_check(self, pg, outcomes) -> list[str]:
        """Compare per-cell means with `bench.run_sweep`'s rows; return mismatches."""
        cells: dict[tuple, list[Outcome]] = {}
        for o in outcomes:
            cells.setdefault((o.key[0], -o.key[1]), []).append(o)
        problems = []
        for row in pg.bench.run_sweep():
            cell = cells.get((row.n_axes, row.eps_target), [])
            ok = [o for o in cell if not o.failed]
            mine = {
                "eps_mean": math.fsum(o.epsilon for o in ok) / len(ok),
                "dist_mean": math.fsum(o.distance for o in ok) / len(ok),
                "pulses_mean": math.fsum(o.pulses for o in ok) / len(ok),
            } if ok else {}
            for field, value in mine.items():
                if not abs(value - getattr(row, field)) <= 1e-12:
                    problems.append(f"{row.n_axes},{row.eps_target:g} {field} "
                                    f"{value!r} != {getattr(row, field)!r}")
            if len(cell) - len(ok) != row.failures:
                problems.append(f"{row.n_axes},{row.eps_target:g} failures "
                                f"{len(cell) - len(ok)} != {row.failures}")
        return problems


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def stratified_quaternions(rng: random.Random, n: int) -> list[tuple]:
    """n unit quaternions (a, b, c, d), each uniform on the sphere: Haar on SU(2).

    Points of a Halton sequence in the unit cube, moved by one random shift
    (mod 1), are mapped to the sphere by Shoemake's volume-preserving map.
    Each point is then uniform, while the set covers the sphere evenly, so a
    run's means vary far less with the seed than with independent draws.
    """
    shift = [rng.random() for _ in range(3)]
    out = []
    for j in range(1, n + 1):
        u0, u1, u2 = ((_radical_inverse(j, b) + s) % 1.0 for b, s in zip((2, 3, 5), shift))
        r1, r2 = math.sqrt(1.0 - u0), math.sqrt(u0)
        out.append((r2 * math.cos(2 * math.pi * u2), r1 * math.sin(2 * math.pi * u1),
                    r1 * math.cos(2 * math.pi * u1), r2 * math.sin(2 * math.pi * u2)))
    return out


def su2_matrix(q) -> tuple:
    """a I - i (b X + c Y + d Z)."""
    a, b, c, d = q
    return ((complex(a, -d), complex(-c, -b)), (complex(c, -b), complex(a, d)))


def stratified_haar(rng: random.Random, n: int) -> list[tuple]:
    """n stratified Haar-random SU(2) matrices, each times a random global phase."""
    out = []
    for q in stratified_quaternions(rng, n):
        g = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        out.append(tuple(tuple(g * x for x in row) for row in su2_matrix(q)))
    return out


class HaarFinePhase(DirectCompile):
    name = "haar-fine-phase"
    chunk = 16
    setup_hooks = frozenset({"greedy.allowed_axes"})
    per_eps = 512  # targets per eps value

    def axes_counts(self, pg):
        return (HAAR_AXES,)

    def inputs(self, seed, state, workdir):
        """Stratified Haar targets; eps cycles through HAAR_EPS."""
        rng = random.Random(seed)
        sets = [stratified_haar(rng, self.per_eps) for _ in HAAR_EPS]
        items = []
        for j in range(self.per_eps):
            for eps, targets in zip(HAAR_EPS, sets):
                t = targets[j]
                items.append(GreedyItem((len(items),), np.array(t), t,
                                        state["axes"], state["configs"][eps], eps))
        return items


# --------------------------------------------------------------------------
# cli.main called in-process

NAMED = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
    "H": ((1 / math.sqrt(2), 1 / math.sqrt(2)), (1 / math.sqrt(2), -1 / math.sqrt(2))),
    "S": ((1, 0), (0, 1j)),
    "T": ((1, 0), (0, cmath.exp(1j * math.pi / 4))),
    "SX": (((1 + 1j) / 2, (1 - 1j) / 2), ((1 - 1j) / 2, (1 + 1j) / 2)),
}
CLI_EPS = 1e-4  # the CLI's default --epsilon


class CliItem(NamedTuple):
    key: tuple
    spec: list  # target flags
    target: tuple
    schedule_path: str


def _euler(theta, phi, lam) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return ((complex(c), -cmath.exp(1j * lam) * s),
            (cmath.exp(1j * phi) * s, cmath.exp(1j * (lam + phi)) * c))


def _axis_angle(n, angle) -> tuple:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    nx, ny, nz = n
    return ((complex(c, -s * nz), -1j * s * complex(nx, -ny)),
            (-1j * s * complex(nx, ny), complex(c, s * nz)))


def _call(main, argv):
    """One in-process CLI call: (exit status, captured stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback fails this target, not the run
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), elapsed


def _overwrite(path: str, text: str) -> None:
    """Replace a small file's content in place.

    Opening with truncation frees the file's block first, which on a
    filesystem mounted with online discard costs a device round trip and
    makes every write stall at random. Overwriting keeps the block.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        if os.pwrite(fd, data, 0) != len(data):
            raise OSError(f"short write to {path}")
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _without_time(text: str):
    doc = json.loads(text)
    doc.pop("compile_time_s", None)
    return doc


class CliRoundtrip:
    name = "cli-roundtrip"
    chunk = 10
    target_hooks = GREEDY_HOOKS | CLI_HOOKS | {"su2.euler_zxz", "u3.u3_compile"}
    setup_hooks = frozenset()
    n_targets = 1000
    forms = ("gate", "euler", "axis", "matrix", "matrix-file")

    def axes_counts(self, pg):
        return ()

    def inputs(self, seed, state, workdir):
        """Targets rotate through every flag form; gates through all named gates.

        Each random form draws from its own stratified Haar set.
        """
        rng = random.Random(seed)
        per_form = -(-self.n_targets // len(self.forms))
        quats = {f: stratified_quaternions(rng, per_form) for f in self.forms[1:]}
        phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(self.n_targets)]
        schedule_path = os.path.join(workdir, "schedule.json")
        names = list(NAMED)
        items = []
        for i in range(self.n_targets):
            form = self.forms[i % len(self.forms)]
            j = i // len(self.forms)
            if form == "gate":
                name = names[j % len(names)]
                spec, target = ["--gate", name], NAMED[name]
            elif form == "euler":
                a, b, c, d = quats[form][j]
                gamma = math.atan2(-d, a)
                angles = (2.0 * math.acos(min(1.0, math.hypot(a, d))),
                          math.atan2(-b, c) - gamma, math.atan2(b, c) - gamma)
                spec, target = ["--euler=" + ",".join(map(repr, angles))], _euler(*angles)
            elif form == "axis":
                a, *v = quats[form][j]
                norm = math.sqrt(sum(x * x for x in v))
                n = [x / norm for x in v]
                angle = 2.0 * math.atan2(norm, a)
                # "=" keeps argparse from reading a leading minus sign as a flag
                spec = ["--axis=" + ",".join(map(repr, n)), f"--angle={angle!r}"]
                target = _axis_angle(n, angle)
            else:
                g = cmath.exp(1j * phases[i])
                target = tuple(tuple(g * x for x in row) for row in su2_matrix(quats[form][j]))
                text = json.dumps([[[x.real, x.imag] for x in row] for row in target])
                if form == "matrix":
                    spec = ["--matrix", text]
                else:
                    path = os.path.join(workdir, f"matrix-{i}.json")
                    with open(path, "w") as fh:
                        fh.write(text)
                    spec = ["--matrix-file", path]
            target = tuple(tuple(complex(x) for x in row) for row in target)
            items.append(CliItem((i,), spec, target, schedule_path))
        return items

    def run_pass(self, pg, state, items, mark=None):
        main = state["cli"].main
        clock = time.perf_counter
        lat = array("d")
        outs = []
        t_pass = clock()
        for i, item in enumerate(items):
            if mark is not None:
                mark(i)
            rc1, out1, t1 = _call(main, ["compile", *item.spec])
            _overwrite(item.schedule_path, out1)
            rc2, out2, t2 = _call(main, ["verify", "--schedule", item.schedule_path])
            rc3, out3, t3 = _call(main, ["compile", *item.spec, "--baseline"])
            lat.append(t1 + t2 + t3)
            outs.append((rc1, out1, rc2, out2, rc3, out3))
        return lat, outs, clock() - t_pass

    def check(self, item, out) -> Outcome:
        rc1, out1, rc2, out2, rc3, out3 = out
        record = f"{item.key} rc={rc1},{rc2},{rc3}"
        if rc1 != 0 or rc3 != 0:
            return Outcome(item.key, True, False, math.nan, math.nan, 0, 0, 0, record)
        try:
            doc = _without_time(out1)
            base = _without_time(out3)
            pulses = [(p["phase_rad"], p["angle_rad"]) for p in doc["pulses"]]
            failed, wrong = verdict(
                schedule_error(item.target, pulses, doc["frame_phase_rad"]),
                CLI_EPS, float(doc["epsilon"]))
            base_pulses = [(p["phase_rad"], p["angle_rad"]) for p in base["pulses"]]
            base_err = schedule_error(item.target, base_pulses, base["frame_phase_rad"])
            wrong = wrong or not (
                rc2 == 0 and out2.rstrip().endswith("-> OK")
                and len(base_pulses) == 2 and base["pulse_count"] == 2
                and base["distance_rad"] == math.pi
                and within(base_err, CLI_EPS)
            )
            record += f" {json.dumps(doc)} | {out2.strip()} | {json.dumps(base)}"
            distance = math.fsum(float(an) for _, an in pulses)
            return Outcome(item.key, failed or wrong, wrong, float(doc["epsilon"]), distance,
                           len(pulses), int(doc["iterations"]), 0, record)
        except (ValueError, KeyError, TypeError) as exc:  # malformed JSON output
            return Outcome(item.key, True, True, math.nan, math.nan, 0, 0, 0,
                           f"{record} {type(exc).__name__}")


WORKLOADS = {w.name: w for w in (PaperGrid(), HaarFinePhase(), CliRoundtrip())}
