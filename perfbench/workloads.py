"""Workload command lists, their seeded inputs, and the output checks.

Each workload is a closed loop of `starkzz` CLI commands run one after
another with `--threads 1`.  Seed 0 gives the nominal inputs; other seeds
jitter only sweep-axis ranges and zx amplitudes, inputs whose checks stay
valid.  Every command is one operation and so is every CSV data row; an
operation fails on a non-zero exit, a non-empty `error` column or a failed
check at the tolerances of tests/test_acceptance.py.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("spectral", "pulse")

TWO_PI = 2.0 * math.pi
PHASE_POINTS = 41
#: The amplitude grid is sized down from 31x31 to keep one run short.
GRID_POINTS = 5
#: The chain keeps the first five device-b-chain transmons.  Their levels
#: put the Hilbert space (1280) just above calibrate.DENSE_LIMIT (1024), so
#: the chain still runs the shift-invert eigsh path of the 2187-dim chain
#: in about a seventh of its time.
CHAIN_LEVELS = (5, 4, 4, 4, 4)

# Acceptance tolerances (tests/test_acceptance.py, criteria 1, 5, 7-10).
STATIC_ZZ = 875e-6
NULL_TOLERANCE = 5e-6
STARK_SHIFTS = (-7.8e-3, -1.7e-3)
MIN_FIDELITY = 0.999
MAX_LEAKAGE = 1e-3
ZX_REL_TOLERANCE = 0.15
CHAIN_MAX_SHIFT = 1.2e-3


@dataclass
class Op:
    """One attempted operation and whether it met every check."""

    label: str
    ok: bool
    detail: str = ""


@dataclass
class Command:
    key: str
    argv: list[str]
    check: Callable[["Command"], tuple[list[Op], dict]]
    out: str = ""
    transcript: str = ""


def failed_fraction(ops: list[Op]) -> float:
    return sum(not op.ok for op in ops) / len(ops) if ops else 1.0


# ---------------------------------------------------------------------------
# output readers


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _numeric_iterations(path: str) -> int:
    return sum(row["iteration"].isdigit() for row in read_csv(path))


# ---------------------------------------------------------------------------
# checks: each returns (operations, quality figures)


def check_zz(cmd: Command):
    r = read_json(cmd.out)
    shifts = (r["stark_shift_q0"], r["stark_shift_q1"])
    problems = []
    if abs(r["static_zz_numeric"] - STATIC_ZZ) >= 0.05 * STATIC_ZZ:
        problems.append(f"static zz {r['static_zz_numeric']:.4g} GHz not within 5%")
    if abs(r["zz_numeric"]) >= NULL_TOLERANCE:
        problems.append(f"|zz| {abs(r['zz_numeric']):.3g} GHz >= {NULL_TOLERANCE}")
    for got, want in zip(shifts, STARK_SHIFTS):
        if abs(got - want) >= 0.30 * abs(want):
            problems.append(f"Stark shift {got:.4g} GHz not within 30% of {want}")
    ops = [Op(cmd.key, not problems, "; ".join(problems))]
    return ops, {"spectrum.labeling_warnings": int(bool(r["labeling_warning"]))}


def check_sweep(expected_rows: int):
    def check(cmd: Command):
        rows = read_csv(cmd.out)
        ops = [Op(cmd.key, len(rows) == expected_rows,
                  f"{len(rows)} rows, expected {expected_rows}")]
        ops += [Op(f"{cmd.key}[{i}]", not row["error"], row["error"])
                for i, row in enumerate(rows)]
        warnings = sum(int(row["labeling_warning"]) for row in rows)
        return ops, {"spectrum.labeling_warnings": warnings}
    return check


def check_cancel(cmd: Command):
    zz = read_json(cmd.out)["residual_zz"]
    return [Op(cmd.key, abs(zz) < NULL_TOLERANCE, f"residual zz {zz:.3g} GHz")], {}


def check_gate(cmd: Command):
    r = read_json(cmd.out)
    ok = r["fidelity"] >= MIN_FIDELITY and r["leakage"] < MAX_LEAKAGE
    quality = {f"calibrate.{cmd.key}_infidelity": 1.0 - r["fidelity"],
               "calibrate.max_leakage": r["leakage"],
               "calibrate.newton_iterations": _numeric_iterations(cmd.transcript)}
    detail = f"fidelity {r['fidelity']:.6f}, leakage {r['leakage']:.2e}"
    return [Op(cmd.key, ok, detail)], quality


def check_zx(cmd: Command):
    rows = read_csv(cmd.out)
    ops = [Op(cmd.key, len(rows) >= 2, f"{len(rows)} rows")]
    worst = 0.0
    for row in rows:
        problems = []
        for side in ("on", "off"):
            if row[f"error_{side}"]:
                problems.append(row[f"error_{side}"])
                continue
            zx = float(row[f"zx_tomography_{side}"])
            pert = float(row[f"zx_perturbative_{side}"])
            dev = abs(zx - pert) / abs(pert)
            worst = max(worst, dev)
            if not dev <= ZX_REL_TOLERANCE:
                problems.append(f"{side}: ZX off the closed form by {dev:.1%}")
        ops.append(Op(f"{cmd.key}[{row['omega_cr']}]", not problems,
                      "; ".join(problems)))
    return ops, {"pulse.zx_max_rel_dev": worst}


def check_chain(cmd: Command):
    r = read_json(cmd.out)
    worst = max(abs(z) for z in r["residual_zz"])
    shift = max(abs(s) for s in r["stark_shifts"])
    ok = worst < NULL_TOLERANCE and shift <= CHAIN_MAX_SHIFT
    quality = {"calibrate.chain_worst_residual_hz": worst * 1e9,
               "calibrate.chain_max_shift_mhz": shift * 1e3}
    detail = f"worst residual {worst * 1e9:.1f} Hz, max shift {shift * 1e3:.3f} MHz"
    return [Op(cmd.key, ok, detail)], quality


# ---------------------------------------------------------------------------
# inputs


def chain_overrides(chain_doc: dict) -> list[str]:
    """`--set` assignments cutting the chain preset to CHAIN_LEVELS."""
    n = len(CHAIN_LEVELS)
    transmons = [dict(t, levels=levels)
                 for t, levels in zip(chain_doc["transmons"][:n], CHAIN_LEVELS)]
    couplings = [c for c in chain_doc["couplings"] if max(c["endpoints"]) < n]
    compact = {"separators": (",", ":")}
    return [f"transmons={json.dumps(transmons, **compact)}",
            f"couplings={json.dumps(couplings, **compact)}"]


def presets(workload: str) -> list[tuple[str, bool]]:
    """(preset, cut to the benchmark chain) pairs the workload builds."""
    return {"spectral": [("device-a", False), ("device-b-pair", False),
                         ("device-b-chain", True)],
            "pulse": [("device-a", False)]}[workload]


def build(workload: str, seed: int, workdir: str, load_preset) -> list[Command]:
    """The workload's command list for `seed`, writing outputs to `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    rng = random.Random(seed)

    def jitter(spread: float) -> float:
        return 0.0 if seed == 0 else rng.uniform(-spread, spread)

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    def command(key, argv, check, out, transcript=""):
        argv = list(argv) + ["--out", out, "--threads", "1"]
        if transcript:
            argv += ["--transcript", transcript]
        return Command(key, argv, check, out, transcript)

    if workload == "spectral":
        start = rng.uniform(0.0, 0.1) if seed else 0.0
        amp0, amp1 = 0.06 * (1 + jitter(0.05)), 0.06 * (1 + jitter(0.05))
        grid = [f"drives.0.amplitude:0.0:{amp0!r}:{GRID_POINTS}",
                f"drives.1.amplitude:0.0:{amp1!r}:{GRID_POINTS}"]
        phase = f"drives.phase_difference:{start!r}:{start + TWO_PI!r}:{PHASE_POINTS}"
        sets = []
        for assignment in chain_overrides(load_preset("device-b-chain")):
            sets += ["--set", assignment]
        return [
            command("zz", ["zz", "--preset", "device-a"], check_zz, path("zz.json")),
            command("phase_sweep", ["sweep", "--preset", "device-a", "--axis", phase],
                    check_sweep(PHASE_POINTS), path("phase.csv")),
            command("amplitude_grid",
                    ["sweep", "--preset", "device-a", "--axis", grid[0],
                     "--axis", grid[1]],
                    check_sweep(GRID_POINTS ** 2), path("grid.csv")),
            command("cancel", ["calibrate", "cancel", "--preset", "device-b-pair"],
                    check_cancel, path("cancel.json")),
            command("chain", ["calibrate", "chain", "--preset", "device-b-chain",
                              *sets],
                    check_chain, path("chain.json"), path("chain.csv")),
        ]
    lo, hi = 0.008 * (1 + jitter(0.02)), 0.010 * (1 + jitter(0.02))
    return [
        command("cnot", ["calibrate", "cnot", "--preset", "device-a",
                         "--duration", "90"],
                check_gate, path("cnot.json"), path("cnot.csv")),
        command("cz", ["calibrate", "cz", "--preset", "device-a",
                       "--duration", "200", "--gate-frequency", "4.9",
                       "--gate-amplitude", "0.026"],
                check_gate, path("cz.json"), path("cz.csv")),
        command("zx", ["zx", "--preset", "device-a",
                       "--amplitudes", f"{lo!r}:{hi!r}:2"],
                check_zx, path("zx.csv")),
    ]
