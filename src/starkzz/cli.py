"""Configuration-driven command-line front end.

Subcommands evaluate single operating points (`zz`), parameter sweeps as
CSV (`sweep`), entangling-rate curves (`zx`), and calibration routines
(`calibrate`).  All output is deterministic for a given config and seed:
CSV files carry a `#` header block with the tool version, config hash,
seed, and per-column units, and floats are printed with 12 significant
digits.  Exit codes: 0 success, 2 validation, 3 nonconvergence,
4 numerical failure.

The gate layers load with the commands that run them: `cmd_zx` imports
`pulse` and `cmd_calibrate` imports `calibrate` and `pulse`, so `zz` and
`sweep` load neither (`--dt` defaults to `pulse.DEFAULT_DT` where a
command propagates).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .config import (apply_override, check_transmon_pair, config_hash, load_config,
                     load_preset, validate_config, to_system, with_levels)
from .errors import (ConfigError, NonconvergenceError, SingularDetuningError,
                     StarkZZError)
from .perturbation import (PerturbativeInputs, sizzle_zz, static_zz,
                           zx_with_cancellation)
from .spectrum import (AMBIGUOUS_OVERLAP, DRIVE_AXES, apply_drive_axis,
                       driven_pair_rates, map_points, pair_rates, static_spectrum,
                       undriven_reference)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_NUMERICAL = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header_lines: list[str], columns: list[str], rows) -> None:
    """`#` header lines, then the table with the csv module's minimal quoting."""
    buffer = io.StringIO()
    buffer.writelines(f"# {line}\n" for line in header_lines)
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    text = buffer.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_header(doc, seed, units: dict[str, str], dt: float | None = None) -> list[str]:
    """Header lines; `dt`, the largest propagation step, for commands that propagate."""
    lines = [f"tool: starkzz {__version__}",
             f"config: {doc.get('name', 'unnamed')} hash {config_hash(doc)}",
             f"seed: {seed}"]
    if dt is not None:
        lines.append(f"dt: {_fmt(dt)}")
    lines.extend(f"column {name}: {unit}" for name, unit in units.items())
    return lines


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# zz

def cmd_zz(args) -> int:
    doc = _effective_config(args)
    system = to_system(doc)
    q0, q1 = doc["pair"]
    reference = undriven_reference(system)
    static_numeric = pair_rates(static_spectrum(system), q0, q1).zz
    inputs = PerturbativeInputs.for_pair(system, q0, q1)
    static_pert = static_zz(inputs)
    flagged = False
    if system.drives:
        rates = driven_pair_rates(system, q0, q1, reference=reference)
        flagged = rates.ambiguous
        zz_numeric = rates.zz
        shifts = (rates.stark_shift_q0, rates.stark_shift_q1)
        zz_pert = sizzle_zz(inputs)
    else:
        zz_numeric = static_numeric
        shifts = (0.0, 0.0)
        zz_pert = static_pert
    report = {
        "pair": [q0, q1],
        "zz_numeric": zz_numeric,
        "zz_perturbative": zz_pert,
        "static_zz_numeric": static_numeric,
        "static_zz_perturbative": static_pert,
        "stark_shift_q0": shifts[0],
        "stark_shift_q1": shifts[1],
        "discrepancy_zz": zz_numeric - zz_pert,
        "discrepancy_static": static_numeric - static_pert,
        "labeling_warning": flagged,
        "units": "GHz",
        "config_hash": config_hash(doc),
    }
    print(f"pair ({q0}, {q1})")
    print(f"  zz numeric        {zz_numeric * 1e6:12.4f} kHz")
    print(f"  zz perturbative   {zz_pert * 1e6:12.4f} kHz")
    print(f"  static numeric    {static_numeric * 1e6:12.4f} kHz")
    print(f"  static form       {static_pert * 1e6:12.4f} kHz")
    print(f"  stark shifts      {shifts[0] * 1e3:9.4f} / {shifts[1] * 1e3:.4f} MHz")
    if args.out:
        _write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def _parse_grid(spec: str, flag: str) -> np.ndarray:
    """START:STOP:COUNT as a grid; errors quote `spec` and name `flag`."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{spec!r} must be START:STOP:COUNT", flag)
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{spec!r}: {exc}", flag)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{spec!r}: start and stop must be finite", flag)
    if count < 2:
        raise ConfigError(f"{spec!r}: count must be >= 2", flag)
    if start == stop:
        raise ConfigError(f"{spec!r}: start and stop must differ", flag)
    return np.linspace(start, stop, count)


def _parse_axis(spec: str, flag: str):
    """PATH:START:STOP:COUNT as (path, grid); errors name `flag`."""
    if spec.count(":") != 3:
        raise ConfigError(f"axis {spec!r} must be PATH:START:STOP:COUNT", flag)
    path, _, grid = spec.partition(":")
    return path, _parse_grid(grid, flag)


def cmd_sweep(args) -> int:
    doc = _effective_config(args)
    axes = [_parse_axis(spec, "--axis") for spec in args.axis]
    if not 1 <= len(axes) <= 2:
        raise ConfigError("one or two --axis definitions required")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError(f"{axes[0][0]!r}: given twice", "--axis")
    q0, q1 = doc["pair"]

    grid = [(v,) for v in axes[0][1]]
    if len(axes) == 2:
        grid = [(v1, v2) for v1 in axes[0][1] for v2 in axes[1][1]]

    base_system = to_system(doc)
    reference = undriven_reference(base_system)

    def evaluate(point):
        # Config paths edit the document; the drive axes then edit its system.
        modified = doc
        for (path, _), value in zip(axes, point):
            if path not in DRIVE_AXES:
                modified = apply_override(modified, f"{path}={float(value)!r}")
        try:
            system = base_system if modified is doc else to_system(modified)
            for (path, _), value in zip(axes, point):
                if path in DRIVE_AXES:
                    system = apply_drive_axis(system, path, float(value))
            rates = driven_pair_rates(system, q0, q1, reference=reference)
            try:
                pert = sizzle_zz(PerturbativeInputs.for_pair(system, q0, q1))
            except SingularDetuningError:
                pert = float("nan")
            return (*point, rates.zz, pert, rates.zi, rates.iz,
                    int(rates.ambiguous), "")
        except StarkZZError as exc:
            return (*point, float("nan"), float("nan"), float("nan"),
                    float("nan"), 0, f"{type(exc).__name__}: {exc}")

    rows = map_points(evaluate, grid, args.threads)

    axis_names = [path for path, _ in axes]
    columns = axis_names + ["zz_numeric", "zz_perturbative", "zi", "iz",
                            "labeling_warning", "error"]
    units = {name: "axis value" for name in axis_names}
    units.update({"zz_numeric": "GHz", "zz_perturbative": "GHz", "zi": "GHz",
                  "iz": "GHz", "labeling_warning": "0/1", "error": "text"})
    write_csv(args.out, _csv_header(doc, args.seed, units), columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# zx

def cmd_zx(args) -> int:
    from .pulse import DEFAULT_DT, OperatingFrame, extract_pauli_rates
    doc = _effective_config(args)
    dt = DEFAULT_DT if args.dt is None else args.dt
    system = to_system(doc)
    if system.num_transmons != 2:
        raise ConfigError("zx requires a two-transmon config")
    q0, q1 = doc["pair"]
    control, target = (args.control, args.target)
    check_transmon_pair([control, target], system.num_transmons, "--control/--target")
    values = _parse_grid(args.amplitudes, "--amplitudes")

    # One frame per (system, frequency) for all amplitudes: tones on, the operating
    # frame; tones off, a probe at the target's bare frequency and one at its dressed one.
    frame = functools.cache(OperatingFrame)
    variants = (system, system.without_drives())
    rows = []
    for omega in values:
        row = [float(omega)]
        for variant in variants:
            try:
                if omega == 0.0:
                    tomo = 0.0
                else:
                    if variant.drives:
                        tomography = frame(variant)
                        carrier = tomography.dressed_frequency(target)
                    else:
                        probe = frame(variant, variant.transmons[target].frequency)
                        carrier = probe.dressed_frequency(target)
                        tomography = frame(variant, carrier)
                    rates = extract_pauli_rates(variant, float(omega), carrier,
                                                control, target, dt=dt, frame=tomography)
                    tomo = rates["ZX"]
                inputs = PerturbativeInputs.for_pair(variant, q0, q1)
                pert = float(zx_with_cancellation(
                    replace(inputs, omega_cr=float(omega)), cr_on=control))
                row.extend([tomo, pert, ""])
            except StarkZZError as exc:
                row.extend([float("nan"), float("nan"),
                            f"{type(exc).__name__}: {exc}"])
        rows.append(tuple(row))

    columns = ["omega_cr", "zx_tomography_on", "zx_perturbative_on", "error_on",
               "zx_tomography_off", "zx_perturbative_off", "error_off"]
    units = {c: ("text" if c.startswith("error") else "GHz") for c in columns}
    write_csv(args.out, _csv_header(doc, args.seed, units, dt), columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(args) -> int:
    from .calibrate import (CNOT_RISE_SIGMAS, CZ_RISE_SIGMAS, GATE_SIGMA,
                            chain_cancellation, calibrate_cnot, calibrate_cz,
                            find_cancellation_amplitude)
    from .pulse import DEFAULT_DT, schedule_to_document
    doc = _effective_config(args)
    positive = {"--gate-frequency": args.gate_frequency, "--max-scale": args.max_scale,
                "--drive-frequency": args.drive_frequency, "--seed-shift": args.seed_shift}
    for flag, value in positive.items():
        if not 0.0 < value < math.inf:
            raise ConfigError(f"must be positive and finite, got {value}", flag)
    if not 0.0 <= args.gate_amplitude < math.inf:
        raise ConfigError(f"must be non-negative and finite, got {args.gate_amplitude}",
                          "--gate-amplitude")
    system = to_system(doc)
    transcript_rows: list[tuple] = []
    transcript_columns: list[str] = []

    if args.gate == "cancel":
        scale = find_cancellation_amplitude(system, *doc["pair"],
                                            max_scale=args.max_scale)
        drives = apply_drive_axis(system, "drives.scale", scale).drives
        rates = driven_pair_rates(system.with_drives(drives), *doc["pair"],
                                  reference=undriven_reference(system))
        result = {
            "routine": "cancel",
            "scale": scale,
            "amplitudes": [d.amplitude for d in drives],
            "phases": [d.phase for d in drives],
            "drive_frequency": drives[0].frequency if drives else None,
            "residual_zz": rates.zz,
            "stark_shifts": [rates.stark_shift_q0, rates.stark_shift_q1],
        }
        transcript_columns = ["scale", "residual_zz"]
        transcript_rows = [(scale, rates.zz)]
        print(f"cancellation scale {scale:.6g}; residual zz "
              f"{rates.zz * 1e6:.3f} kHz")
    elif args.gate == "chain":
        highest = max(t.frequency for t in system.transmons)
        if not args.drive_frequency > highest:
            raise ConfigError(f"must sit above every qubit (highest {highest:.6g} GHz), "
                              f"got {args.drive_frequency}", "--drive-frequency")
        solution = chain_cancellation(system, args.drive_frequency,
                                      seed_stark_shift=args.seed_shift)
        result = {
            "routine": "chain",
            "amplitudes": list(solution.amplitudes),
            "phases": list(solution.phases),
            "drive_frequency": solution.drive_frequency,
            "residual_zz": list(solution.residual_zz),
            "stark_shifts": list(solution.stark_shifts),
            "min_overlap": solution.min_overlap,
            "labeling_warning": solution.min_overlap < AMBIGUOUS_OVERLAP,
        }
        transcript_columns, transcript_rows = _transcript_table(solution.transcript)
        worst = max(abs(r) for r in solution.residual_zz)
        print(f"chain cancelled: worst residual {worst * 1e6:.3f} kHz, "
              f"max shift {max(abs(s) for s in solution.stark_shifts) * 1e3:.3f} MHz")
    else:
        check_transmon_pair([args.control, args.target], system.num_transmons,
                            "--control/--target")
        rise = CNOT_RISE_SIGMAS if args.gate == "cnot" else CZ_RISE_SIGMAS
        shortest = 2.0 * rise * GATE_SIGMA
        if not shortest <= args.duration < math.inf:
            raise ConfigError(f"must cover the {shortest:g} ns rise plus fall of the "
                              f"{args.gate} pulse, got {args.duration}", "--duration")
        pair = {"control": args.control, "target": args.target}
        dt = DEFAULT_DT if args.dt is None else args.dt
        if args.gate == "cnot":
            cal = calibrate_cnot(system, args.duration, dt=dt, **pair)
        else:
            cal = calibrate_cz(system, args.duration, args.gate_frequency,
                               args.gate_amplitude, dt=dt, **pair)
        gate = cal.result  # scored from the calibration's own propagation
        result = {
            "routine": args.gate,
            **{f.name: getattr(cal, f.name) for f in fields(cal)
               if f.name not in ("converged", "transcript", "result")},
            "fidelity": gate.fidelity,
            "leakage": gate.leakage,
            "dt": dt,
            "schedule": schedule_to_document(gate.schedule),
        }
        transcript_columns, transcript_rows = _transcript_table(cal.transcript)
        print(f"{args.gate.upper()} converged in {cal.iterations} iterations: "
              f"fidelity {gate.fidelity:.6f}, leakage {gate.leakage:.2e}")

    result["config_hash"] = config_hash(doc)
    if args.out:
        _write_json(args.out, result)
    if args.transcript:
        write_csv(args.transcript, _csv_header(doc, args.seed, {}),
                  transcript_columns, transcript_rows)
    return EXIT_OK


def _transcript_table(transcript):
    keys = list(dict.fromkeys(key for row in transcript for key in row))
    rows = [tuple(row.get(key, "") for key in keys) for row in transcript]
    return keys, rows


# ---------------------------------------------------------------------------
# entry point

def _effective_config(args) -> dict:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    doc = load_config(args.config) if args.config else load_preset(args.preset)
    for assignment in args.set or []:
        doc = apply_override(doc, assignment)
    if args.levels is not None:
        if args.levels < 2:
            raise ConfigError(f"must be at least 2, got {args.levels}", "--levels")
        doc = with_levels(doc, args.levels)
    if args.dt is not None and not 0.0 < args.dt < math.inf:
        raise ConfigError(f"must be a positive step in ns, got {args.dt}", "--dt")
    if args.threads < 1:
        raise ConfigError(f"must be at least 1, got {args.threads}", "--threads")
    return validate_config(doc)


def _add_common(parser) -> None:
    parser.add_argument("--config", help="path to a JSON device config")
    parser.add_argument("--preset", help="name of a shipped preset")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry (dotted path, JSON value)")
    parser.add_argument("--out", help="output path (JSON or CSV by subcommand)")
    parser.add_argument("--levels", type=int, help="override transmon truncation")
    parser.add_argument("--dt", type=float,
                        help="largest propagation step in ns (default "
                             "pulse.DEFAULT_DT; fourth-order commutator-free "
                             "Magnus steps, error ~ dt^4)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweep grids (N >= 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in output headers (all fits are "
                             "deterministic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkzz",
        description="Stark-tone ZZ crosstalk simulator and gate calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_zz = sub.add_parser("zz", help="rates at one operating point")
    _add_common(p_zz)
    p_zz.set_defaults(func=cmd_zz)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", action="append", required=True,
                         metavar="PATH:START:STOP:COUNT",
                         help="sweep axis (max two): a config path or one "
                              "of " + ", ".join(DRIVE_AXES))
    p_sweep.set_defaults(func=cmd_sweep)

    p_zx = sub.add_parser("zx", help="entangling-rate curve to CSV")
    _add_common(p_zx)
    p_zx.add_argument("--amplitudes", required=True, metavar="START:STOP:COUNT",
                      help="entangling-tone amplitude axis in GHz")
    p_zx.add_argument("--control", type=int, default=1)
    p_zx.add_argument("--target", type=int, default=0)
    p_zx.set_defaults(func=cmd_zx)

    p_cal = sub.add_parser("calibrate", help="run a calibration routine")
    _add_common(p_cal)
    p_cal.add_argument("gate", choices=["cnot", "cz", "cancel", "chain"])
    p_cal.add_argument("--duration", type=float, default=90.0,
                       help="gate duration in ns")
    p_cal.add_argument("--gate-frequency", type=float, default=4.9,
                       help="pulsed-tone frequency for cz (GHz)")
    p_cal.add_argument("--gate-amplitude", type=float, default=0.026,
                       help="pulsed-tone amplitude for cz (GHz)")
    p_cal.add_argument("--control", type=int, default=1)
    p_cal.add_argument("--target", type=int, default=0)
    p_cal.add_argument("--drive-frequency", type=float, default=5.1,
                       help="common tone frequency for chain (GHz)")
    p_cal.add_argument("--seed-shift", type=float, default=1e-3,
                       help="|Stark shift| of qubit 0 with every chain tone on (GHz)")
    p_cal.add_argument("--max-scale", type=float, default=30.0,
                       help="largest scale (x template) the cancel search may step to")
    p_cal.add_argument("--transcript", help="per-iteration transcript CSV path")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        for row in exc.transcript[-5:]:
            print(f"  {row}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except StarkZZError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
