"""Strict device-configuration documents and shipped presets.

Configs are JSON with a fixed, typed schema: unknown keys fail fast with
the offending key path.  Units are GHz for frequencies and amplitudes,
ns for times, radians for phases.  Presets encode the measured two-qubit
device (with the bare-parameter fit applied at load), the multi-path
coupler pair, and a seven-qubit chain.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import importlib.resources
import json
import math
from dataclasses import replace

from .errors import ConfigError
from .operators import (CouplingKind, CouplingSpec, DriveRole, DriveTone,
                        SystemSpec, TransmonSpec)
from .spectrum import fit_bare_transmons

PRESETS = ("device-a", "device-b-pair", "device-b-chain")

_TRANSMON_KEYS = {"frequency": (int, float), "anharmonicity": (int, float),
                  "levels": (int,)}
_COUPLING_KEYS = {"kind": (str,), "endpoints": (list,), "strength": (int, float),
                  "bus_frequency": (int, float), "bus_couplings": (list,),
                  "bus_levels": (int,)}
_DRIVE_KEYS = {"target": (int,), "amplitude": (int, float),
               "frequency": (int, float), "phase": (int, float), "role": (str,)}
_TOP_KEYS = {"name": (str,), "description": (str,),
             "frequencies_are_dressed": (bool,), "dimension_cap": (int,),
             "transmons": (list,), "couplings": (list,), "drives": (list,),
             "pair": (list,)}


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"expected an object, got {type(mapping).__name__}",
                          path)
    for key, value in mapping.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}" if path else key)
        if not isinstance(value, allowed[key]):
            names = "/".join(t.__name__ for t in allowed[key])
            raise ConfigError(f"expected {names}, got {type(value).__name__}",
                              f"{path}.{key}" if path else key)


def validate_config(document: dict) -> dict:
    """Validate a config document against the strict schema.

    Returns a deep copy with defaults filled in; raises ConfigError with
    the offending key path otherwise.
    """
    _check_keys(document, _TOP_KEYS, "")
    doc = copy.deepcopy(document)
    transmons = doc.get("transmons")
    if not transmons:
        raise ConfigError("at least one transmon required", "transmons")
    for i, t in enumerate(transmons):
        _check_keys(t, _TRANSMON_KEYS, f"transmons[{i}]")
        for key in ("frequency", "anharmonicity"):
            if key not in t:
                raise ConfigError(f"missing {key}", f"transmons[{i}]")
        t.setdefault("levels", 5)
    for i, c in enumerate(doc.get("couplings", [])):
        _check_keys(c, _COUPLING_KEYS, f"couplings[{i}]")
        kind = c.get("kind")
        if kind not in ("direct", "bus"):
            raise ConfigError("kind must be 'direct' or 'bus'",
                              f"couplings[{i}].kind")
        if len(c.get("endpoints", [])) != 2:
            raise ConfigError("endpoints must be a pair",
                              f"couplings[{i}].endpoints")
    for i, d in enumerate(doc.get("drives", [])):
        _check_keys(d, _DRIVE_KEYS, f"drives[{i}]")
        for key in ("target", "amplitude", "frequency"):
            if key not in d:
                raise ConfigError(f"missing {key}", f"drives[{i}]")
        d.setdefault("phase", 0.0)
        role = d.setdefault("role", "cancellation")
        if role not in ("cancellation", "gate"):
            raise ConfigError("role must be 'cancellation' or 'gate'",
                              f"drives[{i}].role")
    pair = doc.setdefault("pair", [0, 1])
    if (len(pair) != 2 or not all(type(q) is int and 0 <= q < len(transmons) for q in pair)
            or pair[0] == pair[1]):
        raise ConfigError(f"must be two distinct transmon indices in "
                          f"[0, {len(transmons) - 1}], got {pair}", "pair")
    doc.setdefault("couplings", [])
    doc.setdefault("drives", [])
    doc.setdefault("frequencies_are_dressed", False)
    doc.setdefault("dimension_cap", 16384)
    doc.setdefault("name", "unnamed")
    return doc


@functools.lru_cache(maxsize=128)
def _bare_transmons(measured: SystemSpec) -> tuple[TransmonSpec, ...]:
    """Bare transmons of an undriven system whose transmons hold measured values."""
    return fit_bare_transmons(measured,
                              [t.frequency for t in measured.transmons],
                              [t.anharmonicity for t in measured.transmons]).transmons


def to_system(document: dict) -> SystemSpec:
    """Build the SystemSpec from a validated config document.

    When `frequencies_are_dressed` is set, the listed frequencies and
    anharmonicities are measured (coupling-dressed) values; the bare
    parameters are fit numerically before assembly.  The fit ignores
    drives, so it is memoised on the undriven system: a sweep that edits
    only drives fits once.
    """
    doc = validate_config(document)
    try:
        transmons = tuple(
            TransmonSpec(t["frequency"], t["anharmonicity"], t["levels"])
            for t in doc["transmons"])
        couplings = []
        for c in doc["couplings"]:
            if c["kind"] == "direct":
                couplings.append(CouplingSpec(
                    CouplingKind.DIRECT, tuple(c["endpoints"]),
                    strength=c.get("strength")))
            else:
                couplings.append(CouplingSpec(
                    CouplingKind.BUS, tuple(c["endpoints"]),
                    bus_frequency=c.get("bus_frequency"),
                    bus_couplings=tuple(c.get("bus_couplings", ())),
                    bus_levels=c.get("bus_levels", 3)))
        drives = tuple(
            DriveTone(d["target"], d["amplitude"], d["frequency"], d["phase"],
                      DriveRole(d["role"]))
            for d in doc["drives"])
        system = SystemSpec(transmons=transmons, couplings=tuple(couplings),
                            drives=drives, dimension_cap=doc["dimension_cap"])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    if doc["frequencies_are_dressed"]:
        system = replace(system, transmons=_bare_transmons(system.without_drives()))
    return system


def apply_override(document: dict, assignment: str) -> dict:
    """Apply one 'dotted.path=json-value' override to a config document.

    Paths address nested objects and list indices (`drives.0.amplitude`);
    values are parsed as JSON with a bare-word fallback to strings.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    doc = copy.deepcopy(document)
    parts = path.split(".")
    node = doc
    for i, part in enumerate(parts[:-1]):
        key = int(part) if isinstance(node, list) else part
        try:
            node = node[key]
        except (KeyError, IndexError, ValueError, TypeError):
            raise ConfigError("path does not exist", ".".join(parts[: i + 1]))
    leaf = parts[-1]
    key = int(leaf) if isinstance(node, list) else leaf
    if isinstance(node, list):
        if not (0 <= key < len(node)):
            raise ConfigError("index out of range", path)
    elif not isinstance(node, dict):
        raise ConfigError("path does not address an object or list", path)
    node[key] = value
    return doc


def with_levels(document: dict, levels: int) -> dict:
    doc = copy.deepcopy(document)
    for t in doc.get("transmons", []):
        t["levels"] = levels
    return doc


def config_hash(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}", path)
    return validate_config(document)


def load_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    resource = importlib.resources.files("starkzz.presets").joinpath(
        name.replace("-", "_") + ".json")
    return validate_config(json.loads(resource.read_text()))
