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
from dataclasses import replace

from .errors import ConfigError
from .operators import CouplingKind, CouplingSpec, DriveTone, SystemSpec, TransmonSpec
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


def check_transmon_pair(pair, num_transmons: int, path: str) -> None:
    """`pair` must be two distinct transmon indices; `path` names it in the error."""
    if (len(pair) != 2 or not all(type(q) is int and 0 <= q < num_transmons for q in pair)
            or pair[0] == pair[1]):
        raise ConfigError(f"must be two distinct transmon indices in "
                          f"[0, {num_transmons - 1}], got {list(pair)}", path)


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
        if t.setdefault("levels", 5) < 2:
            raise ConfigError(f"must be >= 2, got {t['levels']}", f"transmons[{i}].levels")
        if not t["frequency"] > 0:
            raise ConfigError(f"must be positive, got {t['frequency']}",
                              f"transmons[{i}].frequency")
        if t["anharmonicity"] == 0:
            raise ConfigError("must be nonzero", f"transmons[{i}].anharmonicity")
    coupled = set()
    for i, c in enumerate(doc.get("couplings", [])):
        _check_keys(c, _COUPLING_KEYS, f"couplings[{i}]")
        kind = c.get("kind")
        if kind not in ("direct", "bus"):
            raise ConfigError("kind must be 'direct' or 'bus'",
                              f"couplings[{i}].kind")
        endpoints = c.get("endpoints", [])
        check_transmon_pair(endpoints, len(transmons), f"couplings[{i}].endpoints")
        if (kind, frozenset(endpoints)) in coupled:
            raise ConfigError(f"duplicate {kind} coupling on pair {endpoints}",
                              f"couplings[{i}].endpoints")
        coupled.add((kind, frozenset(endpoints)))
    for i, d in enumerate(doc.get("drives", [])):
        _check_keys(d, _DRIVE_KEYS, f"drives[{i}]")
        for key in ("target", "amplitude", "frequency"):
            if key not in d:
                raise ConfigError(f"missing {key}", f"drives[{i}]")
        if not 0 <= d["target"] < len(transmons):
            raise ConfigError(f"must be a transmon index in [0, {len(transmons) - 1}], "
                              f"got {d['target']}", f"drives[{i}].target")
        if not d["amplitude"] >= 0:
            raise ConfigError(f"must be >= 0, got {d['amplitude']}", f"drives[{i}].amplitude")
        d.setdefault("phase", 0.0)
        if d.setdefault("role", "cancellation") != "cancellation":
            raise ConfigError("must be 'cancellation': config drives are "
                              "always-on tones, gate pulses come from schedules",
                              f"drives[{i}].role")
    check_transmon_pair(doc.setdefault("pair", [0, 1]), len(transmons), "pair")
    doc.setdefault("couplings", [])
    doc.setdefault("drives", [])
    if doc.setdefault("frequencies_are_dressed", False):
        for i, t in enumerate(transmons):
            if t["levels"] < 3:  # the bare fit matches each anharmonicity on |2>
                raise ConfigError(f"must be >= 3 for dressed frequencies, got {t['levels']}",
                                  f"transmons[{i}].levels")
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
            DriveTone(d["target"], d["amplitude"], d["frequency"], d["phase"])
            for d in doc["drives"])
        system = SystemSpec(transmons=transmons, couplings=tuple(couplings),
                            drives=drives, dimension_cap=doc["dimension_cap"])
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    if doc["frequencies_are_dressed"]:
        system = replace(system, transmons=_bare_transmons(system.without_drives()))
    return system


def apply_override(document: dict, assignment: str) -> dict:
    """Apply one 'dotted.path=json-value' override to a config document.

    Paths address nested objects and list indices (`drives.0.amplitude`),
    an index being a non-negative integer below the list's length; values
    are parsed as JSON with a bare-word fallback to strings.
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
    for i, part in enumerate(parts):
        where = ".".join(parts[: i + 1])
        if isinstance(node, list):
            if not (part.isdecimal() and int(part) < len(node)):
                raise ConfigError(f"not an index of the {len(node)}-item list", where)
            part = int(part)
        elif not isinstance(node, dict) or (i < len(parts) - 1 and part not in node):
            raise ConfigError("path does not exist", where)
        if i == len(parts) - 1:
            node[part] = value
        else:
            node = node[part]
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
