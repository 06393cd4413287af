"""Scenario file ingestion.

The format is line-oriented key-value text with bracketed sections.  A file
holds one ``[sim]`` section, one ``[av]`` section, and one ``[vehicle]``
section per main-road vehicle; ``#`` at the start of a line or after
whitespace starts a comment.  Headways are either ``fixed:<x>`` or
``normal:<mean>,<sigma>`` (one truncated draw per run).  Unknown sections or
keys are rejected outright, so typos fail loudly.  The full grammar is
documented in the README.
"""

from __future__ import annotations

from pathlib import Path
from typing import get_type_hints

from .runner import AvSpec, HeadwaySpec, SimConfig, VehicleSpec


class ConfigError(ValueError):
    """Raised on any malformed or unknown scenario-file content."""


#: Every scalar SimConfig field but the seed is a [sim] key, cast with its
#: annotated type.  The seed comes from the command line, run by run.
_SIM_KEYS = {
    name: kind for name, kind in get_type_hints(SimConfig).items() if name not in ("vehicles", "av", "seed")
}
#: The AvSpec field each [av] key sets; omitted keys keep the AvSpec defaults.
_AV_FIELDS = {"d": "dist_to_merge", "v": "speed", "omega": "omega"}
_AV_KEYS = {key: get_type_hints(AvSpec)[name] for key, name in _AV_FIELDS.items()}
_VEHICLE_KEYS = {"id": str, "lane": str, "d": float, "v": float, "headway": str}


def _parse_headway(text: str, where: str) -> HeadwaySpec:
    kind, _, rest = text.partition(":")
    if kind == "fixed":
        try:
            return HeadwaySpec(kind="fixed", value=float(rest))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad fixed headway {text!r}: {exc}") from exc
    if kind == "normal":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{where}: normal headway needs mean,sigma, got {text!r}")
        try:
            return HeadwaySpec(kind="normal", value=float(parts[0]), sigma=float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad normal headway {text!r}: {exc}") from exc
    raise ConfigError(f"{where}: headway must be fixed:<x> or normal:<mean>,<sigma>, got {text!r}")


def _sections(text: str, source: str) -> list[tuple[str, dict[str, str], int]]:
    out: list[tuple[str, dict[str, str], int]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")  # a comment opens the line or follows whitespace
        while cut > 0 and not raw[cut - 1].isspace():
            cut = raw.find("#", cut + 1)
        line = (raw if cut < 0 else raw[:cut]).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            current = {}
            out.append((name, current, lineno))
            continue
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key-value line before any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw.strip()!r}")
        key = key.strip().lower()
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        current[key] = value.strip()
    return out


def _typed(raw: dict[str, str], allowed: dict, section: str, source: str) -> dict:
    out = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
        caster = allowed[key]
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key!r} in [{section}]: {value!r}") from exc
    return out


def parse_scenario(text: str, source: str = "<string>") -> SimConfig:
    sim_kwargs: dict = {}
    av_kwargs: dict = {}
    vehicles: list[VehicleSpec] = []
    seen_sim = seen_av = False

    for name, raw, lineno in _sections(text, source):
        if name == "sim":
            if seen_sim:
                raise ConfigError(f"{source}:{lineno}: duplicate [sim] section")
            seen_sim = True
            sim_kwargs = _typed(raw, _SIM_KEYS, "sim", source)
        elif name == "av":
            if seen_av:
                raise ConfigError(f"{source}:{lineno}: duplicate [av] section")
            seen_av = True
            av_kwargs = {_AV_FIELDS[key]: value for key, value in _typed(raw, _AV_KEYS, "av", source).items()}
        elif name == "vehicle":
            typed = _typed(raw, _VEHICLE_KEYS, "vehicle", source)
            for required in ("id", "d", "v", "headway"):
                if required not in typed:
                    raise ConfigError(f"{source}:{lineno}: [vehicle] missing key {required!r}")
            lane = typed.get("lane", "main").lower()
            if lane != "main":
                raise ConfigError(f"{source}:{lineno}: only main-lane vehicles are configurable, got {lane!r}")
            headway = _parse_headway(typed["headway"], f"{source}:{lineno}")
            try:
                vehicles.append(VehicleSpec(typed["id"], typed["d"], typed["v"], headway))
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: {exc}") from exc
        else:
            raise ConfigError(f"{source}:{lineno}: unknown section [{name}]")

    if not vehicles:
        raise ConfigError(f"{source}: no [vehicle] sections found")
    try:
        return SimConfig(vehicles=tuple(vehicles), av=AvSpec(**av_kwargs), **sim_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_scenario(path: str | Path) -> SimConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {p}: {exc}") from exc
    return parse_scenario(text, source=str(p))
