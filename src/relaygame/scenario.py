"""Scenario ingestion: built-in presets and schema-versioned JSON files.

A scenario bundles the game parameters, the relay profiles with their link
models, the throughput configuration, the security requirement and an
optional simulation configuration.  SNR fields may be given linear or with a
``_db`` suffix (converted on load); every validation error names the offending
field path.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .channel import LinkModel
from .errors import ValidationError
from .game import GameParams, RelayProfile
from .sim import SimConfig
from .throughput import SecurityRequirement, ThroughputConfig

SCHEMA_VERSION = 1

PRESET_NAMES = ("military", "commercial")


@dataclass(frozen=True)
class Scenario:
    name: str
    game: GameParams
    profiles: tuple[RelayProfile, ...]
    links: tuple[LinkModel, ...]
    throughput: ThroughputConfig
    security: SecurityRequirement
    sim: SimConfig | None = None
    annotations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.profiles) < 1:
            raise ValidationError("scenario needs at least one relay")
        if len(self.profiles) != len(self.links):
            raise ValidationError(
                f"{len(self.profiles)} relay profiles but {len(self.links)} links")
        ids = [pr.id for pr in self.profiles]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate relay ids: {ids}")

    @functools.cached_property
    def _hash(self) -> str:
        # A scenario is frozen, so scenario_hash is worked out once and kept:
        # the provenance of every report bundle asks for it.
        return hashlib.sha256(canonical_json(scenario_to_dict(self)).encode()).hexdigest()


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def _preset_relays() -> tuple[tuple[RelayProfile, ...], tuple[LinkModel, ...]]:
    # Normalized assets (5-i)*0.25; per-hop SNRs track the asset order, the
    # direct path is weaker.  Link values do not affect the equilibrium tables;
    # they are chosen so 1000-bit packet success lands in a usable 0.3-0.75
    # band where the ARQ schemes actually differ.
    profiles, links = [], []
    hop_snr_db = {1: 22.0, 2: 20.0, 3: 18.0, 4: 16.0}
    for i in range(1, 5):
        asset = (5 - i) * 0.25
        profiles.append(RelayProfile(id=i, info_asset=asset, sec_asset=asset))
        links.append(LinkModel(
            target_rate=1.0,
            snr_avg=db_to_linear(10.0),
            pathloss_exp=2.0,
            dist_sr=1.0,
            dist_rd=1.0,
            snr_sd=db_to_linear(13.0),
            snr_sr=db_to_linear(hop_snr_db[i]),
            snr_rd=db_to_linear(hop_snr_db[i]),
        ))
    return tuple(profiles), tuple(links)


def _preset_throughput() -> ThroughputConfig:
    return ThroughputConfig(
        packet_bits=1000,
        hash_bits=160,
        n_messages=4,
        auth_prob=1.0,
        presig_time=0.1,
        data_rate=1_000_000.0,
        reaction_time=0.01,
    )


def _preset_sim(seed: int) -> SimConfig:
    return SimConfig(episodes=200_000, packets_per_episode=1, seed=seed)


def _military() -> Scenario:
    profiles, links = _preset_relays()
    return Scenario(
        name="military",
        game=GameParams(
            detect_rate=0.9, false_alarm_rate=0.05,
            attack_cost=0.01, monitor_cost=0.01, false_alarm_loss=0.01,
            weight_info=0.4, weight_security=0.6,
        ),
        profiles=profiles,
        links=links,
        throughput=_preset_throughput(),
        security=SecurityRequirement(max_compromised_fraction=0.20),
        sim=_preset_sim(seed=42),
        annotations=(
            "assets are carried verbatim as (5-i)*0.25; the weights 0.4/0.6 "
            "only record the security-heavy profile and do not change them",
        ),
    )


def _commercial() -> Scenario:
    profiles, links = _preset_relays()
    return Scenario(
        name="commercial",
        game=GameParams(
            detect_rate=0.6, false_alarm_rate=0.2,
            attack_cost=0.1, monitor_cost=0.1, false_alarm_loss=0.3,
            weight_info=0.6, weight_security=0.4,
        ),
        profiles=profiles,
        links=links,
        throughput=_preset_throughput(),
        security=SecurityRequirement(max_compromised_fraction=0.20),
        sim=_preset_sim(seed=42),
        annotations=(
            "assets are carried verbatim as (5-i)*0.25; the weights 0.6/0.4 "
            "only record the information-heavy profile and do not change them",
            "relay 2 source-selection probability is 0.36538 from the "
            "indifference closed form; the value 0.36583 quoted in some "
            "published tables for this preset transposes the last two digits",
        ),
    )


def presets() -> dict[str, Scenario]:
    return {"military": _military(), "commercial": _commercial()}


# --- the field table -------------------------------------------------------
#
# Every scenario field is read and written through one table, built at import
# from the dataclass fields: a field's type picks its reader, its dataclass
# default is its default.  _WIRE holds the facts the dataclasses do not carry.

_REQUIRED = object()

#: JSON sections outside the relay list, by the Scenario field they fill.
SECTIONS = {"game": GameParams, "throughput": ThroughputConfig,
            "security": SecurityRequirement, "sim": SimConfig}


class _Node:
    """One JSON object of the scenario, with its field path for errors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ValidationError(f"{path}: expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path

    def require(self, key: str):
        if key not in self.data:
            raise ValidationError(f"{self.path}.{key}: missing required field")
        return self.data[key]

    def child(self, key: str) -> "_Node":
        return _Node(self.require(key), f"{self.path}.{key}")

    def absent(self, key: str, default):
        # An explicit JSON null counts as absent, so overrides can unset fields.
        if default is _REQUIRED:
            raise ValidationError(f"{self.path}.{key}: missing required field")
        return default

    def wrong(self, key: str, expected: str, value) -> ValidationError:
        return ValidationError(f"{self.path}.{key}: expected {expected}, got {value!r}")

    def number(self, key: str, default=_REQUIRED) -> float | None:
        value = self.data.get(key)
        if value is None:
            return self.absent(key, default)
        if not (math.isfinite(value) if isinstance(value, float)
                else _is_integer(value) and abs(value) <= sys.float_info.max):
            raise self.wrong(key, "a finite number", value)
        return float(value)

    def checked(self, key: str, default, check, expected: str):
        value = self.data.get(key)
        if value is None:
            return self.absent(key, default)
        if not check(value):
            raise self.wrong(key, expected, value)
        return value

    def integer(self, key: str, default=_REQUIRED) -> int | None:
        return self.checked(key, default, _is_integer, "an integer")

    def boolean(self, key: str, default=_REQUIRED) -> bool:
        return self.checked(key, default, lambda v: isinstance(v, bool), "a boolean")

    def snr(self, key: str, default=_REQUIRED) -> float:
        """Linear value from either ``key`` or ``key_db`` (never both)."""
        has_db = self.data.get(f"{key}_db") is not None
        if not has_db:
            if self.data.get(key) is None:
                raise ValidationError(
                    f"{self.path}.{key}: missing required field ({key} or {key}_db)")
            return self.number(key)
        if self.data.get(key) is not None:
            raise ValidationError(f"{self.path}.{key}: give either {key} or {key}_db, not both")
        value_db = self.number(f"{key}_db")
        try:
            return db_to_linear(value_db)
        except OverflowError:
            raise ValidationError(
                f"{self.path}.{key}_db: {value_db} dB overflows a float") from None

    def auth_prob(self, key: str, default=_REQUIRED):
        """One probability, or an object mapping relay ids to probabilities."""
        if not isinstance(self.data.get(key), dict):
            return self.number(key, default)
        node = _Node(self.data[key], f"{self.path}.{key}")
        out = {}
        for rid in node.data:
            # Only the canonical spelling of an id: "01" or " 1" would name
            # the same relay as "1" and silently overwrite it.
            try:
                relay = int(rid)
            except (TypeError, ValueError):
                relay = None
            if relay is None or str(relay) != str(rid) or relay in out:
                raise ValidationError(
                    f"{node.path}: keys must be distinct integer relay ids, got {rid!r}")
            out[relay] = node.number(rid)
        return out


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _choice(kind: type[enum.Enum]):
    values = [m.value for m in kind]

    def read(node: _Node, key: str, default=_REQUIRED):
        return kind(node.checked(key, default, values.__contains__,
                                 f"one of {', '.join(values)}"))
    return read


def _dump_auth(auth):
    return {str(k): v for k, v in sorted(auth.items())} if isinstance(auth, dict) else auth


#: (reader, writer) overrides: the _db SNR aliases and sim.auth_prob's mapping
#: form.  The fourth wire-only fact, a relay id defaulting to the relay's
#: position, is passed by scenario_from_dict.
_WIRE = {
    **{(LinkModel, name): (_Node.snr, None)
       for name in ("snr_avg", "snr_sd", "snr_sr", "snr_rd")},
    (SimConfig, "auth_prob"): (_Node.auth_prob, _dump_auth),
}


class _Spec(typing.NamedTuple):
    name: str
    read: typing.Callable      # (node, key, default) -> value
    write: typing.Callable | None   # value -> JSON value; None writes it as is
    default: object


def _specs(cls) -> tuple[_Spec, ...]:
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        kind = next(t for t in (*typing.get_args(hints[f.name]), hints[f.name])
                    if t is not type(None))
        read, write = _WIRE.get((cls, f.name), (None, None))
        if read is None and isinstance(kind, type) and issubclass(kind, enum.Enum):
            read, write = _choice(kind), lambda member: member.value
        read = read or {bool: _Node.boolean, int: _Node.integer, float: _Node.number}[kind]
        default = _REQUIRED if f.default is dataclasses.MISSING else f.default
        out.append(_Spec(f.name, read, write, default))
    return tuple(out)


_TABLE = {cls: _specs(cls) for cls in (*SECTIONS.values(), RelayProfile, LinkModel)}


def field_names(cls) -> tuple[str, ...]:
    """Wire names of a scenario dataclass's fields, in declaration order."""
    return tuple(spec.name for spec in _TABLE[cls])


def _read(node: _Node, cls, **defaults):
    values = {}
    for name, read, _, default in _TABLE[cls]:
        values[name] = read(node, name, defaults.get(name, default) if defaults else default)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{node.path}: {exc}") from exc


def _write(obj) -> dict:
    """JSON object of an instance of a dataclass of the table; None is left out."""
    out = {}
    for name, _, write, _ in _TABLE[type(obj)]:
        value = getattr(obj, name)
        if value is not None:
            out[name] = write(value) if write else value
    return out


def scenario_from_dict(data: dict, name: str | None = None) -> Scenario:
    root = _Node(data, "scenario")
    version = root.require("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"scenario.schema_version: unsupported version {version!r} "
            f"(this build reads {SCHEMA_VERSION})")

    relays = root.require("relays")
    if not isinstance(relays, list) or not relays:
        raise ValidationError("scenario.relays: expected a non-empty array")
    profiles, links = [], []
    for k, entry in enumerate(relays):
        node = _Node(entry, f"scenario.relays[{k}]")
        profiles.append(_read(node, RelayProfile, id=k + 1))
        links.append(_read(node.child("link"), LinkModel))

    # The sim section is optional; the others are required.
    sections = {key: _read(root.child(key), cls) for key, cls in SECTIONS.items()
                if key != "sim" or data.get(key) is not None}

    annotations = data.get("annotations", [])
    if not isinstance(annotations, list):
        raise ValidationError("scenario.annotations: expected an array of strings")

    return Scenario(
        name=name or data.get("name", "unnamed"),
        profiles=tuple(profiles),
        links=tuple(links),
        annotations=tuple(str(a) for a in annotations),
        **sections,
    )


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical dict form; load(dump(s)) reproduces every semantic field."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "relays": [{**_write(pr), "link": _write(link)}
                   for pr, link in zip(s.profiles, s.links)],
        "annotations": list(s.annotations),
    }
    for key in SECTIONS:
        if getattr(s, key) is not None:
            out[key] = _write(getattr(s, key))
    return out


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def scenario_hash(s: Scenario) -> str:
    return s._hash


def load_scenario(source: str | Path) -> Scenario:
    """Resolve a preset name or read a scenario JSON file."""
    name = str(source)
    if name in PRESET_NAMES:
        return presets()[name]
    path = Path(source)
    if not path.exists():
        raise ValidationError(
            f"unknown preset or missing file: {source!r} "
            f"(presets: {', '.join(PRESET_NAMES)})")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")
