"""Run configuration: one JSON file shared by every pipeline stage.

Each section is read through the dataclass that declares its settings
(`SearchConfig`, `DecodeConfig`, `Paths`, `SyntheticCorpusConfig`, and
`BackendConfig` for each endpoint): a field with no default is required, every
other field takes the dataclass default, and a key that names no field is a
ConfigError. The reward and search knobs (beta, gamma, c, K, R, depths, seeds)
have no defaults, so no experiment silently depends on baked-in values. The
hash of the settings that decide a run's outputs is embedded in dataset
provenance to keep corpora regenerable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

from .backends.base import SCORE_MODES, BackendConfig
from .dataset import MODES
from .decoding import DecodeConfig
from .jsonio import canonical_json
from .mcts import SearchConfig
from .synthetic import SyntheticCorpusConfig

MODE_FLAGS = tuple(mode for mode in MODES if mode != "hybrid")


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


@dataclass(frozen=True)
class Paths:
    output_dir: str
    problems_file: str | None = None
    cache_dir: str | None = None


@dataclass(frozen=True)
class HttpBackend:
    """One http backend role, parsed. The verifier's `endpoint` is its math
    tool and `judger` its judger model; only the scorer has a `score_mode`."""

    endpoint: BackendConfig
    judger: BackendConfig | None = None
    score_mode: str | None = None


@dataclass(frozen=True)
class RunConfig:
    search: SearchConfig
    decode: DecodeConfig
    paths: Paths
    backends: dict = field(default_factory=dict)  # role -> HttpBackend, None if synthetic
    mode: str = "hybrid"
    workers: int = 1
    synthetic: SyntheticCorpusConfig | None = None

    def __post_init__(self):
        if type(self.workers) is not int or self.workers < 1:  # a JSON true is a bool
            raise ConfigError("workers must be an integer >= 1")

    @property
    def config_hash(self) -> str:
        """16 hex digits of the sha256 of the settings that decide a run's
        outputs: search, decode, mode, the corpus, and per http role its
        endpoints' model and temperature plus its score_mode. Paths, workers,
        URLs, credentials, timeouts, retries and rate limits change where or
        how fast a run goes, not what it writes, so they are left out."""
        def backend(spec: HttpBackend | None):
            if spec is None:
                return None
            endpoints = [{"model_name": cfg.model_name, "temperature": cfg.temperature}
                         for cfg in (spec.endpoint, spec.judger) if cfg is not None]
            return {"endpoints": endpoints, "score_mode": spec.score_mode}

        semantic = {
            "search": asdict(self.search),
            "decode": asdict(self.decode),
            "mode": self.mode,
            "synthetic": None if self.synthetic is None else asdict(self.synthetic),
            "backends": {role: backend(spec) for role, spec in self.backends.items()},
        }
        return hashlib.sha256(canonical_json(semantic).encode("utf-8")).hexdigest()[:16]

    def with_overrides(self, seed: int | None = None, mode: str | None = None,
                       workers: int | None = None) -> "RunConfig":
        """CLI overrides: one run seed replaces every per-stage seed."""
        changes = {}
        if seed is not None:
            changes["search"] = replace(self.search, rng_seed=seed)
            changes["decode"] = replace(self.decode, rng_seed=seed)
            if self.synthetic is not None:
                changes["synthetic"] = replace(self.synthetic, seed=seed)
        if mode is not None:
            changes["mode"] = mode
        if workers is not None:
            changes["workers"] = workers
        return replace(self, **changes)


def _section(raw: dict, name: str) -> dict:
    if name not in raw:
        raise ConfigError(f"missing required field: config.{name}")
    if not isinstance(raw[name], dict):
        raise ConfigError(f"config.{name} must be an object")
    return raw[name]


def _reject_unknown(section: dict, known, path: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key: {path}.{key}")


def _integer(value, path: str) -> int:
    if type(value) is not int:  # a JSON true is a bool, 2.0 a float
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _integers(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list of integers")
    return tuple(_integer(item, path) for item in value)


def _convert(hint, value, path: str):
    """A JSON value as its field's type. An int field takes only a JSON
    integer, a float field only a finite JSON number, and pairs and int
    tuples take lists of integers; any other field takes the value as is."""
    if hint is int:
        return _integer(value, path)
    if hint is float:
        return _number(value, path)
    if hint == tuple[int, int]:
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{path} must be a [low, high] pair")
        return _integers(value, path)
    if hint == tuple[int, ...]:
        return _integers(value, path)
    return value


def _read(cls, section: dict, path: str, skip=()):
    """Build dataclass `cls` from one config section. The fields are the
    section's keys (plus the `skip` keys, which the caller reads); a field
    with no default is required, any other takes the dataclass default."""
    declared = fields(cls)
    _reject_unknown(section, {f.name for f in declared} | set(skip), path)
    hints = get_type_hints(cls)
    values = {}
    try:
        for f in declared:
            if f.name in section:
                values[f.name] = _convert(hints[f.name], section[f.name], f"{path}.{f.name}")
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required field: {path}.{f.name}")
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as err:  # a conversion or the dataclass's own check
        raise ConfigError(f"{path}: {err}") from err


def _paths(section: dict, base_dir: Path) -> Paths:
    paths = _read(Paths, section, "paths")
    if not isinstance(paths.output_dir, str) or not paths.output_dir:
        raise ConfigError("paths.output_dir must be a non-empty string")

    def resolve(value):
        if value is None:
            return None
        path = Path(value)
        return str(path if path.is_absolute() else base_dir / path)

    problems_file = resolve(paths.problems_file)
    if problems_file is not None and not Path(problems_file).exists():
        raise ConfigError(f"paths.problems_file does not exist: {problems_file}")
    return Paths(resolve(paths.output_dir), problems_file, resolve(paths.cache_dir))


def _mode(raw: dict) -> str:
    section = raw.get("mode", {})
    if not isinstance(section, dict):
        raise ConfigError("config.mode must be an object of boolean flags")
    unknown = set(section) - set(MODE_FLAGS)
    if unknown:
        raise ConfigError(f"unknown mode flags: {', '.join(sorted(unknown))}")
    for flag, value in section.items():
        if not isinstance(value, bool):
            raise ConfigError(f"mode.{flag} must be a boolean")
    active = [flag for flag in MODE_FLAGS if section.get(flag)]
    if len(active) > 1:
        raise ConfigError("modes mutually exclusive")
    return active[0] if active else "hybrid"


def _synthetic(raw: dict) -> SyntheticCorpusConfig | None:
    if raw.get("synthetic") is None:
        return None
    return _read(SyntheticCorpusConfig, _section(raw, "synthetic"), "synthetic")


_BACKEND_ROLES = ("generator", "verifier", "scorer")


def _http_backend(role: str, spec: dict) -> HttpBackend:
    path = f"backends.{role}"
    if role == "verifier":
        if not all(isinstance(spec.get(key), dict) for key in ("tool", "judger")):
            raise ConfigError("backends.verifier needs tool and judger endpoint objects")
        _reject_unknown(spec, ("kind", "tool", "judger"), path)
        return HttpBackend(
            _read(BackendConfig, spec["tool"], f"{path}.tool"),
            judger=_read(BackendConfig, spec["judger"], f"{path}.judger"),
        )
    if role != "scorer":
        return HttpBackend(_read(BackendConfig, spec, path, skip=("kind",)))
    score_mode = spec.get("score_mode", "label")
    if score_mode not in SCORE_MODES:
        raise ConfigError(f"{path}.score_mode must be {' or '.join(SCORE_MODES)}")
    return HttpBackend(_read(BackendConfig, spec, path, skip=("kind", "score_mode")),
                       score_mode=score_mode)


def _backends(raw: dict) -> dict:
    backends = dict.fromkeys(_BACKEND_ROLES)
    section = raw.get("backends")
    if section is None:
        return backends
    if not isinstance(section, dict):
        raise ConfigError("config.backends must be an object")
    for role, spec in section.items():
        if role not in _BACKEND_ROLES:
            raise ConfigError(f"unknown backend role: {role}")
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"backends.{role} must be an object with a kind")
        if spec["kind"] not in ("synthetic", "http"):
            raise ConfigError(f"backends.{role}.kind must be synthetic or http")
        if spec["kind"] == "http":
            backends[role] = _http_backend(role, spec)
    return backends


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run config; errors name the failing field."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, {f.name for f in fields(RunConfig)}, "config")
    return RunConfig(
        search=_read(SearchConfig, _section(raw, "search"), "search"),
        decode=_read(DecodeConfig, _section(raw, "decode"), "decode"),
        paths=_paths(_section(raw, "paths"), path.parent),
        backends=_backends(raw),
        mode=_mode(raw),
        workers=raw.get("workers", RunConfig.workers),
        synthetic=_synthetic(raw),
    )
