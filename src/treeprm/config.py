"""Run configuration: one JSON file shared by every pipeline stage.

The reward and search knobs (beta, gamma, c, K, R, depths, seeds) carry no
defaults anywhere: a config file must state them, so no experiment silently
depends on baked-in values. The file's content hash is embedded in dataset
provenance to keep corpora regenerable.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from .backends.base import BackendConfig
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
    config_hash: str = ""

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
            if workers < 1:
                raise ConfigError("workers must be an integer >= 1")
            changes["workers"] = workers
        return replace(self, **changes)


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing required field: {path}.{key}")
    return section[key]


def _section(raw: dict, name: str) -> dict:
    value = _require(raw, name, "config")
    if not isinstance(value, dict):
        raise ConfigError(f"config.{name} must be an object")
    return value


def _pair(value, path: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a [low, high] pair")
    return int(value[0]), int(value[1])


@contextmanager
def _section_errors(section: str):
    try:
        yield
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{section}: {err}") from err


def _search_config(section: dict) -> SearchConfig:
    with _section_errors("search"):
        return SearchConfig(
            exploration_c=float(_require(section, "exploration_c", "search")),
            branch_K=int(_require(section, "branch_K", "search")),
            decay_gamma=float(_require(section, "decay_gamma", "search")),
            outcome_beta=float(_require(section, "outcome_beta", "search")),
            max_rounds_R=int(_require(section, "max_rounds_R", "search")),
            max_depth=int(_require(section, "max_depth", "search")),
            rng_seed=int(_require(section, "rng_seed", "search")),
        )


def _decode_config(section: dict) -> DecodeConfig:
    with _section_errors("decode"):
        return DecodeConfig(
            candidates_N=int(_require(section, "candidates_N", "decode")),
            temperature=float(_require(section, "temperature", "decode")),
            max_steps=int(_require(section, "max_steps", "decode")),
            pass_n=int(_require(section, "pass_n", "decode")),
            rng_seed=int(_require(section, "rng_seed", "decode")),
        )


def _paths(section: dict, base_dir: Path) -> Paths:
    output_dir = _require(section, "output_dir", "paths")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("paths.output_dir must be a non-empty string")

    def resolve(value):
        if value is None:
            return None
        path = Path(value)
        return str(path if path.is_absolute() else base_dir / path)

    problems_file = resolve(section.get("problems_file"))
    if problems_file is not None and not Path(problems_file).exists():
        raise ConfigError(f"paths.problems_file does not exist: {problems_file}")
    return Paths(
        output_dir=resolve(output_dir),
        problems_file=problems_file,
        cache_dir=resolve(section.get("cache_dir")),
    )


def _mode(raw: dict) -> str:
    section = raw.get("mode", {})
    if not isinstance(section, dict):
        raise ConfigError("config.mode must be an object of boolean flags")
    unknown = set(section) - set(MODE_FLAGS)
    if unknown:
        raise ConfigError(f"unknown mode flags: {', '.join(sorted(unknown))}")
    active = [flag for flag in MODE_FLAGS if section.get(flag)]
    if len(active) > 1:
        raise ConfigError("modes mutually exclusive")
    return active[0] if active else "hybrid"


def _synthetic(raw: dict) -> SyntheticCorpusConfig | None:
    section = raw.get("synthetic")
    if section is None:
        return None
    with _section_errors("synthetic"):
        return SyntheticCorpusConfig(
            count=int(_require(section, "count", "synthetic")),
            num_terms=_pair(_require(section, "num_terms", "synthetic"), "synthetic.num_terms"),
            value_range=_pair(
                _require(section, "value_range", "synthetic"), "synthetic.value_range"
            ),
            seed=int(_require(section, "seed", "synthetic")),
            error_rate=float(section.get("error_rate", 0.0)),
            max_planted_errors=int(section.get("max_planted_errors", 1)),
            planted_deltas=tuple(int(d) for d in section.get("planted_deltas", (10, -30, 60))),
            branch_noise=float(section.get("branch_noise", 0.0)),
            noise_deltas=tuple(int(d) for d in section.get("noise_deltas", (10, -10, 25))),
        )


_BACKEND_ROLES = ("generator", "verifier", "scorer")


def _endpoint_config(spec: dict, role: str, default_cache_dir: str | None) -> BackendConfig:
    """Build one endpoint config from its raw mapping."""
    with _section_errors(f"backends.{role}"):
        return BackendConfig(
            endpoint_url=_require(spec, "endpoint_url", f"backends.{role}"),
            model_name=spec.get("model_name", ""),
            auth_token_env_var=spec.get("auth_token_env_var"),
            temperature=float(spec.get("temperature", 1.0)),
            timeout_s=float(spec.get("timeout_s", 30.0)),
            max_retries=int(spec.get("max_retries", 2)),
            rate_limit_rps=float(spec.get("rate_limit_rps", 10.0)),
            cache_dir=spec.get("cache_dir", default_cache_dir),
        )


def _http_backend(role: str, spec: dict, cache_dir: str | None) -> HttpBackend:
    if role == "verifier":
        if not all(isinstance(spec.get(key), dict) for key in ("tool", "judger")):
            raise ConfigError("backends.verifier needs tool and judger endpoint objects")
        return HttpBackend(
            _endpoint_config(spec["tool"], "verifier.tool", cache_dir),
            judger=_endpoint_config(spec["judger"], "verifier.judger", cache_dir),
        )
    score_mode = spec.get("score_mode", "label") if role == "scorer" else None
    return HttpBackend(_endpoint_config(spec, role, cache_dir), score_mode=score_mode)


def _backends(raw: dict, cache_dir: str | None) -> dict:
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
            backends[role] = _http_backend(role, spec, cache_dir)
    return backends


def config_hash_of(raw: dict) -> str:
    return hashlib.sha256(canonical_json(raw).encode("utf-8")).hexdigest()[:16]


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
    base_dir = path.parent
    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be an integer >= 1")
    return RunConfig(
        search=_search_config(_section(raw, "search")),
        decode=_decode_config(_section(raw, "decode")),
        paths=(paths := _paths(_section(raw, "paths"), base_dir)),
        backends=_backends(raw, paths.cache_dir),
        mode=_mode(raw),
        workers=workers,
        synthetic=_synthetic(raw),
        config_hash=config_hash_of(raw),
    )
