"""Config loading/validation and the CLI surface, run in-process."""

import argparse
import json
import re
import shutil
import tempfile
from collections import Counter
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprm import cli
from treeprm.backends import BackendConfig
from treeprm.backends.synthetic import OracleScorer, ScriptedGenerator
from treeprm.backends.transport import FileResponseCache
from treeprm.cli import build_parser, main
from treeprm.config import ConfigError, HttpBackend, Paths, RunConfig, load_config
from treeprm.dataset import MODES, load_instances
from treeprm.decoding import (
    DecodeConfig,
    decode,
    pass_at_n,
    read_decode_log,
    sample_rollout,
    write_decode_log,
)
from treeprm.jsonio import read_jsonl
from treeprm.mcts import SearchConfig
from treeprm.synthetic import SyntheticCorpusConfig, trace_from_values

README = Path(__file__).resolve().parent.parent / "README.md"


def base_config(out_dir: Path) -> dict:
    return {
        "search": {
            "exploration_c": 1.4142135623730951,
            "branch_K": 3,
            "decay_gamma": 0.9,
            "outcome_beta": 0.5,
            "max_rounds_R": 6,
            "max_depth": 10,
            "rng_seed": 7,
        },
        "decode": {
            "candidates_N": 8,
            "max_steps": 10,
            "pass_n": 4,
            "rng_seed": 7,
        },
        "paths": {"output_dir": str(out_dir)},
        "synthetic": {
            "count": 6,
            "num_terms": [2, 4],
            "value_range": [10, 99],
            "seed": 7,
            "error_rate": 0.5,
            "branch_noise": 0.3,
            "noise_deltas": [7, -7],
        },
    }


def write_config(tmp_path: Path, mutate=None, name="config.json") -> Path:
    cfg = base_config(tmp_path / "out")
    if mutate:
        mutate(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.search.branch_K == 3
        assert cfg.mode == "hybrid"
        assert cfg.workers == 1
        assert cfg.synthetic.count == 6
        assert len(cfg.config_hash) == 16

    def test_missing_mandatory_field_named(self, tmp_path):
        def drop_beta(cfg):
            del cfg["search"]["outcome_beta"]

        with pytest.raises(ConfigError, match="missing required field: search.outcome_beta"):
            load_config(write_config(tmp_path, drop_beta))

    def test_gamma_range_error(self, tmp_path):
        def bad_gamma(cfg):
            cfg["search"]["decay_gamma"] = 1.5

        with pytest.raises(ConfigError, match=r"decay_gamma out of \(0,1\]"):
            load_config(write_config(tmp_path, bad_gamma))

    @pytest.mark.parametrize("mode", MODES)
    def test_each_mode_string_loads(self, tmp_path, mode):
        assert load_config(write_config(tmp_path, lambda cfg: cfg.update(mode=mode))).mode == mode

    @pytest.mark.parametrize("value", [{"step_only": True}, 1, "bogus"])
    def test_mode_must_be_one_of_the_four_strings(self, tmp_path, value):
        message = re.escape("mode must be one of hybrid, step_only, outcome_only, no_rationale")
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, lambda cfg: cfg.update(mode=value)))
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path)).with_overrides(mode=value)

    @pytest.mark.parametrize("value", [0, True, "2", 1.5])
    def test_workers_must_be_positive_integer(self, tmp_path, value):
        def workers(cfg):
            cfg["workers"] = value

        with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
            load_config(write_config(tmp_path, workers))
        with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
            load_config(write_config(tmp_path)).with_overrides(workers=value)

    @pytest.mark.parametrize(("field", "value", "message"), [
        ("search.branch_K", 2.9, "must be an integer"),
        ("search.branch_K", True, "must be an integer"),
        ("search.max_rounds_R", "16", "must be an integer"),
        ("search.max_depth", 10.0, "must be an integer"),
        ("search.exploration_c", "nan", "must be a finite number"),
        ("search.exploration_c", float("nan"), "must be a finite number"),
        ("search.decay_gamma", True, "must be a finite number"),
        ("synthetic.error_rate", float("inf"), "must be a finite number"),
        ("synthetic.num_terms", [2.5, 6], "must be an integer"),
        ("synthetic.value_range", [10, "99"], "must be an integer"),
        ("synthetic.noise_deltas", "77", "must be a list of integers"),
    ])
    def test_numeric_fields_take_only_json_numbers(self, tmp_path, field, value, message):
        section, key = field.split(".")

        def set_value(cfg):
            cfg[section][key] = value

        with pytest.raises(ConfigError, match=re.escape(field) + " " + message):
            load_config(write_config(tmp_path, set_value))

    def test_integer_accepted_for_float_field(self, tmp_path):
        def integer_c(cfg):
            cfg["search"]["exploration_c"] = 1

        c = load_config(write_config(tmp_path, integer_c)).search.exploration_c
        assert c == 1.0 and type(c) is float

    def test_problems_file_must_exist(self, tmp_path):
        def missing(cfg):
            cfg["paths"]["problems_file"] = "nope.jsonl"

        with pytest.raises(ConfigError, match="does not exist"):
            load_config(write_config(tmp_path, missing))

    def test_unknown_backend_role(self, tmp_path):
        def bad_role(cfg):
            cfg["backends"] = {"oracle": {"kind": "synthetic"}}

        with pytest.raises(ConfigError, match="unknown backend role"):
            load_config(write_config(tmp_path, bad_role))

    def test_http_backends_parsed_at_load(self, tmp_path):
        def remote(cfg):
            cfg["paths"]["cache_dir"] = "cache"
            cfg["backends"] = {
                "verifier": {"kind": "http", "tool": {"endpoint_url": "http://t"},
                             "judger": {"endpoint_url": "http://j", "model_name": "m"}},
                "scorer": {"kind": "http", "endpoint_url": "http://s", "temperature": 0.5},
            }

        loaded = load_config(write_config(tmp_path, remote))
        assert loaded.paths.cache_dir == str(tmp_path / "cache")
        assert loaded.backends == {
            "generator": None,
            "verifier": HttpBackend(
                BackendConfig("http://t"), judger=BackendConfig("http://j", model_name="m"),
            ),
            "scorer": HttpBackend(BackendConfig("http://s", temperature=0.5),
                                  score_mode="label"),
        }

        def own_cache(cfg):
            remote(cfg)
            cfg["backends"]["verifier"]["judger"]["cache_dir"] = "/elsewhere"

        message = r"^unknown key: backends\.verifier\.judger\.cache_dir$"
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, own_cache))

    @pytest.mark.parametrize("role, spec, message", [
        ("verifier", {"kind": "http", "tool": {"endpoint_url": "http://t"}},
         "backends.verifier needs tool and judger endpoint objects"),
        ("verifier", {"kind": "http", "tool": 5, "judger": {"endpoint_url": "http://j"}},
         "backends.verifier needs tool and judger endpoint objects"),
        ("generator", {"kind": "http", "model_name": "m"},
         "missing required field: backends.generator.endpoint_url"),
        ("scorer", {"kind": "http", "endpoint_url": "http://s", "timeout_s": 0},
         "backends.scorer: timeout_s must be > 0"),
        ("scorer", {"kind": "http", "endpoint_url": "http://s", "score_mode": "bogus"},
         "backends.scorer.score_mode must be label or likelihood"),
        ("verifier", {"kind": "http", "tool": {"endpoint_url": "localhost:9000/tool"},
                      "judger": {"endpoint_url": "http://j"}},
         "backends.verifier.tool: endpoint_url must be an http:// or https:// URL"),
    ])
    def test_malformed_http_spec_rejected_at_load(self, tmp_path, role, spec, message):
        def broken(cfg):
            cfg["backends"] = {role: spec}

        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, broken))

    @pytest.mark.parametrize("key, mutate", [
        ("config.worker", lambda cfg: cfg.update(worker=4)),
        ("synthetic.branch_nois", lambda cfg: cfg["synthetic"].update(branch_nois=0.9)),
        ("paths.cachedir", lambda cfg: cfg["paths"].update(cachedir="cache")),
        ("decode.temperature", lambda cfg: cfg["decode"].update(temperature=1.0)),
        ("backends.generator.timeout",
         lambda cfg: cfg.update(backends={"generator": {
            "kind": "http", "endpoint_url": "http://g", "timeout": 5}})),
        ("backends.verifier.endpoint_url",
         lambda cfg: cfg.update(backends={"verifier": {
            "kind": "http", "endpoint_url": "http://v", "tool": {"endpoint_url": "http://t"},
            "judger": {"endpoint_url": "http://j"}}})),
        ("backends.generator.score_mode",
         lambda cfg: cfg.update(backends={"generator": {
            "kind": "http", "endpoint_url": "http://g", "score_mode": "label"}})),
    ])
    def test_unknown_key_named(self, tmp_path, key, mutate):
        with pytest.raises(ConfigError, match=f"^unknown key: {re.escape(key)}$"):
            load_config(write_config(tmp_path, mutate))

    def test_unset_optional_fields_take_dataclass_defaults(self, tmp_path):
        def required_only(cfg):
            cfg["synthetic"] = {"count": 6, "num_terms": [2, 4], "value_range": [10, 99],
                                "seed": 7}
            cfg["backends"] = {"generator": {"kind": "http", "endpoint_url": "http://g"}}

        loaded = load_config(write_config(tmp_path, required_only))
        assert loaded.synthetic == SyntheticCorpusConfig(6, (2, 4), (10, 99), 7)
        assert loaded.backends["generator"] == HttpBackend(BackendConfig("http://g"))

    def test_readme_examples_load(self, tmp_path):
        section = README.read_text(encoding="utf-8").split("## Configuration")[1]
        local, remote = re.findall(r"```jsonc\n(.*?)```", section.split("\n## ")[0], re.S)
        config = json.loads(local)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        local_cfg = load_config(path)
        assert local_cfg.backends == dict.fromkeys(("generator", "verifier", "scorer"))
        assert local_cfg.mode == "hybrid"
        config.update(json.loads("{" + remote + "}"))
        path.write_text(json.dumps(config), encoding="utf-8")
        backends = load_config(path).backends
        assert backends["verifier"].judger.model_name == "my-judger"
        assert backends["scorer"].score_mode == "label"

    def test_readme_settings_table_matches_the_dataclasses(self):
        rows = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("| ") and len(cells) == 3:
                rows[cells[0]] = cells[1:]
        counts = {"four": 4, "five": 5, "six": 6, "seven": 7}
        for row, cls in (("`search`", SearchConfig), ("`decode`", DecodeConfig),
                         ("`paths`", Paths), ("`synthetic`", SyntheticCorpusConfig),
                         ("http endpoint", BackendConfig)):
            required, optional = rows[row]
            mandatory = [f.name for f in fields(cls)
                         if f.default is MISSING and f.default_factory is MISSING]
            defaulted = [f.name for f in fields(cls) if f.name not in mandatory]
            if required.startswith("all "):
                assert (counts[required.split()[1]], optional) == (len(mandatory), "none"), row
            else:
                assert re.findall(r"`(\w+)`", required) == mandatory, row
            assert re.findall(r"`(\w+)` \(", optional) == defaulted, row

    def test_seed_override_propagates(self, tmp_path):
        def off_default(cfg):
            cfg["synthetic"].update(max_planted_errors=2, planted_deltas=[5, -5])
            cfg.update(mode="step_only", workers=2)

        loaded = load_config(write_config(tmp_path, off_default))
        cfg = loaded.with_overrides(seed=99)
        assert cfg.search.rng_seed == 99
        assert cfg.decode.rng_seed == 99
        assert cfg.synthetic.seed == 99
        # Only the seeds move; every other field keeps its loaded value.
        assert asdict(cfg.search) == {**asdict(loaded.search), "rng_seed": 99}
        assert asdict(cfg.decode) == {**asdict(loaded.decode), "rng_seed": 99}
        assert asdict(cfg.synthetic) == {**asdict(loaded.synthetic), "seed": 99}
        for name in ("paths", "backends", "mode", "workers"):
            assert getattr(cfg, name) == getattr(loaded, name)
        assert cfg.config_hash != loaded.config_hash

        moved = loaded.with_overrides(mode="no_rationale", workers=3)
        assert (moved.mode, moved.workers) == ("no_rationale", 3)
        assert (moved.search, moved.decode, moved.synthetic) == (
            loaded.search, loaded.decode, loaded.synthetic)
        assert loaded.with_overrides() == loaded
        assert loaded.with_overrides(seed=None, mode=None, workers=None) == loaded

    def test_config_hash_is_content_stable(self, tmp_path):
        a = load_config(write_config(tmp_path, name="a.json"))
        b = load_config(write_config(tmp_path, name="b.json"))
        assert a.config_hash == b.config_hash


class TestConfigHash:
    """The hash names what a run computes, not where it writes or how fast."""

    @staticmethod
    def _load(tmp_path, mutate=None):
        def remote(cfg):
            endpoint = {"endpoint_url": "http://127.0.0.1:8000/v1/chat/completions",
                        "model_name": "m", "temperature": 0.7}
            cfg["backends"] = {
                "generator": {"kind": "http", **endpoint},
                "verifier": {"kind": "http",
                             "tool": {"endpoint_url": "http://127.0.0.1:8000/tool"},
                             "judger": dict(endpoint)},
                "scorer": {"kind": "http", **endpoint},
            }
            if mutate:
                mutate(cfg)

        return load_config(write_config(tmp_path, remote))

    @pytest.mark.parametrize("mutate", [
        lambda cfg: cfg.update(workers=4),
        lambda cfg: cfg["paths"].update(output_dir="elsewhere"),
        lambda cfg: cfg["paths"].update(cache_dir="cache"),
        lambda cfg: cfg["backends"]["generator"].update(endpoint_url="https://g:9443/v1"),
        lambda cfg: cfg["backends"]["verifier"]["tool"].update(
            endpoint_url="http://127.0.0.1:8001/tool"),
        lambda cfg: cfg["backends"]["scorer"].update(timeout_s=5),
        lambda cfg: cfg["backends"]["verifier"]["judger"].update(max_retries=0),
        lambda cfg: cfg["backends"]["verifier"]["tool"].update(rate_limit_rps=2),
        lambda cfg: cfg["backends"]["generator"].update(auth_token_env_var="POLICY_TOKEN"),
        # The tool is a GET that sends neither its model nor its temperature.
        lambda cfg: cfg["backends"]["verifier"]["tool"].update(model_name="calculator"),
        lambda cfg: cfg["backends"]["verifier"]["tool"].update(temperature=0.0),
    ], ids=["workers", "output_dir", "cache_dir", "url", "port", "timeout_s", "max_retries",
            "rate_limit_rps", "auth_token_env_var", "tool_model_name", "tool_temperature"])
    def test_equal_across_where_and_how_fast(self, tmp_path, mutate):
        assert self._load(tmp_path, mutate).config_hash == self._load(tmp_path).config_hash

    @pytest.mark.parametrize("mutate", [
        lambda cfg: cfg["search"].update(branch_K=4),
        lambda cfg: cfg["decode"].update(candidates_N=4),
        lambda cfg: cfg["synthetic"].update(error_rate=0.25),
        lambda cfg: cfg["backends"]["generator"].update(model_name="m2"),
        lambda cfg: cfg["backends"]["verifier"]["judger"].update(temperature=0.0),
        lambda cfg: cfg["backends"]["scorer"].update(score_mode="likelihood"),
        lambda cfg: cfg["backends"].update(scorer={"kind": "synthetic"}),
    ], ids=["search", "decode", "synthetic", "model_name", "temperature", "score_mode",
            "kind"])
    def test_differs_across_what_a_run_computes(self, tmp_path, mutate):
        assert self._load(tmp_path, mutate).config_hash != self._load(tmp_path).config_hash

    def test_overrides_move_it_only_where_outputs_move(self, tmp_path):
        cfg = self._load(tmp_path)
        assert cfg.with_overrides(seed=3).config_hash != cfg.config_hash
        assert cfg.with_overrides(mode="step_only").config_hash != cfg.config_hash
        assert cfg.with_overrides(workers=4).config_hash == cfg.config_hash
        assert cfg.with_overrides(seed=7).config_hash == cfg.config_hash  # the file's seed


class TestStageThreads:
    """A stage runs `workers` problems at once, or twice that when one of its
    own roles is remote."""

    REMOTE = {
        "generator": {"kind": "http", "endpoint_url": "http://g"},
        "verifier": {"kind": "http", "tool": {"endpoint_url": "http://t"},
                     "judger": {"endpoint_url": "http://j"}},
        "scorer": {"kind": "http", "endpoint_url": "http://s"},
    }

    @pytest.mark.parametrize("remote, roles, threads", [
        ((), ("generator", "verifier"), 3),
        (("verifier",), ("generator", "verifier"), 6),
        (("generator", "scorer"), ("generator", "scorer"), 6),
        (("scorer",), ("generator", "verifier"), 3),
    ], ids=["synthetic", "one-role-remote", "all-roles-remote", "another-stages-role-remote"])
    def test_stage_threads(self, tmp_path, remote, roles, threads):
        def backends(cfg):
            cfg["backends"] = {role: self.REMOTE[role] for role in remote}
            cfg["workers"] = 3

        assert cli._stage_threads(load_config(write_config(tmp_path, backends)), roles) == threads


class TestCliSurface:
    def test_readme_usage_block_lists_each_subcommands_long_options(self):
        section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1]
        usage = re.search(r"```\n(.*?)```", section, re.S).group(1)
        documented: dict[str, set] = {}
        for line in usage.splitlines():
            if line.startswith("treeprm "):
                command = line.split()[1]
            documented.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        declared = {
            command: {option for action in parser._actions for option in action.option_strings
                      if option.startswith("--") and option != "--help"}
            for command, parser in subparsers.choices.items()
        }
        assert documented == declared


class TestCliSynth:
    def test_fixed_seed_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(config), "--output", str(out_a)]) == 0
        assert main(["synth", "--config", str(config), "--output", str(out_b)]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)
        expected = {
            "problems.jsonl", "annotations.jsonl", "predictions.jsonl",
            "dataset.jsonl", "dataset_summary.json", "decode_log.jsonl",
            "decode_results.jsonl", "eval_report.json", "eval_report.txt",
            "report.json", "report.txt",
        }
        assert expected <= set(tree_bytes(out_a))

    def test_exact_verifier_localization_is_perfect(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["synth", "--config", str(config), "--output", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
        assert report["error_accuracy"] == 100.0
        assert report["correct_accuracy"] == 100.0
        assert report["f1"] == 100.0

    def test_seed_override_changes_corpus(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(config), "--output", str(out_a)]) == 0
        assert main(["synth", "--config", str(config), "--output", str(out_b),
                     "--seed", "99"]) == 0
        assert (out_a / "problems.jsonl").read_bytes() != (out_b / "problems.jsonl").read_bytes()


class TestCliGenerate:
    def test_outcome_only_labels_equal_outcome_sign(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(config), "--output", str(out),
                     "--mode", "outcome_only"]) == 0
        instances = load_instances(out / "dataset.jsonl")
        assert instances
        for instance in instances:
            assert all(label == instance.outcome_flag for label in instance.labels)

    def test_summary_accounting(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(config), "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        dropped = sum(summary["dropped"].values())
        assert summary["kept"] + dropped == summary["rollouts_total"]
        assert set(summary["dropped"]) <= {"incomplete", "unverifiable", "inconsistent"}

    def test_workers_flag_keeps_output_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "w1", tmp_path / "w2"
        assert main(["generate", "--config", str(config), "--output", str(out_a)]) == 0
        assert main(["generate", "--config", str(config), "--output", str(out_b),
                     "--workers", "3"]) == 0
        assert (out_a / "dataset.jsonl").read_bytes() == (out_b / "dataset.jsonl").read_bytes()

    def test_mode_datasets_differ_only_in_labels_and_rationales(self, tmp_path):
        config = write_config(tmp_path)
        outputs = {}
        for mode in ("hybrid", "no_rationale", "step_only"):
            out = tmp_path / mode
            assert main(["generate", "--config", str(config), "--output", str(out),
                         "--mode", mode]) == 0
            outputs[mode] = {
                (i.provenance.problem_id, i.provenance.rollout_index): i
                for i in load_instances(out / "dataset.jsonl")
            }
        hybrid, bare = outputs["hybrid"], outputs["no_rationale"]
        assert set(hybrid) == set(bare)
        for key, full in hybrid.items():
            other = bare[key]
            assert other.labels == full.labels
            assert other.rationales == ("",) * len(other.steps)
            # The mode is part of the config hash, and only the hash moves with it.
            assert other.provenance.config_hash != full.provenance.config_hash
            same_hash = replace(other.provenance, config_hash=full.provenance.config_hash)
            assert (other.problem, other.steps, other.final_answer, other.outcome_flag,
                    same_hash) == (full.problem, full.steps, full.final_answer,
                                   full.outcome_flag, full.provenance)
        for key, full in hybrid.items():
            if key in outputs["step_only"]:
                other = outputs["step_only"][key]
                assert (other.problem, other.steps, other.final_answer,
                        other.outcome_flag) == (full.problem, full.steps,
                                                full.final_answer, full.outcome_flag)


class TestCliDecode:
    def test_decode_outputs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "dec"
        assert main(["decode", "--config", str(config), "--output", str(out)]) == 0
        summary = json.loads((out / "decode_summary.json").read_text(encoding="utf-8"))
        assert 0.0 <= summary["guided_accuracy"] <= 1.0
        assert summary["pass_at_1"] <= summary["pass_at_4"]
        results = (out / "decode_results.jsonl").read_text(encoding="utf-8").strip()
        assert len(results.split("\n")) == 6

    @pytest.mark.parametrize("command", ["generate", "decode", "synth", "inspect"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        assert main([command, "--config", str(config), "--workers", "0"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ConfigError", "message": "workers must be an integer >= 1"}

    def test_broken_verifier_spec_fails_decode(self, tmp_path, capsys):
        # decode never builds the verifier, but the whole config is validated.
        def broken(cfg):
            cfg["backends"] = {"verifier": {"kind": "http", "tool": {"endpoint_url": "http://t"}}}

        config = write_config(tmp_path, broken)
        assert main(["decode", "--config", str(config), "--output", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ConfigError",
                       "message": "backends.verifier needs tool and judger endpoint objects"}

    def test_decode_deterministic_across_runs_and_workers(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "da", tmp_path / "db"
        assert main(["decode", "--config", str(config), "--output", str(out_a)]) == 0
        assert main(["decode", "--config", str(config), "--output", str(out_b),
                     "--workers", "3"]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_decode_generates_each_distinct_state_once_per_problem(self, tmp_path, workers):
        asked = []
        original = ScriptedGenerator.generate

        def counting(self, problem, state, count):
            asked.append((problem.id, state, count))
            return original(self, problem, state, count)

        config = write_config(tmp_path)
        with mock.patch.object(ScriptedGenerator, "generate", counting):
            assert main(["decode", "--config", str(config), "--workers", workers,
                         "--output", str(tmp_path / "dec")]) == 0
        repeated = {key: n for key, n in Counter(asked).items() if n > 1}
        assert repeated == {}
        assert len({problem_id for problem_id, _, _ in asked}) == 6
        assert any(len(state) > 1 for _, state, _ in asked)


class CountingGenerator:
    """Delegates to `inner` and records every (problem id, state, count) asked."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def generate(self, problem, state, count):
        self.asked.append((problem.id, state, count))  # list.append is atomic
        return self.inner.generate(problem, state, count)


@st.composite
def decode_runs(draw):
    """A few small traces with planted errors, a noisy generator, its oracle
    scorer and a run config with a drawn decode section and worker count."""
    traces = []
    for index in range(draw(st.integers(1, 3))):
        values = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4))
        positions = draw(st.sets(st.integers(min_value=1, max_value=len(values))))
        error_plan = tuple((position, draw(st.sampled_from((10, -30))))
                           for position in sorted(positions))
        traces.append(trace_from_values(values, error_plan=error_plan, problem_id=f"p{index}"))
    generator = ScriptedGenerator(traces, branch_noise=draw(st.floats(0.0, 1.0)),
                                  noise_deltas=draw(st.sampled_from(((7,), (7, -7), (-30,)))),
                                  seed=draw(st.integers(0, 2**16)))
    cfg = RunConfig(
        search=SearchConfig(exploration_c=1.0, branch_K=1, decay_gamma=0.9, outcome_beta=0.5,
                            max_rounds_R=1, max_depth=1, rng_seed=0),
        decode=DecodeConfig(candidates_N=draw(st.integers(1, 5)),
                            max_steps=draw(st.integers(1, 6)), pass_n=draw(st.integers(1, 5)),
                            rng_seed=draw(st.integers(0, 2**16))),
        paths=Paths(output_dir="unused"),
        workers=draw(st.integers(1, 2)),
    )
    return [trace.problem for trace in traces], generator, OracleScorer(traces), cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(decode_runs())
def test_decode_stage_matches_decode_and_sample_rollout_called_directly(run):
    """The decode stage's files, its pass@n matrix and its generator calls,
    against `decode` and `sample_rollout` called on the bare generator."""
    problems, generator, scorer, cfg = run
    counting = CountingGenerator(generator)
    matrices = []

    def recording_pass_at_n(matrix, n):
        matrices.append(matrix)
        return pass_at_n(matrix, n)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "pass_at_n", recording_pass_at_n):
        out = Path(tmp)
        summary = cli._decode(cfg, problems, counting, scorer, out)
        written = [record for _, record in read_jsonl(out / "decode_results.jsonl")]
        log = read_decode_log(out / "decode_log.jsonl")
        results = [decode(problem, generator, scorer, cfg.decode) for problem in problems]
        write_decode_log(out / "reference_log.jsonl", results)
        reference_log = read_decode_log(out / "reference_log.jsonl")
    matrix = [[sample_rollout(problem, generator, cfg.decode, s)[1]
               for s in range(cfg.decode.pass_n)] for problem in problems]

    assert written == [
        {"id": r.problem_id, "correct": r.correct, "complete": r.complete,
         "final_answer": r.trajectory.final_answer,
         "steps": [s.action for s in r.trajectory.steps]}
        for r in results
    ]
    assert log == reference_log
    assert matrices == [matrix, matrix]
    assert summary["guided_accuracy"] == sum(r.correct for r in results) / len(results)
    assert max(Counter(counting.asked).values()) == 1


class TestCliEval:
    def test_reference_table_reproduces_anchor_rows(self, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--reference", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        anchor_1 = [line for line in stdout.split("\n") if "RLHFlow-PRM-Deepseek-8B" in line
                    and "GSM8K" in line]
        assert anchor_1 and "38.8" in anchor_1[0]
        anchor_2 = [line for line in stdout.split("\n") if "Math-Shepherd" in line
                    and "62.5" in line]
        assert anchor_2
        table = json.loads((out / "f1_table.json").read_text(encoding="utf-8"))
        assert table["max_abs_deviation"] <= 0.05

    def test_pairs_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"rows": [
            {"model": "m", "benchmark": "b", "error": 50.0, "correct": 50.0, "f1": 50.0}
        ]}), encoding="utf-8")
        assert main(["eval", "--pairs", str(pairs)]) == 0
        assert "50.0" in capsys.readouterr().out

    def test_pairs_file_defaults(self, tmp_path):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"rows": [{"model": "m", "error": 40.0, "correct": 60.0}]}),
                         encoding="utf-8")
        out = tmp_path / "eval"
        assert main(["eval", "--pairs", str(pairs), "--output", str(out)]) == 0
        table = json.loads((out / "f1_table.json").read_text(encoding="utf-8"))
        assert table == {
            "rows": [{"model": "m", "benchmark": "-", "error": 40.0, "correct": 60.0,
                      "reported_f1": 48.0, "recomputed_f1": 48.0}],
            "max_abs_deviation": 0.0,
        }

    def test_annotation_prediction_scoring(self, tmp_path, capsys):
        (tmp_path / "ann.jsonl").write_text(
            '{"id": "s1", "steps": ["a", "b"], "first_error": 2}\n'
            '{"id": "s2", "steps": ["a"], "first_error": "all-valid"}\n',
            encoding="utf-8",
        )
        (tmp_path / "pred.jsonl").write_text(
            '{"id": "s1", "first_error": 2}\n{"id": "s2", "first_error": "all-valid"}\n',
            encoding="utf-8",
        )
        assert main(["eval", "--annotations", str(tmp_path / "ann.jsonl"),
                     "--predictions", str(tmp_path / "pred.jsonl")]) == 0
        assert "100.0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, name, text, where", [
        ("--annotations", "ann.jsonl", '{"id": "s1", "first_error": 1}\n', "line 1"),
        ("--pairs", "pairs.json", '{"rows": [{"model": "m", "error": 40.0}]}', "rows[0]"),
    ])
    def test_bad_eval_input_names_file_and_place(self, tmp_path, capsys, flag, name, text,
                                                 where):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        (tmp_path / "pred.jsonl").write_text('{"id": "s1", "first_error": 1}\n',
                                             encoding="utf-8")
        inputs = [flag, str(path)]
        if flag == "--annotations":
            inputs += ["--predictions", str(tmp_path / "pred.jsonl")]
        assert main(["eval", *inputs]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{path} {where}: missing key")

    def test_eval_without_inputs_fails_cleanly(self, capsys):
        assert main(["eval"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("flag", [["--config", "/nonexistent.json"], ["--seed", "5"],
                                      ["--workers", "9"], ["--mode", "step_only"]])
    def test_eval_rejects_run_config_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--reference", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCliInspect:
    def test_tree_dump_written(self, tmp_path):
        config = write_config(tmp_path)
        out_file = tmp_path / "tree.txt"
        assert main(["inspect", "--config", str(config), "--problem-index", "0",
                     "--output", str(out_file)]) == 0
        lines = out_file.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "# tree dump v1"
        assert lines[2].startswith("0\t-")

    @pytest.mark.parametrize("index", ["6", "99", "-1"])
    def test_problem_index_out_of_range(self, tmp_path, capsys, index):
        config = write_config(tmp_path)
        assert main(["inspect", "--config", str(config), "--problem-index", index]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"--problem-index {index} " in err["message"]
        assert "6 problems" in err["message"]

    def test_last_problem_index_in_range(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["inspect", "--config", str(config), "--problem-index", "5"]) == 0
        assert capsys.readouterr().out.startswith("# tree dump v1\n")

    def test_unknown_problem_id(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["inspect", "--config", str(config), "--problem-id", "ghost"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "ghost" in err["message"]


class TestCliRemoteBackends:
    def _remote_config(self, tmp_path, server_url, problems=1, workers=1):
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text("".join(
            f'{{"id": "r{i}", "statement": "Add 2 and 3.", "gold_answer": "5"}}\n'
            for i in range(1, problems + 1)
        ), encoding="utf-8")

        def mutate(cfg):
            del cfg["synthetic"]
            cfg["workers"] = workers
            cfg["search"]["max_rounds_R"] = 2
            cfg["paths"]["problems_file"] = str(problems_file)
            cfg["paths"]["cache_dir"] = str(tmp_path / "cache")
            endpoint = {"endpoint_url": f"{server_url}/v1/chat/completions",
                        "model_name": "fake", "max_retries": 0, "rate_limit_rps": 10000}
            tool = {"endpoint_url": f"{server_url}/tool", "max_retries": 0,
                    "rate_limit_rps": 10000}
            cfg["backends"] = {
                "generator": {"kind": "http", **endpoint},
                "verifier": {"kind": "http", "tool": tool, "judger": dict(endpoint)},
            }

        return write_config(tmp_path, mutate)

    @staticmethod
    def _responder(body):
        user_message = body["messages"][1]["content"]
        if "Tool response:" in user_message:
            return "The sum checks out. The step is: \\boxed{+}"
        return "Objective: add the numbers\nAction: 2 + 3 = 5\nFinal Answer: 5"

    def test_generate_over_http_backends_and_warm_cache(self, tmp_path, fake_server):
        fake_server.state.chat_responder = self._responder
        config = self._remote_config(tmp_path, fake_server.url)
        out_a, out_b = tmp_path / "a", tmp_path / "b"

        assert main(["generate", "--config", str(config), "--output", str(out_a)]) == 0
        instances = load_instances(out_a / "dataset.jsonl")
        assert len(instances) == 1  # the terminal revisit repeats the expansion round's line
        assert instances[0].labels == (1,)
        assert instances[0].final_answer == "5"
        requests_cold = fake_server.state.request_count
        assert requests_cold > 0

        # Second run with a warm cache: byte-identical, zero network traffic.
        assert main(["generate", "--config", str(config), "--output", str(out_b)]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)
        assert fake_server.state.request_count == requests_cold

    def test_outputs_do_not_depend_on_workers_output_dir_or_url(
            self, tmp_path, fake_server, other_fake_server):
        outputs = []
        for name, server, workers in (("a", fake_server, 1), ("b", other_fake_server, 2)):
            server.state.chat_responder = self._responder
            (tmp_path / name).mkdir()
            config = self._remote_config(tmp_path / name, server.url, problems=3,
                                         workers=workers)
            assert main(["generate", "--config", str(config)]) == 0
            assert server.state.request_count > 0
            out = tmp_path / name / "out"
            outputs.append([(out / f).read_bytes() for f in ("dataset.jsonl", "summary.json")])
        assert outputs[0] == outputs[1]
        assert len(load_instances(tmp_path / "a" / "out" / "dataset.jsonl")) == 3

    @staticmethod
    def _decode_config(tmp_path, server_url, cache_dir=None):
        """Remote generator and label-mode scorer for `decode` over two
        problems, with N=2 candidates and 4 pass@n samples."""
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text("".join(
            f'{{"id": "r{i}", "statement": "Add 2 and 3, case {i}.", "gold_answer": "5"}}\n'
            for i in (1, 2)
        ), encoding="utf-8")

        def mutate(cfg):
            del cfg["synthetic"]
            cfg["decode"].update(candidates_N=2, pass_n=4)
            cfg["paths"]["problems_file"] = str(problems_file)
            if cache_dir is not None:
                cfg["paths"]["cache_dir"] = str(cache_dir)
            endpoint = {"endpoint_url": f"{server_url}/v1/chat/completions",
                        "model_name": "fake", "max_retries": 0, "rate_limit_rps": 10000}
            cfg["backends"] = {"generator": {"kind": "http", **endpoint},
                               "scorer": {"kind": "http", **endpoint}}

        return write_config(tmp_path, mutate, name=f"decode-{cache_dir is not None}.json")

    @staticmethod
    def _decode_responder():
        """Replies that depend on the request body alone, except that the
        k-th ask of one first-step body gets the sum 5 or 6 as k is even or
        odd, so the two samples of the first position differ. The scorer
        rewards a step that keeps the sum 5."""
        asked = Counter()

        def respond(body):
            system, user = (message["content"] for message in body["messages"])
            if system.startswith("You are a process reward model"):
                candidate = user.split("Candidate next step:")[1]
                return "\\boxed{+}" if "5" in candidate else "\\boxed{-}"
            if "(none yet)" in user:
                asked[user] += 1
                return f"Objective: add\nAction: 2 + 3 = {5 + (asked[user] - 1) % 2}"
            total = 5 if "2 + 3 = 5" in user else 6
            return f"Objective: answer\nAction: Final Answer: {total}"

        return respond

    @staticmethod
    def _chat_bodies(state, role):
        return [request["raw"] for request in state.chat_requests
                if request["body"]["messages"][0]["content"].startswith(role)]

    def test_uncached_decode_asks_each_state_once_per_problem(self, tmp_path, fake_server):
        fake_server.state.chat_responder = self._decode_responder()
        uncached = self._decode_config(tmp_path, fake_server.url)
        assert main(["decode", "--config", str(uncached), "--output", str(tmp_path / "u")]) == 0

        # One state is one generator body: each is sent N=2 times, once per sample index.
        generated = Counter(self._chat_bodies(fake_server.state, "You are a careful"))
        assert set(generated.values()) == {2}
        # Per problem: the first position, and after it "2 + 3 = 5" (the guided
        # path) and "2 + 3 = 6" (reached by a pass@n sample only).
        assert len(generated) == 2 * 3
        # The guided path scores its distinct candidates: "= 5" and "= 6", then
        # the final step that both of its slots hold.
        assert len(self._chat_bodies(fake_server.state, "You are a process")) == 2 * 3
        log = [json.loads(line) for line in
               (tmp_path / "u" / "decode_log.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [record["candidates"] for record in log] == [
            ["2 + 3 = 5", "2 + 3 = 6"], ["Final Answer: 5", "Final Answer: 5"]] * 2
        assert [record["chosen_index"] for record in log] == [0, 0, 0, 0]

        # A cold cached run sends the same requests and writes the same bytes;
        # a warm rerun sends none.
        fake_server.state.chat_requests.clear()
        fake_server.state.chat_responder = self._decode_responder()
        cached = self._decode_config(tmp_path, fake_server.url, tmp_path / "cache")
        for name in ("cold", "warm"):
            assert main(["decode", "--config", str(cached),
                         "--output", str(tmp_path / name)]) == 0
            assert tree_bytes(tmp_path / name) == tree_bytes(tmp_path / "u")
            assert len(fake_server.state.chat_requests) == 2 * 2 * 3 + 2 * 3


    def test_a_cache_of_old_bin_entries_is_not_read(self, tmp_path, fake_server):
        """A directory of `<key>.bin` entries, the cache's layout before its
        logs, reads as empty: generate and decode over it send the requests of
        a cold run and write its bytes."""
        state = fake_server.state
        cache = tmp_path / "cache"
        (tmp_path / "gen").mkdir()
        (tmp_path / "dec").mkdir()
        generate = self._remote_config(tmp_path / "gen", fake_server.url)
        decode = self._decode_config(tmp_path / "dec", fake_server.url, cache)
        cfg = json.loads(generate.read_text(encoding="utf-8"))
        cfg["paths"]["cache_dir"] = str(cache)
        generate.write_text(json.dumps(cfg), encoding="utf-8")
        runs = []
        for name in ("cold", "old"):
            state.chat_requests.clear()
            state.tool_requests.clear()
            state.chat_responder = self._responder
            assert main(["generate", "--config", str(generate),
                         "--output", str(tmp_path / name / "generate")]) == 0
            state.chat_responder = self._decode_responder()
            assert main(["decode", "--config", str(decode),
                         "--output", str(tmp_path / name / "decode")]) == 0
            roles = Counter(request["body"]["messages"][0]["content"].split(".")[0]
                            for request in state.chat_requests)
            runs.append((roles, len(state.tool_requests), tree_bytes(tmp_path / name)))
            if name == "cold":
                stored = FileResponseCache(cache)
                entries = {key: stored.get(key) for key in stored._index}
                shutil.rmtree(cache)
                cache.mkdir()
                for key, data in entries.items():
                    (cache / f"{key}.bin").write_bytes(data)
        assert len(runs[0][0]) == 3 and runs[0][1] > 0
        assert runs[1] == runs[0]


class TestCliErrors:
    def test_bad_config_is_machine_readable(self, tmp_path, capsys):
        def bad(cfg):
            cfg["search"]["decay_gamma"] = 2.0

        config = write_config(tmp_path, bad)
        assert main(["generate", "--config", str(config)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "decay_gamma" in err["message"]
