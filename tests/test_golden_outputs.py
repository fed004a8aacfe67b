"""Byte-identical outputs of `synth`, `generate` and `decode` on the shipped config,
and of `inspect` under it and under a deeper search.

Each digest is the sha256 of one file that the command writes for
`configs/synth.json`. A change that moves any of them changes an output
format or a computed value. A deliberate change updates the digests in the
same commit and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from treeprm.cli import main

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth.json"

_PROBLEMS = "7c2decdf6b9277ff99c9165c3d4fff74d15bac0357df7a9e0074ce87f7cebf57"

# `decode` writes the same results and log in every mode on synthetic
# backends; its summary carries the config hash, which covers the mode.
_DECODE = {
    "decode_log.jsonl": "7585e7bedc397ba8034d1608d0b5b8fb21a7a89fcc8a535b4a97dc3dd58825e8",
    "decode_results.jsonl": "2abacc72d3a5b0b80ec000dba789517f3c876400c29b80cd158669893e81ac69",
}

STAGE_GOLDEN = {
    ("generate", "hybrid"): {
        "dataset.jsonl": "bfae44f77080ae918a1df5026fc35074ed97638379537f6c4710ffdce2a3fa9a",
        "problems.jsonl": _PROBLEMS,
        "summary.json": "300210a2c35fe380e74c770691dedc68b0d3775fbacd8a8a61e313b3880559a5",
    },
    ("generate", "no_rationale"): {
        "dataset.jsonl": "c5f40c6e856999d3e1750e88e0cee7664fab33696274592163a9273e0d9cf59a",
        "problems.jsonl": _PROBLEMS,
        "summary.json": "4b28a1b0aa9a2e297a4ffff9ef3077edcffaa05f78f11215969b54d74cda1250",
    },
    ("decode", "hybrid"): {
        **_DECODE,
        "decode_summary.json": "7c4e82a416a60d59281e0b97e80d02db845d976b1589428bb2c520d14cc598c9",
    },
    ("decode", "no_rationale"): {
        **_DECODE,
        "decode_summary.json": "a32de7f94cbc84ca1310ba9b2fb0556ba88f67167e5491703e8b584b9bbb9929",
    },
}

# The files only `synth` writes whose bytes do not depend on the labelling
# mode: its oracle eval and its text report.
_SYNTH_ONLY = {
    "annotations.jsonl": "7d79f25ff9cf73ddcf43553b97773a0845d203aab25333b8b1161fad53ff356f",
    "eval_report.json": "f1b01498c4efdfe73d1eb27c5fcbf7f80081f0349cce122653b8e329ebc0a243",
    "eval_report.txt": "d815961dbb2b817e6be21a9052ed5cccd7bc6d5b390ad6ed836d51829427f30f",
    "predictions.jsonl": "aa1a812ad110590d5283181bb975fc37f2bfc83a1ff7d41fa3114e4a97e7dcca",
    "report.txt": "647d4089b08312553f6ad14c05633d88b1ffe3328d9fe735f9d7d740f2d2e528",
}

# `synth` writes every file of its generate and decode stages, byte for byte.
GOLDEN = {
    mode: {**STAGE_GOLDEN["generate", mode], **STAGE_GOLDEN["decode", mode], **_SYNTH_ONLY,
           "report.json": report}
    for mode, report in {
        "hybrid": "4dbb5843dfa98c1a72ac792ad091e7a8223cd3d1fe143dd7dc1d56a98e37d51a",
        "no_rationale": "ed379a756d1bf5893a5e84ce4e641cba7ee730949229e76fc89d4a986aaea4b7",
    }.items()
}


def _run_digests(out: Path, command: str, mode: str) -> dict[str, str]:
    assert main([command, "--config", str(SHIPPED_CONFIG), "--mode", mode,
                 "--output", str(out)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_synth_outputs_match_golden_digests(tmp_path, mode):
    assert _run_digests(tmp_path / mode, "synth", mode) == GOLDEN[mode]


@pytest.mark.parametrize(("command", "mode"), sorted(STAGE_GOLDEN))
def test_stage_outputs_match_golden_digests(tmp_path, command, mode):
    assert _run_digests(tmp_path / "run", command, mode) == STAGE_GOLDEN[command, mode]


# `inspect` tree dumps pin every node's q and visit count. Each problem
# picked here reaches a finished line and selects it again in later rounds.
INSPECT_GOLDEN = {
    ("shipped", 0): "c5f0a3cf43be4fed1282f0e79d487ff73225236e75503f83f56462e343ac808b",
    ("shipped", 14): "98773bed5251b76418e285ccffbf7c2b02c0cd87756e39f14136bb73fb75d71f",
    ("shipped", 31): "9741f1511044ed8d75d07b30b3bf858d51099baf8ad5e88de0c6a9720caa5426",
    ("deep", 0): "5a2b422da15684b82e1c3fdad517111b073885d1ecc154771ae22aa940e2a40d",
    ("deep", 1): "9e17dfcef73c7423deee6ee1ed581071f180e8e55477a576694e3e304dd09935",
    ("deep", 33): "a193d3f155b6e1fffcfe91637d54970a6415cce303d02c7917c3f312f7c94a60",
    ("deep", 399): "508d9c392dbbfc40b7bfa40dd0f0a2a641ba7d18e13b607201e0ec6ddfb10c43",
}


@pytest.mark.parametrize(("size", "index"), sorted(INSPECT_GOLDEN))
def test_inspect_tree_matches_golden_digest(tmp_path, size, index):
    config = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    if size == "deep":
        config["synthetic"]["count"] = 400
        config["search"]["max_rounds_R"] = 64
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    dump = tmp_path / "tree.txt"
    assert main(["inspect", "--config", str(config_path), "--problem-index", str(index),
                 "--output", str(dump)]) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == INSPECT_GOLDEN[size, index]
