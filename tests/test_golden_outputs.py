"""Byte-identical outputs of `synth`, `generate` and `decode` on the shipped config.

Each digest is the sha256 of one file that the command writes for
`configs/synth.json`. A change that moves any of them changes an output
format or a computed value. A deliberate change updates the digests in the
same commit and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from treeprm.cli import main

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth.json"

# Files whose bytes do not depend on the labelling mode.
_SHARED = {
    "annotations.jsonl": "7d79f25ff9cf73ddcf43553b97773a0845d203aab25333b8b1161fad53ff356f",
    "dataset_summary.json": "a6b742ea468c973353f6d32c17b0bf515824c6dd5b0f5fcc5c7b9f39966f016d",
    "decode_log.jsonl": "7585e7bedc397ba8034d1608d0b5b8fb21a7a89fcc8a535b4a97dc3dd58825e8",
    "decode_results.jsonl": "2abacc72d3a5b0b80ec000dba789517f3c876400c29b80cd158669893e81ac69",
    "eval_report.json": "f1b01498c4efdfe73d1eb27c5fcbf7f80081f0349cce122653b8e329ebc0a243",
    "eval_report.txt": "d815961dbb2b817e6be21a9052ed5cccd7bc6d5b390ad6ed836d51829427f30f",
    "predictions.jsonl": "aa1a812ad110590d5283181bb975fc37f2bfc83a1ff7d41fa3114e4a97e7dcca",
    "problems.jsonl": "7c2decdf6b9277ff99c9165c3d4fff74d15bac0357df7a9e0074ce87f7cebf57",
    "report.txt": "dc5489f8488420a22866d1ac5ef9b73e4081bc29730b28bdb5df65ef21a9e205",
}

GOLDEN = {
    "hybrid": {
        **_SHARED,
        "dataset.jsonl": "f9593f4a6ed38d9439bb7ffd093ea83130122120558c1c58d9d45ea051377b18",
        "report.json": "a7d8d40fcf198552afa50ec136ef003b8022cc423bb2df5366c499556f589ee4",
    },
    "no_rationale": {
        **_SHARED,
        "dataset.jsonl": "3241c7f6c19f6c0cd3451a46c4387475b3493a26e9a433a30e3e3101a1bc20b6",
        "report.json": "77830078c63b4eeda6586aaca0fb2fc7b6b7511440d2e52be044f00b5b4583a6",
    },
}

# `decode` writes the same results and log in every mode on synthetic
# backends; its summary carries the config hash, which covers the mode.
_DECODE = {
    "decode_log.jsonl": _SHARED["decode_log.jsonl"],
    "decode_results.jsonl": _SHARED["decode_results.jsonl"],
}

STAGE_GOLDEN = {
    ("generate", "hybrid"): {
        "dataset.jsonl": GOLDEN["hybrid"]["dataset.jsonl"],
        "problems.jsonl": _SHARED["problems.jsonl"],
        "summary.json": "255011b733e43d0db922670832b2b1aa4b054b1a00d56bfc171e3aca17db21be",
    },
    ("generate", "no_rationale"): {
        "dataset.jsonl": GOLDEN["no_rationale"]["dataset.jsonl"],
        "problems.jsonl": _SHARED["problems.jsonl"],
        "summary.json": "ac6ebb027a4ec7d5b47feeefbc8bc3cddde6c0dfbf47c3b4e54052dc8ef3587f",
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
