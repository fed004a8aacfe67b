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
        "dataset.jsonl": "59267b45e3e0ea0dfc96daa42440cc46162215967c8ec4887ed22c52074a55ba",
        "report.json": "507436d13adbf93bc4dc04887b49e89e16906cd056cceef745150ee47164e993",
    },
    "no_rationale": {
        **_SHARED,
        "dataset.jsonl": "82f5d1a42443d4104092300033cd4f436976363db51790fde63f8ced3813c06f",
        "report.json": "a5eb558545ca2fc242a69cd16174422764e1de3e84e413832e308d3140e8c4ab",
    },
}

# `decode` writes the same bytes in every mode on synthetic backends.
_DECODE = {
    "decode_log.jsonl": _SHARED["decode_log.jsonl"],
    "decode_results.jsonl": _SHARED["decode_results.jsonl"],
    "decode_summary.json": "3ef65806d8f7f1b1286ec61e8995e24f1bda5e441234dfd4c100d9090d8581da",
}

STAGE_GOLDEN = {
    ("generate", "hybrid"): {
        "dataset.jsonl": GOLDEN["hybrid"]["dataset.jsonl"],
        "problems.jsonl": _SHARED["problems.jsonl"],
        "summary.json": "d0592ad8dbc92147776af6b9cbfe8cfc78f4ab487259e09c66f2c5da07f30757",
    },
    ("generate", "no_rationale"): {
        "dataset.jsonl": GOLDEN["no_rationale"]["dataset.jsonl"],
        "problems.jsonl": _SHARED["problems.jsonl"],
        "summary.json": "35361a2fbb9b97f1316e6ca95c596c5a7095bfd79d5c13c1da21ef24766ce42c",
    },
    ("decode", "hybrid"): _DECODE,
    ("decode", "no_rationale"): _DECODE,
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
