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
    "dataset_summary.json": "3d88b1e9569da92b0af3e7fa37b6d54a30aed47c0dee6042e16c97e4cb7bf635",
    "decode_log.jsonl": "7585e7bedc397ba8034d1608d0b5b8fb21a7a89fcc8a535b4a97dc3dd58825e8",
    "decode_results.jsonl": "2abacc72d3a5b0b80ec000dba789517f3c876400c29b80cd158669893e81ac69",
    "eval_report.json": "f1b01498c4efdfe73d1eb27c5fcbf7f80081f0349cce122653b8e329ebc0a243",
    "eval_report.txt": "d815961dbb2b817e6be21a9052ed5cccd7bc6d5b390ad6ed836d51829427f30f",
    "predictions.jsonl": "aa1a812ad110590d5283181bb975fc37f2bfc83a1ff7d41fa3114e4a97e7dcca",
    "problems.jsonl": "7c2decdf6b9277ff99c9165c3d4fff74d15bac0357df7a9e0074ce87f7cebf57",
    "report.txt": "992786bd69ced38b1bbe16389c07c56d7f21488856ae899acb2424c6bbb9e0a1",
}

GOLDEN = {
    "hybrid": {
        **_SHARED,
        "dataset.jsonl": "1c368c29378a9788449e925c4f5e8fe6e038a60f742188992af3131f596c0330",
        "report.json": "2f7f9fe9207e6d5b7fbb70de024b82866098b40888acfd07a66c73bc0877bf22",
    },
    "no_rationale": {
        **_SHARED,
        "dataset.jsonl": "93093d6b41c866906b76a2f4ab33f9ebe1a5513bf346a3101702dcb11409ed40",
        "report.json": "35649999408c7bf29df76679aa245c1afa91a2be505915763c87e1837123af59",
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
        "summary.json": "3db3f824f963480a3f9721cbc0d79ca47c2732fe8867d5cdc5975ab3fff4b091",
    },
    ("generate", "no_rationale"): {
        "dataset.jsonl": GOLDEN["no_rationale"]["dataset.jsonl"],
        "problems.jsonl": _SHARED["problems.jsonl"],
        "summary.json": "0e09ccba22035c74a50126688c06e8fbf693247545b82dcda42cd8943a5ecb40",
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
