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
    "dataset_summary.json": "429ef3293f1893c87579b8fa6af2e12e4b52e6c58192bac19e880947ebff2c1e",
    "decode_log.jsonl": "7585e7bedc397ba8034d1608d0b5b8fb21a7a89fcc8a535b4a97dc3dd58825e8",
    "decode_results.jsonl": "2abacc72d3a5b0b80ec000dba789517f3c876400c29b80cd158669893e81ac69",
    "eval_report.json": "f1b01498c4efdfe73d1eb27c5fcbf7f80081f0349cce122653b8e329ebc0a243",
    "eval_report.txt": "d815961dbb2b817e6be21a9052ed5cccd7bc6d5b390ad6ed836d51829427f30f",
    "predictions.jsonl": "aa1a812ad110590d5283181bb975fc37f2bfc83a1ff7d41fa3114e4a97e7dcca",
    "problems.jsonl": "7c2decdf6b9277ff99c9165c3d4fff74d15bac0357df7a9e0074ce87f7cebf57",
    "report.txt": "647d4089b08312553f6ad14c05633d88b1ffe3328d9fe735f9d7d740f2d2e528",
}

GOLDEN = {
    "hybrid": {
        **_SHARED,
        "dataset.jsonl": "bfae44f77080ae918a1df5026fc35074ed97638379537f6c4710ffdce2a3fa9a",
        "report.json": "4dbb5843dfa98c1a72ac792ad091e7a8223cd3d1fe143dd7dc1d56a98e37d51a",
    },
    "no_rationale": {
        **_SHARED,
        "dataset.jsonl": "c5f40c6e856999d3e1750e88e0cee7664fab33696274592163a9273e0d9cf59a",
        "report.json": "ed379a756d1bf5893a5e84ce4e641cba7ee730949229e76fc89d4a986aaea4b7",
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
        "summary.json": "300210a2c35fe380e74c770691dedc68b0d3775fbacd8a8a61e313b3880559a5",
    },
    ("generate", "no_rationale"): {
        "dataset.jsonl": GOLDEN["no_rationale"]["dataset.jsonl"],
        "problems.jsonl": _SHARED["problems.jsonl"],
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
