"""The canonical JSON module and the guard that keeps it the only encoder."""

import ast
from pathlib import Path

import pytest

from treeprm.dataset import load_problems
from treeprm.jsonio import canonical_json, read_jsonl, write_json, write_jsonl

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treeprm"


def test_canonical_json_sorts_keys_escapes_and_is_compact():
    assert canonical_json({"b": [1, 2.5], "a": "é\n"}) == '{"a":"\\u00e9\\n","b":[1,2.5]}'


def test_writers_create_the_parent_and_end_every_line(tmp_path):
    path = tmp_path / "deep" / "nested" / "out.jsonl"
    write_jsonl(path, [{"x": 1}, {"y": [2]}])
    assert path.read_bytes() == b'{"x":1}\n{"y":[2]}\n'
    write_jsonl(path, [3, 4], encode=lambda n: str(n * 2))
    assert path.read_bytes() == b"6\n8\n"
    single = tmp_path / "other" / "one.json"
    write_json(single, {"k": None})
    assert single.read_bytes() == b'{"k":null}\n'


def test_read_jsonl_skips_blank_lines_and_keeps_line_numbers(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"a":1}\n\n  \n{"b":[2]}\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"b": [2]})]


@pytest.mark.parametrize("bad, reason", [
    ('{"id": "q2" "statement": "x"}', "invalid JSON"),
    ("[1,2]", "expected a JSON object, got list"),
    ('"text"', "expected a JSON object, got str"),
])
def test_read_jsonl_names_the_file_and_line_of_a_bad_record(tmp_path, bad, reason):
    path = tmp_path / "in.jsonl"
    path.write_text('{"id": "q1"}\n\n' + bad + "\n", encoding="utf-8")
    records = read_jsonl(path)
    assert next(records) == (1, {"id": "q1"})
    with pytest.raises(ValueError, match=reason) as excinfo:
        next(records)
    assert str(excinfo.value).startswith(f"{path} line 3: ")


def test_load_problems_reports_the_line_of_a_non_object(tmp_path):
    path = tmp_path / "problems.jsonl"
    path.write_text('{"id": "q1", "statement": "s", "gold_answer": "1"}\n[1,2]\n',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: expected a JSON object"):
        load_problems(path)


def test_json_dumps_is_called_only_in_jsonio():
    callers = []
    for module in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"):
                callers.append(f"{module.relative_to(PACKAGE)}:{node.lineno}")
    assert len(callers) == 1 and callers[0].startswith("jsonio.py:"), callers

