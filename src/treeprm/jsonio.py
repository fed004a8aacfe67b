"""Canonical JSON: the one encoding behind every emitted file and content hash.

Sorted keys, ASCII escapes and compact separators make the text a function of
the value alone, so identical runs write identical bytes, and the config hash
names equal semantic configs with equal digests. HTTP request bodies keep
their keys in insertion order (`request_body`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """One line of JSON: sorted keys, ASCII escapes, no whitespace."""
    return _CANONICAL.encode(value)


def request_body(payload: Any) -> bytes:
    """The JSON body of an HTTP request: `json.dumps(payload, allow_nan=False)`
    as UTF-8 (ASCII, since non-ASCII text is escaped)."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


@contextmanager
def jsonl_writer(
    path: str | Path, encode: Callable[[Any], str] = canonical_json
) -> Iterator[Callable[[Any], None]]:
    """Replace `path` and yield `write(record)`, which appends the encoded
    record as one `\\n`-terminated line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        yield lambda record: handle.write(encode(record) + "\n")


def write_jsonl(
    path: str | Path, records: Iterable, encode: Callable[[Any], str] = canonical_json
) -> None:
    """Replace `path` with one encoded record per `\\n`-terminated line."""
    with jsonl_writer(path, encode) as write:
        for record in records:
            write(record)


def write_json(path: str | Path, value: Any) -> None:
    """Replace `path` with `value` as a single canonical line."""
    write_jsonl(path, (value,))


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, decoded object) for every non-blank line.

    A line that is not JSON, or not a JSON object, raises ValueError naming
    the file and the line.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"{path} line {line_no}: invalid JSON: {err.msg} (column {err.colno})"
                ) from err
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path} line {line_no}: expected a JSON object, "
                    f"got {type(record).__name__}"
                )
            yield line_no, record


def build_each(build: Callable[[dict], Any], located: Iterable[tuple[str, dict]]) -> list:
    """`build(record)` for each (location, record) pair. A record that lacks
    a key or holds a bad value raises ValueError naming its location."""
    built = []
    for where, record in located:
        try:
            built.append(build(record))
        except KeyError as err:
            raise ValueError(f"{where}: missing key {err}") from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"{where}: {err}") from err
    return built


def load_jsonl(path: str | Path, build: Callable[[dict], Any]) -> list:
    """`build(record)` for every record of a JSONL file; a bad record raises
    ValueError naming the file and the line."""
    return build_each(build, ((f"{path} line {line_no}", record)
                              for line_no, record in read_jsonl(path)))
