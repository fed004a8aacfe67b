"""Prompt templates loaded from plain-text asset files.

A template file has two ``=== name ===`` sections: role (the system
preamble) and body (the user message with ``{slot}`` placeholders). The body
ends with the reply format that the role's reader parses, so the model is
told what its reply is read for. Each named slot must appear exactly once in
the body.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

_SECTION_RE = re.compile(r"^===\s*(role|body)\s*===\s*$", re.MULTILINE)
_SLOT_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    role_preamble: str
    body_template: str

    def __post_init__(self):
        counts: dict[str, int] = {}
        for name in _SLOT_RE.findall(self.body_template):
            counts[name] = counts.get(name, 0) + 1
        repeated = sorted(name for name, n in counts.items() if n > 1)
        if repeated:
            raise ValueError(f"slots must appear exactly once; repeated: {', '.join(repeated)}")

    def slots(self) -> set[str]:
        return set(_SLOT_RE.findall(self.body_template))

    def render(self, **values: str) -> str:
        """Fill every slot; the provided names must cover the slots exactly."""
        wanted = self.slots()
        given = set(values)
        if wanted != given:
            missing = sorted(wanted - given)
            extra = sorted(given - wanted)
            parts = []
            if missing:
                parts.append(f"missing slots: {', '.join(missing)}")
            if extra:
                parts.append(f"unknown slots: {', '.join(extra)}")
            raise ValueError("; ".join(parts))
        return _SLOT_RE.sub(lambda m: values[m.group(1)], self.body_template)


def parse_template(text: str) -> PromptTemplate:
    """The template of a file's text; text before its first section is ignored."""
    parts = _SECTION_RE.split(text)  # [before, name, text, name, text, ...]
    sections = dict(zip(parts[1::2], parts[2::2]))
    for required in ("role", "body"):
        if required not in sections:
            raise ValueError(f"template file is missing the {required} section")
    return PromptTemplate(role_preamble=sections["role"].strip(),
                          body_template=sections["body"].strip())


def builtin_template(name: str) -> PromptTemplate:
    """Load one of the shipped templates: generator, judger, scorer,
    scorer_label_only."""
    ref = resources.files("treeprm").joinpath(f"assets/templates/{name}.txt")
    return parse_template(ref.read_text(encoding="utf-8"))
