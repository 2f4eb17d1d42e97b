"""The CLI's docs are rendered from its declarations.

``docs/api.md`` and ``README.md`` carry the ``repro-power`` synopsis,
the flag reference, the exit-code table and the ``RunSpec`` table's
"CLI flag" column between ``<!-- cli:NAME -->`` and ``<!-- /cli:NAME -->``
markers. The tests fail while the committed text differs from what
``repro.cli.COMMANDS``, ``SHARED_FLAGS`` and ``EXIT_CODES`` render;
running this file rewrites the blocks::

    PYTHONPATH=src python tests/test_cli_docs.py
"""

import pathlib
import re
import sys

import pytest

from repro.cli import COMMANDS, EXIT_CODES, SHARED_FLAGS, Flag, _dest, _flags

ROOT = pathlib.Path(__file__).resolve().parents[1]
BLOCKS = {
    "docs/api.md": ("runspec-flags", "synopsis", "flags", "exit-codes"),
    "README.md": ("exit-codes",),
}
_BLOCK = re.compile(r"<!-- cli:(\S+) -->\n(.*?)<!-- /cli:\1 -->", re.S)


def _metavar(flag: Flag) -> str:
    """What ``--help`` shows after an option's name ("" for a switch)."""
    if flag.default is False or not flag.names.startswith("-"):
        return ""
    if flag.choices:
        return "{" + ",".join(flag.choices) + "}"
    meta = flag.metavar or _dest(flag).upper()
    return {"?": f"[{meta}]", "*": f"[{meta} ...]"}.get(flag.nargs, meta)


def render_synopsis(_: str) -> str:
    """Each subcommand with its positionals and required options."""
    lines = []
    for name in COMMANDS:
        words = [f"repro-power {name}"]
        for flag in _flags(name):
            if not flag.names.startswith("-"):
                words.append(f"[{flag.names}]" if flag.nargs == "?" else flag.names)
            elif flag.required:
                words.append(f"{flag.names} {_metavar(flag)}")
        if len(_flags(name)) > len(words) - 1:
            words.append("[options]")
        lines.append(" ".join(words))
    return "```\n" + "\n".join(lines) + "\n```\n"


def _default(flag: Flag) -> str:
    if flag.required or not (flag.names.startswith("-") or flag.nargs):
        return "required"
    if flag.default is False:
        return "off"
    return "—" if flag.default in ("", None, []) else f"`{flag.default}`"


def _flag_table(flags, with_fields: bool):
    head = ["Flag", "Default"] + ["`RunSpec` field"] * with_fields + ["Meaning"]
    rows = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for flag in flags:
        meta = _metavar(flag)
        names = ", ".join(f"`{name}`" for name in flag.names.split())
        cells = [names + (f" `{meta}`" if meta else ""), _default(flag)]
        if with_fields:
            cells.append(", ".join(f"`{field}`" for field in flag.fields) or "—")
        cells.append(flag.help.replace("%%", "%"))
        rows.append("| " + " | ".join(cells) + " |")
    return rows


def render_flags(_: str) -> str:
    lines = []
    for name, (_, own, _) in COMMANDS.items():
        if own:
            lines += [f"`repro-power {name}`:", "", *_flag_table(own, False), ""]
    lines += ["Shared by `run` and `report`:", "", *_flag_table(SHARED_FLAGS, True)]
    return "\n".join(lines) + "\n"


def render_exit_codes(_: str) -> str:
    rows = ["| Code | Meaning |", "|---|---|"]
    rows += [f"| `{code}` | {meaning} |" for code, meaning in EXIT_CODES]
    return "\n".join(rows) + "\n"


def render_runspec_flags(table: str) -> str:
    """The committed ``RunSpec`` field table, its third column ("CLI
    flag") rendered from the fields each flag's row names."""
    lines = []
    for line in table.strip().splitlines():
        cells = line.split(" | ")
        if len(cells) > 2 and not line.startswith("| Field"):
            fields = set(re.findall(r"`(\w+)`", cells[0]))
            flags = [f"`{f.names}`" for f in SHARED_FLAGS if fields & set(f.fields)]
            cells[2] = ", ".join(flags) or "—"
        lines.append(" | ".join(cells))
    return "\n".join(lines) + "\n"


RENDERERS = {
    "synopsis": render_synopsis,
    "flags": render_flags,
    "exit-codes": render_exit_codes,
    "runspec-flags": render_runspec_flags,
}


def render_docs(text: str) -> str:
    """``text`` with every marked block re-rendered."""

    def block(match) -> str:
        name, body = match.group(1), match.group(2)
        return f"<!-- cli:{name} -->\n\n{RENDERERS[name](body)}\n<!-- /cli:{name} -->"

    return _BLOCK.sub(block, text)


@pytest.mark.parametrize("path", sorted(BLOCKS))
def test_committed_blocks_equal_the_rendering(path):
    text = (ROOT / path).read_text()
    assert [m.group(1) for m in _BLOCK.finditer(text)] == list(BLOCKS[path])
    assert render_docs(text) == text, (
        f"{path} differs from the CLI declarations; "
        "run `PYTHONPATH=src python tests/test_cli_docs.py`"
    )


@pytest.mark.parametrize(
    "path, name", [(path, name) for path in sorted(BLOCKS) for name in BLOCKS[path]]
)
def test_a_hand_edited_block_is_caught(path, name):
    text = (ROOT / path).read_text()
    match = next(m for m in _BLOCK.finditer(text) if m.group(1) == name)
    # Rename the first flag (or exit code) the block renders.
    body = re.sub(r"--[a-z][\w-]*|`\d`", lambda m: m.group(0) + "x", match.group(2), 1)
    edited = text[: match.start(2)] + body + text[match.end(2) :]
    assert edited != text
    assert render_docs(edited) != edited


def test_every_exit_code_is_listed_once():
    codes = [code for code, _ in EXIT_CODES]
    assert codes == sorted(set(codes)) == list(range(7))


if __name__ == "__main__":
    for path in sys.argv[1:] or sorted(BLOCKS):
        target = ROOT / path
        target.write_text(render_docs(target.read_text()))
