"""The README's library example runs as documented, and every flag the
docs name exists."""

import argparse
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ecscalar.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library example'"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    k_opt, entropy, verdict = out.getvalue().split()
    assert re.fullmatch(r"0x[0-9a-f]+", k_opt)
    assert entropy == "1.0"
    assert verdict in ("True", "False")


def _parser_options() -> set[str]:
    """Every option string of every ``ecscalar`` subcommand."""
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        for option in action.option_strings
    }


def _cli_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _config_doc() -> str:
    return (ROOT / "docs" / "config-file-format.md").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "text", [_cli_section, _config_doc], ids=["readme-cli", "config-file-format"]
)
def test_documented_flags_exist(text):
    # A deleted flag cannot stay documented.
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text()))
    assert flags
    assert sorted(flags - _parser_options()) == []
