"""The README's contract sections agree with the code: the config keys, the
commands and exit codes, and each stage file's magic and version."""

import argparse
import re
from pathlib import Path

import pytest

from qapipe import answers, classifier, cli, index, questions
from qapipe.config import OPTIONAL_PATH_KEYS, PARAM_SPECS, REQUIRED_PATH_KEYS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of the README's `## title` section, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_config_block_holds_every_config_key_once_in_the_code_order():
    block = section("Configuration").split("```ini\n", 1)[1].split("```", 1)[0]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if line.strip() and not line.startswith("#")]
    assert keys == [*REQUIRED_PATH_KEYS, *OPTIONAL_PATH_KEYS, *PARAM_SPECS]


def test_command_table_lists_exactly_the_cli_subcommands():
    listed = re.findall(r"^\| `qapipe ([a-z-]+)", section("Commands"), re.MULTILINE)
    (subcommands,) = [action.choices for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(subcommands)


def test_exit_code_line_states_each_exit_code():
    text = " ".join(section("Commands").split())
    line = text[text.index("Exit codes:"):]
    assert f"`{cli.EXIT_OK}` success" in line
    assert f"`{cli.EXIT_USAGE}` usage or validation error" in line
    assert f"`{cli.EXIT_RUNTIME}` runtime failure" in line


@pytest.mark.parametrize("codec", [index, classifier, questions, answers],
                         ids=lambda codec: codec.__name__)
def test_file_formats_name_each_codec_magic_and_version(codec):
    formats = section("File formats")
    assert f"(`{codec.MAGIC}`, version {codec.VERSION}" in formats
    assert f"\n{codec.MAGIC} {codec.VERSION}\n" in formats
