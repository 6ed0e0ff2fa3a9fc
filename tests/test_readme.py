"""README sections checked against the code they describe.

The file-format section's key table is checked in test_scenario_keys.py.
"""

import argparse
import re

from conftest import REPO_ROOT
from sybil_atsc import cli


def _section(title: str) -> str:
    """The README's text under `## <title>`, up to the next `## ` heading."""
    text = (REPO_ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_map_names_each_module_once():
    """"How it fits together" has one paragraph per module of the package,
    headed by its name, and stays a map: the docstrings hold the mechanism."""
    section = _section("How it fits together")
    modules = sorted(p.stem for p in (REPO_ROOT / "src" / "sybil_atsc").glob("*.py")
                     if p.stem != "__init__")
    named = re.findall(r"^- \*\*`(\w+)`\*\*", section, re.MULTILINE)
    assert sorted(named) == modules
    assert len(section.splitlines()) <= 60


def test_the_command_line_section_names_every_subcommand():
    """Each `sybil-atsc <command>` in the section's example block is a
    subcommand of the parser, and every subcommand has one."""
    block = _section("Command line").split("```")[1]
    listed = re.findall(r"^sybil-atsc ([\w-]+)", block, re.MULTILINE)
    (subparsers,) = [action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(subparsers.choices)
