"""README.md documents the CLI: every subcommand, option string, config key and output file."""

import argparse
from pathlib import Path

from instruct_forge.cli import SETTINGS, build_parser

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def missing(names) -> list:
    return [name for name in names if name not in README]


def test_every_subcommand_and_option():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = [o for p in (parser, *commands.values()) for a in p._actions for o in a.option_strings]
    assert missing([*commands, *options]) == []


def test_every_config_key():
    assert missing(s.key for s in SETTINGS) == []


def test_every_output_file():
    assert missing(["model.ifta", "adapters-epoch", "train-report.jsonl"]) == []
