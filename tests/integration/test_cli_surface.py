"""Pin the parser surface of ``csrplus``: every flag of every command.

Each argparse action of each (sub)parser is reduced to the fields a
caller can observe: option strings, ``dest``, ``default``, type name,
``choices``, ``required``, ``nargs``, action class, ``metavar`` and the
mutually exclusive group it belongs to (its sorted option strings and
whether the group is required).  Help text is deliberately left out.
The reduction is compared with the committed table
``cli_surface.json``, so a dropped flag, a changed default or a loosened
source group fails here even when no behaviour test passes that flag.

After an intended surface change, regenerate the table with::

    PYTHONPATH=src python -m tests.integration.test_cli_surface
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Dict, Iterator, Tuple

import pytest

from repro.cli import build_parser

TABLE = pathlib.Path(__file__).with_name("cli_surface.json")


def _plain(value):
    """``value`` as a JSON-comparable object."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _parsers(
    parser: argparse.ArgumentParser, name: str = "csrplus"
) -> Iterator[Tuple[str, argparse.ArgumentParser]]:
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                yield from _parsers(sub, f"{name} {sub_name}")


def _surface(parser: argparse.ArgumentParser) -> Dict[str, dict]:
    groups = {}
    for group in parser._mutually_exclusive_groups:
        options = sorted(
            opt for action in group._group_actions
            for opt in action.option_strings
        )
        for action in group._group_actions:
            groups[id(action)] = {"options": options, "required": group.required}
    surface = {}
    for action in parser._actions:
        choices = action.choices
        if isinstance(choices, dict):
            choices = sorted(choices)
        key = ",".join(action.option_strings) or action.dest
        surface[key] = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "type": getattr(action.type, "__name__", _plain(action.type)),
            "choices": _plain(choices),
            "required": action.required,
            "nargs": _plain(action.nargs),
            "action": type(action).__name__,
            "metavar": _plain(action.metavar),
            "group": groups.get(id(action)),
        }
    return surface


def current_surface() -> Dict[str, Dict[str, dict]]:
    return {name: _surface(sub) for name, sub in _parsers(build_parser())}


@pytest.fixture(scope="module")
def expected() -> Dict[str, Dict[str, dict]]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


CURRENT = current_surface()


def test_same_commands(expected):
    assert sorted(CURRENT) == sorted(expected)


@pytest.mark.parametrize("command", sorted(CURRENT))
def test_command_surface(command, expected):
    assert CURRENT[command] == expected.get(command)


def _render(table: Dict[str, Dict[str, dict]]) -> str:
    """The table as JSON with one action per line, for readable diffs."""
    commands = []
    for name in sorted(table):
        actions = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
            for key, record in sorted(table[name].items())
        )
        commands.append(f"{json.dumps(name)}: {{\n{actions}\n}}")
    return "{\n" + ",\n".join(commands) + "\n}\n"


if __name__ == "__main__":  # pragma: no cover - table regeneration
    TABLE.write_text(_render(current_surface()), encoding="utf-8")
    print(f"wrote {TABLE}")
