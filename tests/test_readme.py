import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import mpesplit
from mpesplit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_commands():
    """The argv (after the program name) of each `mpesplit` command in the
    README's Quick start block; a line ending in a backslash continues."""
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mpesplit ")]


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    u = namespace["u"]
    assert u.shape == (128, 128)
    assert np.all(np.isfinite(u))


def test_quick_start_has_every_command():
    commands = {argv[0] for argv in quick_start_commands()}
    assert commands == {"list-schemes", "list-models", "run", "converge", "order-check",
                        "preset"}


@pytest.mark.parametrize("argv", quick_start_commands(), ids=" ".join)
def test_quick_start_command_parses(argv):
    build_parser().parse_args(argv)


def test_named_calls_exist():
    """Every call the README's prose names in backticks, such as
    `load_field(basepath)`, is an attribute of a module of the package."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    names = re.findall(r"`(?:\w+\.)*(\w+)\(", prose)
    modules = [importlib.import_module(f"mpesplit.{info.name}")
               for info in pkgutil.iter_modules(mpesplit.__path__)]
    assert "load_field" in names and "reversibility_defect" in names
    assert [n for n in names if not any(hasattr(m, n) for m in modules)] == []
