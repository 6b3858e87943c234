"""The README's library quick start runs against the current API, and its
CLI examples against the current parser."""

import re
import shlex
from pathlib import Path

import pytest

from cosimo.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README}:Library quick start", "exec"), namespace)
    out, grads = namespace["out"], namespace["grads"]
    assert out.shape == (namespace["ops"].n, 1)
    assert namespace["y"].shape == out.shape
    assert grads and all(g.shape == namespace["model"].params[n].shape for n, g in grads.items())


def test_cli_block_parses():
    # every command the docs show is one the parser accepts, so they name no
    # option that does not exist
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("cosimo ")]
    commands = set()
    for line in lines:
        try:
            commands.add(build_parser().parse_args(shlex.split(line)[1:]).command)
        except SystemExit:
            pytest.fail(f"the README's CLI block has a line the parser refuses: {line}")
    assert commands == {"generate", "inspect", "run", "train", "eval"}
