"""The README's library example runs exactly as written, and every
``efxkit`` line of its shell blocks parses."""

import re
import shlex
from pathlib import Path

from efxkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_library_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[-1] == "True"


def test_readme_command_lines_parse():
    # Parsed, not run: a flag the CLI drops fails here instead of going
    # stale in the docs.  A usage error exits through SystemExit.
    lines = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("efxkit ")]
    commands = {cli.build_parser().parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"gen", "check", "oracle", "lovasz", "extension", "dca", "fixedpoint", "compare"}
