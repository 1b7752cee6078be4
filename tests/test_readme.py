"""The README's library example and command-line examples run as printed."""

import contextlib
import io
import json
import pathlib
import shlex

from ibaka.cli import main

README = pathlib.Path(__file__).parent.parent / "README.md"


def _section(title: str) -> str:
    """The README's `## <title>` section, up to the next `## ` heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _library_example() -> str:
    """The one ```python block in the README's `## Library` section."""
    blocks = _section("Library").split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("\n```", 1)[0]


def test_library_example_prints_defeated_replay():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    report = json.loads(out.getvalue())
    assert report["outcome"] == "DEFEATED"
    assert report["reason"] == "BadSignature"


def test_command_line_examples_exit_0():
    """Each `$ ibaka ...` line of the `## Command line` section, split as a
    shell splits it, exits 0 through `cli.main`."""
    examples = [line.removeprefix("$ ibaka ")
                for line in _section("Command line").splitlines() if line.startswith("$ ibaka ")]
    assert examples
    for example in examples:
        assert main(shlex.split(example)) == 0, example
