"""The README's library example runs as printed."""

import contextlib
import io
import json
import pathlib

README = pathlib.Path(__file__).parent.parent / "README.md"


def _library_example() -> str:
    """The one ```python block in the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("\n```", 1)[0]


def test_library_example_prints_defeated_replay():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    report = json.loads(out.getvalue())
    assert report["outcome"] == "DEFEATED"
    assert report["reason"] == "BadSignature"
