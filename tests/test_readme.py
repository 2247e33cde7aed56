"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # component 3 of 2/5 and c0, as in the reference table
    assert lines[0] == "odd exp(i·2π/5)/√5 6π/5"
    assert lines[1].startswith("exp(i·8π/5)/√5 ")
    assert max(map(float, lines[2].strip("[]").split())) < 1e-12
