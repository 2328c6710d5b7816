"""The README's library example runs as written and prints the numbers it
printed when it was last checked: the winner, the final success
probability and the minimum POVM error."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_numbers():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    (winner, success), (p_e,) = (line.split() for line in out.getvalue().splitlines())
    assert int(winner) == 3
    assert abs(float(success) - 0.9730152304309401) <= 1e-12
    assert abs(float(p_e) - 0.1111111111111115) <= 1e-12
