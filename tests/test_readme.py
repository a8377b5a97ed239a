"""The README's Python examples run, in order, against the current API."""

import io
import re
import warnings
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 3
    namespace: dict = {}
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
