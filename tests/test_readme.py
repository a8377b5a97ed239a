"""The README's Python examples run, in order, against the current API, and its config example is valid."""

import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from kmsolve import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 3
    namespace: dict = {}
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_config_example_validates_and_runs(tmp_path):
    (block,) = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    cfg = json.loads(re.sub(r"//[^\n]*", "", block))
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(cfg))
    for command in ("validate", "run"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([command, str(path)])
        assert (code, err.getvalue()) == (0, ""), command
