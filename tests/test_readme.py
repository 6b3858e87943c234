"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

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
