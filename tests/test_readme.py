"""The README's library example runs as documented."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library example'"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    k_opt, entropy, verdict = out.getvalue().split()
    assert re.fullmatch(r"0x[0-9a-f]+", k_opt)
    assert entropy == "1.0"
    assert verdict in ("True", "False")
