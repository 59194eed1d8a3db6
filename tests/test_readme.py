"""The README's Python examples run as doctests, so the docs cannot drift."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for m in blocks:
        line = text.count("\n", 0, m.start(1))
        runner.run(parser.get_doctest(m.group(1), {}, f"README.md:{line + 1}", str(README), line))
    failed, attempted = runner.summarize(verbose=False)
    assert attempted and not failed, f"{failed} of {attempted} README examples failed"
