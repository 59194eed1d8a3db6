"""The README's examples run as tests, so the docs cannot drift.

The Python examples run as doctests; every ``$ degenpoly ...`` line of a
``text`` block runs through the command line, and its stdout must read
exactly as the lines printed below it.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from degenpoly.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN_VERDICTS = Path(__file__).parent / "data" / "verify_all.json"


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


def _cli_examples():
    # (command, the lines printed below it up to the next command or the block's end)
    text = README.read_text(encoding="utf-8")
    for block in re.finditer(r"^```text\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block.group(1), flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            yield command, output.rstrip("\n").splitlines()


CLI_EXAMPLES = list(_cli_examples())


def test_readme_shows_command_line_examples():
    assert len(CLI_EXAMPLES) >= 5


@pytest.mark.parametrize("command, expected", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_readme_command_line_examples(command, expected, capsys, monkeypatch, tmp_path):
    prog, *argv = shlex.split(command)
    assert prog == "degenpoly"
    monkeypatch.chdir(tmp_path)  # where an --output example writes its file
    code = main(argv)
    assert code == 0 and capsys.readouterr().out.splitlines() == expected
    if "--output" in argv:
        written = tmp_path / argv[argv.index("--output") + 1]
        assert written.read_text(encoding="utf-8") == GOLDEN_VERDICTS.read_text(encoding="utf-8")
