"""The README's Python examples and the demos run as documented."""

import doctest
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_examples():
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, readme.name, str(readme), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "FAIL" not in out
