"""The README's library example runs against the current API."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert "RCOR" in capsys.readouterr().out
