"""The README's library quick start runs against the package."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    assert "[0 2 5]" in capsys.readouterr().out
