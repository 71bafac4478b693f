"""The README's library example runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the example writes only to its own temporary directory
    exec(compile(block, f"{README}:Library use", "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["contempt", "objective", "respectful"]
    assert lines[-1] == "Direction.SENDER_CAUSES_RECEIVER"
    assert not any(tmp_path.iterdir())
