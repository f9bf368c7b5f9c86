"""The README's examples: the Python quick start and the command-line session."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from groupkit.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> list[str]:
    """The lines of the first ```lang block under the ## heading `section`."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"^```{lang}\n(.*?)^```$", body, re.S | re.M)[1].splitlines()


def test_quick_start_prints_what_its_comments_say():
    lines = _block("Quick start (Python)", "python")
    # each print line's comment, up to any " — ", is the line it prints
    expected = [line.split("#", 1)[1].split(" — ")[0].strip()
                for line in lines if line.startswith("print(")]
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_session_prints_what_it_shows(capsys):
    sessions = "\n".join(_block("Command-line tool", "console")).split("\n\n")
    assert len(sessions) == 3
    for session in sessions:
        command, *shown = session.splitlines()
        assert command.startswith("$ groupkit ")
        assert main(shlex.split(command)[2:]) == 0
        assert capsys.readouterr().out.splitlines() == shown
