"""README.md's examples run as written and print what it shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from lpadexpl.cli import main

from conftest import fixture_text

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def cli_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) of every ``$ lpadexpl`` session."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "sh" or not body.startswith("$ lpadexpl "):
            continue
        lines = body.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        examples.append((command[len("$ lpadexpl ") :], "".join(f"{line}\n" for line in lines)))
    return examples


def test_readme_has_cli_examples():
    assert len(cli_examples()) == 3


@pytest.mark.parametrize("command,expected", cli_examples())
def test_cli_example_prints_what_the_readme_shows(capsys, monkeypatch, command, expected):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


def test_library_tour_runs(monkeypatch):
    (tour,) = [body for lang, body in BLOCKS if lang == "python"]
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(tour, {})
    assert out.getvalue().splitlines()[0] == "0.936"


def test_quick_start_listing_is_the_fixture():
    (listing,) = [body for lang, body in BLOCKS if lang == "prolog"]
    # the fixture opens with a comment paragraph the README leaves out
    _, body = fixture_text("covid_neg.lpad").split("\n\n", 1)
    assert listing == body
