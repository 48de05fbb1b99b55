"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import schedchain
import schedchain.cli as cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _first_block(section, lang):
    """The first ``lang`` fenced block after the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _commands():
    """The calls of the first command-line block, one word list each."""
    text = _first_block("Command line", "sh").replace("\\\n", " ")
    lines = (shlex.split(line, comments=True) for line in text.splitlines())
    return [words for words in lines if words]


def test_library_quickstart_runs():
    exec(compile(_first_block("Library quickstart", "python"), "README.md", "exec"), {})


def test_command_line_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert len(commands) == 7
    for program, *argv in commands:
        assert program == "schedchain"
        assert cli.main(argv) == 0, argv
        if "--output" in argv:
            assert (tmp_path / argv[argv.index("--output") + 1]).exists()


def test_api_references_resolve():
    # every `schedchain.<dotted name>` in backticks, up to any call syntax;
    # schedchain.cli resolves because this module imports it
    names = re.findall(r"`schedchain\.([\w.]+)[^`]*`", README)
    assert names
    for name in names:
        obj = schedchain
        for part in name.split("."):
            obj = getattr(obj, part)  # an AttributeError names what is gone
