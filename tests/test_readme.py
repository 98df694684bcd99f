"""The README's examples run: every CLI example that shows output prints
it, and the certificate block is K5's real certificate."""

import io
import json
import re
import shlex
import sys
from pathlib import Path

from twoomega.cli import cli_main
from twoomega.colorer import certificate_to_json, color_bounded
from twoomega.graphs import complete

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def cli_examples():
    """(command, shown output lines) for each `$ twoomega` example of the
    CLI section that shows output."""
    for block in re.findall(r"```sh\n(.*?)```", section("CLI"), re.S):
        for example in block.split("\n\n"):
            cmd, *shown = example.strip().split("\n")
            assert cmd.startswith("$ "), cmd
            if shown:
                yield cmd[2:], shown


def run_example(cmd: str, capsys, monkeypatch) -> tuple[int, str]:
    words = shlex.split(cmd, comments=True)
    if words[0] == "echo":
        assert words[2] == "|", cmd
        monkeypatch.setattr(sys, "stdin", io.StringIO(words[1] + "\n"))
        words = words[3:]
    assert words[0] == "twoomega", cmd
    capsys.readouterr()
    code = cli_main(words[1:])
    return code, capsys.readouterr().out


def test_cli_examples_print_what_they_show(capsys, monkeypatch):
    examples = list(cli_examples())
    assert len(examples) == 5
    for cmd, shown in examples:
        code, out = run_example(cmd, capsys, monkeypatch)
        assert code == 0, cmd
        lines = out.splitlines()
        assert len(lines) == len(shown), cmd
        for got, want in zip(lines, shown):
            # a line with "..." shows the output up to that point
            assert got.startswith(want.split("...")[0]) if "..." in want else got == want


def test_certificate_block_is_k5_certificate():
    block = re.search(r"```json\n(.*?)```", section("Certificates"), re.S).group(1)
    assert json.loads(block) == json.loads(certificate_to_json(color_bounded(complete(5))))
