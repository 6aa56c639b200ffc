"""The README's Quick start, run as written: its transcript is the program's output."""

import re
import shlex
from pathlib import Path

from dualsniff.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    """The Quick start's YAML, and (argv, expected stdout lines) of each ``$`` command."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    config = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    transcript = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    lines = iter(transcript.splitlines())
    for line in lines:
        if line.startswith("$ "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            commands.append((shlex.split(line[2:]), []))
        elif commands:
            commands[-1][1].append(line)
    return config, [(argv, "\n".join(out).strip("\n").splitlines()) for argv, out in commands]


def test_quick_start_transcript_is_the_output(tmp_path, monkeypatch, capsys):
    config, commands = _quick_start()
    assert [argv[:2] for argv, _ in commands] == [
        ["dualsniff", "simulate"], ["dualsniff", "locate"], ["dualsniff", "locate"],
        ["dualsniff", "report"]]
    monkeypatch.chdir(tmp_path)
    Path("exp.yaml").write_text(config, encoding="utf-8")
    for argv, expected in commands:
        assert main(argv[1:]) == EXIT_OK, argv
        out = capsys.readouterr().out.splitlines()
        if expected[-1] == "...":  # the transcript shows only the start of this output
            expected = expected[:-1]
            out = out[:len(expected)]
        assert out == expected, argv
