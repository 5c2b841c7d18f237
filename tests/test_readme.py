"""README's examples stay runnable: every `tokenrnr` command line in its sh
blocks parses, and the library quick start runs."""
import re
import shlex
from pathlib import Path

from tokenrnr.cli import build_parser

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_cli_examples_parse():
    parser = build_parser()
    commands = set()
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["tokenrnr"]:
                commands.add(parser.parse_args(argv[1:]).command)
    assert commands == {"profile", "bench", "ablate", "klcheck", "normstats"}


def test_library_quick_start_runs():
    # the second python block is a full 8-block, 30-step run: too slow here
    exec(compile(fenced_blocks("python")[0], "README.md", "exec"), {})
