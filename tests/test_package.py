"""The package's source as a whole: the token budget of each module and
the modules that `import ewjn.cli` loads.

Every command compiles ewjn from source when no bytecode cache is
written, and CPython's parser grows its token array at 8,192 tokens, so a
module past that step adds about 0.5 MB to every command's peak RSS.
Tokens are counted as the parser reads them: tokenize's stream without
COMMENT and NL tokens.
"""

import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ewjn"
PARSER_STEP = 8192


def source_tokens(path) -> int:
    """The tokens of a module, without COMMENT and NL tokens."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for token in tokenize.generate_tokens(fh.readline)
                   if token.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_stays_under_the_parser_step(path):
    assert source_tokens(path) < PARSER_STEP


def test_the_cli_import_loads_every_module():
    # a command's time is counted after `import ewjn.cli`, so every module
    # compiles there, none on first use
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, ewjn.cli; print(*sorted(sys.modules))"], env=env,
        capture_output=True, text=True, check=True).stdout.split()
    modules = {"ewjn" if path.stem == "__init__" else f"ewjn.{path.stem}"
               for path in SRC.glob("*.py")}
    assert modules <= set(loaded)
