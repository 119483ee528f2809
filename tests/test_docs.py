"""The README's quick start runs, its library section names the package
exports and its command-line section names only real options; the demos'
imports from geostop resolve and the oracle and simulation demos run;
every export has a caller outside the tests."""

import argparse
import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import geostop
from geostop import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "geostop"
             for alias in node.names]
    assert names, f"{demo.name} imports nothing from geostop"
    missing = [name for name in names if not hasattr(geostop, name)]
    assert not missing, f"{demo.name} imports missing names: {missing}"


def test_oracle_demo_runs_clean():
    # the import check above cannot see a keyword the library dropped
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for demo, args in (("oracle_sandwich.py", []),
                       ("simulate_sandwich.py", ["--trials", "2000"])):
        proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *args],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, (demo, proc.stderr)
        assert "VIOLATIONS" not in proc.stdout, demo


def test_readme_command_line_flags_are_options():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):text.index("## Demos")]
    # `--key=value` stands for any option
    flags = set(re.findall(r"--[a-z][a-z0-9-]*",
                           section.replace("--key=value", "")))
    parser = cli.build_parser()
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
    options = {flag for sub in [parser, *subs.choices.values()]
               for flag in sub._option_string_actions}
    assert flags and flags <= options, sorted(flags - options)


def test_readme_library_section_names_the_exports():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("The package root re-exports"):
                   text.index("## Command line")]
    named = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    exported = {name for name in vars(geostop) if not name.startswith("_")
                and not isinstance(getattr(geostop, name), type(geostop))}
    assert exported <= named, sorted(exported - named)
    unknown = {name for name in named - {"outcomes_batch"}
               if not hasattr(geostop, name)}
    assert not unknown, sorted(unknown)


def _referenced_names(path: Path) -> set[str]:
    """Names used as code in a file, plus the parts of dotted-name string
    literals (layer lookups by name); a def or class name does not count."""
    names = set()
    defining = False
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                if not defining:
                    names.add(tok.string)
                defining = tok.string in ("def", "class")
            elif tok.type == tokenize.STRING:
                literal = re.fullmatch(r"""(['"])([\w.]+)\1""", tok.string)
                if literal:
                    names.update(literal.group(2).split("."))
    return names


def test_every_export_has_a_non_test_caller():
    sources = [p for p in sorted((ROOT / "src" / "geostop").glob("*.py"))
               if p.name != "__init__.py"]
    sources += DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_referenced_names(p) for p in sources))
    exported = {name for name in vars(geostop) if not name.startswith("_")
                and not isinstance(getattr(geostop, name), type(geostop))}
    assert not exported - used, sorted(exported - used)
