"""The package namespace, and README's library example and CLI commands."""

import contextlib
import io
import pathlib
import re
import shlex

import nlresolvent
from nlresolvent import cli, completeness, families, graphs, nonlinearity, resolvent, solver, testkit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_the_modules_public_names():
    modules = (graphs, nonlinearity, solver, resolvent, completeness, families, testkit)
    exported = [n for n in nlresolvent.__all__ if n != "__version__"]
    assert len(exported) == len(set(exported))
    assert set(exported) == {n for mod in modules for n in mod.__all__}
    for mod in modules:
        for name in mod.__all__:
            assert getattr(nlresolvent, name) is getattr(mod, name)


def test_readme_library_example_prints_what_its_comments_claim():
    # the first python block; each print's comment states what it prints,
    # "0.666..." for a number that starts with those digits
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    claims = [line.split("#", 1)[1].split(", ") for line in code.splitlines()
              if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(claims) == 2
    for values, claim in zip(printed, claims):
        assert len(values) == len(claim), (values, claim)
        for value, expected in zip(values, (c.strip() for c in claim)):
            if expected.endswith("..."):
                assert value.startswith(expected[:-3]), (value, expected)
            else:
                assert value == expected


def test_readme_cli_commands_parse():
    # the CLI section's block, each command joined across its "\" continuations:
    # a removed mode or flag fails the parse, and every mode has an example
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "nlresolvent" for argv in commands)
    parser = cli.build_parser()
    assert [parser.parse_args(argv[1:]).mode for argv in commands] == [argv[1] for argv in commands]
    assert {argv[1] for argv in commands} == set(cli._MODES)
