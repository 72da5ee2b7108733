"""Executable documentation: the README quickstart must actually run,
and every command the docs name must exist."""

import argparse
import importlib
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
DESIGN = README.parent / "DESIGN.md"


def extract_python_blocks(text: str) -> list:
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_runs(self, capsys):
        blocks = extract_python_blocks(README.read_text())
        assert blocks, "README lost its quickstart code block"
        namespace: dict = {}
        exec(compile(blocks[0], str(README), "exec"), namespace)  # noqa: S102
        output = capsys.readouterr().out
        assert "NationKey" in output
        assert "round" in output.lower()

    def test_shell_examples_reference_real_files(self):
        text = README.read_text()
        repo = README.parent
        for match in re.findall(r"python (benchmarks/\S+\.py|examples/\S+\.py)", text):
            assert (repo / match).exists(), f"README references missing {match}"

    def test_module_init_quickstart_runs(self, capsys):
        import repro

        blocks = re.findall(r"(?s)Quickstart::\n\n(.*?)(?:\n\"\"\"|\Z)", repro.__doc__ + '"""')
        assert blocks
        code = "\n".join(
            line[4:] if line.startswith("    ") else line
            for line in blocks[0].splitlines()
        )
        namespace: dict = {}
        exec(compile(code, "repro.__doc__", "exec"), namespace)  # noqa: S102
        assert "NationKey" in capsys.readouterr().out


class TestDocRot:
    """README.md and DESIGN.md only name commands that exist."""

    @pytest.mark.parametrize("doc", [README, DESIGN], ids=lambda path: path.name)
    def test_named_subcommands_exist(self, doc):
        from repro.cli import build_parser

        subcommands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        # `python -m repro sql ...` and `python -m repro {demo,sql}` forms.
        mentions = re.findall(
            r"python -m repro\s+(\{[\w,-]+\}|[a-z][\w-]*)", doc.read_text()
        )
        assert mentions, f"{doc.name} no longer shows the CLI"
        for mention in mentions:
            for name in mention.strip("{}").split(","):
                assert name in subcommands, (
                    f"{doc.name} names `python -m repro {name}`, "
                    "which is not a subcommand"
                )

    @pytest.mark.parametrize("doc", [README, DESIGN], ids=lambda path: path.name)
    def test_named_modules_are_runnable(self, doc):
        for name in set(re.findall(r"python -m (repro\.[\w.]+\w)", doc.read_text())):
            module = importlib.import_module(name)
            assert callable(getattr(module, "main", None)), (
                f"{doc.name} names `python -m {name}`, which defines no main()"
            )
