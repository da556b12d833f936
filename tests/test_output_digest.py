"""`tools/output_digest.py --check` compares against the checked-in digests."""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_passes_on_recorded_outputs_and_fails_on_a_mismatch(
        tmp_path, capsys):
    tool = _tool()
    assert tool.main(["--check", "decompose_qq"]) == 0
    recorded = capsys.readouterr().out
    assert recorded in tool.RECORDED.read_text()
    tampered = tmp_path / "digests.txt"
    tampered.write_text("decompose_qq 180 0\n")
    tool.RECORDED = tampered
    assert tool.main(["--check", "decompose_qq"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_deck_is_recorded_and_covers_the_unbenchmarked_subcommands(
        capsys):
    tool = _tool()
    assert tool.main(["--check", "cli"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["cli", str(len(tool.CLI_DECK))], ["cli:pretty", str(len(tool.CLI_DECK))]]
    assert all(line in tool.RECORDED.read_text().splitlines() for line in lines)
    commands = {tuple(argv[:2]) for argv in tool.CLI_DECK}
    assert {("form", "diagonalize"), ("form", "invariants"),
            ("form", "anisotropic-part"), ("form", "isomorphic"),
            ("form", "make"), ("symbol", "hilbert"),
            ("basis", "local")} <= commands
    statuses = {tool.run(argv)[0] for argv in tool.CLI_DECK}
    assert statuses == {0, 1, 2}


def test_a_query_that_raises_fails_with_or_without_check(monkeypatch, capsys):
    tool = _tool()
    main, bad = tool.cli.main, tool.CLI_DECK[0]

    def raising(argv):
        if argv == bad:
            raise RuntimeError("library bug")
        return main(argv)

    monkeypatch.setattr(tool, "cli", types.SimpleNamespace(main=raising))
    for args in (["cli"], ["--check", "cli"]):
        assert tool.main(args) == 1
        out = capsys.readouterr().out
        assert out.count("RAISED") == 1
        assert f"RAISED {bad!r}: exception RuntimeError: library bug" in out
