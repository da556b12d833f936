"""`tools/output_digest.py --check` compares against the checked-in digests."""

from __future__ import annotations

import importlib.util
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
