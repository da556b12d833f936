"""`tools/ladder.py --quick` runs every quick rung and records its stages.

The keys of the record are checked, not its times.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_quick_ladder_records_every_quick_rung(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.delitem(sys.modules, "ladder", raising=False)
    import ladder

    src = ladder.ROOT / "src"
    monkeypatch.setattr(ladder, "ROOT", tmp_path)  # where BENCH_0.json goes
    assert ladder.main(["--quick", "--pr", "0", "--src", str(src)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert json.loads((tmp_path / "BENCH_0.json").read_text()) == \
        {"pr": 0, "runs": [record]}
    assert {"python", "nproc", "loadavg_start", "loadavg_end", "k", "quick",
            "src_sha256", "rungs"} <= record.keys()
    quick = [name for name, (fast, _) in ladder.RUNGS.items() if fast]
    assert [rung["name"] for rung in record["rungs"]] == quick
    assert "QQ Fermat" in quick and len(quick) < len(ladder.RUNGS)
    for rung in record["rungs"]:
        assert "error" not in rung and rung["runs"] == ladder.K
        assert rung["path"] in ("residue", "bezoutian")
        assert set(rung["stages_s"]) == set(ladder.STAGES)
    paths = {rung["name"]: rung["path"] for rung in record["rungs"]}
    assert paths["QQ Fermat"] == "bezoutian"  # zeros at infinity
    assert paths["GF(27) Grassmannian"] == "bezoutian"  # rank 6 of 16
    assert paths["QQ (2,2,2,2)"] == "residue"
