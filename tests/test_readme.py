"""README's examples run as written: the library quick start and the config schema."""

import re
from pathlib import Path

from corrdyn import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, lang: str) -> str:
    """The first ```lang block after the heading line."""
    section = README[README.index(f"{heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    names: dict = {}
    exec(code_block("## Library quick start", "python"), names)
    assert names["traj"].times[-1] == 10.0
    assert len(names["rep"].frequencies) == 4  # the two-spin benchmark's four


def test_config_schema_example_runs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(code_block("### Config schema", "json"))
    out = tmp_path / "out"
    assert cli.run(cfg, out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "decomposition.txt", "spectrum.csv", "trajectory.csv", "validate.txt",
    ]
    assert "status=ok" in (out / "validate.txt").read_text().splitlines()
