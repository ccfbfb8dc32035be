"""The recorded results have one source: ``benchmarks/results/MANIFEST.json``
names, for every file, the ``repro-clustering`` commands whose stdout it is,
and ``tools/results.py`` compares by bytes.  Here: the manifest, the
directory and the documents agree, and the tool passes and fails closed on
the sub-second entries (the full check is a CI step, minutes)."""

import fnmatch
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
MANIFEST = json.loads((RESULTS / "MANIFEST.json").read_text())
FAST = ["table1_latency_model.txt", "table4_bank_conflicts.txt"]


def test_manifest_is_the_results_directory():
    assert set(MANIFEST) == {p.name for p in RESULTS.glob("*.txt")}
    assert sorted(p.name for p in RESULTS.iterdir() if p.suffix != ".txt") \
        == ["MANIFEST.json"]


@pytest.mark.parametrize("doc", ["EXPERIMENTS.md", "DESIGN.md"])
def test_docs_name_every_recorded_file(doc):
    """Every backticked ``*.txt`` in the document is a recorded file (or a
    ``*`` glob over them), and together they cover the manifest."""
    named = set()
    for ref in re.findall(r"`(?:benchmarks/results/)?([\w*]+\.txt)`",
                          (ROOT / doc).read_text()):
        hits = fnmatch.filter(MANIFEST, ref)
        assert hits, f"{doc} names {ref}, which is not a recorded file"
        named.update(hits)
    assert named == set(MANIFEST)


def test_readme_table_is_generated_from_the_manifest():
    readme = (ROOT / "README.md").read_text()
    for name, commands in MANIFEST.items():
        cell = "<br>".join(f"`repro-clustering {' '.join(argv)}`"
                           for argv in commands)
        assert f"| `{name}` | {cell} |" in readme, name


def test_manifest_commands_parse():
    parser = cli.build_parser()
    for commands in MANIFEST.values():
        for argv in commands:
            args = parser.parse_args(argv)
            assert cli._command(args)
            assert cli._ignored_flag(args) is None, argv


def run_tool(directory, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "results.py"),
         "--dir", str(directory), *argv, *FAST],
        capture_output=True, text=True)


def test_tool_checks_bytes_and_fails_closed(tmp_path):
    for name in ["MANIFEST.json", *FAST]:
        shutil.copy(RESULTS / name, tmp_path / name)
    assert run_tool(tmp_path).returncode == 0

    # one digit of one recorded file: Table 4's 0.176 becomes 0.177
    victim = tmp_path / "table4_bank_conflicts.txt"
    recorded = victim.read_text()
    victim.write_text(recorded.replace("0.176", "0.177"))
    proc = run_tool(tmp_path)
    assert proc.returncode == 1
    assert "table4_bank_conflicts.txt:6:" in proc.stderr
    assert "table1_latency_model.txt" not in proc.stderr

    # --write is the way back, and a second --write changes nothing
    assert run_tool(tmp_path, "--write").returncode == 0
    assert victim.read_text() == recorded
    assert run_tool(tmp_path).returncode == 0


def test_tool_rejects_a_file_the_manifest_does_not_name(tmp_path):
    shutil.copy(RESULTS / "MANIFEST.json", tmp_path)
    proc = run_tool(tmp_path, "fig9_nothing.txt")
    assert proc.returncode == 2 and "fig9_nothing.txt" in proc.stderr
