"""tools/snapshot_outputs.py --compare on two small snapshot trees."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "snapshot_outputs.py"


def write_tree(root, value, label, row):
    run = root / "rte_case"
    run.mkdir(parents=True)
    (run / "rte.json").write_text(json.dumps(
        {"runs": [{"limit": value, "factorisation": {"path": label}}]}))
    (run / "rte.csv").write_text("# manifest=abc\nlambda,deviation\n"
                                 f"0.1,{row}\n")


def compare(old, new, *extra):
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(old),
                           str(new), *extra], capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_compare_reports_moves_beyond_rtol_and_every_other_difference(
        tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old, 0.25, "gauge", 0.5)
    write_tree(new, 0.25 * (1 + 1e-12), "gauge", 0.5 + 1e-6)
    assert compare(old, old) == (0, [])
    code, lines = compare(old, new)
    assert code == 1
    assert [line.split(": ")[0] for line in lines] == [
        "rte_case/rte.csv[2][1]", "rte_case/rte.json.runs[0].limit"]
    assert compare(old, new, "--rtol", "1e-11")[1] == [
        "rte_case/rte.csv[2][1]: '0.5' -> '0.500001' (relative 2e-06)"]
    assert compare(old, new, "--rtol", "1e-5") == (0, [])

    # a string, a key and a file that only one tree has are always reported
    other = tmp_path / "other"
    write_tree(other, 0.25, "sector", 0.5)
    path = other / "rte_case" / "rte.json"
    payload = json.loads(path.read_text())
    payload["runs"][0]["factorisation"]["chiral"] = 1
    path.write_text(json.dumps(payload))
    (other / "rte_case" / "extra.json").write_text("{}")
    code, lines = compare(old, other, "--rtol", "1")
    assert code == 1
    assert lines == [
        "rte_case/extra.json: only in NEW",
        "rte_case/rte.json.runs[0].factorisation.chiral: only in NEW",
        "rte_case/rte.json.runs[0].factorisation.path: 'gauge' -> 'sector'"]
