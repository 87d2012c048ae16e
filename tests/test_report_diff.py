"""tools/report_diff.py names exactly the rows and fields two reports differ in."""

import copy
import importlib.util
import json
import pathlib

from zdbench.report import canonical_json, theorems_report
from zdbench.universe import UniverseLimits

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(canonical_json(report), encoding="utf-8")
    return str(path)


def test_a_planted_member_is_the_one_difference(tmp_path, capsys):
    old = theorems_report("thm-*", limits=UniverseLimits(zmod_max=4, product_component_max=0))
    new = copy.deepcopy(old)
    row = next(row for row in new["statements"] if row["id"] == "thm-3.2")
    row["applicable"].insert(1, "Z4 :: Planted")
    paths = _write(tmp_path, "old.json", old), _write(tmp_path, "new.json", new)
    assert report_diff.main(list(paths)) == 1
    assert capsys.readouterr().out == "thm-3.2:\n  + Z4 :: Planted\n"
    assert report_diff.main([paths[1], paths[0]]) == 1
    assert capsys.readouterr().out == "thm-3.2:\n  - Z4 :: Planted\n"
    assert report_diff.main([paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == ""


def test_counts_failures_notes_bounds_and_universe_are_named():
    old = theorems_report("prop-2.2-6", limits=UniverseLimits(zmod_max=3, product_component_max=0))
    new = copy.deepcopy(old)
    row = new["statements"][0]
    row["checked"] += 1
    row["failures"].append({"member": "Z3 :: Reg", "witness": None})
    row["notes"] = ["planted note"]
    new["bounds"]["zmod_max"] = 5
    new["universe"]["counts"]["modules_reg"] += 1
    failure = json.dumps({"member": "Z3 :: Reg", "witness": None}, sort_keys=True)
    assert report_diff.report_diff(old, new) == [
        "prop-2.2-6:",
        f"  checked: {row['checked'] - 1} -> {row['checked']}",
        f"  + failure {failure}",
        "  + note planted note",
        *[f"  - note {note}" for note in old["statements"][0]["notes"]],
        "bounds.zmod_max: 3 -> 5",
        f"universe.counts.modules_reg: {old['universe']['counts']['modules_reg']} -> "
        f"{new['universe']['counts']['modules_reg']}",
    ]
