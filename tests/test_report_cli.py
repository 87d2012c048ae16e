import functools
import json

import pytest

from zdbench import report
from zdbench.cli import main
from zdbench.dsl import build_ring
from zdbench.encoding import to_jsonable
from zdbench.errors import BoundExceeded
from zdbench.modules import zero_divisors_module
from zdbench.report import (analyze_report, collect_witnesses, render_text,
                            revalidate_report, revalidate_witness,
                            search_report, theorems_report, witness_report)
from zdbench.statements import search_counterexample
from zdbench.universe import UniverseLimits, generate_universe

SMALL = UniverseLimits(zmod_max=4, product_component_max=2, max_module=20,
                       max_sum_pairs=1)


def test_analyze_report_shape():
    rep = analyze_report("Prod(Z2,Z2)", "Cyclic((0,1))")
    assert rep["schema_version"] == 1
    assert rep["ring"]["zero_divisors"]["display"] == ["(0,0)", "(1,0)", "(0,1)"]
    assert rep["module"]["auslander"]["holds"] is False
    assert rep["module"]["auslander"]["witness"]["display"] == "(1,0)"
    assert rep["module"]["torsion_free"]["holds"] is True
    assert rep["module"]["flat"]["holds"] is True
    assert rep["module"]["natural_map_kernel_trivial"] is True
    # past the presentation budget flatness is left open, with the reason
    rep = analyze_report("Z4", "Cyclic(2)", UniverseLimits(presentation_budget=1))
    note = "flatness check for Cyclic(2): |M|^1 exceeds budget 1"
    assert rep["module"]["flat"] == rep["module"]["faithfully_flat"] == {
        "holds": None, "note": note}


def test_analyze_witnesses_revalidate():
    rep = analyze_report("Prod(Z2,Z2)", "Cyclic((0,1))")
    result = revalidate_report(rep)
    assert result["total"] >= 1 and not result["failed"]


def test_revalidation_catches_tampering():
    rep = analyze_report("Prod(Z2,Z2)", "Cyclic((0,1))")
    rep["witnesses"][0]["value"] = [1, 1]  # a unit is no Auslander witness
    result = revalidate_report(rep)
    assert result["failed"]


def test_tensor_witnesses_revalidate_over_the_algebra():
    rep = analyze_report("Z6", "Tensor(Cyclic(2), Algebra(Prod(Z6,Z6), Z6))")
    witness = rep["module"]["auslander"]["witness"]
    assert witness["ring"] == "Prod(Z6,Z6)" and witness["display"] == "(3,1)"
    result = revalidate_report(rep)
    assert result["total"] >= 2 and result["failed"] == []
    # the same element named over the base ring is no witness
    assert not revalidate_witness(dict(witness, ring="Z6"))


def test_revalidate_witness_kinds():
    ok = revalidate_witness({
        "kind": "torsion_free", "ring": "Z", "module": "Z/6", "value": 2,
        "display": "2"})
    assert ok
    assert not revalidate_witness({
        "kind": "torsion_free", "ring": "Z", "module": "Z/6", "value": 5,
        "display": "5"})
    # (0,1) kills (1,0) in the ring but no nonzero element of the module
    ext_ideal = {"kind": "ext_ideal", "ring": "Prod(Z2,Z2)", "module": "Cyclic((1,0))",
                 "value": [[0, 1]], "variant": "monoid", "display": "c(f) = ((0,1))"}
    assert revalidate_witness(ext_ideal)
    assert not revalidate_witness(dict(ext_ideal, value=[[1, 1]]))
    # (0,x) lies outside c((0,x)) M: the witness analyze_report emits
    content = analyze_report("PolyQuot(Z4, x^2)", "Sum(Cyclic(0),Cyclic(2))")["witnesses"][0]
    assert content["kind"] == "content" and content["display"] == "(0,x)"
    assert revalidate_witness(content)
    assert not revalidate_witness(dict(content, value=[[1, 0], [0, 0]]))
    # (1,0)(0,1) = 0 in Z2 x Z2 with c((1,0)) = Z2 killing nothing; (1,0)^2 != 0
    mccoy = {"kind": "mccoy", "algebra": "Algebra(Prod(Z2,Z2), Z2)",
             "value": [[1, 0], [0, 1]], "display": "f=(1,0), g=(0,1)"}
    assert revalidate_witness(mccoy)
    assert not revalidate_witness(dict(mccoy, value=[[1, 0], [1, 0]]))
    # no genuine torsion_free or property_a witness exists over a finite
    # ring: property (A) always holds, and every regular element is a unit
    assert not revalidate_witness(
        {"kind": "torsion_free", "ring": "Z4", "module": "Cyclic(2)", "value": 2})
    for module in ("Cyclic(2)", "Reg"):
        assert not revalidate_witness(
            {"kind": "property_a", "ring": "Z4", "module": module, "value": [2]})
    with pytest.raises(ValueError):
        revalidate_witness({"kind": "nonsense", "ring": "Z4", "value": 0})


@pytest.mark.parametrize("entry", [
    {"kind": "mccoy_witness", "ring": "Z4", "value": 8, "f_support": [[[0], 2]]},
    {"kind": "mccoy_witness", "ring": "Z4", "value": 2, "f_support": [[[0], 6]]},
    {"kind": "auslander", "ring": "Z4", "module": "Cyclic(2)", "value": 6},
    {"kind": "content", "ring": "Z4", "module": "Reg", "value": 9},
    {"kind": "ohm_rush", "algebra": "Algebra(PolyQuot(Z2, x^2), Z2)", "value": [1, 2]},
    {"kind": "mccoy", "algebra": "Algebra(PolyQuot(Z2, x^2), Z2)", "value": [[0, 1], [0, 2]]},
    {"kind": "ext_ideal", "ring": "Prod(Z2,Z2)", "module": "Cyclic((1,0))", "value": [[2, 1]]},
], ids=["mccoy_witness", "mccoy_witness_coefficient", "auslander", "content",
        "ohm_rush", "mccoy", "ext_ideal"])
def test_witness_outside_its_carrier_fails(entry):
    # 8 = 0 in Z4 and 2*8 = 0, but 8 is no element of Z4's carrier
    assert revalidate_report({"witnesses": [entry]})["failed"] == [entry]


@pytest.mark.parametrize("entry", [
    {"kind": "property_a", "ring": "Z4", "module": "Reg", "value": 2},
    {"kind": "mccoy", "algebra": "Algebra(PolyQuot(Z2, x^2), Z2)", "value": 3},
    {"kind": "mccoy_witness", "ring": "Z4", "value": 2},
    {"kind": "auslander", "value": 2},
], ids=["scalar_ideal", "scalar_pair", "no_support", "no_module"])
def test_malformed_witness_counts_as_failed(entry):
    assert revalidate_report({"witnesses": [entry]})["failed"] == [entry]


@pytest.mark.parametrize("module, value", [("Z", 2), ("Z/6", 0), ("Z/0", 2), ("Q/6", 2)],
                         ids=["no_modulus", "zero_element", "Z_itself", "other_ring"])
def test_forged_adapter_witness_fails(module, value):
    """Z is torsion-free, 0 is in Z(Z), and Q/6 is no adapter case: each
    entry is refuted, not raised on."""
    entry = {"kind": "torsion_free", "ring": "Z", "module": module, "value": value,
             "display": str(value)}
    assert not revalidate_witness(entry)
    assert revalidate_report({"witnesses": [entry]}) == {"total": 1, "failed": [entry]}


# names whose rebuild passes a budget: Free(40) and Z40000 the DSL's, Hom(Free(3))
# over Z4 the hom budget and Z600 the ideal-lattice bound
_PAST_A_BUDGET = [
    {"kind": "auslander", "ring": "Z2", "module": "Free(40)", "value": 1},
    {"kind": "auslander", "ring": "Z40000", "module": "Reg", "value": 2},
    {"kind": "auslander", "ring": "Z4", "module": "Hom(Free(3))", "value": 2},
    {"kind": "faithfully_flat", "ring": "Z600", "module": "Reg", "value": [2]},
    {"kind": "mccoy_witness", "ring": "Z40000", "value": 2, "f_support": [[[0], 2]]},
]


def test_witnesses_past_a_budget_count_as_failed():
    for entry in _PAST_A_BUDGET:
        with pytest.raises(BoundExceeded):
            revalidate_witness(entry)
    rep = theorems_report("all")
    rep["witnesses"] = _PAST_A_BUDGET
    assert revalidate_report(rep) == {"total": 31 + 5, "failed": _PAST_A_BUDGET}


def test_adapter_witnesses_revalidate():
    rep = theorems_report("rem-3.3-2", limits=SMALL)
    assert revalidate_report(rep) == {"total": 29, "failed": []}


def test_in_carrier_mccoy_witness_still_revalidates():
    assert revalidate_witness(
        {"kind": "mccoy_witness", "ring": "Z4", "value": 2, "f_support": [[[0], 2]]})


def test_theorems_report_small_suite():
    rep = theorems_report("rem-3.3-*", limits=SMALL)
    assert rep["passed"] is True
    assert [s["id"] for s in rep["statements"]] == ["rem-3.3-1", "rem-3.3-2", "rem-3.3-3"]
    repro = rep["statements"][2]["extra"]["reproduction"]
    assert repro["auslander"] is False and repro["torsion_free"] is True


def test_theorems_unknown_suite():
    with pytest.raises(ValueError):
        theorems_report("nothing-matches-*", limits=SMALL)


def test_search_report():
    rep = search_report("torsion_free", "auslander", limits=SMALL)
    assert rep["count"] == len(rep["witnesses"]) > 0


def test_search_skips_members_past_a_budget():
    """A member whose flatness check is past the presentation budget is
    listed under `skipped`, as `theorems` notes it, and the search goes on."""
    small = search_report("flat", "auslander",
                          UniverseLimits(zmod_max=4, presentation_budget=16))
    full = search_report("flat", "auslander", UniverseLimits(zmod_max=4))
    assert full["skipped"] == []
    skipped = {entry["member"] for entry in small["skipped"]}
    assert skipped and all("exceeds budget 16" in entry["reason"]
                           for entry in small["skipped"])
    assert small["witnesses"] == [w for w in full["witnesses"] if w["member"] not in skipped]


def test_the_zero_ring_is_no_field():
    """0 = 1 in the zero ring, so it is no field, no domain and not local."""
    R = build_ring("Localize(Z4, {0})")
    assert R.size == 1
    assert not (R.is_field() or R.is_domain() or R.is_local())
    assert analyze_report("Localize(Z4, {0})", "Reg")["ring"]["is_field"] is False


def test_witness_report():
    rep = witness_report("2*X+2", "2", "Z4")
    assert rep["witness"]["value"] == 2
    assert revalidate_witness(rep["witness"])


def test_render_text_derived_from_report():
    cases = [
        (analyze_report("Z6", "Reg"), ["  Z(R) = {0, 2, 3, 4}", "  auslander = True"]),
        (theorems_report("rem-3.3-*", limits=SMALL),
         ["  [PASS] rem-3.3-1: applicable=",
          "  [PASS] rem-3.3-3: applicable=1 checked=1 failures=0", "overall: PASS"]),
        (search_report("torsion_free", "auslander", limits=SMALL),
         ["search hyp='torsion_free' concl='auslander': 4 witnesses",
          "  pair: Prod(Z2,Z2) :: Cyclic((1,0))"]),
        (witness_report("2*X+2", "2", "Z4"), ["witness m = 2 over Z4"]),
    ]
    for rep, lines in cases:
        text = render_text(rep).splitlines()
        for line in lines:
            assert any(t.startswith(line) for t in text), (rep["command"], line)


def test_cli_analyze_json(capsys):
    code = main(["analyze", "--ring", "Prod(Z2,Z2)", "--module", "Cyclic((0,1))"])
    assert code == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["module"]["auslander"]["holds"] is False


def test_cli_stdout_deterministic(capsys):
    argv = ["analyze", "--ring", "Z12", "--module", "Free(2)"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_timing_flag_adds_field(capsys):
    assert main(["analyze", "--ring", "Z4", "--module", "Reg", "--timing"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "timing" in rep


@pytest.mark.parametrize("ring, module", [
    ("TotalQuotient(Z12)", "Cyclic(2)"),
    ("Localize(Prod(Z2,Z2), {(1,0)})", "Cyclic((1,0))"),
])
def test_cli_analyze_literals_over_localized_rings(capsys, ring, module):
    assert main(["analyze", "--ring", ring, "--module", module]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ring"]["descriptor"].startswith("Localize(")


def test_cli_analyze_tensor_over_nontrivial_algebra(capsys):
    module = "Tensor(Reg, Algebra(PolyQuot(Z2, x^2 + x + 1), Z2))"
    assert main(["analyze", "--ring", "Z2", "--module", module]) == 0
    rep = json.loads(capsys.readouterr().out)
    # the tensor is the field F4 over itself: Z(M) = {0} in F4's encoding
    assert rep["module"]["size"] == 4
    assert rep["module"]["zero_divisors"] == {"values": [[0, 0]], "display": ["0"]}


@pytest.mark.parametrize("ring, module, display", [
    ("PolyQuot(Z4, x^2)", "Sum(Cyclic(0),Cyclic(2))", "(0,x)"),
    ("Z4", "Tensor(Cyclic(2), Algebra(PolyQuot(Z4, x^2), Z4))", "(0,1)"),
])
def test_content_witness_displayed_as_module_element(ring, module, display):
    witness = analyze_report(ring, module)["module"]["content_module"]["witness"]
    assert witness["display"] == display


def test_cli_witness(capsys):
    assert main(["witness", "--f", "2*X+2", "--g", "2", "--ring", "Z4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["witness"]["display"] == "2"


def test_cli_witness_reads_both_literals_in_the_same_variables(capsys):
    # g = 2 lies in Z4[X1,X2] too, and (2*X2)*2 = 0
    assert main(["witness", "--f", "2*X2", "--g", "2", "--ring", "Z4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["witness"]["value"] == 2
    assert rep["witness"]["f_support"] == [[[0, 1], 2]]


def test_cli_witness_bad_pair(capsys):
    assert main(["witness", "--f", "2*X+2", "--g", "3", "--ring", "Z4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_dsl_error(capsys):
    assert main(["analyze", "--ring", "Z1", "--module", "Reg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_tensor_past_budget_is_refused(capsys):
    module = "Tensor(Free(8), Algebra(PolyQuot(Z2, x^4), Z2))"
    assert main(["analyze", "--ring", "Z2", "--module", module]) == 2
    assert "exceeds budget 30000" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["Free(40)", "Sum(Free(14),Free(14))"])
def test_cli_module_past_budget_is_refused_before_it_is_built(capsys, module):
    assert main(["analyze", "--ring", "Z2", "--module", module]) == 2
    assert "exceeds budget 30000" in capsys.readouterr().err


@pytest.mark.parametrize("ring, module, message", [
    ("Z40000", "Reg", "Z40000 exceeds budget 30000"),
    ("Z2000", "Cyclic(2)", "ideal lattice of Z2000"),
])
def test_cli_ring_past_its_bounds_is_refused(capsys, ring, module, message):
    assert main(["analyze", "--ring", ring, "--module", module]) == 2
    assert message in capsys.readouterr().err


def test_analyze_reads_the_lattice_bound_before_any_ring_table(monkeypatch):
    from zdbench import dsl
    built, real = [], dsl.build_ring
    monkeypatch.setattr(dsl, "build_ring", lambda spec: built.append(real(spec)) or built[-1])
    with pytest.raises(BoundExceeded, match="ideal lattice of Z2000"):
        analyze_report("Z2000", "Cyclic(2)")
    # R.rows is a cached property, composed on first read
    assert [R.descriptor for R in built] == ["Z2000"] and "rows" not in vars(built[0])


@pytest.mark.parametrize("option, value, field", [
    ("--degree-bound", "-1", "degree_bound"),
    ("--series-precision", "0", "series_precision"),
    ("--max-module", "-5", "max_module"),
])
def test_cli_out_of_range_limit_is_a_usage_error(capsys, option, value, field):
    code = main(["theorems", option, value, "--suite", "lem-2.7", "--zmod-max", "3",
                 "--no-products"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_cli_theorems_small(capsys):
    for revalidate in ([], ["--revalidate"]):
        code = main(["theorems", "--suite", "rem-3.3-3", "--zmod-max", "4",
                     "--max-module", "20", *revalidate])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True
        assert rep["bounds"]["zmod_max"] == 4
        # rem-3.3-3 reproduces one Auslander witness, (1,0)
        assert rep.get("revalidation") == ({"total": 1, "failed": 0} if revalidate else None)


def test_cli_theorems_failed_revalidation_exits_one(capsys, monkeypatch):
    from zdbench import report
    monkeypatch.setattr(report, "revalidate_witness", lambda entry: False)
    code = main(["theorems", "--suite", "rem-3.3-3", "--zmod-max", "4", "--revalidate"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False and rep["revalidation"] == {"total": 1, "failed": 1}


@pytest.mark.parametrize("argv, build", [
    (["search", "--hyp", "reg_module", "--concl", "auslander", "--zmod-max", "4"],
     lambda: search_report("reg_module", "auslander",
                           limits=UniverseLimits(zmod_max=4))),
    (["witness", "--f", "2*X+2", "--g", "2", "--ring", "Z4"],
     lambda: witness_report("2*X+2", "2", "Z4")),
    (["theorems", "--suite", "rem-3.3-*", "--zmod-max", "4"],
     lambda: theorems_report("rem-3.3-*", limits=UniverseLimits(zmod_max=4))),
], ids=["search", "witness", "theorems"])
def test_cli_text_format_renders_the_report(capsys, argv, build):
    assert main([*argv, "--format", "text"]) == 0
    assert capsys.readouterr().out == render_text(build())


def test_cli_theorems_failing_suite_exits_one(capsys, monkeypatch):
    from zdbench import statements
    from zdbench.statements import StatementReport

    def failing(U):
        rep = StatementReport("zz-test", "always fails")
        rep.applicable.append("synthetic")
        rep.checked = 1
        rep.failures.append({"member": "synthetic"})
        return rep

    monkeypatch.setitem(statements.REGISTRY, "zz-test", failing)
    code = main(["theorems", "--suite", "zz-test", "--zmod-max", "2",
                 "--max-module", "8"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False


def test_cli_search(capsys):
    code = main(["search", "--hyp", "reg_module", "--concl", "auslander",
                 "--zmod-max", "4"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["count"] == 0


def test_cli_search_refuses_a_query_no_member_kind_defines(capsys):
    code = main(["search", "--hyp", "auslander", "--concl", "mccoy", "--zmod-max", "4"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: no pair, algebra or integer-adapter member defines all of auslander, mccoy\n")


@pytest.mark.parametrize("hyp, concl, message", [
    ("bogus", "auslander", "unknown predicate 'bogus'"),
    ("auslander", "mccoy",
     "no pair, algebra or integer-adapter member defines all of auslander, mccoy"),
], ids=["unknown-predicate", "no-member-kind"])
def test_search_refuses_before_building_the_universe(monkeypatch, hyp, concl, message):
    """`search_report` refuses with `search_counterexample`'s message before
    it builds any universe."""
    U = generate_universe(UniverseLimits(zmod_max=2, max_module=4))
    with pytest.raises(ValueError) as on_a_universe:
        search_counterexample(hyp, concl, U)
    assert str(on_a_universe.value) == message

    def no_universe(*args, **kwargs):
        raise AssertionError("a refused search built a universe")

    monkeypatch.setattr(report, "generate_universe", no_universe)
    with pytest.raises(ValueError) as refused:
        search_report(hyp, concl)
    assert str(refused.value) == message


def test_failing_statement_witnesses_revalidate(capsys, monkeypatch):
    """A planted row with genuine counterexamples: every failure carries a
    witness entry, and --revalidate counts and confirms each one."""
    from zdbench import statements
    row = ("zz-planted", "every nonzero module is Auslander", statements._implication,
           dict(hyp=("nonzero",), concl=("auslander",)), ())
    monkeypatch.setitem(statements.REGISTRY, "zz-planted",
                        functools.partial(statements._run, row))
    code = main(["theorems", "--suite", "zz-planted", "--zmod-max", "2", "--max-module", "4",
                 "--revalidate"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    # the genuine failures: Z(R) \ {0} outside Z(M), read from raw scans
    U = generate_universe(UniverseLimits(zmod_max=2, max_module=4))
    expected = [f"{R.descriptor} :: {M.tag}" for R, M in U.pairs() if not M.is_zero
                and not R.zero_divisors() - {R.zero} <= zero_divisors_module(M)]
    failures = rep["statements"][0]["failures"]
    assert [f["member"] for f in failures] == expected and len(expected) == 40
    for failure in failures:
        ring, module = failure["member"].split(" :: ")
        assert failure["witness"]["kind"] == "auslander"
        assert (failure["witness"]["ring"], failure["witness"]["module"]) == (ring, module)
    assert rep["revalidation"] == {"total": 40, "failed": 0}


def test_analyze_lists_its_sections_witnesses_in_order(small_universe):
    """`witnesses` holds the verdict sections' witnesses in section order.
    No pair here fails two verdicts at once, so the order is read on a module
    section whose four verdicts all fail."""
    sections = ("auslander", "torsion_free", "property_a", "content_module")
    seen = 0
    for R, M in small_universe.pairs():
        rep = analyze_report(R.descriptor, M.tag)
        expected = [rep["module"][s]["witness"] for s in sections
                    if "witness" in rep["module"][s]]
        assert rep["witnesses"] == expected, (R.descriptor, M.tag)
        seen += len(expected)
    assert seen > 0
    four = {"size": 2, **{s: {"holds": False, "witness": {"kind": s, "value": i}}
                          for i, s in enumerate(sections)},
            "flat": {"holds": True}}
    assert [w["value"] for w in collect_witnesses(four)] == [0, 1, 2, 3]


@pytest.mark.parametrize("limits, hyp, concl, count", [
    (UniverseLimits(zmod_max=4, product_component_max=0), "nonzero", "flat", 49),
    (UniverseLimits(zmod_max=4, product_component_max=2), "flat", "faithfully_flat", 6),
])
def test_flatness_witnesses_revalidate(limits, hyp, concl, count):
    """Planted rows concluding flatness: each failure names the ideal that
    shows it and revalidates; with the unit ideal named instead, none does."""
    from zdbench import statements
    rep = statements.StatementReport("zz-planted", "")
    statements._implication(generate_universe(limits), rep, hyp=(hyp,), concl=(concl,))
    report = rep.to_dict()
    assert revalidate_report(report) == {"total": count, "failed": []}
    entries = collect_witnesses(report)
    assert {e["kind"] for e in entries} == {concl}
    for entry in entries:
        one = build_ring(entry["ring"]).one
        assert not revalidate_witness({**entry, "value": to_jsonable((one,))}), entry


def test_collect_witnesses_walks_nested():
    rep = {"a": [{"kind": "x", "value": 1}], "b": {"c": {"kind": "y", "value": 2}}}
    assert len(collect_witnesses(rep)) == 2
