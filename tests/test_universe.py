import pytest

from zdbench import statements
from zdbench.modules import generating_set
from zdbench.statements import (REGISTRY, StatementReport,
                                parse_predicate_expression, run_statement,
                                run_suite, search_counterexample)
from zdbench.universe import UniverseLimits, generate_universe

from harness import z_adapter_check


def test_default_universe_counts(universe):
    # regression baselines recorded from the first complete build
    assert len(universe.rings) == 23
    pair_count = sum(len(v) for v in universe.modules.values())
    assert pair_count == 273
    assert sum(len(v) for v in universe.algebras.values()) == 51
    assert len(universe.rings) >= 10 and pair_count >= 60
    assert universe.counts["rings_zmod"] == 11


def test_universe_without_products():
    limits = UniverseLimits(zmod_max=4, product_component_max=0,
                            max_module=20, max_sum_pairs=1)
    U = generate_universe(limits)
    assert all(R.kind != "product" for R in U.rings)


def test_module_size_cap_blocks_free_rank_two():
    limits = UniverseLimits(zmod_max=4, product_component_max=0,
                            max_module=4, max_sum_pairs=1)
    U = generate_universe(limits)
    for R in U.rings:
        for M in U.modules[R.descriptor]:
            if M.tag == "Free(2)":
                assert R.size <= 2
            assert M.size <= 4 or M.tag == "Reg" or R.size > 4


def test_hom_members_honour_hom_budget():
    # Cyclic((0,0)) over a product ring has one generator per factor, so its
    # Hom needs 4^2 tuples over Prod(Z2,Z2) and 12^2 over Prod(Z3,Z4):
    # budgets 10 and 100 skip those members and still build the universe
    counts = []
    for budget in (2000, 100, 10):
        U = generate_universe(UniverseLimits(zmod_max=2, hom_budget=budget))
        for R, H in U.pairs():
            if H.tag.startswith("Hom("):
                C, = [C for C in U.modules[R.descriptor] if H.tag == f"Hom({C.tag})"]
                assert C.size ** len(generating_set(C)) <= budget, H.descriptor()
        counts.append(U.counts["modules_hom"])
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] < counts[0]


def test_deterministic_generation_order():
    limits = UniverseLimits(zmod_max=5, product_component_max=2,
                            max_module=25, max_sum_pairs=2)
    a = generate_universe(limits)
    b = generate_universe(limits)
    assert [R.descriptor for R in a.rings] == [R.descriptor for R in b.rings]
    for R in a.rings:
        assert ([M.tag for M in a.modules[R.descriptor]]
                == [M.tag for M in b.modules[R.descriptor]])


def test_adapter_cases():
    """The registered Z/n cases, analyzed by the harness's gcd arithmetic."""
    cases = [z_adapter_check(f"Z/{n}") for n in statements.ADAPTER_MODULI]
    assert [case["case"] for case in cases] == [f"Z/{n}" for n in range(2, 31)]
    six = z_adapter_check("Z/6")
    assert six["auslander"] is True and six["zero_divisors_contain_ideal_n"] is True
    assert six["torsion_free"] is False and six["torsion_free_witness"]["value"] == 2
    assert z_adapter_check("Z/5")["torsion_free_witness"]["value"] == 5
    assert len(cases) == 29


def test_adapter_facts_agree_with_the_gcd_analysis():
    """The Z/n facts that the implication sweeps, `search` and rem-3.3-2 read,
    and the rule that rem-3.3-2 and revalidation apply, match the harness's
    gcd analysis of every case."""
    facts = statements._ADAPTER_FACTS["quotient"]
    for n in statements.ADAPTER_MODULI:
        case = z_adapter_check(f"Z/{n}")
        assert facts["auslander"] == case["auslander"], n
        assert facts["torsion_free"] == case["torsion_free"], n
        torsion = [k for k in range(n + 1) if statements.adapter_torsion(k, n)]
        assert torsion[0] == case["torsion_free_witness"]["value"], n
    # 0 is in Z(Z), and 5 is a unit mod 6
    assert not statements.adapter_torsion(0, 6) and not statements.adapter_torsion(5, 6)


def test_z_adapter_check_reports():
    rep = z_adapter_check("Z/6")
    assert rep["auslander"] is True
    assert rep["torsion_free"] is False
    assert rep["torsion_free_witness"]["value"] == 2
    assert rep["zero_divisors_contain_ideal_n"] is True
    assert z_adapter_check("Z/5")["torsion_free_witness"]["value"] == 5
    assert z_adapter_check("Z/1")["degenerate"] is True
    with pytest.raises(ValueError):
        z_adapter_check("Z/31")
    with pytest.raises(ValueError):
        z_adapter_check("Q/6")


# every statement of the paper in scope, in report order
STATEMENT_IDS = (
    "def-2.1", "content-def",
    "prop-2.2-1", "prop-2.2-2", "prop-2.2-3", "prop-2.2-4", "prop-2.2-5",
    "prop-2.2-6", "prop-2.3", "prop-a-def", "thm-2.4", "lem-2.7", "thm-2.8",
    "cor-2.9", "rem-2.10", "def-2.11", "thm-2.13", "cor-2.14", "tf-3.1",
    "thm-3.2", "rem-3.3-1", "rem-3.3-2", "rem-3.3-3", "thm-3.4",
    "prop-3.5-1", "prop-3.5-2", "prop-3.5-3", "prop-3.5-4", "prop-3.5-5",
    "prop-3.6", "cor-3.7", "thm-3.8", "thm-3.9",
)


def test_registry_complete_and_lookup(small_universe):
    assert list(REGISTRY) == list(STATEMENT_IDS)
    assert len(REGISTRY) == 33
    with pytest.raises(ValueError):
        run_statement("thm-9.9", small_universe)


def test_run_suite_glob(small_universe):
    reports = run_suite("thm-2.*", small_universe)
    assert [r.id for r in reports] == ["thm-2.4", "thm-2.8", "thm-2.13"]


def test_full_suite_on_small_universe(small_universe):
    reports = run_suite("all", small_universe)
    assert len(reports) == 33
    for rep in reports:
        assert rep.passed, f"{rep.id}: {rep.failures[:2]}"


def test_statement_report_warning_when_not_exercised():
    rep = StatementReport("x", "y").finish()
    assert rep.warnings and not rep.applicable
    assert rep.to_dict()["passed"] is True


def test_search_examples(small_universe):
    hits, skipped = search_counterexample("torsion_free", "auslander", small_universe)
    assert skipped == []
    members = {h["member"] for h in hits}
    assert "Prod(Z2,Z2) :: Cyclic((0,1))" in members
    hits2, _ = search_counterexample("auslander", "torsion_free", small_universe)
    assert {"kind": "adapter", "member": "Z :: Z/6"} in hits2
    assert search_counterexample("reg_module", "auslander", small_universe) == ([], [])
    # the adapter facts leave ring_property_a undefined, so only pairs answer
    assert search_counterexample("ring_property_a", "property_a", small_universe) == ([], [])


def test_search_expression_parsing():
    assert parse_predicate_expression("not flat and auslander") == [
        ("flat", True), ("auslander", False)]
    assert parse_predicate_expression("!flat && auslander") == [
        ("flat", True), ("auslander", False)]
    with pytest.raises(ValueError):
        parse_predicate_expression("flat and ")
    with pytest.raises(ValueError):
        parse_predicate_expression("fl at")


def test_search_unknown_predicate(small_universe):
    with pytest.raises(ValueError):
        search_counterexample("bogus", "auslander", small_universe)


def test_search_refuses_a_query_no_member_kind_defines(small_universe):
    """No pair defines `mccoy`, no algebra `auslander`, and the adapter facts
    define `auslander` alone: every member would be skipped."""
    with pytest.raises(ValueError, match="defines all of auslander, mccoy$"):
        search_counterexample("auslander", "not mccoy", small_universe)


def test_search_algebra_members(small_universe):
    hits, _ = search_counterexample("faithfully_flat and mccoy",
                                    "nontrivial_extension", small_universe)
    members = {h["member"] for h in hits}
    assert "Algebra(Z2, Z2)" in members  # self algebras are the trivial ones


def test_statement_reports_are_serializable(small_universe):
    import json
    rep = run_statement("rem-3.3-3", small_universe)
    blob = json.dumps(rep.to_dict())
    assert "reproduction" in blob


def test_statements_honour_presentation_budget():
    # at budget 16 some flatness checks exceed it; with the module default of
    # 30000 in their place, prop-2.2-2 saw 41 applicable members and no skip
    limits = UniverseLimits(
        zmod_max=6, product_component_max=2, max_ring=6, max_module=36,
        max_algebra=16, max_sum_pairs=6, hom_budget=256, presentation_budget=16,
        brute_budget=300_000, degree_bound=2, series_precision=8,
        axiom_check_max=64)
    rep = run_statement("prop-2.2-2", generate_universe(limits))
    skips = [n for n in rep.notes if n.startswith("skipped ") and "flatness check" in n]
    assert len(rep.applicable) < 41
    assert skips


def test_series_statements_skip_ideals_past_the_precision():
    """A series of precision 1 has one term, so no series has the content
    ideal (2,x) of PolyQuot(Z4, x^2): the series transfers skip that ring's
    19 nonzero members, each with a note, and pass.  At precision 2 none is
    skipped."""
    ring = "PolyQuot(Z4, x^2)"
    note = "content ideal (2,x) needs 2 terms, past series precision 1"
    for precision in (1, 2):
        U = generate_universe(UniverseLimits(zmod_max=2, product_component_max=0,
                                             series_precision=precision))
        members = [f"{ring} :: {M.tag}" for M in U.modules[ring] if not M.is_zero]
        assert len(members) == 19
        skipped = members if precision == 1 else []
        for sid in ("thm-2.8", "cor-2.9", "thm-3.4", "thm-3.9"):
            rep = run_statement(sid, U)
            assert rep.passed, sid
            assert [n for n in rep.notes if n.startswith("skipped ")] == [
                f"skipped {m}: {note}" for m in skipped], sid
            assert set(members) - set(rep.applicable) == set(skipped), sid
