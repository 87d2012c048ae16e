"""The rows of the two re-derivation sweeps and of the own sweeps can fail.

On the pattern of tests/test_statement_faults.py: each case hands one
statement a wrong verdict or answer on one object it checks and asserts
that the statement reports a failure.  The re-derivation rows are def-2.1,
prop-a-def, rem-2.10 and tf-3.1 (one check per member) and content-def and
prop-2.2-5 (one check per element or submodule); the six own sweeps are
prop-2.3, lem-2.7, def-2.11 and rem-3.3-1/2/3.
"""

import itertools

import pytest

from zdbench import statements
from zdbench.modules import Verdict
from zdbench.report import collect_witnesses, revalidate_report
from zdbench.rings import ideal_generated

# (statement id, predicate its conclusion reads)
OWN_ROWS = (
    ("rem-2.10", "is_ohm_rush"),
    ("def-2.11", "is_mccoy_algebra"),
    ("rem-3.3-1", "is_torsion_free"),
    ("tf-3.1", "is_torsion_free"),
)


def _wrong_verdict(verdict: Verdict, label: str) -> Verdict:
    if verdict.holds:
        return Verdict(False, witness={"injected": label})
    return Verdict(True)


@pytest.mark.parametrize("sid, predicate", OWN_ROWS, ids=[row[0] for row in OWN_ROWS])
def test_wrong_verdict_fails_own_sweep(small_universe, monkeypatch, sid, predicate):
    real = getattr(statements, predicate)
    flipped = []

    def wrong_once(X, *args, **kwargs):
        verdict = real(X, *args, **kwargs)
        if flipped:
            return verdict
        flipped.append(repr(X))
        return _wrong_verdict(verdict, repr(X))

    monkeypatch.setattr(statements, predicate, wrong_once)
    rep = statements.run_statement(sid, small_universe)
    assert flipped, f"{sid} never called {predicate}"
    assert rep.failures, f"{sid} missed a wrong verdict on {flipped[0]}"
    assert rep.passed is False


def test_wrong_diagonal_verdict_fails_def_2_11(small_universe, monkeypatch):
    """def-2.11 must see the diagonal Z2 -> Z2 x Z2 rejected; a verdict that
    accepts it, with no witness, is a failure naming it, not a crash."""
    real = statements.is_mccoy_algebra
    diagonal = "Algebra(Prod(Z2,Z2), Z2)"

    def accepts_diagonal(alg):
        return Verdict(True) if alg.descriptor == diagonal else real(alg)

    monkeypatch.setattr(statements, "is_mccoy_algebra", accepts_diagonal)
    rep = statements.run_statement("def-2.11", small_universe)
    assert diagonal in [f["member"] for f in rep.failures]


# (statement id, predicate, descriptor of the one object it answers wrongly
# or None for the first, witness of the wrong negative verdict)
ROUTED_ROWS = (
    # the zero ideal kills every element, so it shows no failure of (A)
    pytest.param("prop-a-def", "has_property_A", None,
                 lambda M: {"kind": "property_a", "ideal": (M.ring.zero,)}, id="prop-a-def"),
    # 1 lies in c(1)B
    pytest.param("rem-2.10", "is_ohm_rush", None,
                 lambda alg: {"kind": "ohm_rush", "element": alg.ring.one}, id="rem-2.10"),
    # (1,1)(0,1) = (0,1) is no annihilating pair
    pytest.param("def-2.11", "is_mccoy_algebra", "Algebra(Prod(Z2,Z2), Z2)",
                 lambda alg: {"kind": "mccoy", "pair": ((1, 1), (0, 1))}, id="def-2.11"),
    # a witness naming no kind gives an entry no revalidator accepts
    pytest.param("prop-a-def", "has_property_A", None,
                 lambda M: {"injected": M.tag}, id="prop-a-def, no kind"),
    pytest.param("rem-2.10", "is_ohm_rush", None,
                 lambda alg: {"injected": alg.descriptor}, id="rem-2.10, no kind"),
)


@pytest.mark.parametrize("sid, predicate, target, witness", ROUTED_ROWS)
def test_wrong_negative_verdict_files_a_refuted_entry(small_universe, monkeypatch,
                                                      sid, predicate, target, witness):
    """The failure a wrong negative verdict causes carries a witness entry,
    and revalidation collects that entry and refutes it."""
    real = getattr(statements, predicate)
    flipped = []

    def wrong_once(X, *args, **kwargs):
        if flipped or (target is not None and X.descriptor != target):
            return real(X, *args, **kwargs)
        flipped.append(X)
        return Verdict(False, witness=witness(X))

    monkeypatch.setattr(statements, predicate, wrong_once)
    doc = statements.run_statement(sid, small_universe).to_dict()
    assert flipped, f"{sid} never called {predicate}"
    filed = [f["witness"] for f in doc["failures"]]
    entries = collect_witnesses(doc)
    assert filed and all(w in entries for w in filed), doc["failures"]
    assert revalidate_report({"statements": [doc]}) == {"total": len(entries), "failed": entries}


def test_wrong_localized_verdict_fails_prop_2_3(small_universe, monkeypatch):
    """prop-2.3 reads is_auslander on M (the hypothesis) and on each M_S (the
    conclusion); the first M_S of an Auslander M gets the wrong verdict."""
    real = statements.is_auslander
    members = {id(M) for mods in small_universe.modules.values() for M in mods}
    state = {"hypothesis": False, "flipped": None}

    def wrong_once(M, *args, **kwargs):
        verdict = real(M, *args, **kwargs)
        if id(M) in members:
            state["hypothesis"] = verdict.holds
        elif state["hypothesis"] and state["flipped"] is None and verdict.holds:
            state["flipped"] = M.tag
            return _wrong_verdict(verdict, M.tag)
        return verdict

    monkeypatch.setattr(statements, "is_auslander", wrong_once)
    rep = statements.run_statement("prop-2.3", small_universe)
    assert state["flipped"], "prop-2.3 never checked a localized module"
    assert rep.failures, f"prop-2.3 missed a wrong verdict on {state['flipped']}"
    assert rep.passed is False


def _zero_witness(U, state, witness, M, f_rows, g_cols):
    """The content chain answers the index of zero, which no valid witness is."""
    return M.index(M.zero)


def _zero_divisors_outside_ambient(U, state, zd, M):
    """Z(N) of a submodule N gains the ring elements outside Z(M)."""
    if any(M is member for mods in U.modules.values() for member in mods):
        state["ambient"] = zd
        return zd
    outside = frozenset(M.ring.elements) - state.get("ambient", frozenset(M.ring.elements))
    return zd | outside


def _auslander_inclusion_flipped(U, state, zd, M):
    """Z(M) loses the nonzero zero-divisors of R where it holds them all,
    and gains them where it does not."""
    zr = M.ring.zero_divisors() - {M.ring.zero}
    return zd - zr if zr <= zd else zd | zr


def _zero_divisors_whole_ring(U, state, zd, M):
    """Z(M) answers all of R, 1 included, which kills no nonzero element."""
    return frozenset(M.ring.elements)


def _wrong_content(U, state, c, M, m):
    """c(m) answers the unit ideal where it is proper, else the zero ideal."""
    R = M.ring
    return ideal_generated(R, [R.zero if c.is_whole else R.one])


# (statement id, function its sweep reads, wrong answer from the right one)
WRONG_ONCE_ROWS = (
    ("lem-2.7", "content_chain_witness", _zero_witness),
    ("prop-2.2-5", "zero_divisors_module", _zero_divisors_outside_ambient),
    ("content-def", "content_of_element", _wrong_content),
    ("def-2.1", "zero_divisors_module", _auslander_inclusion_flipped),
    ("prop-a-def", "zero_divisors_module", _zero_divisors_whole_ring),
    ("rem-3.3-3", "zero_divisors_module", _zero_divisors_whole_ring),
)


@pytest.mark.parametrize("sid, name, wrong", WRONG_ONCE_ROWS,
                         ids=[row[0] for row in WRONG_ONCE_ROWS])
def test_wrong_answer_once_fails_own_sweep(small_universe, monkeypatch, sid, name, wrong):
    real = getattr(statements, name)
    state, changed = {}, []

    def wrong_once(*args, **kwargs):
        answer = real(*args, **kwargs)
        if changed:
            return answer
        bad = wrong(small_universe, state, answer, *args, **kwargs)
        if bad != answer:
            changed.append(repr(args))
        return bad

    monkeypatch.setattr(statements, name, wrong_once)
    rep = statements.run_statement(sid, small_universe)
    assert changed, f"{sid} never got a wrong answer from {name}"
    assert rep.failures, f"{sid} missed a wrong {name} at {changed[0]}"
    assert rep.passed is False


def test_extra_cofactor_fails_lem_2_7(small_universe, monkeypatch):
    """lem-2.7 recomputes f*g by a full convolution apart from the walk that
    found g: one extra cofactor, the constant 1 for an f with f_0 = 1, is a
    failure carrying the f*g != 0 error."""
    real = statements._annihilating_cofactors
    planted = []

    def one_extra(R, cf, *tables):
        found = real(R, cf, *tables)
        one, zero = R.index(R.one), R.index(R.zero)
        if planted or cf[0] != one:
            return found
        planted.append((R.descriptor, cf))
        return [*found, (one,) + (zero,) * (len(cf) - 1)]

    monkeypatch.setattr(statements, "_annihilating_cofactors", one_extra)
    rep = statements.run_statement("lem-2.7", small_universe)
    assert planted, "lem-2.7 never walked an f with f_0 = 1"
    assert [f["ring"] for f in rep.failures] == [planted[0][0]]
    assert rep.failures[0]["error"] == "f*g != 0: no annihilation witness exists"
    assert rep.passed is False


def test_wrong_chain_for_one_key_fails_the_pairs_sharing_it(small_universe, monkeypatch):
    """lem-2.7 runs the content chain once per ring and pair of coefficient
    sets (set of f's, set of g's) and gives its answer to every pair with
    that key.  A chain that answers the zero index for one key must fail
    exactly the pairs sharing it, counted here by running the walk alone."""
    degree = min(2, small_universe.limits.degree_bound)
    keyed = {}
    for R in small_universe.rings:
        if R.size > statements._MCCOY_RING_MAX:
            continue
        solutions = statements._solution_tables(R)
        for cf in itertools.product(range(R.size), repeat=degree + 1):
            for cg in statements._annihilating_cofactors(R, cf, solutions):
                keyed.setdefault((R.descriptor, frozenset(cf), frozenset(cg)), []).append(
                    {"ring": R.descriptor, "f": statements._poly_str(R, cf),
                     "g": statements._poly_str(R, cg)})
    # the most shared key: its pairs' f tuples differ in order and repetition
    key = max(keyed, key=lambda k: len(keyed[k]))
    assert len(keyed[key]) > 2
    real = statements.content_chain_witness
    calls = []

    def wrong_for_one_key(M, f_rows, g_cols):
        if (M.ring.descriptor, frozenset(map(M.rows.index, f_rows)), frozenset(g_cols)) != key:
            return real(M, f_rows, g_cols)
        calls.append(g_cols)
        return M.index(M.zero)

    monkeypatch.setattr(statements, "content_chain_witness", wrong_for_one_key)
    rep = statements.run_statement("lem-2.7", small_universe)
    assert len(calls) == 1
    assert [{k: f[k] for k in ("ring", "f", "g")} for f in rep.failures] == keyed[key]
    assert {f["error"] for f in rep.failures} == {"postcondition violated"}
    assert rep.passed is False


@pytest.mark.parametrize("fact, wrong", (("auslander", False), ("torsion_free", True)))
def test_wrong_adapter_fact_fails_rem_3_3_2(small_universe, monkeypatch, fact, wrong):
    """rem-3.3-2 checks the Z/n facts that the adapter rows and `search` read
    against gcd arithmetic; a wrong one fails every case."""
    monkeypatch.setitem(statements._ADAPTER_FACTS["quotient"], fact, wrong)
    rep = statements.run_statement("rem-3.3-2", small_universe)
    assert [f["member"] for f in rep.failures] == [
        f"Z :: Z/{n}" for n in statements.ADAPTER_MODULI]
    assert rep.extra["torsion_free_witnesses"] == []
    assert rep.passed is False


def test_rule_without_a_witness_fails_rem_3_3_2(small_universe, monkeypatch):
    """A gcd rule that finds no torsion element of Z/6 makes Z/6 read as
    torsion-free: rem-3.3-2 fails that case, files no witness for it and
    raises nothing."""
    real = statements.adapter_torsion
    monkeypatch.setattr(statements, "adapter_torsion", lambda k, n: n != 6 and real(k, n))
    rep = statements.run_statement("rem-3.3-2", small_universe)
    assert [f["member"] for f in rep.failures] == ["Z :: Z/6"]
    witnesses = rep.extra["torsion_free_witnesses"]
    assert len(witnesses) == 28 and "Z/6" not in {w["module"] for w in witnesses}
    assert rep.passed is False
