"""Statements with sweeps of their own can fail.

On the pattern of tests/test_statement_faults.py: each case hands one
statement a wrong verdict on one object it checks and asserts that the
statement reports a failure.
"""

import pytest

from zdbench import statements
from zdbench.modules import Verdict

# (statement id, predicate its conclusion reads)
OWN_ROWS = (
    ("rem-2.10", "is_ohm_rush"),
    ("def-2.11", "is_mccoy_algebra"),
    ("rem-3.3-1", "is_torsion_free"),
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
