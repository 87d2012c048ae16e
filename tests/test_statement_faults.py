"""Every row of the four shared statement sweeps can fail.

Each case hands one statement a wrong verdict on one object it checks and
asserts that the statement reports a failure.  Byte-identical reports show
that passing runs are unchanged; these cases guard the failing path.
"""

import pytest

from zdbench import statements
from zdbench.modules import Verdict

# (statement id, predicate its conclusion reads, whether only objects the
# statement builds itself -- Hom modules, sums, tensors -- are conclusions;
# the universe members it sees then only meet or miss the hypotheses)
SWEEP_ROWS = (
    ("prop-2.2-1", "is_auslander", False),
    ("prop-2.2-2", "is_auslander", False),
    ("prop-2.2-3", "is_auslander", False),
    ("prop-2.2-4", "is_auslander", False),
    ("prop-3.5-1", "is_torsion_free", False),
    ("prop-3.5-2", "is_torsion_free", False),
    ("prop-3.5-3", "is_torsion_free", False),
    ("thm-2.4", "is_auslander", False),
    ("thm-2.8", "is_auslander", False),
    ("cor-2.9", "is_auslander", False),
    ("thm-3.2", "is_torsion_free", False),
    ("thm-3.4", "is_torsion_free", False),
    ("prop-3.6", "is_auslander", False),
    ("cor-3.7", "is_torsion_free", False),
    ("thm-3.9", "is_auslander", False),
    ("thm-2.13", "is_auslander", True),
    ("cor-2.14", "is_auslander", True),
    ("thm-3.8", "is_torsion_free", False),
    ("prop-2.2-6", "is_auslander", True),
    ("prop-3.5-4", "is_torsion_free", False),
    ("prop-3.5-5", "is_torsion_free", False),
)


@pytest.mark.parametrize("sid, predicate, built", SWEEP_ROWS,
                         ids=[row[0] for row in SWEEP_ROWS])
def test_wrong_verdict_fails_statement(small_universe, monkeypatch,
                                       sid, predicate, built):
    real = getattr(statements, predicate)
    members = {id(M) for mods in small_universe.modules.values() for M in mods}
    flipped = []

    def wrong_once(M, *args, **kwargs):
        verdict = real(M, *args, **kwargs)
        if flipped or (built and id(M) in members):
            return verdict
        flipped.append(M.tag)
        if verdict.holds:
            return Verdict(False, witness={"injected": M.tag})
        return Verdict(True)

    monkeypatch.setattr(statements, predicate, wrong_once)
    rep = statements.run_statement(sid, small_universe)
    assert flipped, f"{sid} never called {predicate} on an object it checks"
    assert rep.failures, f"{sid} missed a wrong verdict on {flipped[0]}"
    assert rep.passed is False
