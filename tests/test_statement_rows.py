"""A shared sweep applies exactly the hypotheses its row names.

Each case plants a row that adds `field` to a real row's `hyp`: the planted
run visits only the real row's members over fields, and the real row run
from a copy of its arguments reproduces its report.
"""

import pytest

from zdbench import statements
from zdbench.modules import Verdict

ROWS = {row[0]: row for row in statements.STATEMENTS}


def _over_field(U, member: str) -> bool:
    ring = member.split(" :: ")[0]
    R, = [R for R in U.rings if R.descriptor == ring]
    return R.is_field()


@pytest.mark.parametrize("sid", ["thm-3.2", "thm-3.4", "prop-3.6", "thm-3.8", "prop-2.2-6"])
def test_a_planted_field_hypothesis_keeps_the_members_over_fields(small_universe, sid):
    _, description, sweep, args, notes = ROWS[sid]
    real = statements.run_statement(sid, small_universe).to_dict()
    assert statements._run((sid, description, sweep, dict(args), notes),
                           small_universe).to_dict() == real
    planted = dict(args, hyp=("field",) + tuple(args["hyp"]))
    rep = statements._run((sid, description, sweep, planted, notes), small_universe)
    expected = [m for m in real["applicable"] if _over_field(small_universe, m)]
    assert expected and len(expected) < len(real["applicable"])
    assert rep.applicable == expected


def test_ring_property_a_reads_the_ring_and_property_a_the_module(small_universe, monkeypatch):
    """With property (A) denied to the regular modules alone, a row assuming
    it of R visits no member, and a row assuming it of M loses exactly the
    members Reg."""
    real = statements.has_property_A
    monkeypatch.setattr(statements, "has_property_A",
                        lambda M: Verdict(False) if M.tag == "Reg" else real(M))
    assert statements.run_statement("thm-3.2", small_universe).applicable == []
    assert statements.run_statement("prop-3.6", small_universe).applicable == []
    members = statements.run_statement("thm-2.4", small_universe).applicable
    assert members == [f"{R.descriptor} :: {M.tag}" for R, M in small_universe.pairs()
                       if not M.is_zero and M.tag != "Reg"]
