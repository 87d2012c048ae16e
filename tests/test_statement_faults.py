"""Every row of the implication, extension, tensor and summand sweeps can fail.

Each case hands one statement a wrong verdict on one object it checks and
asserts that the statement reports a failure.  Byte-identical reports show
that passing runs are unchanged; these cases guard the failing path.  The
rows of the two re-derivation sweeps and of the own sweeps are covered in
tests/test_own_sweep_faults.py; together the two files name every row.
"""

import ast
import dataclasses
import pathlib
import re

import pytest

from zdbench import statements
from zdbench.modules import Verdict, ann

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


# statement id -> (variant, display, value) of the witness in its failure
_FLIPPED_WITNESS = {
    # the Auslander side: the zero ideal is a zero-divisor on R[G] alone
    "thm-2.4": ("monoid", "c(f) = (0)", 0),
    # the torsion-free side, on series: the unit ideal is one on M[[X]] alone
    "thm-3.4": ("series", "c(f) = (1)", 1),
    # both sides fail, and the Auslander witness comes first
    "prop-3.6": ("monoid", "c(f) = (0)", 0),
}


@pytest.mark.parametrize("sid", _FLIPPED_WITNESS)
def test_extension_failure_entry(small_universe, monkeypatch, sid):
    """A criterion that flips every module-side verdict on Z4 :: Cyclic(2),
    which is Auslander and torsion-free, makes its extension neither: the
    transfers fail there, with the whole entry as pinned."""
    real = statements.is_zd_on_extension
    target = next(M for M in small_universe.modules["Z4"] if M.tag == "Cyclic(2)")

    def flipped(f, X):
        verdict = real(f, X)
        return Verdict(not verdict.holds) if X is target else verdict

    monkeypatch.setattr(statements, "is_zd_on_extension", flipped)
    # fresh caches, so no profile computed before the patch is reused
    U = dataclasses.replace(small_universe, caches={})
    rep = statements.run_statement(sid, U)
    variant, display, value = _FLIPPED_WITNESS[sid]
    assert statements.to_jsonable(rep.failures) == [{
        "member": "Z4 :: Cyclic(2)",
        "extension": {"auslander": False, "torsion_free": False},
        "base": {"auslander": True, "torsion_free": True},
        "witness": {"kind": "ext_ideal", "display": display, "value": [value],
                    "ring": "Z4", "module": "Cyclic(2)", "variant": variant},
    }]


def test_wrong_adapter_fact_fails_adapter_rows(small_universe, monkeypatch):
    """prop-2.2-1 and prop-3.5-1 decide their integer-adapter members by
    `_ADAPTER_FACTS`; a wrong fact on Z itself fails both, and each failure
    names a member the statement counted."""
    monkeypatch.setitem(statements._ADAPTER_FACTS["regular"], "auslander", False)
    for sid in ("prop-2.2-1", "prop-3.5-1"):
        rep = statements.run_statement(sid, small_universe)
        assert rep.failures, f"{sid} missed a wrong adapter fact"
        assert [f["member"] for f in rep.failures
                if f["member"] not in rep.applicable] == [], sid


def test_a_plain_bool_conclusion_records_its_failures(small_universe):
    """`zero_annihilator` and six more vocabulary entries return a bool, not a
    Verdict: a member failing one is recorded with no witness."""
    rep = statements.StatementReport("planted", "")
    statements._implication(small_universe, rep, hyp=("nonzero",), concl=("zero_annihilator",))
    expected = [f"{R.descriptor} :: {M.tag}" for R, M in small_universe.pairs()
                if not M.is_zero and not ann(M).is_zero]
    assert expected and rep.failures == [{"member": m, "witness": None} for m in expected]


# the paper's statement labels: def-2.1, content-def, prop-a-def, thm-2.4, ...
_ID_SHAPE = re.compile(r"(def|content|prop|lem|thm|cor|rem|tf)(-[a-z0-9.]+)+")


def test_every_row_has_a_fault_case():
    """The statement ids named in the two fault-test files, taken together,
    are exactly the registry: moving a row between sweeps keeps its case."""
    named = set()
    for name in ("test_statement_faults.py", "test_own_sweep_faults.py"):
        tree = ast.parse(pathlib.Path(__file__).with_name(name).read_text(encoding="utf-8"))
        named |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _ID_SHAPE.fullmatch(node.value)}
    assert named == set(statements.REGISTRY)
