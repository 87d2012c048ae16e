"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (the -v listing is the
per-criterion pass/fail log; add -s to see the explicit summary lines).
"""

import hashlib
import time

from zdbench.extensions import diagonal_algebra, is_mccoy_algebra
from zdbench.report import (analyze_report, canonical_json, revalidate_report,
                            theorems_report)
from zdbench.rings import Zmod, product_ring
from zdbench.statements import run_statement

from harness import criterion_oracle_agreement, z_adapter_check


def _report(name: str, elapsed: float, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s) {detail}".rstrip())


def test_criterion_01_remark_3_3_3_reproduction():
    started = time.monotonic()
    rep = analyze_report("Prod(Z2,Z2)", "Cyclic((0,1))")
    elapsed = time.monotonic() - started
    assert rep["ring"]["zero_divisors"]["values"] == [[0, 0], [1, 0], [0, 1]]
    assert rep["module"]["zero_divisors"]["values"] == [[0, 0], [0, 1]]
    assert rep["module"]["torsion_free"]["holds"] is True
    assert rep["module"]["auslander"]["holds"] is False
    assert rep["module"]["auslander"]["witness"]["value"] == [1, 0]
    assert elapsed < 1.0
    _report("1 (key example reproduction)", elapsed)


def test_criterion_02_integer_adapter():
    started = time.monotonic()
    for n in range(2, 31):
        rep = z_adapter_check(f"Z/{n}")
        assert rep["auslander"] is True, n
        assert rep["torsion_free"] is False, n
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("2 (integer adapter, n = 2..30)", elapsed)


def test_criterion_03_property_a_universality(universe):
    started = time.monotonic()
    rep = run_statement("prop-a-def", universe)
    elapsed = time.monotonic() - started
    assert len(rep.applicable) >= 60
    assert rep.passed, rep.failures[:3]
    assert elapsed < 120.0
    _report("3 (property (A) universality)", elapsed,
            f"pairs={len(rep.applicable)}")


def test_criterion_04_extension_transfer_both_directions(universe):
    started = time.monotonic()
    ausl = run_statement("thm-2.4", universe)
    tf = run_statement("thm-3.2", universe)
    assert ausl.passed and tf.passed, (ausl.failures[:2], tf.failures[:2])
    assert len(ausl.applicable) == len(tf.applicable) >= 60
    agreement = criterion_oracle_agreement(universe, max_ring=6, max_module=8,
                                           degree=2)
    elapsed = time.monotonic() - started
    assert agreement["discrepancies"] == []
    assert agreement["elements_checked"] > 1000
    assert elapsed < 600.0
    _report("4 (polynomial transfer + criterion/oracle agreement)", elapsed,
            f"f_checked={agreement['elements_checked']}")


def test_criterion_05_constructive_witnesses(universe):
    started = time.monotonic()
    rep = run_statement("lem-2.7", universe)
    elapsed = time.monotonic() - started
    assert rep.passed, rep.failures[:3]
    assert rep.checked > 1000
    assert elapsed < 300.0
    _report("5 (constructive annihilation witnesses)", elapsed,
            f"pairs={rep.checked}")


def test_criterion_06_localization_transfer(universe):
    started = time.monotonic()
    rep = run_statement("prop-2.3", universe)
    elapsed = time.monotonic() - started
    assert rep.passed, rep.failures[:3]
    instances = rep.extra["zero_divisor_S_instances"]
    key = [i for i in instances
           if i["member"] == "Prod(Z2,Z2) :: Cyclic((0,1))"
           and "(1,0)" in i["S"]]
    assert key, "the square-of-F2 localization instance must be logged"
    assert elapsed < 300.0
    _report("6 (localization transfer)", elapsed,
            f"checked={rep.checked} zd_instances={len(instances)}")


def test_criterion_07_torsion_free_definitions_agree(universe):
    started = time.monotonic()
    rep = run_statement("tf-3.1", universe)
    elapsed = time.monotonic() - started
    assert rep.passed, rep.failures[:3]
    assert rep.checked >= 60
    assert elapsed < 60.0
    _report("7 (torsion-free definition equivalence)", elapsed,
            f"checked={rep.checked}")


def test_criterion_08_mccoy_calibration(universe):
    started = time.monotonic()
    R2 = Zmod(2)
    verdict = is_mccoy_algebra(diagonal_algebra(R2, product_ring(R2, R2)))
    assert not verdict.holds
    assert verdict.witness["pair"] == ((1, 0), (0, 1))
    for R in universe.rings:
        self_alg = universe.algebras[R.descriptor][0]
        assert self_alg.is_trivial_extension
        assert is_mccoy_algebra(self_alg).holds, R.descriptor
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("8 (McCoy calibration)", elapsed,
            f"rings={len(universe.rings)}")


def test_criterion_09_tensor_transfer(universe):
    started = time.monotonic()
    ausl = run_statement("thm-2.13", universe)
    tf = run_statement("thm-3.8", universe)
    elapsed = time.monotonic() - started
    assert ausl.passed and tf.passed, (ausl.failures[:2], tf.failures[:2])
    nontrivial = set(ausl.extra["nontrivial_applicable"])
    assert len(nontrivial) >= 3, nontrivial
    assert elapsed < 600.0
    _report("9 (faithfully flat McCoy tensor transfer)", elapsed,
            f"applicable={len(ausl.applicable)} nontrivial={len(nontrivial)}")


def test_criterion_10_determinism_and_witness_integrity():
    started = time.monotonic()
    first = theorems_report("all")
    # the digest of the default report as separate interpreter runs print it,
    # so one run checks determinism across processes and hash seeds
    digest = hashlib.sha256(canonical_json(first).encode()).hexdigest()
    assert digest == "3a4af5c0f3294e2e4e72a59e11de0b0f02a1c0e33f21735e5a79ab9e2bbfe2a8"
    assert first["passed"] is True
    reval = revalidate_report(first)
    assert not reval["failed"], reval["failed"][:3]
    analyze = analyze_report("Prod(Z2,Z2)", "Cyclic((0,1))")
    reval2 = revalidate_report(analyze)
    assert not reval2["failed"]
    elapsed = time.monotonic() - started
    assert elapsed < 900.0
    _report("10 (determinism + witness integrity)", elapsed,
            f"witnesses={reval['total'] + reval2['total']}")


# sha256 of each row of the default report, as `canonical_json` prints the
# row alone: a refactor that moves the whole-report digest names its rows here
ROW_DIGESTS = {
    "def-2.1": "0cbb2dd49eefee10a4084a5b1ed3cb71dcac417cd77952810c791fc073fd5abd",
    "content-def": "791a45ec663b3cf41035c6e3e8c3245bb84b9087726d6c6301a89103b7f8212e",
    "prop-2.2-1": "37b756b4503b87f254187ab68aa4a61469bc15d8ba96d91fef29e75fa5846bf4",
    "prop-2.2-2": "dd0f9030703e034b273d35b7e87f6324925373140a78556ac4923685570a0328",
    "prop-2.2-3": "60c5845c55e106e639a782a383c1744a97207f579c9502b7c7866e096d48f211",
    "prop-2.2-4": "5582d6c1ec54fb724bb7427a6fd6c159d37833dc1ff0c211508aca380202ceb5",
    "prop-2.2-5": "553938daa71417636c459c44c1124c90ef4949c5d1b298476d7047fe7d6a9060",
    "prop-2.2-6": "916194f58732dc706933829c046c73933cfc263b2f125bb33df67380325f3457",
    "prop-2.3": "0f3035ac426cfc9a114b4fa5abe012dd4fc17bcdcd71a5cc75c7e2b19fc71cbf",
    "prop-a-def": "4ebdf72286232a3c7b25617971c7bf5ba52b286c07a6fa9bc42c3a2e8174603e",
    "thm-2.4": "06ae5e62ffed1c2e4dbf0737a409ac1b2d4c6524a6a699b2792a308a4a9666d7",
    "lem-2.7": "4e05d9474fa801176b9dc36b855a8d683d18917303ab16773d14f51dae03b6ed",
    "thm-2.8": "51c9d8bdf780a080b69bd586f413e3ed09e44d092407d978f2efaa425369b331",
    "cor-2.9": "28d29e10b92a8fb708a025a34e449b4be809e664bf8273b3cf3d2f14496e42c3",
    "rem-2.10": "93de8a5babbd25d073522c13f950c33d1fc6dcc349a929856f6b60501556b264",
    "def-2.11": "50bc744adc7c0bc9b12635354e3f4ccc1e5feac89a62bfe5091bd748a666ea80",
    "thm-2.13": "c7e50995122fa03d6646a702582a0245e6bd164f1fdfaea4b7efe26c85298c6b",
    "cor-2.14": "ded38a738d42603d65676184706eb96fed56ccf153dc18c04766a6f2061b7d55",
    "tf-3.1": "19e4775a133ea6e42e3679764bf9151d71536ff8cb7f2f2914900f72ddde2435",
    "thm-3.2": "6b9ccf0031f8a5b66ece286d280bbd2dc11cbdffd5480ff9dd0f923498464171",
    "rem-3.3-1": "c8a950a7ba868e3895c8619d1b9afb068b900427bf528cf335d8f385b66f160c",
    "rem-3.3-2": "76c074cf16bbdfd44100e847799781487baf49f88daa1a006fdc523da6b1e0de",
    "rem-3.3-3": "676e64e2a33985ba3c7a7418e7c421b4a6707545b7a7e8444bd853458f12dbd0",
    "thm-3.4": "b81644303cdd937d1a7effd02a8a4d107de9813d6700c4833dd9c80240d47ab6",
    "prop-3.5-1": "838fe5eead9b9255232a2956d2d383bed3582b5b7e11a25dfbf4dce956dbdcdc",
    "prop-3.5-2": "86591dc2e38e3ae42214b6e4327bef277d89f21d20929ecc1efd1eca73ea0a68",
    "prop-3.5-3": "9fb40763d0750bab0363c0fca03d9d5b1bb86a6b3c5559ad3eb0926bcc6b02b4",
    "prop-3.5-4": "9e960b0c835d158aa347424667a7be9c4c7a7093f557f0c864d65808fde422c0",
    "prop-3.5-5": "d85821b23655303e33063a4b8c33199ebb7b52342fdc2a06aa388acc51d8dc80",
    "prop-3.6": "8e7c5bc35603ef4d98a7e44e8555463fea15fee981e0306208cd2bc006372a10",
    "cor-3.7": "88b8d5ac53a3cc28a54e57f7321f3061c9bfb0d5bc6adfd99406c8bcff7f181c",
    "thm-3.8": "79c75e58b10130d7eea9255e2773a0c41be428b4979921ddc58d8f801c106708",
    "thm-3.9": "fd8781bbd780da61398993955d697aa1e18f5be88baa9e89423530b227b5b6cd",
}


def test_default_report_row_digests():
    rows = theorems_report("all")["statements"]
    assert [row["id"] for row in rows] == list(ROW_DIGESTS)
    digests = {row["id"]: hashlib.sha256(canonical_json(row).encode()).hexdigest()
               for row in rows}
    assert {sid: d for sid, d in digests.items() if d != ROW_DIGESTS[sid]} == {}
