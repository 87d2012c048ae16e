"""The benchmark's three workloads.

Every workload is a closed loop with one client on one thread.  It builds its
inputs from a seed, runs one round of work at a time, and checks every output
of a round after the round's timing has stopped.

* ``suite``: one ``zdbench theorems --suite all --revalidate`` per round on a
  fresh universe (``SUITE_LIMITS``); an operation is one statement.
* ``analyze``: one seeded permutation of ``analyze_pool.txt`` plus
  ``LOCALIZED_RINGS`` per round; an operation is one ``analyze_report`` +
  ``canonical_json`` request that builds its structures from text.
* ``oracle``: a seeded, stratified sample of extension elements f on small
  pairs per round; an operation is one criterion/oracle decision.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import statistics
import sys
from dataclasses import dataclass, field

from zdbench import dsl, extensions, report, statements
from zdbench.modules import generating_set
from zdbench.universe import UniverseLimits

import checks
import measure
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "analyze_pool.txt")

# The default universe takes about 25 s to build and 165 s to check, more
# than one benchmark run may take.  These limits keep every statement
# exercised (none has zero applicable members) and keep the default suite's
# heavy layers on top: Hom enumeration, submodule lattices, module axiom
# checks in the universe build, then localization.  Every field is given, so
# a change to the program's defaults does not change the suite's work, and
# the check on each round's report pins the universe these limits build.
SUITE_LIMITS = UniverseLimits(
    zmod_max=6, product_component_max=2, max_ring=6, max_module=36,
    max_algebra=16, max_sum_pairs=6, hom_budget=256, presentation_budget=30000,
    brute_budget=300_000, degree_bound=2, series_precision=8, axiom_check_max=64)
SUITE_UNIVERSE = {
    "ring_count": 7, "pair_count": 61, "algebra_count": 19,
    "counts": {"rings_zmod": 5, "rings_product": 1, "rings_polyquot": 1,
               "modules_reg": 7, "modules_free": 7, "modules_cyclic": 13,
               "modules_sum": 21, "modules_hom": 13, "algebras": 19},
}

# Rings for the element-free module specs Reg and Free(2).  Each set is
# already closed under multiplication and avoids 0, so no request logs a
# notice or builds the zero ring.
LOCALIZED_RINGS = (
    "TotalQuotient(Z12)", "TotalQuotient(Z8)", "TotalQuotient(Prod(Z2,Z3))",
    "TotalQuotient(PolyQuot(Z2, x^2))", "TotalQuotient(Prod(Z3,Z4))",
    "Localize(Z12, {1,3,9})", "Localize(Z12, {1,4})", "Localize(Z6, {1,2,4})",
    "Localize(Z10, {1,5})", "Localize(Prod(Z2,Z2), {(1,0)})",
    "Localize(Prod(Z2,Z4), {(1,0)})", "Localize(Prod(Z3,Z4), {(1,0)})",
)

ORACLE_MAX_RING = 6
ORACLE_MAX_MODULE = 8
ORACLE_DEGREES = (2, 3)
ORACLE_DECISIONS = 16   # f per (pair, degree) and round


# ---------------------------------------------------------------------------
# layers


def _hom_probe(tracer, args, result):
    M = args[0]
    gens = 0 if M.is_zero else len(generating_set(M))
    tracer.counters["modules.hom_module.candidates"] += M.size ** gens
    tracer.counters["modules.hom_module.maps"] += result.size


def _submodules_probe(tracer, args, result):
    tracer.counters["modules.all_submodules.found"] += len(result)


def _revalidate_probe(tracer, args, result):
    tracer.counters["report.revalidate_report.witnesses"] += result["total"]


SPANNED = (
    ("universe", "generate_universe"),
    ("rings", "verify_ring_axioms"),
    ("modules", "verify_module_axioms"),
    ("modules", "all_submodules"),
    ("modules", "hom_module"),
    ("localize", "localize"),
    ("localize", "localize_module"),
    ("rings", "all_mult_closed_subsets"),
    ("rings", "FiniteRing.ideals"),
    ("modules", "content_of_element"),
    ("modules", "ideal_action"),
    ("modules", "is_flat"),
    ("modules", "presentation"),
    ("modules", "has_property_A"),
    ("modules", "zero_divisors_module"),
    ("extensions", "is_zd_on_extension"),
    ("extensions", "brute_force_zd"),
    ("extensions", "mccoy_witness"),
    ("extensions", "is_mccoy_algebra"),
    ("modules", "tensor_with_algebra"),
    ("dsl", "build_ring"),
    ("dsl", "build_module"),
    ("report", "analyze_report"),
    ("report", "canonical_json"),
    ("report", "revalidate_report"),
)
# called thousands of times per round: one span each would swamp the trace
COUNTED = (("modules", "submodule_generated"),)
PROBES = {
    "modules.hom_module": _hom_probe,
    "modules.all_submodules": _submodules_probe,
    "report.revalidate_report": _revalidate_probe,
}


def install_layers(tracer: Tracer):
    tracer.install(SPANNED, COUNTED, PROBES)
    tracer.install_items(statements.REGISTRY, "statements")


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures per traced round: self seconds, calls and counters."""
    out = {}
    for module_name, path in SPANNED:
        name = f"{module_name}.{path}"
        out[f"{name}.s"] = (tracer.self_s[name] / rounds, "s")
    for sid in statements.REGISTRY:
        name = f"statements.{sid}"
        out[f"{name}.s"] = (tracer.self_s[name] / rounds, "s")
    for name in ("modules.verify_module_axioms", "modules.submodule_generated",
                 "rings.FiniteRing.ideals", "extensions.brute_force_zd"):
        out[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
    for name in ("modules.all_submodules.found", "modules.hom_module.candidates",
                 "modules.hom_module.maps", "report.revalidate_report.witnesses"):
        out[name] = (tracer.counters[name] / rounds, "count")
    candidates = tracer.counters["modules.hom_module.candidates"]
    maps = tracer.counters["modules.hom_module.maps"]
    out["modules.hom_module.accept_ratio"] = (maps / candidates if candidates else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Round:
    """What one round measured and what its checks found."""

    wall_s: float                 # the round's work, set-up excluded
    attempted: int
    failed: int = 0
    latencies: list = field(default_factory=list)   # seconds per completed operation
    setup_s: float | None = None  # suite: the universe build inside the round
    op_seconds: dict = field(default_factory=dict)  # suite: seconds per statement
    errors: list = field(default_factory=list)

    def scaled(self, slowdown: float) -> "Round":
        """The round's times divided by `slowdown`: at the reference speed."""
        return dataclasses.replace(
            self, wall_s=self.wall_s / slowdown,
            latencies=[s / slowdown for s in self.latencies],
            setup_s=None if self.setup_s is None else self.setup_s / slowdown,
            op_seconds={k: v / slowdown for k, v in self.op_seconds.items()})


def _report_failure(what: str, exc: Exception):
    print(f"operation failed: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def load_pool() -> list[tuple[str, str]]:
    """The (ring, module) descriptors of every pair of the default universe."""
    with open(POOL_PATH, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


class Workload:
    name = ""
    covered: frozenset = frozenset()   # root spans expected to cover a round
    min_rounds = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops_started = 0

    def construct_inputs(self):
        """Input construction that is the same on every round (timed as set-up)."""

    def run_round(self, tracer: Tracer | None, clock) -> Round:
        """One round; `clock` reads seconds, `tracer` is set in traced rounds."""
        raise NotImplementedError

    def latency_ms(self, rounds: list[Round]) -> tuple[float, float]:
        """(p50, p99) over every completed operation of the untraced rounds."""
        samples = [s for r in rounds for s in r.latencies]
        p99 = measure.percentile(samples, 99)
        if p99 is None:
            raise RuntimeError(f"{len(samples)} samples are too few for a p99")
        return statistics.median(samples) * 1000.0, p99 * 1000.0


class Suite(Workload):
    """The statement registry on one shared universe per round.

    The seed is not used: the suite samples nothing.
    """

    name = "suite"
    covered = frozenset([f"statements.{sid}" for sid in statements.REGISTRY]
                        + ["report.revalidate_report"])

    def run_round(self, tracer, clock):
        own = tracer is None
        if own:
            # untraced rounds still time the universe build and each statement:
            # 34 spans per round cost nothing measurable
            tracer = Tracer(clock)
            tracer.install([("universe", "generate_universe")])
            tracer.install_items(statements.REGISTRY, "statements")
        first = len(tracer.spans)
        ids = list(statements.REGISTRY)
        tracer.op = self.ops_started
        self.ops_started += 1
        start = clock()
        try:
            rep = report.theorems_report("all", limits=SUITE_LIMITS)
            text = report.canonical_json(rep)
            revalidation = report.revalidate_report(rep)
        except Exception as exc:  # a crash fails every statement of the round
            _report_failure("theorems --suite all", exc)
            return Round(wall_s=clock() - start, attempted=len(ids), failed=len(ids))
        finally:
            if own:
                tracer.uninstall()
        elapsed = clock() - start
        seconds = tracer.seconds_by_name(first)
        universe = seconds["universe.generate_universe"]
        return Round(
            wall_s=elapsed - universe, attempted=len(ids), setup_s=universe,
            op_seconds={sid: seconds[f"statements.{sid}"] for sid in ids},
            errors=checks.check_suite(json.loads(text), revalidation, len(ids),
                                     SUITE_UNIVERSE))

    def latency_ms(self, rounds):
        """33 statements are too few for a tail.  Each statement's median
        over the rounds is taken; p50 is the median statement and the p99
        slot holds the slowest statement."""
        done = [r for r in rounds if r.op_seconds]
        per_statement = [statistics.median([r.op_seconds[sid] for r in done])
                         for sid in done[0].op_seconds]
        return statistics.median(per_statement) * 1000.0, max(per_statement) * 1000.0


class Analyze(Workload):
    """A stream of one-shot analyze requests over the default universe's
    pairs and element-free specs over localized rings."""

    name = "analyze"
    covered = frozenset({"report.analyze_report", "report.canonical_json"})

    def __init__(self, seed):
        super().__init__(seed)
        self.pool: list = []

    def construct_inputs(self):
        pool = load_pool() + [(ring, module) for ring in LOCALIZED_RINGS
                              for module in ("Reg", "Free(2)")]
        for ring_text, module_text in pool:
            dsl.parse_ring(ring_text)
            dsl.parse_module(module_text)
        self.pool = pool
        # whole passes only, and enough of them for a p99 with a tail
        self.min_rounds = -(-measure.min_samples_for(99) // len(pool))

    def round_inputs(self) -> list:
        """The next pass: every request of the pool once, in seeded order."""
        return self.rng.sample(self.pool, len(self.pool))

    def run_round(self, tracer, clock):
        requests = self.round_inputs()
        latencies, outputs, failed = [], [], 0
        start = clock()
        for ring_text, module_text in requests:
            if tracer is not None:
                tracer.op = self.ops_started
            self.ops_started += 1
            t = clock()
            try:
                text = report.canonical_json(report.analyze_report(ring_text, module_text))
            except Exception as exc:  # counted as failed; the stream goes on
                _report_failure(f"analyze {ring_text} :: {module_text}", exc)
                failed += 1
                continue
            latencies.append(clock() - t)
            outputs.append((module_text, text))
        wall = clock() - start
        errors = [e for module_text, text in outputs
                  for e in checks.check_analyze(json.loads(text), module_text)]
        return Round(wall_s=wall, attempted=len(requests), failed=failed,
                     latencies=latencies, errors=errors)


def oracle_quotas(zero_divisors: int, others: int) -> tuple[int, int]:
    """(zero-divisor, other) f per round for one pair and degree.

    ORACLE_DECISIONS split in proportion to the two classes' sizes, rounded
    half up, so a round has the mix of zero-divisors that a sweep over every
    f of that degree has; every f when there are no more than that.
    """
    total = zero_divisors + others
    if total <= ORACLE_DECISIONS:
        return zero_divisors, others
    zd = math.floor(ORACLE_DECISIONS * zero_divisors / total + 0.5)
    return zd, ORACLE_DECISIONS - zd


@dataclass
class OraclePair:
    ring_text: str
    module_text: str
    R: object
    M: object
    zmod_factors: list | None           # cyclic factor orders when R is Z/n
    zero_divisors: dict                 # degree -> (sorted coefficient tuples, set)


class Oracle(Workload):
    """Criterion-versus-oracle decisions on small pairs of the default universe."""

    name = "oracle"
    covered = frozenset({"extensions.is_zd_on_extension", "extensions.brute_force_zd",
                         "extensions.mccoy_witness"})

    def __init__(self, seed):
        super().__init__(seed)
        self.pairs: list[OraclePair] = []

    def construct_inputs(self):
        rings, pairs = {}, []
        for ring_text, module_text in load_pool():
            R = rings.get(ring_text)
            if R is None:
                R = rings[ring_text] = dsl.build_ring(ring_text)
            if R.size > ORACLE_MAX_RING:
                continue
            M = dsl.build_module(R, module_text)
            if M.size > ORACLE_MAX_MODULE or M.is_zero:
                continue
            n = int(ring_text[1:]) if R.kind == "zmod" else None
            pairs.append(OraclePair(
                ring_text, module_text, R, M,
                checks.zmod_factors(n, module_text) if n else None,
                self._zero_divisor_classes(R, M)))
        self.pairs = pairs
        # enough whole rounds for a p99 with a tail
        round_size = sum(min(p.R.size ** (d + 1) - 1, ORACLE_DECISIONS)
                         for p in pairs for d in ORACLE_DEGREES)
        self.min_rounds = -(-measure.min_samples_for(99) // round_size)

    @staticmethod
    def _zero_divisor_classes(R, M) -> dict:
        """Coefficient tuples of the zero-divisors f on M[X], by degree.

        f kills a nonzero constant m exactly when every coefficient lies in
        Ann(m), so the class is the union of Ann(m)^(degree+1) over m != 0.
        """
        zero = M.zero
        annihilators = {frozenset(r for r in R.elements if M.act(r, m) == zero)
                        for m in M.elements if m != zero}
        out = {}
        for degree in ORACLE_DEGREES:
            found = set()
            for A in annihilators:
                found.update(itertools.product(R.sorted_elements(A), repeat=degree + 1))
            found.discard((R.zero,) * (degree + 1))
            ordered = sorted(found, key=lambda c: tuple(map(R.index, c)))
            out[degree] = (ordered, found)
        return out

    def round_inputs(self) -> list:
        """The next round's decisions: per pair and degree, zero-divisors and
        other f in the numbers `oracle_quotas` gives, drawn with the seed and
        shuffled."""
        rng = self.rng
        items = []
        for pair in self.pairs:
            R = pair.R
            for degree in ORACLE_DEGREES:
                zd_list, zd_set = pair.zero_divisors[degree]
                others = R.size ** (degree + 1) - 1 - len(zd_list)
                zd_quota, other_quota = oracle_quotas(len(zd_list), others)
                for coeffs in rng.sample(zd_list, zd_quota):
                    items.append((pair, degree, coeffs, True))
                zero = (R.zero,) * (degree + 1)
                if other_quota == others:
                    chosen = [c for c in itertools.product(R.elements, repeat=degree + 1)
                              if c != zero and c not in zd_set]
                else:
                    chosen, seen = [], set()
                    while len(chosen) < other_quota:
                        c = tuple(rng.choice(R.elements) for _ in range(degree + 1))
                        if c != zero and c not in zd_set and c not in seen:
                            seen.add(c)
                            chosen.append(c)
                items.extend((pair, degree, c, False) for c in chosen)
        rng.shuffle(items)
        return items

    def run_round(self, tracer, clock):
        decisions = []
        for pair, degree, coeffs, expected in self.round_inputs():
            R = pair.R
            f = extensions.ring_poly(R, {(i,): c for i, c in enumerate(coeffs) if c != R.zero})
            decisions.append((pair, degree, coeffs, expected, f))
        latencies, records, failed = [], [], 0
        start = clock()
        for pair, degree, coeffs, expected, f in decisions:
            if tracer is not None:
                tracer.op = self.ops_started
            self.ops_started += 1
            M = pair.M
            t = clock()
            try:
                crit = extensions.is_zd_on_extension(f, M)
                # a constant cofactor confirms a zero-divisor; otherwise the
                # oracle searches every cofactor up to f's degree
                oracle = extensions.brute_force_zd(f, M, 0 if crit.holds else degree)
                witness = None
                if crit.holds and oracle.holds:
                    witness = extensions.mccoy_witness(f, oracle.witness["cofactor"])
            except Exception as exc:  # counted as failed; the round goes on
                _report_failure(f"decide {f} on {pair.ring_text} :: {pair.module_text}", exc)
                failed += 1
                continue
            latencies.append(clock() - t)
            records.append((pair, coeffs, expected, crit.holds, oracle.holds, witness))
        wall = clock() - start
        errors = []
        for pair, coeffs, expected, crit, oracle, witness in records:
            errors.extend(checks.check_decision(self._decision_record(
                pair, coeffs, expected, crit, oracle, witness)))
        return Round(wall_s=wall, attempted=len(decisions), failed=failed,
                     latencies=latencies, errors=errors)

    @staticmethod
    def _decision_record(pair, coeffs, expected, crit, oracle, witness) -> dict:
        M = pair.M
        gcd_verdict = None
        if pair.zmod_factors is not None:
            g = 0
            for c in coeffs:
                g = math.gcd(g, c)
            gcd_verdict = any(math.gcd(g, d) > 1 for d in pair.zmod_factors)
        witness_ok = (witness is not None and witness != M.zero
                      and all(M.act(c, witness) == M.zero for c in coeffs))
        return {"where": f"{pair.ring_text} :: {pair.module_text} f={coeffs}",
                "coeffs": coeffs, "expected": expected, "criterion": crit,
                "oracle": oracle, "gcd_verdict": gcd_verdict, "witness_ok": witness_ok}


WORKLOADS = {w.name: w for w in (Suite, Analyze, Oracle)}
