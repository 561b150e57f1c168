"""Seeded inputs for the benchmark workloads and the oracles that check the
program's answers on them.

Instances that need a golden answer (every perturbed instance) come
from fixed pools catalogued in ``golden.json``; ``--seed`` picks which pool
entries a run uses and in what order, so any seed gives inputs the golden
file covers.  Yes-instances are checked without the golden file: the
decision must reproduce the generating measure exactly.

Each corpus is stratified: it is a sequence of rounds, and every round
visits each stratum (instance shape) once, so that any run that completes
a few rounds sees the same mix of shapes whatever the seed.  The seed
chooses the instances inside each stratum, except where a corpus holds every
(entry, variant) pair of a pool equally often; there it sets their order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The guard decide_root applies at the commit the benchmark was defined on:
# an instance is "inside" when C(M + kappa - 1, kappa) <= 10**6, M = |supp mu|.
# Frozen here as an input property, so a change to the guard moves no
# instance between workloads.
GUARD_MULTISETS = 10 ** 6

POOL_SEED = 0x6D6F6D656E74  # fixed seed of every catalogued pool
VARIANTS = ("yes", "scale", "drop", "inject")
MAX_ADDED_ATOMS = 2           # a perturbation adds at most two atoms
BOUND = 64

SMALL_POOL = 640              # draws from the generator's full domain
SMALL_KAPPAS = tuple(range(2, 9))
LARGE_SIZES = tuple(range(20, 31))  # atoms of nu; mu = nu^2 has 210..465 atoms
LARGE_DRAWS = 5               # pool entries per size
BEYOND_SHAPES = ((8, 4), (8, 6), (3, 6), (4, 5), (2, 12))  # (atoms of nu, kappa)
BEYOND_DRAWS = 2
ANALYZE_SHAPES = tuple((k, n) for k in (2, 3) for n in range(1, 6)) + tuple(
    (4, n) for n in range(1, 5)
)
ANALYZE_DRAWS = 8

# Corpus sizes for one run.  A run cycles through its corpus if it is fast
# enough to finish it.  The large decide ops and the analyze ops hold every
# (pool entry, variant) pair of their pools equally often, so their mix, which
# sets most of the run's time, is the same for every seed.
DECIDE_SMALL_DRAWS = 495      # 1980 small ops
DECIDE_LARGE_EVERY = 9        # one large op after every 9 small ops: 220,
                              # each large (entry, variant) pair once
THEOREMS_PER_STRATUM = 64     # 15 strata
ANALYZE_ROUNDS = 64           # 14 ops per round; each (entry, variant) pair twice

# The leading part of each corpus that the traced run replays.
TRACE_SLICE = {"decide": 110, "decide_beyond_guard": None, "theorems": 30, "analyze": 28}


def inside_guard(m_atoms: int, kappa: int) -> bool:
    return math.comb(m_atoms + kappa - 1, kappa) <= GUARD_MULTISETS


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure_digest(mu) -> str:
    return digest(";".join(f"{fmt(p)}:{fmt(w)}" for p, w in mu.atoms))


def nu_digest(base_mass: str, positives) -> str:
    """Digest of a yes-verdict's representation; positives are
    (power, rho) rational strings of the entries with rho > 0."""
    return digest(base_mass + "|" + ";".join(f"{p}:{r}" for p, r in positives))


def decision_outcome(decision) -> str:
    """Canonical text of a RootDecision: the verdict plus the certificate
    kind and location, or a digest of the recovered representation."""
    if decision.is_yes:
        nu = decision.nu
        return "yes:" + nu_digest(
            fmt(nu.base_mass), [(fmt(e.power), fmt(e.rho)) for e in nu.entries if e.rho > 0]
        )
    cert = decision.certificate
    return f"no:{cert.kind.value}:{fmt(cert.location)}"


def block_outcome(block: dict) -> str:
    """decision_outcome for the "decision" block of `analyze --json`."""
    if block["status"] == "certified_yes":
        nu = block["nu"]
        return "yes:" + nu_digest(
            nu["base_mass"], [(e["power"], e["rho"]) for e in nu["entries"] if e["rho"] != "0"]
        )
    cert = block["certificate"]
    return f"no:{cert['kind']}:{cert['location']}"


def recovers(base_mass: Fraction, positives: dict, nu, kappa: int) -> bool:
    """Yes-oracle: base_mass == w1**kappa and rho == w/w1 at each x**kappa."""
    w1 = nu.atoms[0][1]
    return base_mass == w1 ** kappa and positives == {x ** kappa: w / w1 for x, w in nu.atoms}


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------


def _rng(mr, *parts):
    """A splitmix64 stream keyed by a tuple of labels."""
    state = int.from_bytes(hashlib.sha256(repr((POOL_SEED,) + parts).encode()).digest()[:8], "big")
    return mr.generate.SplitMix64(state)


def _permutation(rng, n: int) -> list[int]:
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def draw_measure(mr, rng, atoms: int):
    """`atoms` distinct rational points and weights with numerators and
    denominators in [1, BOUND]."""
    points: set[Fraction] = set()
    while len(points) < atoms:
        points.add(Fraction(1 + rng.below(BOUND), 1 + rng.below(BOUND)))
    pairs = [(p, Fraction(1 + rng.below(BOUND), 1 + rng.below(BOUND))) for p in sorted(points)]
    return mr.measures.AtomicMeasure.from_pairs(pairs)


def small_draw(mr, index: int):
    params = mr.generate.GenParams(seed=POOL_SEED, max_atoms=8, bound=BOUND, kappa_set=SMALL_KAPPAS)
    nu = mr.generate.random_atomic_measure(params, index)
    kappa = mr.generate.pick_kappa(params, mr.generate.stream(params, index))
    return nu, kappa


def pool_nu(mr, family: str, entry: dict):
    """The generating measure of a catalogued pool entry."""
    if family == "small":
        return small_draw(mr, entry["index"])[0]
    return draw_measure(mr, _rng(mr, family, entry["n"], entry["kappa"], entry["draw"]), entry["n"])


def perturb(mr, mu, nu, kappa: int, variant: str):
    """A perturbed copy of mu = nu**kappa (the pushforward).

    scale:  double the mass of the top atom.
    drop:   remove the point t_1**(kappa-1) * t_j for the first root atom
            t_j whose point other multisets also reach (its peeled weight
            must then go negative); without such a collision, remove a
            middle atom.
    inject: add a heavy fake root atom t* = t_1 * t_3 / t_2, by adding mass
            at t***kappa and a large mass at t_1**(kappa-1) * t*; the
            multiset {t_1**(kappa-2), t*, t_2} then over-fills the key of
            t_3, so a peeled weight goes negative.  Needs three atoms; with
            fewer, add a stray atom between the two lowest points.
    """
    masses = dict(mu.atoms)
    if variant == "yes":
        return mu
    if variant == "scale":
        top = mu.max_point
        masses[top] *= 2
    elif variant == "drop":
        if len(masses) < 2:
            masses[3 * mu.min_point] = mu.atoms[0][1]
        else:
            (t1, w1), rest = nu.atoms[0], nu.atoms[1:]
            victim = None
            for t, w in rest:
                y = t1 ** (kappa - 1) * t
                if masses[y] != kappa * w1 ** (kappa - 1) * w:
                    victim = y
                    break
            if victim is None:
                victim = mu.atoms[max(1, len(masses) // 2)][0]
            del masses[victim]
    elif variant == "inject":
        if len(nu.atoms) < 3:
            pts = mu.support
            stray = (pts[0] + pts[1]) / 2 if len(pts) > 1 else 2 * pts[0]
            masses[stray] = mu.atoms[0][1]
        else:
            t1, t2, t3 = nu.support[:3]
            fake = t1 * t3 / t2
            heavy = 64 * sum(masses.values())
            masses[fake ** kappa] = masses.get(fake ** kappa, 0) + mu.atoms[0][1]
            masses[t1 ** (kappa - 1) * fake] = masses.get(t1 ** (kappa - 1) * fake, 0) + heavy
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return mr.measures.AtomicMeasure.from_pairs(masses.items())


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop request.  expect is ("nu", measure) for a generated
    yes-instance, or ("golden", outcome text) for a perturbed one."""

    workload: str
    label: str
    kappa: int = 0
    mu: object = None
    path: str = ""
    seed: int = 0
    expect: tuple = ()


@dataclass
class Corpus:
    workload: str
    ops: list
    digest: str


class _Instances:
    """Builds pool instances, pushing each generating measure forward once."""

    def __init__(self, mr, golden):
        self.mr = mr
        self.golden = golden
        self._mu = {}

    def op(self, workload: str, family: str, pos: int, variant: str) -> Op:
        entry = self.golden[family][pos]
        key = (family, pos)
        if key not in self._mu:
            nu = pool_nu(self.mr, family, entry)
            mu = self.mr.measures.kappa_power_measure(nu, entry["kappa"])
            if measure_digest(mu) != entry["mu"]:
                raise CorpusDrift(f"{family}[{pos}]: mu differs from the catalogued one")
            self._mu[key] = (nu, mu)
        nu, mu = self._mu[key]
        kappa = entry["kappa"]
        instance = perturb(self.mr, mu, nu, kappa, variant)
        expect = ("nu", nu) if variant == "yes" else ("golden", entry["outcomes"][variant])
        label = f"{family}[{pos}].{variant}"
        return Op(workload, label, kappa=kappa, mu=instance, expect=expect)


class CorpusDrift(RuntimeError):
    """A generated instance no longer matches the golden catalogue."""


def _strata(entries, key) -> dict:
    out: dict = {}
    for pos, entry in enumerate(entries):
        out.setdefault(key(entry), []).append(pos)
    return out


def _round_robin(mr, seed: int, tag: str, strata: dict):
    """Yield items of strata forever: each round visits every stratum once,
    in sorted order, taking the stratum's items in a seeded order."""
    orders = {}
    for s in sorted(strata):
        items = strata[s]
        perm = _permutation(_rng(mr, "corpus", tag, seed, s), len(items))
        orders[s] = [items[i] for i in perm]
    r = 0
    while True:
        for s in sorted(strata):
            order = orders[s]
            yield order[r % len(order)]
        r += 1


def _pair_rounds(mr, seed: int, tag: str, strata: dict):
    """_round_robin over each stratum's (pool position, variant) pairs: every
    len(pairs) rounds hold each pair exactly once, so the seed changes only
    their order."""
    pairs = {s: [(pos, variant) for pos in positions for variant in VARIANTS] for s, positions in strata.items()}
    return _round_robin(mr, seed, tag, pairs)


def _decide_ops(mr, golden, seed: int) -> list:
    inst = _Instances(mr, golden)
    small = _round_robin(mr, seed, "small", _strata(golden["small"], lambda e: (e["n"], e["kappa"])))
    large = _pair_rounds(mr, seed, "large", _strata(golden["large"], lambda e: e["n"]))
    ops, count = [], 0
    for _ in range(DECIDE_SMALL_DRAWS):
        pos = next(small)
        for variant in VARIANTS:
            ops.append(inst.op("decide", "small", pos, variant))
            count += 1
            if count % DECIDE_LARGE_EVERY == 0:
                ops.append(inst.op("decide", "large", *next(large)))
    return ops


def _beyond_ops(mr, golden, seed: int) -> list:
    inst = _Instances(mr, golden)
    ops = [
        inst.op("decide_beyond_guard", "beyond", pos, variant)
        for pos in range(len(golden["beyond"]))
        for variant in VARIANTS
    ]
    ops = [op for op in ops if not inside_guard(len(op.mu.atoms), op.kappa)]
    perm = _permutation(_rng(mr, "corpus", "beyond", seed), len(ops))
    return [ops[i] for i in perm]


def _theorems_ops(mr, seed: int) -> list:
    """Fuzz seeds base, base+1, ... bucketed by the trial's (atoms, kappa)
    and interleaved one per stratum."""
    gen = mr.generate
    base = _rng(mr, "theorems", seed).next_u64() >> 1
    buckets: dict = {}
    full = 5 * 3  # atoms 1..5 x kappa in {2, 3, 4} at the acceptance defaults
    s = base
    while len(buckets) < full or min(len(b) for b in buckets.values()) < THEOREMS_PER_STRATUM:
        params = gen.GenParams(seed=s)
        shape = (len(gen.random_atomic_measure(params, 0).atoms), gen.pick_kappa(params, gen.stream(params, 0)))
        buckets.setdefault(shape, []).append(s)
        s += 1
    return [
        Op("theorems", f"theorems[{buckets[shape][r]}]", seed=buckets[shape][r])
        for r in range(THEOREMS_PER_STRATUM)
        for shape in sorted(buckets)
    ]


def _analyze_ops(mr, golden, seed: int, workdir: Path) -> list:
    inst = _Instances(mr, golden)
    pairs = _pair_rounds(mr, seed, "analyze", _strata(golden["analyze"], lambda e: (e["kappa"], e["n"])))
    ops, written = [], {}
    for _ in range(ANALYZE_ROUNDS * len(ANALYZE_SHAPES)):
        op = inst.op("analyze", "analyze", *next(pairs))
        path = written.get(op.label)
        if path is None:
            path = workdir / f"{len(written):04d}.json"
            doc = {"atoms": [{"point": fmt(p), "weight": fmt(w)} for p, w in op.mu.atoms]}
            path.write_text(json.dumps(doc), encoding="utf-8")
            written[op.label] = path
        op.path = str(path)
        ops.append(op)
    return ops


def build(mr, workload: str, seed: int, workdir: Path) -> Corpus:
    """The seeded corpus of one workload; analyze writes its measure files
    into workdir."""
    golden = load_golden()
    if workload == "decide":
        ops = _decide_ops(mr, golden, seed)
    elif workload == "decide_beyond_guard":
        ops = _beyond_ops(mr, golden, seed)
    elif workload == "theorems":
        ops = _theorems_ops(mr, seed)
    elif workload == "analyze":
        ops = _analyze_ops(mr, golden, seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    text = "\n".join(
        f"{op.label}|{op.kappa}|{op.seed}|{measure_digest(op.mu) if op.mu is not None else ''}"
        for op in ops
    )
    return Corpus(workload, ops, digest(text))


def trace_slice(corpus: Corpus) -> list:
    n = TRACE_SLICE[corpus.workload]
    return corpus.ops if n is None else corpus.ops[:n]
