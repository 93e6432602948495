"""Entropy at infinity and the checks built on top of it.

This module estimates how much entropy survives when mass drifts out of
every finite part of the symbol set, and uses those estimates to verify,
at desk scale, the statements that tie everything together:

  - ``pressure_indicator``: the Gurevich pressure of the potential
    -t * (indicator of the symbols <= q), checked and handed to
    ``thermo.pressure``, the one kernel behind every first-return root and
    every entropy: h = P(0),
  - ``b_inf_estimate``: the dual bound min_t [P(-t 1_F) + t*lam] on the
    entropy of measures giving the finite part F mass at most lam,
  - ``h_inf_lower_bound``: entropy carried by explicitly constructed
    escaping sequences of window equilibrium measures,
  - ``verify_main_inequality``: builds a weak*-convergent sequence of
    invariant measures, measures its limit and escaping part, and checks
    limsup h(mu_k) <= |mu| h(mu/|mu|) + (1 - |mu|) * delta_inf,
  - ``mass_bound_check``: the quantitative floor on the limit mass when
    all entropies stay above a level c,
  - ``dimension_series``: convergence/divergence of the weighted series
    sum_l e^(-s l) z_(l-2)(m, q) that controls the dimension of the set
    of points spending most of their time far out,
  - ``mme_stability`` and ``usc_spot_check``: stability of the measure of
    maximal entropy under truncation, and upper semicontinuity of the
    entropy map along weak*-convergent sequences with no mass loss.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from . import counting, measures, thermo
from .errors import CapacityError, NotDrifting, ValidationError
from .graphs import FiniteGraph, LoopSystem, _log_big

_LOG2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the symbols <= _Q_MAX whose limit masses the verifiers fit
_Q_MAX = 64
# how far the mass bound and the spot check let a measured value miss
_TOL = 0.02
# the length of the schedule whose limit mass mass_bound_check measures
_MASS_SCHEDULE = 6
# most windows h_inf_lower_bound builds, the last [15360, 46080]. Each window
# more roughly triples time and memory: on the 2^l loops of
# demos/graphs/powers.json 10 windows take 0.7 s and 290 MB and 11 take 2.1 s
# and 1 GB, since each length past the count table is a fresh big integer
MAX_WINDOWS = 10
# most loop lengths a drift schedule rides, the last 4 * 2^23 = 33554432:
# verify-main --family pure-drift on demos/graphs/powers.json takes 0.6 s at
# 24 and 1.4 s at 25, counting the 2^L loops of each length L exactly
MAX_DRIFT_STEPS = 24


# ---------------------------------------------------------------------------
# pressure of -t * indicator(symbols <= q)


def pressure_indicator(graph, t, q=1):
    """Gurevich pressure of the potential -t on symbols <= q, 0 elsewhere.

    At t = 0 this is the Gurevich entropy; it decreases in t and flattens
    at the entropy carried outside every finite symbol set.
    """
    if not 0 <= t < math.inf:
        raise ValidationError("the weight t must be a finite number >= 0", field="t")
    if q < 0:
        raise ValidationError("the finite part q must be >= 0", field="q")
    if not isinstance(graph, (FiniteGraph, LoopSystem)):
        raise ValidationError(f"unsupported graph type {type(graph).__name__}")
    return thermo.pressure(graph, t, q)


# ---------------------------------------------------------------------------
# the dual (finite-subgraph) bound


@dataclass(frozen=True)
class BInfReport:
    value: float
    t_opt: float
    lam: float
    q: int
    pressure_at_opt: float


def _pressure_bounded_below(graph, q):
    """Whether P(-t 1_F), F = symbols <= q, stays bounded below as t grows:
    on an infinite loop system by log growth (measures on ever longer loops),
    on a finite graph when some cycle avoids F, that is when a block of the
    adjacency matrix outside F has an edge. Every cycle of a finite loop
    system passes through the base."""
    if isinstance(graph, LoopSystem):
        return graph.is_infinite
    rest = thermo.adjacency_matrix(graph)[q:, q:]
    return any(block.edges[0].size for block in thermo._blocks(rest))


def b_inf_estimate(graph, lam=1e-3, q=1, t_max=None):
    """min over t >= 0 of pressure_indicator(t) + t * lam.

    Any invariant measure giving the symbols <= q total mass at most lam
    has entropy below this value, so as lam shrinks and q grows the
    minimum squeezes down onto the entropy at infinity from above. When
    every cycle meets the symbols <= q and the objective is still
    decreasing at t_max, it is taken as unbounded below: value and
    pressure_at_opt -inf, t_opt inf.
    """
    if not lam > 0:
        raise ValidationError("lam must be > 0")
    if t_max is not None and not 0 <= t_max < math.inf:
        raise ValidationError("t_max must be a finite number >= 0", field="t_max")
    top = t_max if t_max is not None else max(20.0, 3.0 * math.log(1.0 / lam))

    def objective(t):
        return pressure_indicator(graph, t, q=q) + t * lam

    # golden-section search; the objective is convex in t
    lo, hi = 0.0, top
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(90):
        if hi - lo <= 1e-11 * max(1.0, hi):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = objective(x2)
    t_opt = 0.5 * (lo + hi)
    f_opt = objective(t_opt)
    if hi == top and not _pressure_bounded_below(graph, q):
        # still decreasing at the end of the search on a system whose
        # pressure falls without bound: no minimum, the bound is -inf
        if objective(top) < objective(top * (1 - 1e-6)):
            return BInfReport(float("-inf"), math.inf, lam, q, float("-inf"))
    return BInfReport(
        value=f_opt,
        t_opt=t_opt,
        lam=lam,
        q=q,
        pressure_at_opt=f_opt - t_opt * lam,
    )


# ---------------------------------------------------------------------------
# entropy carried by escaping window measures


@dataclass(frozen=True)
class HInfReport:
    value: float
    entropies: tuple
    windows: tuple
    escaping: bool
    base_masses: tuple


def h_inf_lower_bound(graph, count=4):
    """Entropy retained along an explicitly escaping sequence of measures.

    Builds equilibrium measures supported on loops with lengths in windows
    pushed further and further out ([30 * 2^j, 90 * 2^j] for j < count),
    checks that the mass of every fixed cylinder decays along the sequence,
    and reports the limsup proxy (the best entropy over the final third of
    the sequence). The finite windows retain a sliver of excess entropy, so
    the proxy can sit slightly above the true limit; it converges as the
    windows deepen. CapacityError past MAX_WINDOWS windows.
    """
    if count < 1:
        raise ValidationError("count must be >= 1", field="count")
    _check_steps(count, MAX_WINDOWS, "windows", 90)
    if isinstance(graph, FiniteGraph):
        return HInfReport(float("-inf"), (), (), False, ())
    if not isinstance(graph, LoopSystem) or not graph.is_infinite:
        raise NotDrifting("no escaping sequences exist on a finite loop system")
    windows = [(30 * 2**j, 90 * 2**j) for j in range(count)]
    seq = [measures.tail_parry_measure(graph, lo, hi) for lo, hi in windows]
    entropies = [m.entropy for m in seq]
    base = [float(m.symbol_masses(1)[0]) for m in seq]
    escaping = all(a > b for a, b in zip(base, base[1:])) and base[-1] < base[0]
    return HInfReport(
        value=_limsup_proxy(entropies),
        entropies=tuple(entropies),
        windows=tuple(windows),
        escaping=escaping,
        base_masses=tuple(base),
    )


# ---------------------------------------------------------------------------
# schedules of invariant measures used by the verifiers


def _check_steps(count, cap, what, first):
    """CapacityError once count steps of lengths first * 2^j would pass the
    cap: the loop lengths, and the work, double from one step to the next."""
    if count > cap:
        raise CapacityError(
            f"{count} {what} would reach length {first} * 2^{count - 1}; at most "
            f"{cap} are allowed, reaching length {first * 2 ** (cap - 1)}",
            field="count",
        )


def _length_with_loops(system, target):
    """Nearest loop length to `target` carrying at least one loop."""
    for offset in range(0, max(target, 64)):
        for cand in (target + offset, target - offset):
            if cand >= 1 and system.multiplicity(cand) > 0:
                return cand
    raise ValidationError(f"no loops found near length {target}")


def drift_schedule(system, count=6):
    """Escaping measures riding single loop-length classes near 4, 8, 16, ...

    Each measure spreads uniformly over the loops of one length, so its
    entropy is exactly log(a_L)/L and the mass of every fixed cylinder
    decays geometrically along the schedule. CapacityError past
    MAX_DRIFT_STEPS lengths.
    """
    _check_steps(count, MAX_DRIFT_STEPS, "drift lengths", 4)
    if not isinstance(system, LoopSystem) or not system.is_infinite:
        raise NotDrifting("escaping schedules need an infinite loop system")
    out = []
    for j in range(count):
        length = _length_with_loops(system, 4 * 2**j)
        out.append(measures.LoopMarkovMeasure(system, {length: 1.0}))
    return out


def _limsup_proxy(values):
    return max(values[-max(1, len(values) // 3):])


def _escape_limit(graph, mme, family, count):
    """A schedule of `count` measures on an infinite loop system and the mass
    of its cylinder-wise limit: (schedule, mass).

    "mme" repeats mme, "drift" is drift_schedule, and "mixture" keeps half
    the mass on mme while the other half drifts. The limit is fitted against
    mme: by construction of these schedules it is a multiple of mme even
    when the fit is rejected, and then the ladder mass is used.
    """
    if family == "mme":
        schedule = [mme] * count
    elif family == "drift":
        schedule = drift_schedule(graph, count=count)
    elif family == "mixture":
        drift = drift_schedule(graph, count=count)
        schedule = [measures.MixtureMeasure([(0.5, mme), (0.5, d)]) for d in drift]
    else:
        raise ValidationError(f"unknown family {family!r}")
    rep = measures.cylinder_limit(schedule, graph, q_max=_Q_MAX, candidate=mme, tol=1e-4)
    return schedule, min(max(rep.mass, 0.0), 1.0)


@dataclass(frozen=True)
class MainInequalityReport:
    family: str
    entropies: tuple
    lhs: float
    rhs: float
    slack: float
    mass: float
    limit_entropy: float
    delta_inf: float


def verify_main_inequality(graph, family="mixture", count=6):
    """Check limsup h(mu_k) <= |mu| h(mu/|mu|) + (1 - |mu|) delta_inf.

    Families: "mme" repeats the measure of maximal entropy (no escape,
    equality), "drift" escapes completely (limit mass 0), "mixture" keeps
    half the mass on the measure of maximal entropy while the other half
    escapes riding loop-length classes whose entropy log(a_L)/L approaches
    the entropy at infinity, which makes the inequality nearly sharp.
    CapacityError past MAX_DRIFT_STEPS measures, checked before any is built.
    """
    if count < 3:
        raise ValidationError("cylinder limits need count >= 3 measures", field="count")
    _check_steps(count, MAX_DRIFT_STEPS, "drift lengths", 4)
    if not isinstance(graph, LoopSystem) or not graph.is_infinite:
        raise NotDrifting("the escape-of-mass check needs an infinite loop system")
    mme = measures.loop_mme(graph)
    delta = thermo.big_delta_inf(graph)
    schedule, mass = _escape_limit(graph, mme, family, count)
    entropies = [m.entropy for m in schedule]
    lhs = _limsup_proxy(entropies)
    rhs = mass * mme.entropy + (1.0 - mass) * delta
    return MainInequalityReport(
        family=family,
        entropies=tuple(entropies),
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        mass=mass,
        limit_entropy=mme.entropy,
        delta_inf=delta,
    )


@dataclass(frozen=True)
class MassBoundReport:
    bound: float
    measured: float
    c: float
    delta_inf: float
    entropy_top: float
    entropies_ok: bool
    satisfied: bool


def mass_bound_check(graph, c):
    """Quantitative mass bound along a half-retained, half-escaping schedule.

    When every h(mu_k) >= c, any weak* limit keeps mass at least
    (c - delta_inf) / (h_top - delta_inf); the stock schedule of
    _MASS_SCHEDULE measures pins the measured limit mass against that
    floor, within _TOL.
    """
    if not math.isfinite(c):
        raise ValidationError("the entropy level c must be a finite number", field="c")
    if not isinstance(graph, LoopSystem) or not graph.is_infinite:
        raise NotDrifting("the mass bound check needs an infinite loop system")
    mme = measures.loop_mme(graph)
    delta = thermo.big_delta_inf(graph)
    h_top = mme.entropy
    if h_top - delta <= 1e-15:
        bound = 1.0 if c > delta else 0.0
    else:
        bound = (c - delta) / (h_top - delta)
    bound = min(max(bound, 0.0), 1.0)
    schedule, measured = _escape_limit(graph, mme, "mixture", _MASS_SCHEDULE)
    entropies_ok = all(m.entropy >= c - 1e-9 for m in schedule)
    satisfied = entropies_ok and measured >= bound - _TOL
    return MassBoundReport(
        bound=bound,
        measured=measured,
        c=c,
        delta_inf=delta,
        entropy_top=h_top,
        entropies_ok=entropies_ok,
        satisfied=satisfied,
    )


# ---------------------------------------------------------------------------
# the dimension series


@dataclass(frozen=True)
class DimensionReport:
    verdict: str
    terms: tuple
    s: float
    t: float
    m: int
    q: int
    partial_sum: float
    tail_slope: float | None


def dimension_series(graph, t, m=16, q=1, l_max=60):
    """Terms e^(-s l) z_(l-2)(m, q) with s = t * log 2, and their verdict.

    The series controls (via a covering argument) the Hausdorff dimension,
    in binary coding, of the set of points that spend all but a 1/m
    fraction of their time beyond the symbols <= q.  The verdict is
    "convergent" when the final ceil(l_max/8) terms (at least 4) sit below
    1e-6 and the tail of the term sequence trends down, "diverging" when
    the tail trends up, and "inconclusive" otherwise.
    """
    if l_max < 10:
        raise ValidationError("l_max must be >= 10")
    if not math.isfinite(t):
        raise ValidationError("the dimension t must be a finite number", field="t")
    s = t * _LOG2
    series = counting.escape_count(graph, m, q, n_max=l_max - 2)
    terms = []
    for length in range(2, l_max + 1):
        z = series.value(length - 2)
        term = 0.0 if z == 0 else math.exp(-s * length + _log_big(z))
        terms.append((length, term))
    finals = terms[-max(4, math.ceil(l_max / 8)):]
    window = terms[-max(2, l_max // 3):]
    pts = [(length, math.log(term)) for length, term in window if term > 0.0]
    slope = None
    if len(pts) >= 2:
        xs, ys = zip(*pts)
        slope = float(np.polyfit(xs, ys, 1)[0])
    if all(term == 0.0 for _, term in terms):
        verdict = "convergent"
    elif slope is not None and slope < 0 and all(f < 1e-6 for _, f in finals):
        verdict = "convergent"
    elif slope is not None and slope > 0:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return DimensionReport(
        verdict=verdict,
        terms=tuple(terms),
        s=s,
        t=t,
        m=m,
        q=q,
        partial_sum=math.fsum(term for _, term in terms),
        tail_slope=slope,
    )


# ---------------------------------------------------------------------------
# stability of the measure of maximal entropy under truncation


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple
    probe_ids: tuple


def mme_stability(system, qs=(8, 16, 32, 64), probe_ids=(1, 2, 3, 4)):
    """Compare truncated maximal-entropy measures against the full one.

    Each q is snapped down to the last id of a whole loop (a partially kept
    loop would dead-end), where the truncation is the finite loop system of
    its whole loops and its Parry chain is that system's loop chain of
    maximal entropy. For a strongly positive recurrent system the sup
    distance over the probe cylinders shrinks as q grows.
    """
    if not isinstance(system, LoopSystem) or not system.is_infinite:
        raise ValidationError("truncation stability needs an infinite loop system")
    mme = measures.loop_mme(system)
    rows = []
    for q in qs:
        q_eff, loops = system.whole_loops(q)
        probes = [a for a in probe_ids if a <= q_eff]
        if not probes:
            raise ValidationError(
                f"no probe id lies at or below {q_eff}, the whole-loop boundary of q = {q}",
                field="probe_ids",
            )
        chain = measures.loop_mme(LoopSystem(loops))
        top = max(probes)
        gaps = np.abs(chain.symbol_masses(top) - mme.symbol_masses(top))
        diff = max(float(gaps[a - 1]) for a in probes)
        rows.append((q_eff, diff))
    return StabilityReport(rows=tuple(rows), probe_ids=tuple(probe_ids))


# ---------------------------------------------------------------------------
# upper semicontinuity spot check


@dataclass(frozen=True)
class USCReport:
    gaps: tuple
    ok: bool
    worst: float
    max_mass_error: float
    trials: int


def usc_spot_check(graph, trials=10, seed=0):
    """Entropy cannot jump up along weak*-convergent sequences: sample
    random Markov targets on a finite graph, approach each along a
    geometric mixing path mu_k, k = 2..11 (so every cylinder mass converges
    and no mass escapes), and check limsup h(mu_k) <= h(limit) + _TOL.
    """
    if not isinstance(graph, FiniteGraph):
        raise ValidationError("the spot check runs on a finite graph")
    rng = random.Random(seed)
    outs = {i: sorted(graph.out_neighbors(i)) for i in range(1, graph.symbols + 1)}
    if any(not o for o in outs.values()):
        raise ValidationError("every vertex needs at least one outgoing edge")
    uniform = {
        (i, j): 1.0 / len(nbrs) for i, nbrs in outs.items() for j in nbrs
    }

    def random_transitions():
        table = {}
        for i, nbrs in outs.items():
            raw = [0.15 + 0.7 * rng.random() for _ in nbrs]
            total = sum(raw)
            for j, r in zip(nbrs, raw):
                table[(i, j)] = r / total
        return table

    gaps = []
    mass_err = 0.0
    for _ in range(trials):
        p_star = random_transitions()
        target = measures.markov_measure(graph, p_star)
        schedule = []
        for k in range(2, 12):
            eps = 2.0**-k
            mixed = {
                e: (1.0 - eps) * p_star[e] + eps * uniform[e] for e in p_star
            }
            schedule.append(measures.markov_measure(graph, mixed))
        entropies = [m.entropy for m in schedule]
        rep = measures.cylinder_limit(schedule, graph, candidate=target, tol=1e-6)
        err = abs(rep.mass - 1.0)
        if rep.candidate_residual is not None:
            err = max(err, rep.candidate_residual)
        mass_err = max(mass_err, err)
        gaps.append(_limsup_proxy(entropies) - target.entropy)
    worst = max(gaps)
    return USCReport(
        gaps=tuple(gaps),
        ok=worst <= _TOL,
        worst=worst,
        max_mass_error=mass_err,
        trials=trials,
    )
