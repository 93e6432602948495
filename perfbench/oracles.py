"""Reference computations the benchmark checks cmshift against.

Everything here uses only the standard library and numpy, and works from
the graph documents the benchmark generates, never from cmshift objects:

* spectral radii from ``numpy.linalg.eigvals`` (entropies, Parry chains,
  finite-graph pressures);
* loop generating functions in closed form (integer geometric tails) or as
  certified partial sums (floored tails), their roots, the pressure of
  ``-t * 1[symbols <= q]`` and the dual bound ``b-inf`` at ``q = 1``;
* exact escape counts z_n(M, q) from a marked-visit walk count done modulo
  several primes and rebuilt by the Chinese remainder theorem, plus the
  closed form for pure geometric tails at ``q = 1``;
* covering numbers from a full enumeration of cylinder masses, and the
  Bernoulli(1/2) closed form.

``test_oracles.py`` checks these against brute force at small sizes.
"""

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# finite graphs


def adjacency(doc):
    """Dense 0-1 adjacency matrix of a finite graph document."""
    body = doc["finite"]
    size = body["symbols"]
    a = np.zeros((size, size))
    for i, j in body["edges"]:
        a[i - 1, j - 1] = 1.0
    return a


def log_spectral_radius(mat):
    rho = float(np.max(np.abs(np.linalg.eigvals(mat))))
    return math.log(rho) if rho > 0 else float("-inf")


def finite_pressure(doc, t, q):
    """log rho(W_t), W_t = A with weight e^-t on edges entering symbols <= q."""
    w = adjacency(doc)
    w[:, :q] *= math.exp(-t)
    return log_spectral_radius(w)


def markov_chain_defects(pi, P, adj):
    """Largest violations of the chain axioms on the graph `adj`:
    (row-sum error, stationarity error, mass off the graph)."""
    pi = np.asarray(pi, dtype=float)
    P = np.asarray(P, dtype=float)
    rows = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
    stat = float(np.max(np.abs(pi @ P - pi)))
    off = float(np.max(np.where(adj > 0, 0.0, np.abs(P)))) if P.size else 0.0
    return rows, stat, off


def chain_entropy(pi, P):
    P = np.asarray(P, dtype=float)
    logs = np.log(np.where(P > 0, P, 1.0))
    return float(-np.sum(np.asarray(pi)[:, None] * P * logs))


def block_count(doc, anchor, n):
    """Number of words of n symbols in the graph that start at `anchor`."""
    body = doc["finite"]
    outs = {}
    for i, j in body["edges"]:
        outs.setdefault(i, []).append(j)
    counts = {anchor: 1}
    for _ in range(n - 1):
        nxt = {}
        for v, c in counts.items():
            for w in outs.get(v, ()):
                nxt[w] = nxt.get(w, 0) + c
        counts = nxt
    return sum(counts.values())


def word_masses(pi, P, n):
    """Masses of every positive-mass word of n symbols of the chain (pi, P),
    by full enumeration."""
    pi = np.asarray(pi, dtype=float)
    P = np.asarray(P, dtype=float)
    last = np.nonzero(pi > 0)[0]
    mass = pi[last]
    for _ in range(n - 1):
        rows = P[last]
        src, dst = np.nonzero(rows > 0)
        mass = mass[src] * rows[src, dst]
        last = dst
    return mass


def cover_bounds(masses, delta, slack=1e-9):
    """(low, high) for the fewest cylinders whose mass exceeds 1 - delta.

    The two differ only when a prefix sum of the sorted masses lies within
    `slack` of the threshold, where the order of float additions decides.
    """
    total = np.cumsum(np.sort(masses)[::-1])
    need = 1.0 - delta
    low = int(np.searchsorted(total, need + slack, side="right")) + 1
    high = int(np.searchsorted(total, need - slack, side="right")) + 1
    return min(low, high), max(low, high)


def bernoulli_half_cover(n, delta):
    """N(n, delta) for Bernoulli(1/2) on the full 2-shift: every cylinder has
    mass 2^-n, so it is the least k with k 2^-n > 1 - delta."""
    need = Fraction(1.0 - delta)
    return math.floor(need * 2**n) + 1


def positive_words(pi, P, n):
    """Number of positive-mass words of n symbols (float-exact below 2^53)."""
    support = (np.asarray(P) > 0).astype(float)
    vec = (np.asarray(pi) > 0).astype(float)
    for _ in range(n - 1):
        vec = vec @ support
    return int(round(float(vec.sum())))


# ---------------------------------------------------------------------------
# loop systems


class LoopSpec:
    """The loop counts a_l of a loop-system document."""

    def __init__(self, doc):
        body = doc["loop_system"]
        self.explicit = {}
        for item in body["loops"]:
            l, m = item["length"], item["multiplicity"]
            self.explicit[l] = self.explicit.get(l, 0) + m
        tail = body["tail"]
        self.tail = None
        if tail is not None:
            self.tail = (tail["from_length"], Fraction(tail["coeff"]), Fraction(tail["growth"]))
        self.infinite = self.tail is not None and (
            self.tail[1] > 0 if self.tail[2] > 1 else self.tail[1] >= 1
        )
        self._cache = {}

    @property
    def integral(self):
        """True when the tail is c g^l with integers c and g."""
        return self.tail is not None and all(v.denominator == 1 for v in self.tail[1:])

    @property
    def growth(self):
        return float(self.tail[2]) if self.infinite else None

    @property
    def radius(self):
        return 1.0 / self.growth if self.infinite else math.inf

    def count(self, l):
        if l not in self._cache:
            a = self.explicit.get(l, 0)
            if self.tail is not None and l >= self.tail[0]:
                start, c, g = self.tail
                if self.integral:
                    a += int(c) * int(g) ** l
                else:
                    # the document defines a_l = floor(coeff * growth**l) in
                    # double precision
                    a += math.floor(float(c) * float(g) ** l)
            self._cache[l] = a
        return self._cache[l]

    def max_length(self):
        if self.infinite:
            return None
        return max((l for l, m in self.explicit.items() if m > 0), default=0)

    def loop_rows(self, max_id):
        """(length, first interior id) of the loops whose interiors start at
        or below max_id, in the canonical numbering (base = 1, interiors
        consecutive, loops ordered by length)."""
        rows = []
        nxt = 2
        l = 2
        top = self.max_length()
        while nxt <= max_id and (top is None or l <= top):
            for _ in range(self.count(l)):
                if nxt > max_id:
                    break
                rows.append((l, nxt))
                nxt += l - 1
            l += 1
        return rows

    # -- the first-return series f(x) = sum a_l x^l --------------------------

    def _tail_terms(self, x, power):
        """sum over tail lengths l of l**power * a_l x**l for a floored tail:
        the geometric envelope in closed form minus the floor defects
        frac(c g^l) x^l, which are summed until they drop below float
        resolution (x < 1/g <= 1 makes them decay)."""
        start, c, g = self.tail
        cf, gf = float(c), float(g)

        def envelope(z):
            if power == 0:
                return z**start / (1.0 - z)
            return z**start * (start - (start - 1) * z) / (1.0 - z) ** 2

        total = cf * envelope(gf * x)
        if gf == 1.0:
            return total - (cf - math.floor(cf)) * envelope(x)
        defect = 0.0
        l = start
        while l < 100000:
            weight = l**power * x**l
            if weight < 1e-18 * total:
                break
            a = cf * gf**l
            defect += (a - math.floor(a)) * weight
            l += 1
        return total - defect

    def f(self, x):
        """f(x) for 0 < x < radius, to float accuracy."""
        total = math.fsum(m * x**l for l, m in self.explicit.items())
        if self.tail is None:
            return total
        start, c, g = self.tail
        y = float(g) * x
        if self.integral:
            return total + float(c) * y**start / (1.0 - y)
        return total + self._tail_terms(x, 0)

    def f_prime_x(self, x):
        """x f'(x), the mean loop length numerator at x."""
        total = math.fsum(l * m * x**l for l, m in self.explicit.items())
        if self.tail is None:
            return total
        start, c, g = self.tail
        y = float(g) * x
        if self.integral:
            # sum_{l>=s} l c y^l = c y^s (s - (s-1) y) / (1-y)^2
            return total + float(c) * y**start * (start - (start - 1) * y) / (1.0 - y) ** 2
        return total + self._tail_terms(x, 1)

    def root(self, weight=1.0, corrections=()):
        """x in (0, radius) with weight f(x) + sum w x^l = 1, by bisection;
        None when the left side stays below 1 up to the radius."""

        def lhs(x):
            return weight * self.f(x) + sum(w * x**l for l, w in corrections)

        hi = self.radius if self.infinite else 1.0
        if not self.infinite:
            while lhs(hi) < 1.0:
                hi *= 2.0
        else:
            hi = hi * (1.0 - 1e-15)
            if lhs(hi) < 1.0:
                return None
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if lhs(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def entropy(self):
        x = self.root()
        return -math.log(x if x is not None else self.radius)

    def pressure(self, t, q=1):
        """Pressure of -t on the symbols <= q: -log of the root of
        e^-t f(x) + sum over loops meeting ids 2..q of their extra weight."""
        base = math.exp(-t)
        corr = []
        if q >= 2:
            for length, first in self.loop_rows(q):
                inside = min(first + length - 2, q) - first + 1
                corr.append((length, math.exp(-t * (1 + inside)) - base))
        x = self.root(weight=base, corrections=corr)
        return -math.log(x if x is not None else self.radius)

    def drift_entropies(self, count=6, base_length=4, ratio=2):
        """log(a_L)/L along the loop-length classes L = 4, 8, 16, ... (each
        moved to the nearest length that has loops) that escaping schedules
        ride."""
        out = []
        for j in range(count):
            target = base_length * ratio**j
            length = next(
                cand
                for offset in range(max(target, 64))
                for cand in (target + offset, target - offset)
                if cand >= 1 and self.count(cand) > 0
            )
            out.append(log_big(self.count(length)) / length)
        return out

    def mass_level(self, u):
        """An entropy level c a fraction u of the way from log(growth) to the
        lowest entropy of the half-maximal, half-escaping schedule, so every
        measure of that schedule has entropy >= c."""
        d = math.log(self.growth)
        h = self.entropy()
        floor = min(0.5 * h + 0.5 * e for e in self.drift_entropies())
        return d + u * (floor - d)

    def b_inf(self, lam, t_max):
        """min over 0 <= t <= t_max of P(-t 1[base]) + t lam.

        With P(t) = -log x where e^-t f(x) = 1, the objective in x is
        -log x + lam log f(x) on [x*, x(t_max)], convex in log x, with its
        minimum where x f'(x) / f(x) = 1 / lam.
        """
        x_lo = self.root()
        x_hi = self.root(weight=math.exp(-t_max))
        lo, hi = x_lo, x_hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if self.f_prime_x(mid) / self.f(mid) < 1.0 / lam:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        return -math.log(x) + lam * math.log(self.f(x))


# ---------------------------------------------------------------------------
# escape counts

_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
           2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
           2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
           2147483249, 2147483237, 2147483179, 2147483171, 2147483137)


def escape_states(doc, q, n_edges):
    """A finite state graph whose walks of <= n_edges edges between symbols
    <= q are exactly the ambient ones: (marked flags, edges (src, dst, weight))."""
    if doc["kind"] == "finite":
        size = doc["finite"]["symbols"]
        marked = [v <= q for v in range(1, size + 1)]
        edges = [(i - 1, j - 1, 1) for i, j in doc["finite"]["edges"]]
        return marked, edges
    spec = LoopSpec(doc)
    marked = [True]  # the base, id 1
    edges = []
    if spec.count(1):
        edges.append((0, 0, spec.count(1)))
    taken = {}
    for length, first in spec.loop_rows(q):
        prev = 0
        for pos in range(length - 1):
            marked.append(first + pos <= q)
            edges.append((prev, len(marked) - 1, 1))
            prev = len(marked) - 1
        edges.append((prev, 0, 1))
        taken[length] = taken.get(length, 0) + 1
    top = spec.max_length()
    longest = n_edges if top is None else min(n_edges, top)
    for length in range(2, longest + 1):
        extra = spec.count(length) - taken.get(length, 0)
        if extra <= 0:
            continue
        prev = 0
        for pos in range(length - 1):
            marked.append(False)
            edges.append((prev, len(marked) - 1, extra if pos == 0 else 1))
            prev = len(marked) - 1
        edges.append((prev, 0, 1))
    return marked, edges


def escape_counts(doc, M, q, n_max):
    """z_n(M, q), n = 0..n_max, exact: a walk count over (state, marked
    visits) done modulo several primes at once, rebuilt by CRT."""
    marked, edges = escape_states(doc, q, n_max + 1)
    size = len(marked)
    marked = np.array(marked)
    cap = (n_max + 2) // M
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    weights = [e[2] for e in edges]

    # an upper bound on every count fixes how many primes the CRT needs
    wf = np.array([float(w) for w in weights])
    vec = marked.astype(float)
    bound = float(vec.sum())
    for _ in range(n_max + 1):
        nxt = np.zeros(size)
        np.add.at(nxt, dst, vec[src] * wf)
        vec = nxt
        bound = max(bound, float(vec[marked].sum()))
    bits = math.log2(bound + 2.0) + 2.0
    k = max(1, math.ceil(bits / 30.0))
    if k > len(_PRIMES):
        raise ValueError("escape count too large for the oracle")
    primes = [int(p) for p in _PRIMES[:k]]

    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    weights = [weights[i] for i in order]
    heads = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    targets = dst[heads]
    t_marked = marked[targets]
    residues = [_escape_residues(p, weights, src, heads, targets, t_marked, marked, size, cap, M, n_max)
                for p in primes]
    return [_crt([r[n] for r in residues], primes) for n in range(n_max + 1)]


def _escape_residues(p, weights, src, heads, targets, t_marked, marked, size, cap, M, n_max):
    """z_n mod p for n = 0..n_max. Residues stay below 2^31, so a product
    with a reduced weight fits in int64."""
    w = np.array([x % p for x in weights], dtype=np.int64)
    dp = np.zeros((cap + 1, size), dtype=np.int64)
    if cap >= 1:
        dp[1, marked] = 1
    plain, hit = targets[~t_marked], targets[t_marked]
    out = []
    for e in range(1, n_max + 2):
        summed = np.add.reduceat(dp[:, src] * w % p, heads, axis=1) % p
        dp = np.zeros_like(dp)
        dp[:, plain] = summed[:, ~t_marked]
        dp[1:, hit] = summed[:-1, t_marked]
        budget = min((e + 1) // M, cap)
        out.append(int(dp[: budget + 1, marked].sum() % p))
    return out


def _crt(residues, moduli):
    x, m = 0, 1
    for r, p in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, p)) % p
        x += m * t
        m *= p
    return x


def escape_q1_geometric(c, g, M, n):
    """z_n(M, 1) for a_l = c g^l (l >= 1): a word from the base back to it
    with k loops has k+1 base visits and splits n+1 edges into k parts."""
    budget = (n + 2) // M
    return g ** (n + 1) * sum(c**k * math.comb(n, k - 1) for k in range(1, budget))


def log_big(c):
    if c.bit_length() <= 900:
        return math.log(c)
    shift = c.bit_length() - 900
    return math.log(c >> shift) + shift * math.log(2)


def affine_rate(counts, start=0):
    """Least-squares slope of log c_n over the last half of the series, zero
    counts skipped; -inf when nothing is left."""
    lo = start + len(counts) // 2
    pts = [(start + i, c) for i, c in enumerate(counts) if start + i >= lo and c > 0]
    if not pts:
        return float("-inf")
    if len(pts) == 1:
        n, c = pts[0]
        return log_big(c) / n if n else float("-inf")
    xs = np.array([n for n, _ in pts], dtype=float)
    ys = np.array([log_big(c) for _, c in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def dimension_terms(counts, t, l_max):
    """(length, e^(-s l) z_(l-2)) for l = 2..l_max, s = t log 2."""
    s = t * math.log(2.0)
    return [
        (l, 0.0 if counts[l - 2] == 0 else math.exp(-s * l + log_big(counts[l - 2])))
        for l in range(2, l_max + 1)
    ]


def dimension_verdict(terms, l_max):
    """Verdict of the weighted escape series from its terms, by the rule the
    dimension report documents."""
    finals = terms[-max(4, math.ceil(l_max / 8)):]
    window = terms[-max(2, l_max // 3):]
    pts = [(l, math.log(v)) for l, v in window if v > 0.0]
    slope = None
    if len(pts) >= 2:
        xs, ys = zip(*pts)
        slope = float(np.polyfit(xs, ys, 1)[0])
    if all(v == 0.0 for _, v in terms):
        return "convergent"
    if slope is not None and slope < 0 and all(v < 1e-6 for _, v in finals):
        return "convergent"
    if slope is not None and slope > 0:
        return "diverging"
    return "inconclusive"
