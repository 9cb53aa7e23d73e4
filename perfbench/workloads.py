"""Seeded request generators for the three benchmark workloads.

Each generator is a pure function of (key, count): it returns a list of
requests, and nothing else about the run depends on the seed.  A request is a
plain dict:

    {"kind": "cli", "argv": [...], "meta": {...}}      perfproj.cli.run(argv)
    {"kind": "oracle", "f": "...", "g": "...", "meta": {...}}
                                                        quotient_dim_oracle

The program only ever receives argv strings or curve strings; "meta" is the
benchmark's own record of what it asked for, used by the reference checks and
the input-property report.

The traffic mixes are synthetic: no trace of real use exists.  Where the
shares below are not fixed by what the benchmark must show, each command or
curve family of a class gets an equal share.

Sizes are stratified rather than drawn independently: the predicted work of
the k-th request of a class is a fixed quantile of that class's size
distribution, and the seed picks which concrete parameters realise it (among
those within a few percent).  Different seeds therefore send different
requests with nearly the same total work, which keeps run-to-run spread small
while still varying n, p, grades, signs, output modes and curve shapes.  The
size distributions are log-scale and skewed toward small sizes (SKEW), so
that a pass holds at least MIN_REQUESTS requests within the run time and
still reaches the top of each range.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import comb

PRIMES = (2, 3, 5)

# Closed-form sections requests set latency_p50_ms, so they are more than
# half: 60 % keeps the median a tenth of the requests inside them.  The rest
# is split equally between h0, hn and veronese, the three that enumerate.
SECTIONS_CLOSED_SHARE = 0.6
# cech-check at n = 5..6 (small boxes only): enough requests that every pass
# pays the first-touch ranks of both n, the workload's second regime
CECH_HIGH_N_SHARE = 0.10
# exponent of the size quantiles: 1 is log-uniform, larger skews to small
SKEW = {"sections": 2.5, "veronese": 1.0, "cech": 3.0}

# requests per second of --seconds, from a 2-CPU x86 box, where a run at
# --seconds 20 lasts 20 to 35 s at the seed commit; the work per run is fixed
# by these constants, never by a measurement, so every commit does the same
# work
RATE = {"sections": 20, "cech": 17, "curves": 50}
# a run is this many passes, each a request list of its own sent from a fresh
# interpreter; percentiles pool the passes, so that each has three times the
# requests near it
PASSES = 3
MIN_REQUESTS = 100  # p90 needs ten samples beyond it


def request_count(workload: str, seconds: int) -> int:
    """Requests in one pass."""
    return max(MIN_REQUESTS, round(RATE[workload] * seconds / PASSES))


def _quantiles(k: int, lo: float, hi: float, gamma: float) -> list[float]:
    """Midpoint quantiles of a log-scale size distribution, skewed by gamma."""
    return [lo * (hi / lo) ** (((j + 0.5) / k) ** gamma) for j in range(k)]


def _split(rng: random.Random, k: int, share: float) -> list[bool]:
    """Exactly round(k * share) True flags, in seeded order."""
    flags = [j < round(k * share) for j in range(k)]
    rng.shuffle(flags)
    return flags


def _closest(rng: random.Random, target: float, candidates, tol: float = 0.08):
    """A seeded choice among candidates (cost, item) within tol of target."""
    near = [c for c in candidates if abs(c[0] - target) <= tol * target]
    if near:
        return rng.choice(near)
    return min(candidates, key=lambda c: abs(c[0] - target))


def _deg_text(num: int, pexp: int, p: int) -> str:
    return str(num) if pexp == 0 else f"{num}/{p ** pexp}"


def _random_degree(rng: random.Random, p: int, sign: int, max_pexp: int,
                   lo: int = 1, hi: int = 4) -> tuple[int, int]:
    """A normalized (num, pexp) degree of the given sign, |degree| small."""
    pexp = rng.randint(0, max_pexp)
    # a nonzero residue mod p keeps num/p**pexp in lowest terms
    num = rng.randint(lo, hi) * p ** pexp + (rng.randint(1, p - 1) if pexp else 0)
    return sign * num, pexp


# -- sections -------------------------------------------------------------------

def section_vectors(kind: str, n: int, m: int, p: int, grades: int) -> int:
    """Vectors the CLI enumerates for h0/hn of degree +-m (reduced filters later)."""
    if kind == "h0":
        return sum(comb(p ** j * m + n, n) for j in range(grades))
    return sum(comb(p ** j * m - 1, n) for j in range(grades))


def veronese_monomials(n: int, d: int, p: int, grades: int) -> int:
    return sum(comb(p ** j * d + n, n) for j in range(grades))


@cache
def _enum_candidates() -> list:
    """(entries, parameters) of every h0/hn basis listing up to 2e6 entries.

    Entries (vectors * (n + 1)) track the cost better than vectors alone.
    """
    out = []
    for kind in ("h0", "hn"):
        for n in range(1, 5):
            for p in PRIMES:
                for g in range(1, 5):
                    for m in range(1, 65):
                        entries = section_vectors(kind, n, m, p, g) * (n + 1)
                        if entries > 2_000_000:
                            break
                        if entries:
                            out.append((entries, (kind, n, p, g, m)))
    return out


@cache
def _veronese_candidates() -> list:
    out = []
    for n in range(1, 4):
        for p in PRIMES:
            for g in range(1, 5):
                for d in range(1, 33):
                    mons = veronese_monomials(n, d, p, g)
                    if mons > 5_000:
                        break
                    out.append((mons, (n, p, g, d)))
    return out


def _common_flags(json_mode: bool, grades: int, p: int) -> list[str]:
    argv = ["--p", str(p), "--grades", str(grades)]
    if json_mode:
        argv.append("--json")
    return argv


def _sections_enum(rng, target, kind, n, json_mode):
    """An h0 or hn basis listing with n + 1 variables and about target entries."""
    candidates = [c for c in _enum_candidates() if c[1][:2] == (kind, n)]
    _, (kind, n, p, g, m) = _closest(rng, target, candidates)
    pexp = 1 if (m % p and rng.random() < 0.3) else 0
    reduced = rng.random() < 0.25
    num = m if kind == "h0" else -m
    argv = [kind, "--n", str(n), f"--deg={_deg_text(num, pexp, p)}"]
    argv += _common_flags(json_mode, g, p)
    if reduced:
        argv.append("--reduced")
    meta = {"cmd": kind, "n": n, "num": num, "pexp": pexp, "p": p, "grades": g,
            "reduced": reduced, "json": json_mode,
            "work": section_vectors(kind, n, m, p, g)}
    return {"kind": "cli", "argv": argv, "meta": meta}


def _sections_veronese(rng, target, json_mode):
    _, (n, p, g, d) = _closest(rng, target, _veronese_candidates())
    argv = ["veronese", "--n", str(n), "--d", str(d)]
    argv += _common_flags(json_mode, g, p)
    meta = {"cmd": "veronese", "n": n, "d": d, "p": p, "grades": g,
            "json": json_mode, "work": veronese_monomials(n, d, p, g)}
    return {"kind": "cli", "argv": argv, "meta": meta}


# h0 of a negative degree and hn of a non-negative one are the zero tuple
CLOSED_COMMANDS = ("euler", "bezout-line", "bezout-chi", "kunneth", "h0", "hn")


def _sections_closed(rng, cmd, json_mode):
    """A request answered by closed-form counts only (no basis is listed)."""
    p = rng.choice(PRIMES)
    g = rng.randint(1, 6)
    flags = _common_flags(json_mode, g, p)
    meta = {"cmd": cmd, "p": p, "grades": g, "json": json_mode, "work": 0}
    if cmd in ("euler", "h0", "hn"):
        n = rng.randint(1, 4)
        sign = {"h0": -1, "hn": 1}.get(cmd, rng.choice((-1, 1)))
        num, pexp = _random_degree(rng, p, sign, 1, 0 if sign > 0 else 1, 6)
        reduced = rng.random() < 0.25
        argv = [cmd, "--n", str(n), f"--deg={_deg_text(num, pexp, p)}"] + flags
        if reduced:
            argv.append("--reduced")
        meta.update(n=n, num=num, pexp=pexp, reduced=reduced)
    elif cmd == "bezout-line":
        s = _random_degree(rng, p, 1, 1, 1, 5)
        t = _random_degree(rng, p, 1, 1, 1, 5)
        argv = [cmd, f"--s={_deg_text(*s, p)}", f"--t={_deg_text(*t, p)}"] + flags
        meta.update(s=list(s), t=list(t))
    elif cmd == "bezout-chi":
        degf, degg = rng.randint(1, 4), rng.randint(1, 4)
        d = _random_degree(rng, p, 1, 1, degf + degg, degf + degg + 4)
        argv = [cmd, f"--d={_deg_text(*d, p)}", "--degf", str(degf),
                "--degg", str(degg)] + flags
        meta.update(d=list(d), degf=degf, degg=degg)
    else:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_degree(rng, p, rng.choice((-1, 1)), 1, 1, 4)
        b = _random_degree(rng, p, rng.choice((-1, 1)), 1, 1, 4)
        argv = [cmd, "--n", str(n), "--m", str(m), f"--a={_deg_text(*a, p)}",
                f"--b={_deg_text(*b, p)}"] + flags
        meta.update(n=n, m=m, a=list(a), b=list(b))
    return {"kind": "cli", "argv": argv, "meta": meta}


def _enum_targets(n_listings: int) -> list[tuple[float, str, int]]:
    """(entries, kind, n) of the basis listings besides the anchor, from
    about 6 to 10^6 entries (vectors * (n + 1)).  The kind alternates and n
    cycles, so every seed has the same mix at each size; n = 1 has no
    listing of more than about 2e4 entries."""
    return [(t, ("h0", "hn")[j % 2], 1 + j % 4 if t <= 2e4 else 2 + j % 3)
            for j, t in enumerate(_quantiles(n_listings, 6, 1e6, SKEW["sections"]))]


def _sections_anchor(json_mode):
    """The top of the size range: 341,376 vectors at grade 2, the same every run."""
    argv = ["h0", "--n", "3", "--deg=5"] + _common_flags(json_mode, 3, 5)
    meta = {"cmd": "h0", "n": 3, "num": 5, "pexp": 0, "p": 5, "grades": 3,
            "reduced": False, "json": json_mode, "work": section_vectors("h0", 3, 5, 5, 3)}
    return {"kind": "cli", "argv": argv, "meta": meta}


def sections(key: str, count: int) -> list[dict]:
    rng = random.Random(f"sections-{key}")
    n_closed = round(count * SECTIONS_CLOSED_SHARE)
    n_ver = round((count - n_closed) / 3)
    n_listings = count - n_closed - n_ver
    json_flags = _split(rng, n_listings, 0.5)
    out = [_sections_anchor(json_flags.pop())]
    for target, kind, n in _enum_targets(n_listings - 1):
        out.append(_sections_enum(rng, target, kind, n, json_flags.pop()))
    json_flags = _split(rng, n_ver, 0.5)
    for target, js in zip(_quantiles(n_ver, 3, 2e3, SKEW["veronese"]), json_flags):
        out.append(_sections_veronese(rng, target, js))
    commands = [CLOSED_COMMANDS[j % len(CLOSED_COMMANDS)] for j in range(n_closed)]
    for cmd, js in zip(commands, _split(rng, n_closed, 0.5)):
        out.append(_sections_closed(rng, cmd, js))
    rng.shuffle(out)
    return out


# -- cech -------------------------------------------------------------------------

def cech_box(n: int, num: int, pexp: int, i: int, p: int) -> tuple[int, int]:
    """(weights, heads) visited by cech-check for one degree num/p**pexp.

    The weights are the integer vectors of length n+1 in [-M, M] summing to
    the scaled degree T, counted by inclusion-exclusion; heads is the size of
    the n-fold product the library walks to find them.
    """
    bound = abs(num) // p ** pexp + 2
    m = bound * p ** i
    t = num * p ** (i - pexp)
    s = t + (n + 1) * m
    weights = 0
    for k in range(n + 2):
        rest = s - k * (2 * m + 1)
        if rest < 0:
            break
        weights += (-1) ** k * comb(n + 1, k) * comb(rest + n, n)
    return weights, (2 * m + 1) ** n


def cech_cost(n: int, degrees, i: int, p: int) -> float:
    """Predicted seconds at the seed commit: weights dominate, heads add."""
    cost = 0.0025
    for num, pexp in degrees:
        weights, heads = cech_box(n, num, pexp, i, p)
        cost += 0.0002 + 1.7e-5 * weights + 0.3e-6 * heads
    return cost


def _cech_draw(rng, n: int):
    p = rng.choice(PRIMES)
    if n >= 5:
        i = 0 if p > 2 or n == 6 else rng.randint(0, 1)
        hi = 1
    else:
        i = rng.randint(0, 2)
        hi = 5
    k = rng.randint(1, 3)
    signs = [1, -1] + [rng.choice((1, -1))]
    rng.shuffle(signs)
    degrees = []
    for sign in signs[:k]:
        num, pexp = _random_degree(rng, p, sign, i, 0 if sign > 0 else 1, hi)
        if (num, pexp) not in degrees:
            degrees.append((num, pexp))
    return p, i, degrees


def _cech_request(n, p, i, degrees, json_mode):
    text = ",".join(_deg_text(num, pexp, p) for num, pexp in degrees)
    argv = ["cech-check", "--n", str(n), f"--degrees={text}", "--i", str(i),
            "--p", str(p), "--grades", "1"]
    if json_mode:
        argv.append("--json")
    weights = sum(cech_box(n, num, pexp, i, p)[0] for num, pexp in degrees)
    meta = {"cmd": "cech-check", "n": n, "p": p, "i": i,
            "degrees": [list(d) for d in degrees], "json": json_mode,
            "work": weights}
    return {"kind": "cli", "argv": argv, "meta": meta}


def _cech_pick(rng, target: float, n: int):
    """The first of up to 300 seeded draws within 8 % of target, else the closest."""
    best = None
    for _ in range(300):
        p, i, degrees = _cech_draw(rng, n)
        cost = cech_cost(n, degrees, i, p)
        if best is None or abs(cost - target) < abs(best[0] - target):
            best = (cost, (p, i, degrees))
        if abs(cost - target) <= 0.08 * target:
            break
    return best[1]


def cech(key: str, count: int) -> list[dict]:
    # predicted seconds at n = 1..4 from 4 ms to 1.5 s (about 10^5 weights);
    # the n = 5..6 requests are small boxes whose cost is the first-touch ranks
    rng = random.Random(f"cech-{key}")
    n_high = max(2, round(count * CECH_HIGH_N_SHARE))
    # n cycles, so every seed has the same n mix at each size; n = 1 has no
    # box above about 10 ms
    targets = ([(t, 1 + j % 4 if t <= 0.01 else 2 + j % 3) for j, t in enumerate(
                   _quantiles(count - n_high, 0.004, 1.5, SKEW["cech"]))]
               + [(0.03, 5 + j % 2) for j in range(n_high)])
    json_flags = _split(rng, count, 0.5)
    out = [_cech_request(n, *_cech_pick(rng, target, n), json_flags.pop())
           for target, n in targets]
    rng.shuffle(out)
    return out


# -- curves -----------------------------------------------------------------------

# A curve is a tuple of terms (coeff, x exponent, y exponent), exponents Fractions.

def render_curve(terms) -> str:
    parts = []
    for k, (c, ex, ey) in enumerate(terms):
        factors = [f"{v}" + ("" if e == 1 else f"^{e}" if e.denominator == 1
                             else f"^({e.numerator}/{e.denominator})")
                   for v, e in (("x", ex), ("y", ey)) if e != 0]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else [])
                        + factors)
        sign = "-" if c < 0 else ("+" if k else "")
        parts.append(f"{sign}{body}" if not k else f" {sign} {body}")
    return "".join(parts)


def curve_pexp(terms, p: int) -> int:
    """Largest denominator exponent of p among the curve's exponents."""
    k = 0
    for _, ex, ey in terms:
        for e in (ex, ey):
            d = e.denominator
            j = 0
            while d > 1:
                d //= p
                j += 1
            k = max(k, j)
    return k


def rescale_curve(terms, factor):
    """Every exponent times factor (an int or a Fraction)."""
    return tuple((c, ex * factor, ey * factor) for c, ex, ey in terms)


def curve_order(terms) -> Fraction:
    """Lowest total degree of a term: the power a blow-up chart extracts."""
    return min(ex + ey for _, ex, ey in terms)


def _coeff(rng) -> int:
    return rng.choice((1, 1, -1, -1, 2, -2, 3))


def _pure_pair(rng, p):
    def power():
        if rng.random() < 0.3:
            return Fraction(rng.choice([a for a in (1, 2, 3, 4) if a % p]), p)
        return Fraction(rng.randint(1, 3))
    f = ((1, power(), Fraction(0)),)
    g = ((1, Fraction(0), power()),)
    return (f, g) if rng.random() < 0.5 else (g, f)


def _branch(rng, lead: int, swap: bool):
    """y + c*x^lead (+ c'*x^b): a smooth branch, optionally with x and y swapped."""
    terms = [(1, Fraction(0), Fraction(1)), (_coeff(rng), Fraction(lead), Fraction(0))]
    if rng.random() < 0.5:
        terms.append((_coeff(rng), Fraction(lead + rng.randint(1, 2)), Fraction(0)))
    if swap:
        terms = [(c, ey, ex) for c, ex, ey in terms]
    return tuple(terms)


def _branch_pair(rng):
    """Two smooth branches with three terms between them or more; each is
    linear in one variable, so they share a component only when equal.

    Half share their leading term (tangent), the others differ in it; the
    Fulton recursion on such pairs grows fast with the root depth, so they
    stay at shallow grades.
    """
    swap = rng.random() < 0.5
    a = rng.randint(1, 2)
    f = _branch(rng, a, swap)
    if rng.random() < 0.5:
        e = Fraction(a + rng.randint(1, 3))
        last = (_coeff(rng), Fraction(0), e) if swap else (_coeff(rng), e, Fraction(0))
        return f, f[:2] + (last,)
    return f, _branch(rng, rng.randint(1, 3), swap)


def _binomial_pair(rng):
    """Two irreducible binomials y^a + c*x^b (gcd(a, b) = 1): cheap at any depth."""
    shapes = ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 3), (3, 2))

    def binomial():
        a, b = rng.choice(shapes)
        return ((1, Fraction(0), Fraction(a)), (_coeff(rng), Fraction(b), Fraction(0)))

    return binomial(), binomial()


def _cusp_pair(rng):
    """y^a - x^b (coprime a, b: irreducible) against a G of at most three
    terms, which is a multiple of it only when equal."""
    a, b = rng.choice(((2, 3), (3, 2), (2, 5), (3, 4), (2, 1), (3, 1)))
    f = ((1, Fraction(0), Fraction(a)), (-1, Fraction(b), Fraction(0)))
    c, d = rng.randint(2, 3), rng.randint(1, 3)
    g = [(1, Fraction(0), Fraction(c)), (_coeff(rng), Fraction(d), Fraction(0))]
    if rng.random() < 0.5:
        g.append((_coeff(rng), Fraction(1), Fraction(1)))
    return f, tuple(g)


def _shared_pair(rng):
    """F = C*A and G = C*B for a common component C through the origin."""
    comp = rng.choice(((1, 0), (0, 1), (1, 1)))
    cx, cy = Fraction(comp[0]), Fraction(comp[1])

    def cofactor():
        terms = [(_coeff(rng), Fraction(0), Fraction(0))]
        terms.append((_coeff(rng), Fraction(rng.randint(0, 2)), Fraction(rng.randint(1, 2))))
        return terms

    f = tuple((c, ex + cx, ey + cy) for c, ex, ey in cofactor())
    g = tuple((c, ex + cx, ey + cy) for c, ex, ey in cofactor())
    return f, g


def _tail_pair(rng):
    """The slow gcd pre-check case y^2 - x^3 against y^3 - x^2 + x*y, signs varied."""
    f = ((1, Fraction(0), Fraction(2)), (rng.choice((1, -1)), Fraction(3), Fraction(0)))
    g = ((1, Fraction(0), Fraction(3)), (rng.choice((1, -1)), Fraction(2), Fraction(0)),
         (rng.choice((1, -1)), Fraction(1), Fraction(1)))
    return f, g


def _curve_pair(rng, family: str, p: int):
    # branches, binomials and cusps share no component unless equal (see
    # their docstrings): redraw equal pairs
    draw = {"pure": lambda: _pure_pair(rng, p),
            "binomial": lambda: _binomial_pair(rng),
            "branch": lambda: _branch_pair(rng),
            "cusp": lambda: _cusp_pair(rng), "shared": lambda: _shared_pair(rng),
            "tail": lambda: _tail_pair(rng)}[family]
    while True:
        f, g = draw()
        if sorted(f) != sorted(g):
            return f, g


def _blowup_curve(rng, p):
    k = rng.randint(1, 3)
    terms = {}
    while len(terms) < k:
        frac = rng.random() < 0.4
        den = p if frac else 1
        ex = Fraction(rng.randint(0, 3 * den), den)
        ey = Fraction(rng.randint(0, 3 * den), den)
        if ex == 0 and ey == 0:
            continue
        terms[(ex, ey)] = _coeff(rng)
    return tuple(sorted(((c, ex, ey) for (ex, ey), c in terms.items()),
                        key=lambda t: (t[1], t[2]), reverse=True))


# (family, deepest mult grade by prime), each family an equal share of the
# pairs.  Pure powers go to grade 5 at every prime, deep enough that the
# Fulton recursion overflows Python's stack on some of them, and binomial
# pairs to grades 5, 3 and 2 at p = 2, 3 and 5.  Pairs with three or more
# terms stay shallow: rooted deeper, the recursion on them takes seconds to
# minutes.
CURVE_FAMILIES = (
    ("pure", {2: 5, 3: 5, 5: 5}),
    ("binomial", {2: 5, 3: 3, 5: 2}),
    ("branch", {2: 2, 3: 1, 5: 1}),
    ("cusp", {2: 2, 3: 1, 5: 1}),
    ("shared", {2: 5, 3: 3, 5: 2}),
)
# The tail family keeps one such case, the heavy tail the workload is
# defined by: its gcd pre-check alone takes seconds.  One pair in 200
# requests puts it in every pass and leaves it under the 90th percentile.
TAIL_EVERY = 200
# mult, its oracle cross-check and blowup are equal shares of the requests
# (a shared pair has no oracle request); half of the binomial, branch and
# cusp pairs are rooted to fractional exponents
BLOWUP_SHARE = 1 / 3
ROOTED_SHARE = 0.5


def _mult_requests(rng, family, p, grades, f, g):
    kf, kg = curve_pexp(f, p), curve_pexp(g, p)
    rooted = len({(s, t) for i in range(grades + 1) for s in range(i + 1 - kf)
                  for t in range(i + 1 - kg)})
    json_mode = rng.random() < 0.5
    pair = [render_curve(f), render_curve(g)]
    meta = {"cmd": "mult", "family": family, "p": p, "grades": grades,
            "json": json_mode, "f_terms": _terms_json(f), "g_terms": _terms_json(g),
            "kf": kf, "kg": kg, "work": rooted}
    argv = ["mult", f"--f={pair[0]}", f"--g={pair[1]}", "--p", str(p),
            "--grades", str(grades)]
    if json_mode:
        argv.append("--json")
    out = [{"kind": "cli", "argv": argv, "meta": meta}]
    if family != "shared":
        # the oracle sees the integer-exponent curves the diagonal uses
        f0, g0 = rescale_curve(f, p ** kf), rescale_curve(g, p ** kg)
        out.append({"kind": "oracle", "f": render_curve(f0), "g": render_curve(g0),
                    "p": p, "meta": {"cmd": "oracle", "family": family, "p": p,
                                     "pair": pair, "f_terms": _terms_json(f0),
                                     "g_terms": _terms_json(g0), "work": 1}})
    return out


def curves(key: str, count: int) -> list[dict]:
    rng = random.Random(f"curves-{key}")
    out = []
    for k in range(max(1, round(count / TAIL_EVERY))):
        f, g = _curve_pair(rng, "tail", 3)
        out += _mult_requests(rng, "tail", 3, 3, *((f, g) if k % 2 else (g, f)))
    n_blowup = round(count * BLOWUP_SHARE)
    # a finite pair is two requests (mult and oracle), a shared one is one
    share = 1 / len(CURVE_FAMILIES)
    n_pairs = round((count - n_blowup - len(out)) / (2 - share))
    # within a family, p and the grade cycle, so every seed sends the same
    # (family, p, grades) mix and the seed picks the curves
    for family, deepest in CURVE_FAMILIES:
        for k in range(round(n_pairs * share)):
            p = PRIMES[k % 3]
            grades = max(1, deepest[p] - (k // 3) % 3)
            f, g = _curve_pair(rng, family, p)
            if family in ("binomial", "branch", "cusp") and rng.random() < ROOTED_SHARE:
                # root F, or both curves: exponents divided by p
                f = rescale_curve(f, Fraction(1, p))
                if rng.random() < 0.5:
                    g = rescale_curve(g, Fraction(1, p))
            out += _mult_requests(rng, family, p, grades, f, g)
    while len(out) < count:
        p = rng.choice(PRIMES)
        f = _blowup_curve(rng, p)
        json_mode = rng.random() < 0.5
        argv = ["blowup", f"--f={render_curve(f)}", "--p", str(p)]
        if json_mode:
            argv.append("--json")
        out.append({"kind": "cli", "argv": argv,
                    "meta": {"cmd": "blowup", "p": p, "json": json_mode,
                             "f_terms": _terms_json(f), "work": 0}})
    rng.shuffle(out)
    return out


def _terms_json(terms) -> list:
    return [[c, str(ex), str(ey)] for c, ex, ey in terms]


def terms_from_json(data) -> tuple:
    return tuple((c, Fraction(ex), Fraction(ey)) for c, ex, ey in data)


GENERATORS = {"sections": sections, "cech": cech, "curves": curves}


def generate(workload: str, seed: int, seconds: int, part: int = 0) -> list[dict]:
    """The request list of pass `part` of a run: each pass sends its own."""
    return GENERATORS[workload](f"{seed}/{part}", request_count(workload, seconds))
