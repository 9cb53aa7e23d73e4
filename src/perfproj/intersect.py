"""Local intersection multiplicities of plane curves at the origin, per grade.

The classical multiplicity dim O_0 / (F, G) is computed by a Fulton-style
recursion on the defining properties of the intersection number: it is
invariant under G -> G + H*F and under scaling G by a nonzero constant,
additive over factors of G, and mu(y, G) is the order of vanishing of
G(x, 0) at x = 0 (mu(x, G) that of G(0, y)).  Powers of x dividing either
curve are split off once, before the loop, and powers of y inside it.

The loop reads a curve as integer rows by y-degree, y-exponent ->
{x-exponent -> nonzero int} (_scaled), so G(x, 0) is the row of key 0 and
dividing out y**k shifts the row keys.  A step kills the top term of the
longer of F(x, 0), G(x, 0): with leading coefficients a of F(x, 0) (degree
r) and b of G(x, 0) (degree s >= r) and g = gcd(a, b), G becomes
(a/g)*G - (b/g)*x**(s-r)*F, and its integer content is divided out.

The loop runs modulo a power of the maximal ideal m.  A finite multiplicity
is at most the Bezout bound N = min(degF * degG, dx(F) * dy(G) + dy(F) *
dx(G)), the intersection numbers of the curves' closures in P**2 and in
P**1 x P**1 (deg the total degree, dx and dy the largest x- and
y-exponents).  Dropping every term of total degree above t keeps a
multiplicity at most t, and keeps one above t above t (Nakayama).  Each
rule above holds with an infinite side too, so with acc the multiplicity
split off so far, mu <= N exactly when the pair left has mu at most N - acc,
and then mu is acc plus that.  The loop keeps no term above N - acc, so a
curve holds at most (N + 1)(N + 2)/2 terms, and a shared component through
the origin ends it in one of three infinite exits: a curve becomes zero,
acc passes N and the truncation empties both, or y divides both curves.
No test for a shared component runs first.  Between two y-power splits a
step lowers deg F(x, 0) + deg G(x, 0) <= 2(N - acc), and a split raises
acc, so the loop takes at most (N + 1)(2N + 1) steps; _FUEL still caps it.

p-th roots of a curve are taken by variable rescaling,
F -> F(X**(1/p), Y**(1/p)), never by binomial expansion; every grade-i
computation therefore lands in an ordinary polynomial ring after the
substitution U = X**(1/p**i).  The grade-i entry for root depths (a, b) is

    mu( F(U**q, V**q), G(U**r, V**r) ),  q = p**(i-a), r = p**(i-b),

so the fully rooted diagonal entry (a, b) = (i, i) is the classical
multiplicity at every grade.  Writing the entries as entry(s, t) for the
curves at their native grades rescaled s and t times, only the base entries
(0, d) and (d, 0) are computed:

    entry(s, t) = p**(2m) * entry(s - m, t - m),  m = min(s, t),

and an infinite entry stays infinite.  Both curves of entry(s, t) are
polynomials in U**p**m, V**p**m, and k[U, V] is free of rank p**(2m) over
k[U**p**m, V**p**m]; the origin is the only point over the origin, so the
colength of the ideal multiplies by that rank.  A curve against itself needs
only (0, d), since mu is symmetric.  One cached function, entry(s, t),
computes each (s, t) once: 0 below a native grade, entry(t, s) for a curve
against itself when s > t, the identity above when m > 0, and a base entry
otherwise.  Cell (a, b) of grade i is entry(i - kF - a, i - kG - b), so cell
(a+1, b+1) of grade i+1 reads the same cached value as cell (a, b) of grade
i, and each distinct rescaled entry is scaled once.

Each curve is read once, by fracpoly._plane_terms from the integer vectors
its FracPoly stores, into integer terms (i, j) -> c, x**i * y**j at its
native grade: the curve times its common denominator, which leaves its
ideal unchanged.  _plane_terms also checks the curve (2 variables, nonzero,
then term by term), and the Newton stage and the quotient oracle read
those terms.  Only a base entry that reaches the loop turns them into rows,
with every exponent multiplied by p**s (p**t for G), built fresh because
_local consumes its rows.

A base entry is first offered to the Newton stage, which reads the Newton
polygon of the native curve: (0, d) reads F's polygon against G rooted
q = p**d times, (d, 0) G's against F.  Write A = x**a * y**b * A1, where A1
has no monomial factor; each compact edge e of the polygon of A1 has a
primitive inner normal w = (n, m), a lattice length l_e and an edge
polynomial P_e(y) = A1_w(1, y) / y**min.  Then

    mu(A, B) = a * ord_y B(0, y) + b * ord_x B(x, 0) + sum_e l_e * h_B(w),

h_B(w) the least n*i + m*j over the terms x**i * y**j of B, whenever no
P_e shares a root with the initial form B_w(1, y) (Kouchnirenko, Invent.
Math. 32, 1976; Fulton, Algebraic Curves, ch. 3): every branch of A1 at the
origin is tangent to an edge, its leading coefficient is a root of P_e, and
B meets it with order h_B(w) times its ramification unless B_w vanishes
there.  For B rooted q times, h_B(w) is q * h_G(w) and B_w(1, y) is
G_w(1, y**q), so the answer is q times a grade-0 number and only the
certificate depends on q.  The edge polynomials and initial forms are read
exactly.  Write G_w(1, y) = y**low * R(y) with R(0) != 0.  P_e(0) is the
coefficient of A1 at a hull vertex, so P_e(0) != 0 and y**(q * low) is
coprime to P_e for every q; so is a constant R, and an edge whose initial
form has one term is decided for every q without a gcd.  Only a longer
R(y**q) is tested per q: a gcd of degree 0 in F_l[y] of P_e and R(y**q)
modulo the prime l = 2**61 - 1, as sparse maps y-exponent -> value.  It
certifies when l does not divide the leading coefficient of P_e: a common
factor of P_e and R(y**q), taken primitive in Z[y], divides both in Z[y]
(Gauss), and its leading coefficient divides P_e's, so it keeps its degree
modulo l and would leave a gcd of positive degree.  An edge whose leading
coefficient l divides certifies no q.  Each Euclid step reduces one side
modulo the other: a term y**e of at least twice the other's degree by
square-and-multiply, the rest by long division, so the rooting costs
O(log q) products, not q steps.  So the stage is read once per curve pair,
each curve's polygon against the other curve, and only the certificate
runs per q.  A shared component through the origin would put a root of
some P_e on B_w, or an axis in both curves, so a certified entry is finite.
The formula reads ord_y B(0, y) when a > 0 and ord_x B(x, 0) when b > 0;
one is missing exactly when x, or y, divides both curves, and that shared
axis makes the entry infinite.  A unit A has a polygon without edges and
a unit B a constant term, so either gives 0 before any certificate, however
deeply the other is rooted.  When an edge does not certify, the entry goes
to the loop, unchanged.
local_multiplicity is the base entry of two curves neither of which is
rooted, and runs the same stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd

from . import braided
from .braided import INFINITE_RANK, BraidedDim, _json_grades
from .cech import _int_rank
from .errors import DomainError, FuelExhausted, QuotientCapExceeded
from .fracpoly import FracPoly, _plane_terms

_FUEL = 100_000


def _scaled(terms: dict, q: int) -> dict:
    """The curve of integer terms (_plane_terms) rescaled by X -> X**q,
    Y -> Y**q, as fresh integer rows by y-degree for the loop: y-exponent ->
    {x-exponent -> nonzero int}."""
    rows: dict[int, dict] = {}
    for (i, j), c in terms.items():
        rows.setdefault(j * q, {})[i * q] = c
    return rows


def _truncate(rows: dict, top: int) -> None:
    """Drop every term of total degree above top from integer rows, in place."""
    for b in list(rows):
        row = rows[b]
        for a in [a for a in row if a + b > top]:
            del row[a]
        if not row:
            del rows[b]


def _reduce(B: dict, ca: int, cb: int, shift: int, A: dict, top: int) -> None:
    """B <- ca*B - cb*x**shift*A without the terms of total degree above top,
    then B divided by its content; in place.

    A and B are integer rows by y-degree (_scaled) that hold no term above
    top, so only the product x**shift*A can reach past it, and its terms that
    do are never formed.  The content gcd stops at the first row that brings
    it down to 1.
    """
    if ca != 1:
        for row in B.values():
            for a in row:
                row[a] *= ca
    for b, arow in A.items():
        room = top - shift - b  # the largest x-exponent of A whose product is kept
        if room < 0:
            continue
        row = B.setdefault(b, {})
        for a, c in arow.items():
            if a <= room:
                a += shift
                if v := row.get(a, 0) - cb * c:
                    row[a] = v
                else:
                    del row[a]
        if not row:
            del B[b]
    g = 0
    for row in B.values():
        g = gcd(g, *row.values())
        if g == 1:
            return
    if g > 1:
        for row in B.values():
            for a in row:
                row[a] //= g


def _local(A: dict, B: dict):
    """mu(A, B) for nonzero integer polynomials in the rows of _scaled
    that share no axis, by the loop truncated at the Bezout bound
    N = _bezout_bound(A, B), read from the rows given.

    No term of total degree above N - acc is kept, acc the multiplicity
    split off so far: both curves are truncated after the x-power split and
    after every y-power split, and _reduce forms no product term past the
    bound.  The original mu <= N exactly when the pair left has mu at most
    N - acc, so an infinite mu ends in an exit below that returns
    INFINITE_RANK (module docstring).  A and B are consumed.  It takes at
    most (N + 1)(2N + 1) steps; past _FUEL it raises FuelExhausted.

    Powers of x are split off once, before the loop.  The loop alone gives
    the same answers, but where an x factor is tangent to the other curve
    it does about twice the work: braided_multiplicity of x*y**2 - x**2*y
    and y - x + x**2 at p = 3 over grades 0..4 takes 21,981 steps with the
    split and 44,757 without.
    """
    N = _bezout_bound(A, B)
    acc = 0  # multiplicity of the x- and y-powers divided out so far
    # A = x**k * A1: mu = k * ord_y B(0,y) + mu(A1, B); then the same for B
    for _ in range(2):
        k = min(min(row) for row in A.values())
        if k:
            acc += k * min(b for b, row in B.items() if 0 in row)
            A = {b: {a - k: c for a, c in row.items()} for b, row in A.items()}
        A, B = B, A
    _truncate(A, N - acc)
    _truncate(B, N - acc)
    steps = 0
    while True:
        steps += 1
        if steps > _FUEL:
            raise FuelExhausted(
                f"multiplicity recursion exceeded its step budget of {_FUEL} steps"
                f" (Bezout bound N = {N}, step bound (N + 1)(2N + 1) = {(N + 1) * (2 * N + 1)})")
        a0, b0 = A.get(0), B.get(0)  # A(x,0), B(x,0): None when y divides
        if (a0 and 0 in a0) or (b0 and 0 in b0):
            return acc
        if not A or not B:
            return INFINITE_RANK  # ideal collapsed to one nonunit generator
        if a0 is None and b0 is None:
            return INFINITE_RANK  # y divides both: the pair left has mu > N - acc
        if a0 is not None and b0 is not None:
            r, s = max(a0), max(b0)
            if r > s:
                A, B, a0, b0, r, s = B, A, b0, a0, s, r
            g = gcd(a0[r], b0[s])
            _reduce(B, a0[r] // g, b0[s] // g, s - r, A, N - acc)
            continue
        if a0 is None:
            A, B, a0, b0 = B, A, b0, a0  # mu is symmetric: let y divide B
        # B = y**k * B1: mu = k * ord_x A(x,0) + mu(A, B1)
        k = min(B)
        B = {b - k: row for b, row in B.items()}
        acc += k * min(a0)
        _truncate(A, N - acc)
        _truncate(B, N - acc)


# -- Euclids in F_ell[y]: the Newton stage's certificate ------------------------

_ELL = (1 << 61) - 1  # a Mersenne prime


def _rem_mod_ell(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """f modulo g in F_ell[y] by long division, for f of degree below
    2 * deg g; f is consumed.  Both are maps y-exponent -> nonzero value, g
    nonempty."""
    dg = max(g)
    inv = pow(g[dg], -1, _ELL)
    while f and (df := max(f)) >= dg:
        c = f[df] * inv % _ELL
        for e, v in g.items():  # the top term cancels exactly
            e += df - dg
            if w := (f.get(e, 0) - c * v) % _ELL:
                f[e] = w
            else:
                del f[e]
    return f


def _y_power_mod(e: int, g: dict[int, int]) -> dict[int, int]:
    """y**e modulo g in F_ell[y].  The leading bits of e, a power below
    y**(2 * deg g), take one long division; each later bit squares the
    remainder, times y on a set bit: O(log e) products of remainders, so the
    cost follows the degree of g, not e."""
    shift = max(e.bit_length() - max(g).bit_length(), 0)
    r = _rem_mod_ell({e >> shift: 1}, g)
    for k in range(shift - 1, -1, -1):
        square: dict[int, int] = {}
        for e1, c1 in r.items():
            for e2, c2 in r.items():
                t = e1 + e2 + (e >> k & 1)
                square[t] = square.get(t, 0) + c1 * c2
        r = _rem_mod_ell({t: v for t, c in square.items() if (v := c % _ELL)}, g)
    return r


def _gcd_degree_mod_ell(f: dict[int, int], g: dict[int, int]) -> int:
    """Degree of gcd(f, g) in F_ell[y]; f and g maps y-exponent -> nonzero
    value, at most one of them empty (zero).  Each Euclid step reduces f
    modulo g: a term y**e of degree e >= 2 * deg g by _y_power_mod, the rest
    by one long division, so a sparse image of degree p**d costs O(d log p)
    products, not p**d steps."""
    while g:
        dg, low = max(g), {}
        for e, c in f.items():
            for t, v in (_y_power_mod(e, g) if e >= 2 * dg else {e: 1}).items():
                low[t] = (low.get(t, 0) + c * v) % _ELL
        f, g = g, _rem_mod_ell({t: v for t, v in low.items() if v}, g)
    return max(f)


def _bezout_bound(F: dict, G: dict) -> int:
    """min(degF * degG, dx(F) * dy(G) + dy(F) * dx(G)) for two curves in
    integer rows (_scaled): deg the total degree, dx and dy the largest x-
    and y-exponents.

    These are the Bezout numbers of the curves' closures in P**2 and in
    P**1 x P**1 (Fulton, Algebraic Curves, ch. 3 and ch. 5), so either
    bounds a finite mu at the origin: a common component off the origin is
    a unit there, and dividing it out only lowers both numbers.
    """
    (dF, xF, yF), (dG, xG, yG) = (
        (max(a + b for b, row in rows.items() for a in row),
         max(max(row) for row in rows.values()), max(rows)) for rows in (F, G))
    return min(dF * dG, xF * yG + yF * xG)


def local_multiplicity(F: FracPoly, G: FracPoly):
    """dim of the local ring at the origin modulo (F, G); +inf on a shared component.

    F and G must be nonzero polynomials in two variables with integer
    exponents and exact rational coefficients.
    """
    F, G = _plane_terms(F, 0), _plane_terms(G, 0)
    return _base_entry(F, G, _newton_stage(_newton_polygon(F), G), 1, 1)


# -- Newton stage: a base entry from the Newton polygon of the native curve -----

def _newton_polygon(terms: dict) -> tuple[int, int, list]:
    """A curve of integer terms (_plane_terms) as x**a * y**b * A1, read once
    at its native grade: (a, b, edges).

    Each compact edge of the Newton polygon of A1 is (n, m, length, P): its
    primitive inner normal w = (n, m), its lattice length and its edge
    polynomial P(y) = A1_w(1, y) / y**min, exact, as y-exponent -> nonzero
    int.  P's constant term and leading coefficient are the coefficients of
    A1 at the edge's two hull vertices, so neither is zero.
    """
    a, b = map(min, zip(*terms))
    terms = {(i - a, j - b): c for (i, j), c in terms.items()}
    low: dict[int, int] = {}  # x-exponent -> least y-exponent of A1
    for i, j in terms:
        low[i] = min(j, low.get(i, j))
    i0 = min(i for i, j in low.items() if j == 0)  # A1(x, 0) has order i0
    hull: list[tuple[int, int]] = []  # lower hull from (0, ord_y A1(0, y)) to (i0, 0)
    for i, j in sorted(low.items()):
        if i > i0:
            break
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (j - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])):
            hull.pop()
        hull.append((i, j))
    edges = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        length = gcd(i2 - i1, j1 - j2)
        n, m = (j1 - j2) // length, (i2 - i1) // length
        edges.append((n, m, length, {j - j2: c for (i, j), c in terms.items()
                                     if n * i + m * j == n * i1 + m * j1}))
    return a, b, edges


def _newton_stage(polygon: tuple[int, int, list], B: dict):
    """The part of the Newton stage of the curve A of polygon
    (_newton_polygon) against a curve B of integer terms that does not depend
    on the rooting q of B: None when some edge certifies no q, else
    (mu0, forms) for _newton.

    mu0 is INFINITE_RANK when x, or y, divides both curves, with no forms.
    Otherwise the answer is q * mu0, mu0 = a * ord_y B(0, y) +
    b * ord_x B(x, 0) + the sum over the edges of length * h_B(w), once
    every edge polynomial P is coprime to the initial form
    B_w(1, y**q) = y**(q * low) * R(y**q) (module docstring).  P(0) is not
    0, so the power of y and a constant R are coprime to P at every q;
    forms keeps (P, R) modulo _ELL for each edge whose R is longer, and such
    an edge certifies no q when _ELL divides P's leading coefficient.  The
    terms a * ord_y B(0, y) and b * ord_x B(x, 0) are read only when a and
    b are positive, and one is missing only on a shared axis.  A unit B
    gives (0, []) through the same formula: both orders are 0, and on every
    edge h_B(w) = 0 with the one-term initial form of B's constant.
    """
    a, b, edges = polygon
    oy = min((j for i, j in B if i == 0), default=None)  # ord_y B(0, y)
    ox = min((i for i, j in B if j == 0), default=None)  # ord_x B(x, 0)
    if (a and oy is None) or (b and ox is None):
        return INFINITE_RANK, []  # x, or y, divides both curves
    mu0 = a * (oy or 0) + b * (ox or 0)
    forms = []
    for n, m, length, P in edges:
        h = min(n * i + m * j for i, j in B)
        init = {j: c for (i, j), c in B.items() if n * i + m * j == h}  # B_w(1, y)
        if len(init) > 1:
            if P[max(P)] % _ELL == 0:
                return None  # the certificate needs P's degree modulo _ELL
            low = min(init)
            forms.append(({e: v for e, c in P.items() if (v := c % _ELL)},
                          {j - low: v for j, c in init.items() if (v := c % _ELL)}))
        mu0 += length * h
    return mu0, forms


def _newton(stage, q: int):
    """mu(A, B(x**q, y**q)) from the Newton stage of A against B
    (_newton_stage), or None when it is not certified: each edge polynomial
    P left in the stage's forms must have a gcd of degree 0 with R(y**q) in
    F_ell[y]."""
    if stage is None:
        return None
    mu0, forms = stage
    for P, R in forms:
        if _gcd_degree_mod_ell(P, {q * j: v for j, v in R.items()}):
            return None
    return q * mu0


def _base_entry(F: dict, G: dict, stage, qF: int, qG: int):
    """mu(F(x**qF, y**qF), G(x**qG, y**qG)) for curves F and G of integer
    terms (_plane_terms), qF or qG being 1, and stage the Newton stage
    (_newton_stage) of the curve not rooted against the other (F's against
    G when neither is): the Newton stage, else the loop on fresh rows."""
    mu = _newton(stage, max(qF, qG))
    return _local(_scaled(F, qF), _scaled(G, qG)) if mu is None else mu


# -- independent oracle -----------------------------------------------------------

def _monomial_staircase(g1: tuple[int, int], g2: tuple[int, int]):
    (a1, b1), (a2, b2) = g1, g2
    if (a1 == 0 and b1 == 0) or (a2 == 0 and b2 == 0):
        return 0
    if min(a1, a2) > 0 or min(b1, b2) > 0:
        return INFINITE_RANK  # no pure power of one of the variables
    # what is left is y**b against x**a: the staircase is the a x b box
    return max(a1, a2) * max(b1, b2)


def _truncated_quotient_dim(F: dict, G: dict, N: int) -> int:
    """dim Q[x,y] / ((F, G) + m**N), exact, for F and G of integer terms (_plane_terms).

    The multiples x**a * y**b * F and x**a * y**b * G, a + b < N, truncated
    below total degree N, are sparse rows (_int_rank) over the N(N+1)/2
    monomials x**a * y**b of degree < N, the monomial labelled a*N + b; the
    dimension is the count of monomials less the rank of those rows.
    """
    rows = []
    for P in (F, G):
        terms = [(a + b, a * N + b, c) for (a, b), c in P.items() if a + b < N]
        for a in range(N):
            for b in range(N - a):
                room, shift = N - a - b, a * N + b
                rows.append({col + shift: c for degree, col, c in terms if degree < room})
    return N * (N + 1) // 2 - _int_rank(rows)


def quotient_dim_oracle(F: FracPoly, G: FracPoly, cap: int = 24) -> int:
    """Multiplicity by direct linear algebra; used as the independent cross-check.

    dim O_0 / ((F, G) + m**N) is computed for growing N; by Nakayama, two
    equal consecutive values certify that m**N already lies inside (F, G)
    locally, so the truncated dimension is the local dimension itself.
    Each N costs one exact rank (_truncated_quotient_dim): the truncated
    multiples of F and G as sparse integer rows, eliminated by cech's
    _int_rank, the kernel the Cech ranks use.  Both single-term inputs
    short-circuit to the monomial staircase count in closed form: 0 if
    either is a unit, infinite unless one is a pure power x**a and the other
    y**b, and a * b for that pair.
    """
    F, G = _plane_terms(F, 0), _plane_terms(G, 0)
    if len(F) + len(G) == 2:  # one term each: neither curve is zero
        return _monomial_staircase(*F, *G)
    prev = _truncated_quotient_dim(F, G, 1)
    for N in range(2, cap + 1):
        cur = _truncated_quotient_dim(F, G, N)
        if cur == prev:
            return cur
        prev = cur
    raise QuotientCapExceeded(f"no stabilization below total degree {cap}")


# -- braided / mixed tuples --------------------------------------------------------

@dataclass
class MultiplicityTuple:
    """Per-grade multiplicity data for a pair of plane curves at the origin.

    mixed[i] is a full (i+1) x (i+1) dict keyed by root depths (a, b): the
    multiplicity of F rooted a times against G rooted b times, measured in
    the grade-i local ring, read from the one cached entry(s, t) of
    braided_multiplicity at s = i - kF - a, t = i - kG - b.  Root depths that
    are not reachable (fractional inputs below their native grade) hold
    zero.  The diagonal tuple takes the fully rooted entry of each grade.
    """

    prime: int
    diagonal: BraidedDim
    mixed: list[dict[tuple[int, int], object]]

    def flattened_row(self, i: int) -> list:
        """Row-major flattening, F-power first: a then b descend from i to 0."""
        return [self.mixed[i][(a, b)]
                for a in range(i, -1, -1) for b in range(i, -1, -1)]

    def to_json_dict(self) -> dict:
        return {
            "p": self.prime,
            "diagonal": _json_grades(self.diagonal.grades_list()),
            "mixed": [_json_grades(self.flattened_row(i)) for i in range(len(self.mixed))],
        }


def braided_multiplicity(F: FracPoly, G: FracPoly, grades: int) -> MultiplicityTuple:
    """Mixed multiplicity matrices for grades 0..grades and the diagonal tuple.

    Fractional inputs are allowed: a curve whose exponents need denominator
    p**k first appears at grade k, and all entries in earlier grades are
    zero.
    """
    if F.prime != G.prime:
        raise DomainError(f"mixed primes {F.prime} and {G.prime}")
    p = F.prime
    kF, kG = F.max_pexp(), G.max_pexp()
    k0 = max(kF, kG)
    Ft, Gt = _plane_terms(F, kF), _plane_terms(G, kG)  # the curves at their native grades
    # one curve against itself: mu is symmetric, so entry(d, 0) = entry(0, d)
    self_pair = F == G
    # (0, d) reads F's Newton stage against G rooted by p**d, (d, 0) G's against F
    stages = [_newton_stage(_newton_polygon(Ft), Gt)]
    if not self_pair:
        stages.append(_newton_stage(_newton_polygon(Gt), Ft))

    @cache
    def entry(s: int, t: int):
        # mu(F rescaled to grade kF+s, G rescaled to grade kG+t); 0 below a native grade
        if s < 0 or t < 0:
            return 0
        if self_pair and s > t:
            return entry(t, s)
        m = min(s, t)
        if m:
            return braided._mul(p ** (2 * m), entry(s - m, t - m))
        try:  # a base entry, (0, d) or (d, 0)
            return _base_entry(Ft, Gt, stages[s != 0], p ** s, p ** t)
        except FuelExhausted as exc:
            raise FuelExhausted(f"{exc} at base entry (s, t) = {(s, t)}") from exc

    mixed = [{(a, b): entry(i - kF - a, i - kG - b) for a in range(i + 1) for b in range(i + 1)}
             for i in range(grades + 1)]
    # the fully rooted entry (i - kF, i - kG) of grade i >= k0 is entry(0, 0):
    # the classical multiplicity of F and G at their native grades.  entry
    # reaches itself through its cache, so it is unbound here: the cache and
    # the terms are then freed on return, not later by the cycle collector
    classical, entry = entry(0, 0), None
    diagonal = BraidedDim(p, k0, generator=lambda label: classical,
                          length=max(0, grades + 1 - k0))
    return MultiplicityTuple(p, diagonal, mixed)
