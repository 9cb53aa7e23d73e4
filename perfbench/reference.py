"""Independent reference answers for every benchmark request.

Nothing here imports perfproj: sections use math.comb closed forms and a lazy
lexicographic composition walk, cech-check uses its own inclusion-exclusion
box count, and mult uses the pure-power formula, a shared-component argument
or the quotient oracle's answer for the same pair (compared after the run).
check() returns None when the answer is right and a one-line reason when not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, inf

from workloads import cech_box, curve_order, terms_from_json

MONOMIAL_CAP = 8  # table rows list this many basis vectors, then "..."
OK_CODES = (0, 1, 2)


# -- closed forms, mirroring the tuple semantics of the CLI ------------------------

def _h0_value(n, m, j, p, reduced):
    value = comb(p ** j * m + n, n)
    if reduced and j > 0:
        value -= comb(p ** (j - 1) * m + n, n)
    return value


def _hn_value(n, m, j, p, reduced):
    value = comb(p ** j * m - 1, n)
    if reduced and j > 0:
        value -= comb(p ** (j - 1) * m - 1, n)
    return value


class Dim:
    """A graded tuple read on absolute grade labels: offset, length, value(label)."""

    def __init__(self, offset, length, value):
        self.offset, self.length, self._value = offset, length, value

    def at(self, label):
        return 0 if label < self.offset else self._value(label)

    def values(self):
        return [self.at(self.offset + j) for j in range(self.length)]

    def combine(self, other, op):
        offset = min(self.offset, other.offset)
        end = max(self.offset + self.length, other.offset + other.length)
        return Dim(offset, end - offset, lambda label: op(self.at(label), other.at(label)))


def h0_dim(n, num, pexp, p, grades, reduced=False):
    if num < 0:
        return Dim(0, grades, lambda label: 0)
    return Dim(pexp, grades, lambda label: _h0_value(n, num, label - pexp, p, reduced))


def hn_dim(n, num, pexp, p, grades, reduced=False):
    if num >= 0:
        return Dim(0, grades, lambda label: 0)
    return Dim(pexp, grades, lambda label: _hn_value(n, -num, label - pexp, p, reduced))


def euler_dim(n, num, pexp, p, grades, reduced=False):
    a = h0_dim(n, num, pexp, p, grades, reduced)
    b = hn_dim(n, num, pexp, p, grades, reduced)
    return a.combine(b, (lambda u, v: u + v) if n % 2 == 0 else (lambda u, v: u - v))


def _frac(deg, p):
    num, pexp = deg
    return Fraction(num, p ** pexp)


def bezout_line_dim(s, t, p, grades):
    sf, tf = _frac(s, p), _frac(t, p)
    st = sf + tf
    k_st = _pexp_of(st, p)

    def hn1(value, k):
        # hn on the line of degree -value: p**label * value - 1 from its offset on
        return Dim(k, grades, lambda label: int(value * p ** label) - 1)

    total = hn1(st, k_st)
    out = total.combine(hn1(sf, s[1]), lambda u, v: u - v)
    return out.combine(hn1(tf, t[1]), lambda u, v: u - v)


def _pexp_of(value: Fraction, p: int) -> int:
    den, k = value.denominator, 0
    while den > 1:
        den //= p
        k += 1
    return k


def bezout_chi_dim(d, degf, degg, p, grades):
    return Dim(d[1], grades, lambda label: p ** (2 * label) * degf * degg)


def kunneth_values(meta):
    p, g = meta["p"], meta["grades"]
    n, m = meta["n"], meta["m"]

    def cohomology(k, deg):
        dims = [h0_dim(k, *deg, p, g)] + [Dim(0, g, lambda label: 0)] * (k - 1)
        return dims + [hn_dim(k, *deg, p, g)]

    ha, hb = cohomology(n, meta["a"]), cohomology(m, meta["b"])
    out = []
    for i in range(n + m + 1):
        row = []
        for label in range(g):
            row.append(sum(ha[j].at(label) * hb[i - j].at(label)
                           for j in range(n + 1) if 0 <= i - j <= m))
        out.append(row)
    return out


# -- lexicographic basis walk for table rows ------------------------------------------

def first_vectors(total, parts, positive, keep, limit=MONOMIAL_CAP + 1):
    """The first `limit` compositions the CLI lists, filtered by keep().

    Non-negative compositions in descending lexicographic order, or strictly
    positive ones in ascending order (the top-cohomology basis, negated).
    """
    out = []

    def walk(prefix, rest, slots):
        if len(out) >= limit:
            return
        if slots == 1:
            if rest >= (1 if positive else 0):
                vec = prefix + (rest,)
                if keep(vec):
                    out.append(vec)
            return
        firsts = (range(1, rest - slots + 2) if positive else range(rest, -1, -1))
        for first in firsts:
            walk(prefix + (first,), rest - first, slots - 1)
            if len(out) >= limit:
                return

    walk((), total, parts)
    return out


def _table_cells(cmd, n, m, j, p, reduced):
    total = p ** j * m
    keep = (lambda vec: any(c % p for c in vec)) if reduced and j > 0 else (lambda vec: True)
    vecs = first_vectors(total, n + 1, cmd == "hn", keep)
    sign = -1 if cmd == "hn" else 1
    shown = ["(" + ",".join(str(sign * c) for c in vec) + ")" for vec in vecs[:MONOMIAL_CAP]]
    return shown


# -- monomial text (veronese) ------------------------------------------------------------

_FACTOR = re.compile(r"^([a-z][0-9]?)(?:\^(?:(\d+)|\((\d+)/(\d+)\)))?$")


def monomial_exponents(text):
    """{variable: exponent} of a coefficient-free monomial such as x^(5/3)*y."""
    exps = {}
    for factor in text.split("*"):
        match = _FACTOR.match(factor)
        if match is None or match.group(1) in exps:
            raise ValueError(f"bad monomial {text!r}")
        var, whole, num, den = match.groups()
        exps[var] = Fraction(int(whole)) if whole else (
            Fraction(int(num), int(den)) if num else Fraction(1))
    return exps


def _check_veronese_list(monomials, n, d, p, j):
    expected = comb(p ** j * d + n, n)
    if len(monomials) != expected:
        return f"grade {j}: {len(monomials)} monomials, expected {expected}"
    if len(set(monomials)) != len(monomials):
        return f"grade {j}: repeated monomials"
    for text in monomials:
        exps = monomial_exponents(text)
        if sum(exps.values()) != d or any(p ** j % e.denominator for e in exps.values()):
            return f"grade {j}: {text} is not a degree-{d} grade-{j} monomial"
        if len(exps) > n + 1:
            return f"grade {j}: {text} has too many variables"
    return None


# -- per-command checks ---------------------------------------------------------------

def _dim_json_matches(payload, dim):
    return payload.get("offset") == dim.offset and payload.get("grades") == dim.values()


def _dim_table_matches(lines, dim):
    rows = [line.split(" | ") for line in lines[1:]]
    labels = [int(r[0]) for r in rows]
    values = [int(r[-1]) for r in rows]
    return (lines[0] == "power of p | dim"
            and labels == list(range(dim.offset, dim.offset + dim.length))
            and values == dim.values())


def _check_h0_family(meta, out):
    cmd, n, num, pexp, p, g = (meta[k] for k in ("cmd", "n", "num", "pexp", "p", "grades"))
    reduced = meta.get("reduced", False)
    dim = {"h0": h0_dim, "hn": hn_dim, "euler": euler_dim}[cmd](n, num, pexp, p, g, reduced)
    if meta["json"]:
        return None if _dim_json_matches(out, dim) else f"grades {out.get('grades')} != {dim.values()}"
    lists = (cmd == "h0" and num >= 0) or (cmd == "hn" and num < 0)
    if not lists:
        return None if _dim_table_matches(out, dim) else "table disagrees with closed form"
    if out[0] != "power of p | monomials | dim" or len(out) != g + 1:
        return "table shape"
    for j, line in enumerate(out[1:]):
        label, cell, value = line.split(" | ")
        count = dim.at(pexp + j)
        if int(label) != pexp + j or int(value) != count:
            return f"row {j}: {label} | {value}, expected {pexp + j} | {count}"
        shown = cell.split(" ") if cell else []
        expected = _table_cells(cmd, n, abs(num), j, p, reduced)
        if count > MONOMIAL_CAP:
            expected.append("...")
        if shown != expected:
            return f"row {j}: cell {cell[:60]!r} disagrees with the first monomials"
    return None


def _check_bezout_line(meta, out):
    dim = bezout_line_dim(meta["s"], meta["t"], meta["p"], meta["grades"])
    if meta["json"]:
        return None if _dim_json_matches(out, dim) else f"grades {out.get('grades')} != {dim.values()}"
    return None if _dim_table_matches(out, dim) else "table disagrees"


def _check_bezout_chi(meta, out):
    dim = bezout_chi_dim(meta["d"], meta["degf"], meta["degg"], meta["p"], meta["grades"])
    if meta["json"]:
        return None if _dim_json_matches(out, dim) else f"grades {out.get('grades')} != {dim.values()}"
    return None if _dim_table_matches(out, dim) else "table disagrees"


def _check_kunneth(meta, out):
    rows = kunneth_values(meta)
    g = meta["grades"]
    if meta["json"]:
        got = [c["grades"][:g] for c in out.get("cohomology", [])]
        if any(c["offset"] != 0 for c in out.get("cohomology", [])):
            return "kunneth offsets"
    else:
        got = [[int(v) for v in line.split(": ")[1].split(" ")] for line in out]
        if [line.split(":")[0] for line in out] != [f"h^{i}" for i in range(len(rows))]:
            return "kunneth labels"
    return None if got == rows else f"kunneth {got} != {rows}"


def _check_veronese(meta, out):
    n, d, p, g = meta["n"], meta["d"], meta["p"], meta["grades"]
    if meta["json"]:
        tower = out.get("tower", [])
        if [t["grade"] for t in tower] != list(range(g)):
            return "tower grades"
        lists = [(t["monomials"], t["target_dim"]) for t in tower]
    else:
        if len(out) != g:
            return "tower rows"
        lists = []
        for j, line in enumerate(out):
            match = re.fullmatch(rf"grade {j}: P\^(\d+) \[(.*)\]", line)
            if match is None:
                return f"row {j} format"
            lists.append((match.group(2).split(":"), int(match.group(1))))
    for j, (monomials, target) in enumerate(lists):
        if target != len(monomials) - 1:
            return f"grade {j}: target P^{target} for {len(monomials)} monomials"
        reason = _check_veronese_list(monomials, n, d, p, j)
        if reason:
            return reason
    return None


def _check_cech(meta, out):
    n, p, i = meta["n"], meta["p"], meta["i"]
    expected = []
    for num, pexp in meta["degrees"]:
        t = num * p ** (i - pexp)
        h0 = comb(t + n, n) if num >= 0 else 0
        hn = comb(-t - 1, n) if num < 0 else 0
        expected.append((cech_box(n, num, pexp, i, p)[0], h0, 0, hn))
    if meta["json"]:
        if out.get("ok") is not True or out.get("counterexamples"):
            return "cech-check not ok"
        got = [(s["weights"], s["h0"], s["middle"], s["hn"]) for s in out["degrees"]]
        if any(not s["ok"] for s in out["degrees"]):
            return "a degree is not ok"
    else:
        if out[0] != "degree | weights | h0 | middle | hn | ok" or out[-1] != "counterexamples: 0":
            return "cech-check table"
        rows = [line.split(" | ") for line in out[1:-1]]
        if any(r[5] != "yes" for r in rows):
            return "a degree is not ok"
        got = [tuple(int(v) for v in r[1:5]) for r in rows]
    return None if got == expected else f"cech totals {got} != {expected}"


def _enc(v):
    return "inf" if v == inf else v


def mult_reference(meta):
    """Expected mixed rows for pure-power and shared-component pairs, else None."""
    p, g, kf, kg = meta["p"], meta["grades"], meta["kf"], meta["kg"]
    family = meta["family"]
    if family not in ("pure", "shared"):
        return None
    if family == "pure":
        (_, fx, fy), = terms_from_json(meta["f_terms"])
        (_, gx, gy), = terms_from_json(meta["g_terms"])
        ef = (fx + fy) * p ** kf
        eg = (gx + gy) * p ** kg
    rows = []
    for i in range(g + 1):
        row = []
        for a in range(i, -1, -1):
            for b in range(i, -1, -1):
                s, t = i - kf - a, i - kg - b
                if s < 0 or t < 0:
                    row.append(0)
                elif family == "pure":
                    row.append(int(ef * p ** s * eg * p ** t))
                else:
                    row.append("inf")
        rows.append(row)
    return rows


def _parse_mult_table(lines, g):
    if lines[0] != "grade | diagonal | mixed row (F-power first)" or len(lines) != g + 2:
        raise ValueError("mult table shape")
    diag, mixed = [], []
    for i, line in enumerate(lines[1:]):
        label, d, row = line.split(" | ")
        if int(label) != i:
            raise ValueError("mult table labels")
        diag.append(d)
        mixed.append([v if v == "inf" else int(v) for v in row.split(" ")])
    return diag, mixed


def mult_answer(meta, out):
    """(diagonal by grade label, mixed rows) from a JSON payload or a table."""
    g, k0 = meta["grades"], max(meta["kf"], meta["kg"])
    if meta["json"]:
        diag = out["diagonal"]
        return [0] * k0 + list(diag), out["mixed"]
    diag, mixed = _parse_mult_table(out, g)
    return [v if v == "inf" else int(v) for v in diag], mixed


def _check_mult(meta, out):
    g, k0 = meta["grades"], max(meta["kf"], meta["kg"])
    diag, mixed = mult_answer(meta, out)
    if len(diag) != g + 1 or [len(r) for r in mixed] != [(i + 1) ** 2 for i in range(g + 1)]:
        return "mult shape"
    if len(set(diag[k0:])) > 1:
        return f"diagonal {diag} is not constant"
    expected = mult_reference(meta)
    if expected is not None and mixed != expected:
        return f"mixed rows disagree with the {meta['family']} reference"
    return None


def _check_blowup(meta, out):
    order = curve_order(terms_from_json(meta["f_terms"]))
    suffix = "" if order == 1 else (f"^{order}" if order.denominator == 1
                                    else f"^({order.numerator}/{order.denominator})")
    if meta["json"]:
        charts = [(c["chart"], c["relation"], c["extracted"]) for c in out["charts"]]
    else:
        charts = []
        for k in (0, 4):
            head = re.fullmatch(r"chart (\w)=1 \((.*)\):", out[k])
            extracted = out[k + 1].removeprefix("  extracted: ")
            charts.append((head.group(1), head.group(2), extracted))
    expected = [("u", "y = x*v", "x" + suffix), ("v", "x = y*u", "y" + suffix)]
    return None if charts == expected else f"charts {charts} != {expected}"


_CHECKS = {"h0": _check_h0_family, "hn": _check_h0_family, "euler": _check_h0_family,
           "bezout-line": _check_bezout_line, "bezout-chi": _check_bezout_chi,
           "kunneth": _check_kunneth, "veronese": _check_veronese,
           "cech-check": _check_cech, "mult": _check_mult, "blowup": _check_blowup}


def check_cli(meta, code, stdout, error):
    """Failure reason for one CLI request, or None if it passed.

    error is the repr of an exception that escaped perfproj.cli.run, if any.
    """
    if error is not None:
        return f"uncaught {error}"
    if code not in OK_CODES:
        return f"exit code {code}"
    if meta["json"]:
        try:
            out = json.loads(stdout)
        except ValueError:
            return "no parseable JSON on stdout"
    else:
        out = stdout.splitlines()
    if code != 0:
        # every generated request is valid, so a diagnostic is a wrong answer
        return f"exit {code}: {stdout.strip()[:120]}"
    try:
        return _CHECKS[meta["cmd"]](meta, out)
    except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
        return f"malformed answer: {exc!r}"


def known_defect(meta, reason):
    """True for the one failure the seed is known to have: deep pure-power
    mult requests overflow the Fulton recursion.  Every other failure, crash
    or wrong answer, makes the run incorrect."""
    return (meta["cmd"] == "mult" and meta["family"] == "pure"
            and reason.startswith("uncaught RecursionError"))


def check_oracle(meta, value, error):
    if error is not None:
        return f"uncaught {error}"
    if meta["family"] == "pure":
        (_, fx, fy), = terms_from_json(meta["f_terms"])
        (_, gx, gy), = terms_from_json(meta["g_terms"])
        expected = (fx + fy) * (gx + gy)
        return None if value == expected else f"oracle {value} != staircase {expected}"
    if not isinstance(value, int) or value < 0:
        return f"oracle answered {value!r}"
    return None


def check_diagonal_against_oracle(mult_meta, mult_out, oracle_value):
    """The mult diagonal must equal the oracle's classical multiplicity."""
    diag, _ = mult_answer(mult_meta, mult_out)
    k0 = max(mult_meta["kf"], mult_meta["kg"])
    if any(v != oracle_value for v in diag[k0:]):
        return f"diagonal {diag[k0:]} != oracle {oracle_value}"
    return None
