"""Seeded job streams for the three workloads.

A workload is an endless sequence of passes.  Every pass of a workload has
the same composition (the same strata of job sizes), so a pass costs about
the same whatever the seed; the seed picks the parameters inside each
stratum and the order of the jobs.  Pass ``i`` of seed ``s`` is drawn from
its own ``random.Random``, so the first passes of a run never depend on how
many passes the run reaches.

Each job carries the argv the program receives (``@name`` stands for an
input file the job also carries) and a check that judges the program's
stdout with answers the benchmark knows independently (see oracles.py).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from math import comb, isqrt
from typing import Callable, Iterator

import oracles

WORKLOADS = ("dt-series", "ekl-local", "gw-ring")


@dataclass
class Job:
    label: str
    argv: list[str]
    check: Callable[[str], str | None] = field(repr=False)
    files: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Identifies the job by its argv and input contents, never by paths."""
        blob = json.dumps([self.argv, self.files], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def resolved_argv(self, workdir: str) -> list[str]:
        prefix = self.key[:16]
        return [
            os.path.join(workdir, f"{prefix}-{a[1:]}") if a.startswith("@") else a
            for a in self.argv
        ]

    def write_files(self, workdir: str) -> None:
        prefix = self.key[:16]
        for name, text in self.files.items():
            with open(os.path.join(workdir, f"{prefix}-{name}"), "w", encoding="utf-8") as fh:
                fh.write(text)


def output_digest(argv: list[str], stdout: str) -> str:
    """Digest of a job's output with the run manifest left out.

    JSON printed to stdout embeds a manifest whose parameters carry input
    paths, so the payload is compared without it.
    """
    if "--json" in argv:
        payload = json.loads(stdout)
        payload.pop("manifest", None)
        stdout = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(stdout.encode()).hexdigest()


def passes(workload: str, seed: int) -> Iterator[list[Job]]:
    make = _MAKERS[workload]
    for index in itertools.count():
        yield make(random.Random(f"{workload}:{seed}:{index}"))


def first_passes(workload: str, seed: int, count: int) -> list[list[Job]]:
    return list(itertools.islice(passes(workload, seed), count))


def finite_jobs() -> list[Job]:
    """Every job whose parameters come from a finite set: all dt-a3 orders,
    kinds and output modes, every gv --m, every Milnor map."""
    out = [_dt_job(order, kind, as_json, f"dt-{order}")
           for order in range(8, 31) for kind in DT_KINDS for as_json in (False, True)]
    out += [_gv_job(m) for m in range(1, 41)]
    out += [_milnor_job(n, k, as_json)
            for n, k in dict.fromkeys(EKL_MONOMIAL) for as_json in (False, True)]
    return out


def _payload(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"stdout is not JSON: {exc}") from None


def _checked(fn) -> Callable[[str], str | None]:
    """Turn a checker that raises ValueError/KeyError into one returning a message."""

    def check(stdout: str) -> str | None:
        try:
            fn(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


# -- dt-series ------------------------------------------------------------------

DT_KINDS = ("motivic", "arithmetic", "complex", "real")
# Orders 8..22 appear once per pass and order 23 three times, so that p75
# falls among copies of one job rather than in the gap between two sizes;
# order 30 and one order from each pair below fill the expensive end.
DT_FIXED_ORDERS = tuple(range(8, 23)) + (23, 23, 23, 30)
DT_ORDER_PAIRS = ((24, 25), (26, 27), (28, 29))


def _dt_pass(rng: random.Random) -> list[Job]:
    strata = [(n, f"dt-{n}") for n in DT_FIXED_ORDERS]
    strata += [(rng.choice(pair), f"dt-{pair[0]}-{pair[1]}") for pair in DT_ORDER_PAIRS]
    rng.shuffle(strata)
    kinds = [DT_KINDS[i % 4] for i in range(len(strata))]
    rng.shuffle(kinds)
    flags = [i % 2 == 0 for i in range(len(strata))]
    rng.shuffle(flags)
    jobs = []
    for (order, label), kind, as_json in zip(strata, kinds, flags):
        jobs.append(_dt_job(order, kind, as_json, label))
    return jobs


def _dt_job(order: int, kind: str, as_json: bool, label: str) -> Job:
    argv = ["dt-a3", "--order", str(order), "--output", kind] + (["--json"] if as_json else [])
    return Job(label, argv, _checked(_dt_checker(order, kind, as_json)))


def _dt_checker(order: int, kind: str, as_json: bool):
    complex_ref = oracles.dt_complex_coeffs(order)
    real_ref = oracles.dt_real_coeffs(order)

    def check(stdout: str) -> None:
        if not as_json:
            if kind == "complex":
                got = [int(x) for x in stdout.strip().split(", ")]
                _expect(got == complex_ref, "complex series differs from MacMahon")
                return
            lines = stdout.rstrip("\n").split("\n")
            _expect(len(lines) == order + 1, "wrong number of series lines")
            _expect(all(line.startswith(f"t^{n}: ") for n, line in enumerate(lines)), "bad line prefix")
            if kind == "real":
                got = [line.split(": ", 1)[1] for line in lines]
                want = [oracles.gaussian_text(re, im) for re, im in real_ref]
                _expect(got == want, "real series differs from symmetric MacMahon")
            return
        series = _payload(stdout)["series"]
        coeffs = series["coeffs"]
        _expect(series["order"] == order and len(coeffs) == order + 1, "wrong series length")
        if kind == "complex":
            _expect(coeffs == complex_ref, "complex series differs from MacMahon")
        elif kind == "real":
            got = [(c["re"], c["im"]) for c in coeffs]
            _expect(got == real_ref, "real series differs from symmetric MacMahon")
        elif kind == "motivic":
            # u -> -1 and u -> i must land on the two plane-partition series
            for n, c in enumerate(coeffs):
                _expect(not c["extras"], "motivic DT coefficient has generator terms")
                cls = {e: k for e, k in c["u_coeffs"]}
                cx, re_im, _, _ = oracles.euler_images(cls)
                _expect(cx == complex_ref[n], f"chi_complex of t^{n} differs")
                _expect(re_im == real_ref[n], f"chi_real of t^{n} differs")
        else:
            for n, c in enumerate(coeffs):
                even, odd = c["even"]["terms"], c["odd"]["terms"]
                rank = sum(m for _, m in even) - sum(m for _, m in odd)
                sig = (sum(m * (1 if r > 0 else -1) for r, m in even),
                       sum(m * (1 if r > 0 else -1) for r, m in odd))
                _expect(rank == complex_ref[n], f"rank image of t^{n} differs")
                _expect(sig == real_ref[n], f"signature image of t^{n} differs")

    return check


# -- ekl-local --------------------------------------------------------------------

VARS = ("x", "y", "z")
# (variables, k) for the Milnor gradients of x^k + y^k (+ z^k): dimension (k-1)^n.
# Dimension 100 appears five times, so that p75 falls among copies of one
# job rather than in the gap between two sizes.
EKL_MONOMIAL = ((2, 6), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10)) + ((2, 11),) * 5 + \
    ((2, 13), (2, 17), (3, 4), (3, 4), (3, 5), (3, 6))
# (variables, degree) of the generic homogeneous complete intersections
EKL_GENERIC = ((2, 4),) * 5 + ((2, 5),) * 3 + ((2, 6),) * 2 + ((2, 7), (2, 8), (2, 10)) + \
    ((3, 3),) * 3 + ((3, 4),)


def _ekl_pass(rng: random.Random) -> list[Job]:
    jobs = [_milnor_job(n, k, rng.random() < 0.5) for n, k in EKL_MONOMIAL]
    jobs += [_generic_job(rng, n, d) for n, d in EKL_GENERIC]
    rng.shuffle(jobs)
    return jobs


def _ekl_argv(as_json: bool) -> list[str]:
    return ["ekl", "--map", "@map.json"] + (["--json"] if as_json else [])


def _map_text(n: int, polys) -> str:
    return json.dumps({"vars": list(VARS[:n]), "polys": polys})


def _milnor_job(n: int, k: int, as_json: bool) -> Job:
    polys = []
    for i in range(n):
        exps = [0] * n
        exps[i] = k - 1
        polys.append([[exps, str(k)]])
    dim = (k - 1) ** n
    sig = 1 if k % 2 == 0 else 0
    return Job(f"ekl-milnor-{n}v-{dim}", _ekl_argv(as_json),
               _checked(_ekl_checker(dim, sig, as_json)), {"map.json": _map_text(n, polys)})


def _generic_job(rng: random.Random, n: int, d: int) -> Job:
    """Dense forms with coefficients +-1 whose only common zero is the origin.

    Larger coefficients were tried: +-3 made one binary degree-10 draw spend
    27 s factoring Gram pivots, so the job time would depend on the draw.
    """
    monomials = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    while True:
        forms = [{e: rng.choice((-1, 1)) for e in monomials} for _ in range(n)]
        if n == 2:
            ok = oracles.binary_forms_coprime(forms[0], forms[1], d)
        else:
            ok = oracles.ternary_forms_meet_only_at_origin(forms, d)
        if ok:
            break
    polys = [[[list(e), str(c)] for e, c in sorted(f.items())] for f in forms]
    as_json = rng.random() < 0.5
    return Job(f"ekl-generic-{n}v-{d}", _ekl_argv(as_json),
               _checked(_ekl_checker(d**n, None, as_json)), {"map.json": _map_text(n, polys)})


def _ekl_checker(rank: int, signature: int | None, as_json: bool):
    """Rank is the Bezout number; the Milnor signature is known in closed form.

    For generic maps only the parity and size of the signature are known.
    """

    def check(stdout: str) -> None:
        if as_json:
            payload = _payload(stdout)
            got_rank, got_sig = payload["rank"], payload["signature"]
            _expect(payload["algebra_dimension"] == rank, "algebra dimension differs from Bezout")
            terms = payload["class"]["terms"]
            _expect(sum(m for _, m in terms) == rank, "class rank differs from Bezout")
        else:
            lines = dict(line.split(": ", 1) for line in stdout.strip().split("\n")[1:])
            got_rank, got_sig = int(lines["rank"]), int(lines["signature"])
        _expect(got_rank == rank, f"rank {got_rank}, Bezout number {rank}")
        if signature is None:
            _expect(abs(got_sig) <= rank and (rank - got_sig) % 2 == 0, "impossible signature")
        else:
            _expect(got_sig == signature, f"signature {got_sig}, expected {signature}")

    return check


# -- gw-ring ------------------------------------------------------------------------

GW_OPS = ("add", "sub", "mul", "rank", "signature", "discriminant", "equal")
# digits of the balanced semiprimes for the small, medium and large Q jobs
GW_SMALL_DIGITS = (6, 7, 8, 9)
GW_MEDIUM_DIGITS = (10, 11)
GW_FINITE_PRIMES = (5, 7, 11, 13, 101, 1009)
GV_BINS = ((1, 7), (7, 14), (14, 21), (21, 28), (28, 35), (35, 41))
MAX_DIGITS = 14


def _semiprime(rng: random.Random, digits: int) -> oracles.Entry:
    """p*q with p, q within 3% of each other: about 4 * 10^(digits-1).

    Trial division costs about min(p, q) steps, so the narrow window makes
    the cost of a job depend on its digit count, not on the draw.
    """
    centre = int((4 * 10 ** (digits - 1)) ** 0.5)
    lo, hi = int(centre * 0.985), int(centre * 1.015)
    p, q = oracles.prime_in(rng, lo, hi), oracles.prime_in(rng, lo, hi)
    while q == p:
        q = oracles.prime_in(rng, lo, hi)
    return oracles.Entry.of_factors(1, {p: 1, q: 1})


_SMALL_PRIMES = [p for p in range(2, 1000) if oracles.is_prime(p)]


def _smooth(rng: random.Random, digits: int) -> oracles.Entry:
    """A product of primes below 1000 with about the given number of digits."""
    factors: dict[int, int] = {}
    value = 1
    while len(str(value)) < digits:
        p = rng.choice(_SMALL_PRIMES)
        if len(str(value * p)) > digits:
            break
        factors[p] = factors.get(p, 0) + 1
        value *= p
    return oracles.Entry.of_factors(1, factors)


def _signed(rng: random.Random, entry: oracles.Entry) -> oracles.Entry:
    return entry if rng.random() < 0.5 else oracles.Entry(-entry.value, entry.factors)


def _square_multiple(rng: random.Random, entry: oracles.Entry) -> oracles.Entry:
    """entry * s^2 with s > 1, kept within MAX_DIGITS."""
    s_max = min(31, isqrt((10**MAX_DIGITS - 1) // abs(entry.value)))
    if s_max < 2:
        raise ValueError(f"{entry.value} leaves no room for a square factor")
    s = rng.randrange(2, s_max + 1)
    return entry.times(oracles.Entry.of_factors(1, _factor_small(s * s)))


def _factor_small(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def _expr(summands) -> str:
    pieces = []
    for idx, (entry, mult) in enumerate(summands):
        body = f"<{entry.value}>" if abs(mult) == 1 else f"{abs(mult)}*<{entry.value}>"
        if idx == 0:
            pieces.append(body if mult > 0 else f"- {body}")
        else:
            pieces.append(f"{'-' if mult < 0 else '+'} {body}")
    return " ".join(pieces)


def _gw_job(label: str, field_label: str, op: str, a, b=None, verdict=None, as_json=False) -> Job:
    argv = ["gw", "--op", op, "--a", _expr(a)]
    if b is not None:
        argv += ["--b", _expr(b)]
    if field_label != "Q":
        argv += ["--field", field_label]
    if as_json:
        argv.append("--json")
    return Job(label, argv, _checked(_gw_checker(field_label, op, a, b, verdict, as_json)))


def _gw_checker(field_label, op, a, b, verdict, as_json):
    if op == "equal":
        want_payload, want_text = {"equal": verdict}, str(verdict).lower()
    elif op in ("add", "sub", "mul"):
        if op == "mul":
            summands = [(x.times(y), m * n) for x, m in a for y, n in b]
        else:
            sign = -1 if op == "sub" else 1
            summands = list(a) + [(y, sign * n) for y, n in b]
        terms = oracles.gw_terms(summands, field_label)
        text = oracles.render_gw(terms)
        want_payload = {"value": {"field": field_label, "terms": terms}, "rendered": text}
        want_text = text
    elif op == "rank":
        rank = sum(m for _, m in a)
        want_payload, want_text = {"rank": rank}, str(rank)
    elif op == "signature":
        sig = sum(m if x.value > 0 else -m for x, m in a)
        want_payload, want_text = {"signature": sig}, str(sig)
    else:
        product = oracles.Entry.of_factors(1, {}) if field_label == "Q" else oracles.Entry(1)
        for x, m in a:
            if m % 2:
                product = product.times(x)
        rep = product.rep(field_label)
        want_payload, want_text = {"discriminant": rep}, f"<{rep}>"

    def check(stdout: str) -> None:
        if as_json:
            payload = _payload(stdout)
            payload.pop("manifest", None)
            _expect(payload == want_payload, f"payload {payload} != {want_payload}")
        else:
            _expect(stdout.strip() == want_text, f"{stdout.strip()!r} != {want_text!r}")

    return check


def _q_value_job(rng, label, op, digits) -> Job:
    """One rational job.  The first summand of each side is a balanced
    semiprime and the rest are smooth numbers, so what a job costs to factor
    depends on its digits and op, not on the draw."""
    def summands(count, positive):
        out = []
        for i in range(count):
            entry = _semiprime(rng, digits) if i == 0 else _smooth(rng, digits)
            mult = rng.choice((1, 2, 3))
            if not positive:
                entry = _signed(rng, entry)
                mult *= rng.choice((1, -1))
            out.append((entry, mult))
        return out

    as_json = rng.random() < 0.5
    if op == "equal":
        return _equal_job(rng, label, "Q", lambda: _semiprime(rng, digits), as_json, case=2)
    if op in ("add", "sub", "mul"):
        return _gw_job(label, "Q", op, summands(2, False), summands(1, False), as_json=as_json)
    return _gw_job(label, "Q", op, summands(3, op == "discriminant"), as_json=as_json)


def _equal_job(rng, label, field_label, draw, as_json, case=None) -> Job:
    """An equality with a verdict known by construction."""
    a = draw()
    if case is None:
        case = rng.randrange(4)
    if case == 0:  # <a> = <a s^2>
        lhs, rhs, verdict = [(a, 1)], [(_square_multiple(rng, a), 1)], True
    elif case == 1:  # <a> + <b> = <b s^2> + <a t^2>
        b = draw()
        lhs = [(a, 1), (b, 1)]
        rhs = [(_square_multiple(rng, b), 1), (_square_multiple(rng, a), 1)]
        verdict = True
    elif case == 2:  # two independent draws: equal only if their classes agree
        b = draw()
        lhs, rhs, verdict = [(a, 1)], [(b, 1)], a.rep(field_label) == b.rep(field_label)
    else:  # opposite signs differ in signature
        lhs, rhs, verdict = [(a, 1)], [(oracles.Entry(-a.value, a.factors), 1)], False
    return _gw_job(label, field_label, "equal", lhs, rhs, verdict, as_json)


def _other_field_job(rng, label, field_label) -> Job:
    p = int(field_label[1:]) if field_label != "R" else None

    def draw():
        while True:
            value = rng.randrange(2, 10**6) * rng.choice((1, -1))
            if p is None or value % p:
                return oracles.Entry(value)

    as_json = rng.random() < 0.5
    op = rng.choice(("add", "equal", "rank", "discriminant") + (("signature",) if p is None else ()))
    if op == "equal":
        if p is None:
            return _equal_job(rng, label, field_label, draw, as_json)
        # over F_p the verdict of <a> vs <b> is whether a*b is a square mod p
        a, b = draw(), draw()
        return _gw_job(label, field_label, "equal", [(a, 1)], [(b, 1)],
                       a.rep(field_label) == b.rep(field_label), as_json)
    summands = [(draw(), rng.choice((1, 2))) for _ in range(rng.choice((2, 3)))]
    if op == "add":
        return _gw_job(label, field_label, "add", summands[:1], summands[1:], as_json=as_json)
    return _gw_job(label, field_label, op, summands, as_json=as_json)


def _gv_job(m: int, label: str = "gv") -> Job:
    n = comb(m + 3, 3) - (comb(m - 2, 3) if m >= 5 else 0) - 1

    def check(stdout: str) -> None:
        payload = _payload(stdout)
        _expect(payload["m"] == m and payload["fiber_dim"] == n, "wrong fiber dimension")
        _expect(payload["rank"] == 5 * (n + 1), "rank differs from 5(N+1)")
        _expect(payload["compare"]["ranks_agree"] is True, "ranks disagree")

    return Job(label, ["gv", "--m", str(m), "--compare", "--json"], _checked(check))


def _tate_class(rng: random.Random, terms: int) -> dict[int, int]:
    exps = rng.sample(range(-terms, 3 * terms), terms)
    return {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps}


def _nearby_job(rng: random.Random, terms: int) -> Job:
    """SNC data with Tate stratum classes of the given size."""
    dim = rng.randrange(2, 5)
    divisors = list(range(1, 5))
    strata = []
    for size in (1, 1, 2, 2, 3):
        index = sorted(rng.sample(divisors, size))
        strata.append({"I": index, "mult": {str(i): rng.randrange(1, 5) for i in index},
                       "cls": _tate_class(rng, terms)})
    x0 = _tate_class(rng, terms) if rng.random() < 0.7 else None
    local = rng.random() < 0.3
    data = {"dim": dim, "strata": [
        {"I": s["I"], "mult": s["mult"],
         "class": {"u_coeffs": sorted([e, c] for e, c in s["cls"].items()), "extras": {}}}
        for s in strata]}
    if x0 is not None:
        data["x0_class"] = {"u_coeffs": sorted([e, c] for e, c in x0.items()), "extras": {}}

    total = oracles.nearby_sum([(len(s["I"]), s["cls"]) for s in strata])
    key = "local_nearby_class" if local else "nearby_class"
    cx, (re, im), even, odd = oracles.euler_images(total)
    want_virtual = None
    if x0 is not None and not local:
        diff = oracles.upoly_add(total, x0, -1)
        want_virtual = {e - dim: -c for e, c in diff.items()}

    def check(stdout: str) -> None:
        payload = _payload(stdout)
        got = {e: c for e, c in payload[key]["u_coeffs"]}
        _expect(got == total, "nearby class differs from the alternating sum")
        if want_virtual is None:
            _expect("virtual_class" not in payload, "unexpected virtual class")
        else:
            got_virtual = {e: c for e, c in payload["virtual_class"]["u_coeffs"]}
            _expect(got_virtual == want_virtual, "virtual class differs")
        euler = payload["euler"]
        _expect(euler["complex"] == cx, "chi_complex differs")
        _expect((euler["real"]["re"], euler["real"]["im"]) == (re, im), "chi_real differs")
        _expect(euler["a1"]["even"]["terms"] == even and euler["a1"]["odd"]["terms"] == odd,
                "chi_a1 differs")

    argv = ["nearby", "--data", "@snc.json", "--json"] + (["--local"] if local else [])
    return Job(f"nearby-{terms}", argv, _checked(check), {"snc.json": json.dumps(data)})


def _gw_pass(rng: random.Random) -> list[Job]:
    jobs = []
    for i, op in enumerate(GW_OPS):
        jobs.append(_q_value_job(rng, f"gw-q-small-{op}", op, GW_SMALL_DIGITS[i % 4]))
        jobs.append(_q_value_job(rng, f"gw-q-medium-{op}", op, GW_MEDIUM_DIGITS[i % 2]))
    # 12-digit classes, times s^2 up to 14 digits; one job per kind of equality
    for case in range(4):
        jobs.append(_equal_job(rng, "gw-q-large-equal", "Q", lambda: _semiprime(rng, 12),
                               rng.random() < 0.5, case))
    jobs.append(_q_value_job(rng, "gw-q-large-mul", "mul", 12))
    jobs.append(_q_value_job(rng, "gw-q-large-discriminant", "discriminant", 12))
    for _ in range(3):
        jobs.append(_other_field_job(rng, "gw-r", "R"))
    for p in rng.sample(GW_FINITE_PRIMES, 3):
        jobs.append(_other_field_job(rng, "gw-fp", f"F{p}"))
    jobs += [_gv_job(rng.randrange(lo, hi), f"gv-{lo}-{hi - 1}") for lo, hi in GV_BINS]
    # five jobs of one size at the low end of the costly jobs put p75 among
    # copies of one job rather than in the gap between two sizes
    jobs += [_nearby_job(rng, terms) for terms in (300, 600, 900, 900, 900, 900, 900, 1200, 2400)]
    rng.shuffle(jobs)
    return jobs


_MAKERS = {"dt-series": _dt_pass, "ekl-local": _ekl_pass, "gw-ring": _gw_pass}
