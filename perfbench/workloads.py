"""The benchmark's workloads: seeded op lists and the files they read.

A workload is a fixed list of ops built from the seed alone; recurra sees
only the generated inputs.  Draws are stratified: the design fixes how
much work each op slot does (a cost bound or a size band), and the seed
picks the inputs inside it (coefficients, modulus, exact size, text), so
two seeds give different inputs but close totals.  workloads.json records
why each workload exists and which inputs it varies.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt, lcm, log10

import oracle

# Known defects at the baseline commit, by how the op fails.
KILLED = "killed"                  # outlives the workload's per-call deadline
INT_STR_LIMIT = "int-str-limit"    # exits 2: a term passes Python's 4300-digit str limit


@dataclass(frozen=True)
class Op:
    """One call into recurra: a library function, or a CLI invocation."""

    kind: str                       # 'pisano.matrix_order', ... or 'cli'
    args: tuple
    expect: object = None           # output known in advance (pinned value, oracle text, key)
    stdin: str | None = None        # file in the work directory fed to a CLI op
    known_defect: str | None = None  # KILLED or INT_STR_LIMIT


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    deadline_s: float               # per CLI call; a call past it is killed
    files: dict[str, str] = field(default_factory=dict)


def _log_band(lo: float, hi: float, count: int) -> list[float]:
    """count >= 2 points spaced evenly in log between lo and hi."""
    step = (log10(hi) - log10(lo)) / (count - 1)
    return [10 ** (log10(lo) + i * step) for i in range(count)]


def _jitter(rng: random.Random, x: float) -> int:
    return max(1, round(x * rng.uniform(0.9, 1.1)))


# -- periods ----------------------------------------------------------------------

def order_bound(k: int, m: int) -> int:
    """A bound on the order of an invertible k x k matrix mod m, known
    without walking: p^k - 1 (a Singer cycle's order) times p^(r-1) per
    prime power p^r || m, lcm'd."""
    out = 1
    for p, r in oracle.factorize(m).items():
        out = lcm(out, (p ** k - 1) * p ** (r - 1))
    return out


def _modulus_class(m: int) -> str:
    f = oracle.factorize(m)
    if len(f) > 1:
        return "composite"
    return "prime" if next(iter(f.values())) == 1 else "prime-power"


CLASSES = ("prime", "prime-power", "composite")


@lru_cache(maxsize=None)
def _moduli(k: int, bound, lo: int, hi: int, limit: int) -> dict[str, tuple[int, ...]]:
    """{class: (m, ...)} for 2 <= m <= limit with lo <= bound(k, m) <= hi."""
    in_band = {m: _modulus_class(m) for m in range(2, limit + 1) if lo <= bound(k, m) <= hi}
    return {cls: tuple(m for m, c in in_band.items() if c == cls) for cls in CLASSES}


def _draw_modulus(rng: random.Random, k: int, slot: int, bound, lo: int, hi: int,
                  limit: int) -> int:
    """A modulus in the cost band, of the class the slot asks for when the
    band has one (large k leaves few moduli in band)."""
    pool = _moduli(k, bound, lo, hi, limit)
    return rng.choice(pool[CLASSES[slot % 3]] or [m for ms in pool.values() for m in ms])


def state_bound(k: int, m: int) -> int:
    """Pigeonhole bound on tail + period: there are m^k windows."""
    return m ** k


def _unit_coeffs(rng: random.Random, k: int, m: int) -> tuple[int, ...]:
    head = [rng.randrange(-m + 1, m) for _ in range(k - 1)]
    while True:
        a_k = rng.randrange(1, m) * rng.choice((1, -1))
        if gcd(a_k, m) == 1:
            return tuple(head + [a_k])


def _nonunit_coeffs(rng: random.Random, k: int, m: int) -> tuple[int, ...]:
    head = [rng.randrange(-m + 1, m) for _ in range(k - 1)]
    q = rng.choice(sorted(oracle.factorize(m)))
    return tuple(head + [q * rng.randrange(1, m // q + 1) * rng.choice((1, -1))])


# op_p50_ms is pinned by design: 56 small ops (state draws, unit orders,
# ladders, diagonalizability, normalizing, each under SMALL_STEPS), a block
# of MEDIAN_REPEATS copies of one median op (Fibonacci mod 997, 1996
# steps), and 56 large ops (order draws of at least 0.8 * ORDER_STEPS[0]
# steps, CLI calls, pinned heavy cases).  With the halves a factor two
# apart in cost, op_p50_ms is the median of that op's samples whatever the
# seed draws.
MEDIAN_REPEATS = 7
ORDER_STEPS = (6_000, 20_000)     # matrix_order draws: exact orders, log-spaced
SMALL_STEPS = 500
CLI_ORDER_COST = 10_000           # CLI draws stay far under a third of the deadline


def periods(seed: int) -> Workload:
    rng = random.Random(f"periods:{seed}")
    ops: list[Op] = [
        # Pinned heavy cases: the linear walks an order engine replaces.
        Op("pisano.matrix_order", ((1, 1), 100003), expect=200008),
        Op("pisano.matrix_order", ((4, -5, 2), 997), expect=331004),
        Op("pisano.state_period", ((1, 1), 100003), expect=(0, 200008)),
        Op("pisano.prime_power_ladder", ((4, -5, 2), 3, 3), expect=[6, 18, 54]),
        *[Op("pisano.matrix_order", ((1, 1), 997), expect=1996)] * MEDIAN_REPEATS,
        Op("cli", ("pisano", "4", "-5", "2", "--ladder", "3", "3"), expect="6 18 54"),
        Op("cli", ("order", "3", "--mod", "1000000007"), known_defect=KILLED),
        Op("cli", ("pisano", "1", "1", "1", "--mod", "1000003"), known_defect=KILLED),
    ]
    for coeffs, m in _order_draws(rng, 45):
        ops.append(Op("pisano.matrix_order", (coeffs, m)))
    for k in range(2, 7):
        for i in range(4):
            m = _draw_modulus(rng, k, i, state_bound, 50, 3 * SMALL_STEPS, limit=200)
            ops.append(Op("pisano.state_period", (_nonunit_coeffs(rng, k, m), m)))
    for _ in range(10):
        m = rng.randrange(1_000, 10_000)
        a = rng.randrange(2, m)
        while gcd(a, m) != 1:
            a = rng.randrange(2, m)
        ops.append(Op("ringcore.multiplicative_order", (a, m)))
    for _ in range(5):
        k = rng.randint(2, 3)
        p = rng.choice((3, 5, 7))
        r = max(r for r in (1, 2, 3) if order_bound(k, p ** r) <= SMALL_STEPS)
        ops.append(Op("pisano.prime_power_ladder", (_unit_coeffs(rng, k, p), p, r)))
    primes = [p for p in range(101, SMALL_STEPS) if oracle.is_prime(p)]
    for _ in range(10):
        p = rng.choice(primes)
        ops.append(Op("pisano.diagonalizable_mod_p",
                      (_unit_coeffs(rng, rng.randint(2, 4), p), p)))
    for n_mod, kmax in ((27, 6), (256, 7), (29, 3), (26, 3)) * 2 + ((27, 6), (256, 7)):
        ops.append(Op("cipher.normalize_exponent",
                      (_key(rng, n_mod, range(2, kmax + 1), SMALL_STEPS),)))
    for _ in range(2):
        m = rng.randrange(1_000, 10_000)
        x = rng.randrange(2, m)
        while gcd(x, m) != 1:
            x = rng.randrange(2, m)
        ops.append(Op("cli", ("order", str(x), "--mod", str(m))))
    for k in (2, 3):
        m = _draw_modulus(rng, k, 2 * k, order_bound, 100, CLI_ORDER_COST, limit=200)
        ops.append(Op("cli", ("pisano", *map(str, _unit_coeffs(rng, k, m)), "--mod", str(m))))
    m = rng.choice((12, 18, 20, 28, 45))
    ops.append(Op("cli", ("pisano", *map(str, _nonunit_coeffs(rng, 2, m)),
                          "--mod", str(m), "--state")))
    return Workload("periods", tuple(ops), deadline_s=1.5)


def _order_draws(rng: random.Random, count: int) -> list[tuple]:
    """count (coeffs, m) draws; slot i has k = 2 + i % 5 and an order -- the
    walk's step count, found by the oracle without walking -- within 20% of
    its point on a log scale over ORDER_STEPS.  Draws are sized by their
    exact cost, so the total and the median op stay close from seed to
    seed.  A candidate drawn for one slot may fill any open slot it fits."""
    targets = _log_band(*ORDER_STEPS, count)
    chosen: dict[int, tuple] = {}
    tries = 0
    while len(chosen) < count:
        slot = min(i for i in range(count) if i not in chosen)
        k = 2 + slot % 5
        m = _draw_modulus(rng, k, tries, order_bound, targets[slot], 50 * targets[slot],
                          limit=400)
        coeffs = _unit_coeffs(rng, k, m)
        order = oracle.matrix_order(coeffs, m)
        fits = [i for i in range(slot, count, 5)
                if i not in chosen and 0.8 * targets[i] <= order <= 1.2 * targets[i]]
        if fits:
            chosen[fits[0]] = (coeffs, m)
        tries += 1
    return [chosen[i] for i in range(count)]


def _key(rng: random.Random, n_mod: int, ks, max_period: int = 10 ** 9) -> tuple[int, ...]:
    """A cipher key line (k, N, a_1..a_k, n), k drawn from ks, with
    pi(N) <= max_period and an exponent that is not a multiple of pi(N), so
    normalizing never fails."""
    units = [a for a in range(1, n_mod) if gcd(a, n_mod) == 1]
    while True:
        k = rng.choice(ks)
        coeffs = [rng.randrange(n_mod) for _ in range(k - 1)] + [rng.choice(units)]
        period = oracle.matrix_order(coeffs, n_mod)
        if period <= max_period:
            break
    exponent = rng.randint(1, 10 ** 18)
    while exponent % period == 0:
        exponent = rng.randint(1, 10 ** 18)
    return (k, n_mod, *coeffs, exponent)


# -- sequences -------------------------------------------------------------------

def _coeffs(rng: random.Random, k: int, amax: int) -> tuple[int, ...]:
    head = [rng.randint(-amax, amax) for _ in range(k - 1)]
    return tuple(head + [rng.choice([a for a in range(-amax, amax + 1) if a])])


def _modulus(rng: random.Random, slot: int) -> int:
    """Modulus classes in turn: small, prime near 1e9, prime power, odd
    past 2^64."""
    cls = slot % 4
    if cls == 0:
        return rng.randrange(2, 100)
    if cls == 1:
        m = rng.randrange(10 ** 9, 2 * 10 ** 9)
        while not oracle.is_prime(m):
            m += 1
        return m
    if cls == 2:
        return rng.choice((3, 5, 7, 11, 13)) ** rng.randint(8, 14)
    return rng.randrange(2 ** 64, 2 ** 70) | 1


def _size_for_cost(cost: float, growth: float, cap: int) -> int:
    """Index n with n^2 * growth ~ cost: exact terms cost about n times their
    digit count, and a term has about n * growth digits."""
    return min(cap, max(10, isqrt(int(cost / max(growth, 0.01)))))


def sequences(seed: int) -> Workload:
    """op_p50_ms is pinned by design, as in periods: 50 small ops (prefix
    lists, backward terms, each a few ms), MEDIAN_REPEATS copies of one
    median op (Fibonacci term_mod at n = 9000), and 50 large ops (far terms,
    the census, CLI calls), the halves a factor two apart in cost."""
    rng = random.Random(f"sequences:{seed}")
    ops: list[Op] = [
        Op("recurrence.term_mod", ((1, 1), 10 ** 6, 10 ** 9 + 7)),
        Op("recurrence.term", ((1, 1), 10 ** 5)),
        Op("cli", ("quat", "3", "--r", "2", "--n", "2000")),
        Op("cli", ("seq", "1", "1", "--n", "21000"), known_defect=INT_STR_LIMIT),
    ]
    # small half
    for i, cost in enumerate(_log_band(1e4, 1e6, 12)):
        coeffs = _coeffs(rng, 2 + i % 7, 5)
        count = _size_for_cost(2 * cost, oracle.growth_digits(coeffs), 20_000)
        ops.append(Op("recurrence.terms", (coeffs, _jitter(rng, count))))
    for i, work in enumerate(_log_band(200, 8_000, 14)):
        k = 2 + i % 7
        ops.append(Op("recurrence.terms_mod",
                      (_coeffs(rng, k, 9), _jitter(rng, work / k), _modulus(rng, i))))
    for i, n in enumerate(_log_band(10, 200, 14)):
        ops.append(Op("recurrence.term_negative",
                      (_coeffs(rng, 2 + i % 3, 5), -_jitter(rng, n))))
    for cost in _log_band(1e5, 2e6, 10):
        l = rng.randint(1, 9)
        count = _size_for_cost(2 * cost, log10(l + 1), 50_000)
        ops.append(Op("lnumbers.l_terms", (l, _jitter(rng, count))))
    ops += [Op("recurrence.term_mod", ((1, 1), 9_000, 10 ** 9 + 7))] * MEDIAN_REPEATS
    # large half
    for i, n in enumerate(_log_band(3e4, 3e5, 11)):
        ops.append(Op("recurrence.term_mod",
                      (_coeffs(rng, 2 + i % 7, 9), _jitter(rng, n), _modulus(rng, i))))
    for i, cost in enumerate(_log_band(8e7, 4e8, 6)):
        coeffs = _coeffs(rng, 2 + i, 5)
        n = _size_for_cost(cost, oracle.growth_digits(coeffs), 10 ** 5)
        ops.append(Op("recurrence.term", (coeffs, _jitter(rng, n))))
    for cost in _log_band(3e8, 3e9, 10):
        l = rng.randint(1, 9)
        n = _size_for_cost(cost, log10(l + 1), 10 ** 5)
        ops.append(Op("lnumbers.l_term", (l, _jitter(rng, n))))
    for n_max in _log_band(600, 1500, 6):
        l, r = rng.choice((3, 5, 7)), rng.randint(1, 3)
        ops.append(Op("quaternions.invertibility_census", (l, r, _jitter(rng, n_max))))
    for i, n in enumerate(_log_band(20, 1500, 6)):
        k = rng.randint(2, 5)
        argv = ["seq", *map(str, _coeffs(rng, k, 5)), "--n", str(_jitter(rng, n))]
        if i % 2:
            argv += ["--mod", str(_modulus(rng, i))]
        if i % 3 == 2:
            argv += ["--initial", *(str(rng.randint(-9, 9)) for _ in range(k))]
        ops.append(Op("cli", tuple(argv)))
    for i, n in enumerate(_log_band(20, 1500, 4)):
        argv = ["lnum", str(rng.randint(1, 9)), "--n", str(_jitter(rng, n))]
        if i % 2:
            argv += ["--mod", str(_modulus(rng, i))]
        ops.append(Op("cli", tuple(argv)))
    for n in _log_band(10, 200, 3):
        ops.append(Op("cli", ("quat", str(rng.choice((3, 5, 7))), "--r",
                              str(rng.randint(1, 3)), "--n", str(_jitter(rng, n)))))
    return Workload("sequences", tuple(ops), deadline_s=10.0)


# -- cipher-stream ---------------------------------------------------------------

DEFAULT_SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ*"
SYMBOLS = {
    27: (DEFAULT_SYMBOLS, "*"),
    29: ("ABCDEFGHIJKLMNOPQRSTUVWXYZ.,*", "*"),
    # Latin Extended-A/B: single code points, none of them a line break.
    256: ("".join(chr(0x100 + i) for i in range(256)), chr(0x1FF)),
}
README_KEY = (3, 27, 4, -5, 2, 2)


def cipher_stream(seed: int) -> Workload:
    rng = random.Random(f"cipher-stream:{seed}")
    files: dict[str, str] = {}
    ops: list[Op] = []
    for n_mod in (29, 256):
        symbols, pad = SYMBOLS[n_mod]
        files[f"alphabet{n_mod}.txt"] = f"pad={pad}\n" + "\n".join(symbols) + "\n"

    def add_pair(key, plain: str, strip_pad: bool = False,
                 cipher: str | None = None) -> None:
        i = len(ops)
        k, n_mod, exponent = key[0], key[1], key[-1]
        symbols, pad = SYMBOLS[n_mod]
        padded = plain + pad * (-len(plain) % k)
        if cipher is None:
            index = {s: j for j, s in enumerate(symbols)}
            labels = oracle.encipher(key[2:-1], n_mod, exponent,
                                     [index[s] for s in padded], k)
            cipher = "".join(symbols[j] for j in labels)
        files[f"key{i}.txt"] = " ".join(map(str, key)) + "\n"
        files[f"plain{i}.txt"] = plain
        files[f"cipher{i}.txt"] = cipher
        alpha = () if n_mod == 27 else ("--alphabet", f"alphabet{n_mod}.txt")
        ops.append(Op("cli", ("encrypt", "--key", f"key{i}.txt", *alpha),
                      expect=cipher, stdin=f"plain{i}.txt"))
        strip = ("--strip-pad",) if strip_pad else ()
        ops.append(Op("cli", ("decrypt", "--key", f"key{i}.txt", *alpha, *strip),
                      expect=padded.rstrip(pad) if strip_pad else padded,
                      stdin=f"cipher{i}.txt"))

    add_pair(README_KEY, "SUCCESS**", cipher="QDSNYCTVS")
    # Long texts are bound by per-char cost and short ones by startup; k and
    # the length are fixed in the long cells so a draw cannot move wall_s or
    # peak_rss_mb.  Most calls are short, so op_p50_ms is a startup-bound
    # latency.
    cells = [(27, 3, 200_000), (256, 5, 400_000), (29, 6, 50_000), (256, 8, 10_000)]
    cells += [(n_mod, rng.randint(2, 8), _jitter(rng, 1_000)) for n_mod in (27, 29, 256) * 2]
    for j, (n_mod, k, length) in enumerate(cells):
        symbols = SYMBOLS[n_mod][0]
        key = _key(rng, n_mod, (k,))
        plain = "".join(rng.choices(symbols, k=length))
        add_pair(key, plain, strip_pad=j == len(cells) - 1)
    for n_mod, kmax in ((27, 6), (256, 7), (29, 3)):
        key = _key(rng, n_mod, range(2, kmax + 1))
        i = len(ops)
        files[f"key{i}.txt"] = " ".join(map(str, key)) + "\n"
        ops.append(Op("cli", ("validate-key", "--key", f"key{i}.txt", "--normalize"),
                      expect=key))
    return Workload("cipher-stream", tuple(ops), deadline_s=10.0, files=files)


# -- verify-all ------------------------------------------------------------------

# Per-seed verify time ranges from 2.7 s to 7.3 s (seeds 0-15), so a seed
# list that changed with the workload seed would move wall_s by ~15%; the
# list is fixed and the workload seed sets the order.
VERIFY_SEEDS = (0, 1, 2)


def verify_all(seed: int) -> Workload:
    rng = random.Random(f"verify-all:{seed}")
    seeds = list(VERIFY_SEEDS)
    rng.shuffle(seeds)
    ops = tuple(Op("cli", ("verify", "--suite", "all", "--seed", str(s)))
                for s in seeds)
    return Workload("verify-all", ops, deadline_s=30.0)


WORKLOADS = {
    "periods": periods,
    "sequences": sequences,
    "cipher-stream": cipher_stream,
    "verify-all": verify_all,
}
