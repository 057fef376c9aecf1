"""Everything is immutable values and pure functions; hammer a few hot
entry points from many threads and require byte-identical answers."""
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from recurra import cipher, lnumbers, pisano, recurrence
from recurra.cipher import Alphabet, CipherKey
from recurra.recurrence import SequenceSpec

from oracles import naive_companion, naive_lterms, naive_matpow_squaring, naive_terms_mod


def test_concurrent_callers_agree():
    spec = SequenceSpec((4, -5, 2))
    key = CipherKey(3, 27, (4, -5, 2), 2)
    alpha = Alphabet.default()

    def work(i):
        return (
            recurrence.term(spec, 120 + i % 7),
            pisano.matrix_order(spec, 27),
            pisano.state_period(spec, 9).as_tuple(),
            cipher.encrypt_text(key, alpha, "SUCCESS**"),
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(64)))

    for i, got in enumerate(results):
        assert got[0] == recurrence.term(spec, 120 + i % 7)
        assert got[1] == 54
        assert got[2] == (0, 18)
        assert got[3] == "QDSNYCTVS"


def test_threads_sharing_one_l_number_prefix_agree():
    # each thread grows and reads the same spec's prefix in its own order
    spec = lnumbers.LSpec(3)
    expected = naive_lterms(3, 400)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(i):
            counts = [(i * 37 + 11 * j) % 400 for j in range(60)]
            return [(c, lnumbers.l_terms(spec, c), lnumbers.l_term(spec, c)) for c in counts]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(16)))
    finally:
        sys.setswitchinterval(old_interval)
    for rows in results:
        for count, prefix, term in rows:
            assert prefix == expected[:count] and term == expected[count]


def test_threads_racing_on_new_kernels_agree(monkeypatch):
    # with an empty kernel cache, eight threads start at once on the same
    # k, so they race to compile each kernel: every answer is the oracle's,
    # and every thread ends up with the one kernel that was stored
    monkeypatch.setattr(recurrence, "_kernels", {})
    coeffs, m, n = (3, -1, 4, 1, -5, 9, 2), 10 ** 9 + 7, 10 ** 6 + 3
    spec = SequenceSpec(coeffs)
    start = threading.Barrier(8)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(i):
            start.wait(timeout=60)
            return (recurrence.term_mod(spec, n, m).value, recurrence.terms_mod(spec, 60, m),
                    recurrence.term(spec, 500), recurrence._products(7, True),
                    recurrence._products(7, False))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8), timeout=120))
    finally:
        sys.setswitchinterval(old_interval)
    d = naive_companion(coeffs)
    expected = (naive_matpow_squaring(d, n, m)[-1][0], naive_terms_mod(coeffs, 60, m),
                naive_matpow_squaring(d, 500)[-1][0])
    kernels = recurrence._kernels
    assert sorted(kernels) == [("products", 7, False), ("products", 7, True),
                               ("steps", 7, False), ("steps", 7, True)]
    for got in results:
        assert got[:3] == expected
        assert got[3] is kernels["products", 7, True] and got[4] is kernels["products", 7, False]


# Eight threads of a fresh interpreter resolve every public name of the lazy
# package at once, each in its own order, and must get the same objects.
RESOLVE_ALL = """
import random, sys, threading, recurra
sys.setswitchinterval(1e-6)
names, start, got = list(recurra.__all__), threading.Barrier(8), {}

def resolve(i):
    order = random.Random(i).sample(names, len(names))
    start.wait()
    got[i] = {name: getattr(recurra, name) for name in order}

threads = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads) and len(got) == 8
assert all(got[i][name] is got[0][name] for i in got for name in names)
print(len(names))
"""


def test_threads_resolving_the_lazy_namespace_agree():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", RESOLVE_ALL], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "40\n"
