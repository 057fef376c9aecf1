"""The straight-line kernels of recurrence against the loops they replace:
every product kernel against _mulmod_charpoly, and every step kernel
against a plain step, for each k up to one past the kernels' bound, exact
and mod m, with negative and zero coefficients."""
from itertools import islice

from hypothesis import given, settings, strategies as st

from recurra import recurrence
from recurra.recurrence import SequenceSpec, _mulmod_charpoly, _products, _steps, terms_from

from oracles import naive_terms, plain_steps

BOUND = recurrence._KERNEL_K_MAX
MODULI = (None, 2, 97, 2 ** 61 - 1, 2 ** 64 + 13)
ENTRIES = st.sampled_from((0, 1, -1)) | st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)


def elements(k):
    return st.tuples(*[ENTRIES] * k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_products_against_the_loop(data):
    k = data.draw(st.integers(2, BOUND + 1), label="k")
    m = data.draw(st.sampled_from(MODULI), label="m")
    u, v, coeffs = (data.draw(elements(k), label=name) for name in ("u", "v", "coeffs"))
    square, times = _products(k, m is not None)
    assert square(u, coeffs, m) == _mulmod_charpoly(u, u, coeffs, m)
    assert times(u, v, coeffs, m) == _mulmod_charpoly(u, v, coeffs, m)


def test_products_on_fixed_elements():
    # zero, one, x, all -1 and all m - 1 (or 2^64), against coefficients
    # that are zero but for a_k, all -1, and the same extremes
    for k in range(2, BOUND + 2):
        zero, one = (0,) * k, (1,) + (0,) * (k - 1)
        x = (0, 1) + (0,) * (k - 2)
        for m in MODULI:
            top = 2 ** 64 if m is None else m - 1
            fixed = (zero, one, x, (-1,) * k, (top,) * k, (top,) + (0,) * (k - 2) + (-top,))
            square, times = _products(k, m is not None)
            for coeffs in ((0,) * (k - 1) + (-1,), (-1,) * k, (top,) * k):
                for u in fixed:
                    assert square(u, coeffs, m) == _mulmod_charpoly(u, u, coeffs, m)
                    for v in fixed:
                        assert times(u, v, coeffs, m) == _mulmod_charpoly(
                            u, v, coeffs, m), (k, m, u, v, coeffs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_steps_against_a_plain_step(data):
    k = data.draw(st.integers(2, BOUND + 1), label="k")
    m = data.draw(st.sampled_from(MODULI), label="m")
    backward = data.draw(elements(k), label="backward")
    window = data.draw(elements(k), label="window")
    count = data.draw(st.integers(0, 3 * k + 5), label="count")
    ref = plain_steps(backward, window, count, m)
    # mod m the step reduces the window it is given, entries >= m and negative ones too
    assert list(islice(_steps(backward, window, m), count)) == (
        ref if m is None else [x % m for x in ref])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_short_run_reads_only_its_head(data):
    # terms_from reads its first min(count, k) terms off x^floor(n/2) and
    # hands the step that short window: with count < k no further term is
    # asked for, so the window is never unpacked into k locals
    k = data.draw(st.integers(2, BOUND + 1), label="k")
    coeffs = data.draw(st.tuples(*[st.integers(-9, 9)] * (k - 1), st.integers(-9, 9).filter(bool)),
                       label="coeffs")
    initial = data.draw(st.none() | st.tuples(*[st.integers(-2 ** 70, 2 ** 70)] * k),
                        label="initial")
    spec = SequenceSpec(coeffs, initial)
    n = data.draw(st.integers(0, 200), label="n")
    count = data.draw(st.integers(0, k - 1), label="count")
    m = data.draw(st.sampled_from(MODULI), label="m")
    ref = naive_terms(coeffs, n + count, initial)[n:]
    assert terms_from(spec, n, count, m) == (ref if m is None else [x % m for x in ref])


def test_a_short_window_is_never_unpacked():
    for k in range(2, BOUND + 2):
        backward = tuple(range(1, k + 1))
        for m in MODULI:
            for short in range(k):
                window = tuple(range(short))
                assert list(islice(_steps(backward, window, m), short)) == (
                    list(window) if m is None else [x % m for x in window])


def test_above_the_bound_no_kernel_is_generated(capped_python):
    # a product kernel's source grows as k^2: compiling one at k = 200
    # took 0.6 s and 150 MB.  Above the bound the loops run, so a k = 200
    # power and run of terms fit in a small address space and leave no
    # kernel behind.
    script = """
from recurra import recurrence
from recurra.recurrence import SequenceSpec, terms_mod, x_power
k, m, n = 200, 10 ** 9 + 7, 10 ** 18
spec = SequenceSpec((1,) * (k - 1) + (3,))
c, c1 = x_power(spec, n, m), x_power(spec, 1000, m)
assert recurrence._mulmod_charpoly(c, c1, spec.coeffs, m) == x_power(spec, n + 1000, m)
d = terms_mod(spec, 1000 + 2 * k, m)
assert all(sum(map(int.__mul__, c1, d[s:s + k])) % m == d[1000 + s] for s in range(k))
print(sorted(recurrence._kernels))
"""
    proc = capped_python("-c", script, cap_mb=256, cpu_s=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
