"""verify's random draws and counterexamples stay fixed while the checks'
internals change: the generator state each suite leaves behind, and the
FAIL lines two planted faults produce, are pinned to the values of the
code before the checks read their terms off shared prefixes."""
import pytest

from recurra import lnumbers, ringcore, verify

from conftest import suite_draws_after

# rng.getrandbits(64) after the suite's generator is exhausted, seeds 0-2
DRAWS_AFTER = {
    "matrix": (15822119774451812899, 8100266124892751863, 7913993933179912036),
    "pisano": (2690389735271109190, 11856611163174680625, 6011964898198253259),
    "lnum": (7411152239515936276, 6120917388294804063, 3938161566985443385),
    "quat": (17987125071916581816, 11987940656695176082, 15051231079220408720),
    "cipher": (12220442571338394497, 13909723431074134951, 6079544501883074070),
}


@pytest.mark.parametrize("name", list(DRAWS_AFTER))
def test_each_suite_draws_what_it_drew_before(name):
    for seed, expected in enumerate(DRAWS_AFTER[name]):
        assert suite_draws_after(name, seed) == expected, (name, seed)


def _failures(suite, seed):
    return [r.line() for r in verify.run_suites([suite], seed) if not r.passed]


# the FAIL lines under conftest's wrong_pow
POW_FAULT = {
    0: ["FAIL matrix.power_structure seed=0 counterexample: a=(4, -4, -2) n=8",
        "FAIL matrix.state_steps seed=0 counterexample: a=(-2, -2, 5) n=18 r=15",
        "FAIL matrix.power_det seed=0 counterexample: a=(-4, 4, 2) n=3"],
    1: ["FAIL matrix.power_structure seed=1 counterexample: a=(-1, 4, -3, -5) n=8",
        "FAIL matrix.state_steps seed=1 counterexample: a=(-1, -5, -1, -1, -2) n=8 r=19",
        "FAIL matrix.power_det seed=1 counterexample: a=(-4, 4, -4, -1) n=3"],
    2: ["FAIL matrix.power_structure seed=2 counterexample: a=(2, 3, 3) n=8",
        "FAIL matrix.state_steps seed=2 counterexample: a=(-5, 1, 1, 5) n=8 r=16",
        "FAIL matrix.power_det seed=2 counterexample: a=(5, -1) n=8"],
}


@pytest.mark.parametrize("seed", range(3))
def test_a_wrong_matrix_power_fails_the_same_checks_on_the_same_case(wrong_pow, seed):
    assert _failures("matrix", seed) == POW_FAULT[seed]
    assert _failures("lnum", seed) == []


# a_25 one too large in the prefix of l = 1, which every check reads
L_TERMS_FAULT = [
    "FAIL lnum.square_sum seed={seed} counterexample: l=1 n=12",
    "FAIL lnum.index_addition seed={seed} counterexample: l=1 m={m} n={n}",
    "FAIL lnum.divisibility seed={seed} counterexample: l=1 d=5 n=25",
    "FAIL lnum.gap_identity seed={seed} counterexample: l=1 n=21 k=2",
    "FAIL lnum.triple_gap seed={seed} counterexample: l=1 n=1 k=3",
    "FAIL lnum.binet_float seed={seed} counterexample: l=1 n=25",
]
INDEX_ADDITION_CASE = {0: (25, 14), 1: (5, 25), 2: (5, 25)}


@pytest.mark.parametrize("seed", range(3))
def test_a_wrong_l_term_fails_the_same_checks_on_the_same_case(monkeypatch, seed):
    real_l_terms = lnumbers.l_terms

    def wrong_l_terms(spec, count):
        out = real_l_terms(spec, count)
        if spec.l == 1 and len(spec._prefix) > 25:
            prefix = list(spec._prefix)
            prefix[25] = lnumbers.term(spec, 25) + 1
            ringcore.set_field(spec, "_prefix", tuple(prefix))
            out = prefix[:count]
        return out

    monkeypatch.setattr(lnumbers, "l_terms", wrong_l_terms)
    m, n = INDEX_ADDITION_CASE[seed]
    assert _failures("lnum", seed) == [line.format(seed=seed, m=m, n=n)
                                       for line in L_TERMS_FAULT]
    assert _failures("matrix", seed) == []
