"""Counting systems as observation instruments.

The weak-arithmetic tables (many + 1 = many, inf + inf = inf, aleph0 + 2 =
aleph0, C + aleph0 = C) are frozen verbatim; the structural invariants
(monotonicity of observation, refinement between systems, commutativity
and associativity of token addition) run over small pools and hypothesis
samples.
"""

import pytest
from hypothesis import given, strategies as st

from grosscalc import errors
from grosscalc.gnum import (
    CritRef,
    ExpCount,
    Fraction,
    G,
    Ordering,
    compare,
    fin,
    gterm,
    pow_count,
    sub,
)
from grosscalc.observer import (
    ALEPH0,
    CALCULUS_INFINITY,
    CANTOR,
    CONTINUUM,
    CountingSystem,
    ExactToken,
    GROSSONE_SYSTEM,
    INFINITY,
    MANY,
    MANY_REALLY_MANY,
    MUNDURUKU,
    NamedToken,
    PIRAHA,
    SOME_NOT_MANY,
    SYSTEMS,
    distinguishable,
    observe,
    token_order,
    tokens_equal,
    weak_add,
)

TWO_POW_G = pow_count(2, G)
TEN_POW_2G = pow_count(10, 2 * G)
CRIT_POW = pow_count(10, CritRef(10, G, 0))

# counts in increasing order, finite through infinite; the critical power
# is only partially ordered against its neighbours (its defining interval
# (G/10, G] straddles G/2 and G - 1), so pair loops skip unresolved pairs
POOL = (
    fin(0),
    fin(1),
    fin(2),
    fin(3),
    fin(5),
    fin(6),
    fin(100),
    fin(101),
    fin(10**6),
    G / 2,
    G - 1,
    CRIT_POW,
    G,
    G + 1,
    2 * G + 1,
    G**2,
    TWO_POW_G,
    TEN_POW_2G,
)


class TestObserve:
    def test_piraha_exact_range(self):
        assert observe(PIRAHA, 0).exact == fin(0)
        assert observe(PIRAHA, 1).exact == fin(1)
        assert observe(PIRAHA, 2).exact == fin(2)

    def test_piraha_everything_else_is_many(self):
        for v in (3, 4, 100, G, G**2, TWO_POW_G):
            assert observe(PIRAHA, v).token is MANY

    def test_munduruku_bands(self):
        for n in range(6):
            assert observe(MUNDURUKU, n).exact == fin(n)
        assert observe(MUNDURUKU, 6).token is SOME_NOT_MANY
        assert observe(MUNDURUKU, 100).token is SOME_NOT_MANY
        assert observe(MUNDURUKU, 101).token is MANY_REALLY_MANY
        assert observe(MUNDURUKU, G).token is MANY_REALLY_MANY
        assert observe(MUNDURUKU, TWO_POW_G).token is MANY_REALLY_MANY

    def test_calculus_collapses_the_infinite(self):
        assert observe(CALCULUS_INFINITY, 7).exact == fin(7)
        assert observe(CALCULUS_INFINITY, 10**9).exact == fin(10**9)
        for v in (G, G / 2, G**2, CRIT_POW, TWO_POW_G):
            assert observe(CALCULUS_INFINITY, v).token is INFINITY

    def test_cantor_countable_side(self):
        for v in (G / 2, G - 1, G, G + 1, 2 * G + 1, G**2, gterm(1, G)):
            assert observe(CANTOR, v).token is ALEPH0

    def test_cantor_critical_power_is_countable(self):
        # b^k1 never exceeds its finite... its polynomial target, so it
        # sits on the countable side of the split
        assert observe(CANTOR, CRIT_POW).token is ALEPH0

    def test_cantor_continuum_side(self):
        for v in (TWO_POW_G, TEN_POW_2G, pow_count(10, G / 2)):
            assert observe(CANTOR, v).token is CONTINUUM
        assert observe(CANTOR, ExpCount(Fraction(2), 10, 2 * G)).token is CONTINUUM
        assert observe(CANTOR, sub(pow_count(10, G), fin(1))).token is CONTINUUM

    def test_cantor_finite_stays_exact(self):
        assert observe(CANTOR, 10**6).exact == fin(10**6)

    def test_grossone_is_lossless(self):
        for v in POOL:
            assert observe(GROSSONE_SYSTEM, v).exact == v

    def test_observation_renders_its_token(self):
        assert str(observe(GROSSONE_SYSTEM, G + 1)) == "G + 1"
        assert str(observe(PIRAHA, 9)) == "many"
        assert str(observe(CANTOR, TWO_POW_G)) == "C"

    def test_negative_counts_rejected(self):
        with pytest.raises(errors.NegativeCount):
            observe(PIRAHA, -1)
        with pytest.raises(errors.NegativeCount):
            observe(CANTOR, fin(1) - G)

    def test_fractional_counts_rejected(self):
        with pytest.raises(errors.NonIntegralCount):
            observe(MUNDURUKU, Fraction(1, 2))
        with pytest.raises(errors.NonIntegralCount):
            observe(CANTOR, gterm(1, fin(-1)))


class TestWeakAdditionTables:
    def test_piraha_table(self):
        assert weak_add(PIRAHA, MANY, 1) is MANY
        assert weak_add(PIRAHA, MANY, 2) is MANY
        assert weak_add(PIRAHA, MANY, MANY) is MANY

    def test_piraha_exact_sums_degrade_by_reobservation(self):
        assert weak_add(PIRAHA, 1, 1) == ExactToken(fin(2))
        assert weak_add(PIRAHA, 2, 1) is MANY
        assert weak_add(PIRAHA, 2, 2) is MANY

    def test_munduruku_table_mirrors_the_cardinal_one(self):
        # same shape as the aleph0/C table, one rung down
        assert weak_add(MUNDURUKU, SOME_NOT_MANY, 1) is SOME_NOT_MANY
        assert weak_add(MUNDURUKU, SOME_NOT_MANY, 2) is SOME_NOT_MANY
        assert weak_add(MUNDURUKU, MANY_REALLY_MANY, 1) is MANY_REALLY_MANY
        assert weak_add(MUNDURUKU, MANY_REALLY_MANY, 2) is MANY_REALLY_MANY
        assert weak_add(MUNDURUKU, MANY_REALLY_MANY, SOME_NOT_MANY) is MANY_REALLY_MANY

    def test_calculus_table(self):
        assert weak_add(CALCULUS_INFINITY, INFINITY, 1) is INFINITY
        assert weak_add(CALCULUS_INFINITY, INFINITY, 2) is INFINITY
        assert weak_add(CALCULUS_INFINITY, INFINITY, INFINITY) is INFINITY
        assert weak_add(CALCULUS_INFINITY, 3, 4) == ExactToken(fin(7))

    def test_countable_cardinal_table(self):
        assert weak_add(CANTOR, ALEPH0, 1) is ALEPH0
        assert weak_add(CANTOR, ALEPH0, 2) is ALEPH0
        assert weak_add(CANTOR, ALEPH0, ALEPH0) is ALEPH0

    def test_continuum_cardinal_table(self):
        assert weak_add(CANTOR, CONTINUUM, 1) is CONTINUUM
        assert weak_add(CANTOR, CONTINUUM, 2) is CONTINUUM
        assert weak_add(CANTOR, CONTINUUM, ALEPH0) is CONTINUUM
        assert weak_add(CANTOR, CONTINUUM, CONTINUUM) is CONTINUUM

    def test_grossone_addition_never_degrades(self):
        assert weak_add(GROSSONE_SYSTEM, G, 1) == ExactToken(G + 1)
        assert weak_add(GROSSONE_SYSTEM, G, G) == ExactToken(2 * G)
        assert weak_add(GROSSONE_SYSTEM, G**2, 2 * G + 1) == ExactToken((G + 1) ** 2)

    def test_grossone_propagates_unrepresentable_sums(self):
        with pytest.raises(errors.UnsupportedSum):
            weak_add(GROSSONE_SYSTEM, TWO_POW_G, pow_count(3, G))


class TestMembership:
    def test_exact_tokens_beyond_the_inventory(self):
        with pytest.raises(errors.ForeignToken):
            weak_add(PIRAHA, 3, 1)
        with pytest.raises(errors.ForeignToken):
            weak_add(MUNDURUKU, 6, 1)
        with pytest.raises(errors.ForeignToken):
            weak_add(CANTOR, ExactToken(G), 1)

    def test_named_tokens_of_other_systems(self):
        with pytest.raises(errors.ForeignToken):
            weak_add(CANTOR, MANY, 1)
        with pytest.raises(errors.ForeignToken):
            weak_add(GROSSONE_SYSTEM, MANY, 1)
        with pytest.raises(errors.ForeignToken):
            weak_add(CALCULUS_INFINITY, ALEPH0, INFINITY)

    def test_vague_tokens_are_system_bound_even_when_homonymous(self):
        with pytest.raises(errors.ForeignToken):
            weak_add(PIRAHA, NamedToken("aleph0"), 1)


class TestDistinguishability:
    def test_three_versus_four(self):
        assert not distinguishable(PIRAHA, 3, 4)
        assert distinguishable(MUNDURUKU, 3, 4)
        assert distinguishable(GROSSONE_SYSTEM, 3, 4)

    def test_estimation_band_blurs(self):
        assert not distinguishable(MUNDURUKU, 50, 60)
        assert distinguishable(MUNDURUKU, 5, 6)
        assert distinguishable(CALCULUS_INFINITY, 50, 60)

    def test_infinite_counts(self):
        assert not distinguishable(CALCULUS_INFINITY, G, G**2)
        assert not distinguishable(CANTOR, G, G**2)
        assert not distinguishable(CANTOR, G, 2 * G + 1)
        assert distinguishable(CANTOR, G, TWO_POW_G)
        assert distinguishable(GROSSONE_SYSTEM, G, G + 1)
        assert distinguishable(GROSSONE_SYSTEM, 2 * G + 1, G**2)

    def test_refinement_chain(self):
        # whatever a weaker system separates, every stronger one separates
        chain = (PIRAHA, MUNDURUKU, CALCULUS_INFINITY, CANTOR, GROSSONE_SYSTEM)
        for i, u in enumerate(POOL):
            for v in POOL[i + 1 :]:
                verdicts = []
                try:
                    for sys in chain:
                        verdicts.append(distinguishable(sys, u, v))
                except errors.Undetermined:
                    continue
                seen = False
                for sys, now in zip(chain, verdicts):
                    assert not (seen and not now), (sys, u, v)
                    seen = seen or now


class TestMonotonicity:
    def test_observation_never_misorders(self):
        for sys in SYSTEMS:
            for i, u in enumerate(POOL):
                for v in POOL[i + 1 :]:
                    try:
                        assert compare(u, v) is Ordering.LESS
                        got = token_order(
                            sys, observe(sys, u).token, observe(sys, v).token
                        )
                    except errors.Undetermined:
                        continue
                    assert got is not Ordering.GREATER, (sys, u, v)


def _token_pool(sys):
    if sys is PIRAHA:
        return [ExactToken(fin(n)) for n in range(3)] + [MANY]
    if sys is MUNDURUKU:
        return [ExactToken(fin(n)) for n in range(6)] + [SOME_NOT_MANY, MANY_REALLY_MANY]
    if sys is CALCULUS_INFINITY:
        return [ExactToken(fin(n)) for n in (0, 1, 7, 500)] + [INFINITY]
    if sys is CANTOR:
        return [ExactToken(fin(n)) for n in (0, 2, 41)] + [ALEPH0, CONTINUUM]
    return [ExactToken(v) for v in (fin(0), fin(3), G, 2 * G + 1, G**2)]


_CASES = [(sys, a, b, c) for sys in SYSTEMS for a in _token_pool(sys)
          for b in _token_pool(sys) for c in _token_pool(sys)[:1]]


@given(st.sampled_from(_CASES))
def test_weak_addition_commutes(case):
    sys, a, b, _ = case
    assert tokens_equal(weak_add(sys, a, b), weak_add(sys, b, a))


@given(st.sampled_from(_CASES), st.data())
def test_weak_addition_associates(case, data):
    sys, a, b, _ = case
    c = data.draw(st.sampled_from(_token_pool(sys)))
    left = weak_add(sys, weak_add(sys, a, b), c)
    right = weak_add(sys, a, weak_add(sys, b, c))
    assert tokens_equal(left, right)


@given(st.sampled_from([(sys, t) for sys in SYSTEMS for t in _token_pool(sys)
                        if isinstance(t, NamedToken)]))
def test_vague_bands_absorb_themselves(case):
    sys, t = case
    assert weak_add(sys, t, t) is t
