"""Property-based tests for the streaming quantile sketch.

The t-digest's contract (docs/STREAMING.md) is a *rank*-error bound: the
estimated ``q``-quantile must sit between the exact quantiles at ranks
``q ± rank_error_bound(q)``.  Hypothesis drives randomized streams
(mixed scales, duplicates, adversarial orderings) through that contract,
plus merge behaviour and the degenerate empty/single-element edges.

``ExactSum`` carries the stronger contract — bit-identical values across
any add/merge order — checked here over random float streams, and a sum
that leaves the finite doubles must end as ``math.fsum`` of its terms.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.streaming import ExactSum, TDigest

#: Well-scaled values typical of response times / stretches: positive,
#: spanning six orders of magnitude, no NaN/inf.
values = st.floats(min_value=1e-3, max_value=1e3)
streams = st.lists(values, min_size=1, max_size=800)


def exact_quantile(data, q):
    """The same quantile definition numpy's 'linear' interpolation uses."""
    data = sorted(data)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def assert_within_rank_bound(digest, data, q):
    """The *rank* of the estimate in the data must be within
    ``n·rank_error_bound(q)`` ranks of ``q·n`` — plus one rank of slack
    for discrete-sample granularity (with n=2 points no estimator can
    land between ranks)."""
    n = len(data)
    estimate = digest.quantile(q)
    below = sum(1 for x in data if x < estimate)
    at_most = sum(1 for x in data if x <= estimate)
    slack = n * digest.rank_error_bound(q) + 1.0
    lo_rank, hi_rank = q * n - slack, q * n + slack
    # The estimate's plausible rank interval [below, at_most] must
    # intersect the allowed window around the target rank.
    assert below <= hi_rank and at_most >= lo_rank, (
        f"q={q}: estimate {estimate} has rank interval "
        f"[{below}, {at_most}], outside [{lo_rank:.3f}, {hi_rank:.3f}] "
        f"(n={n}, bound {digest.rank_error_bound(q)})"
    )


QS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


class TestTDigestRankError:
    @given(data=streams)
    @settings(max_examples=60, deadline=None)
    def test_estimates_within_rank_bound(self, data):
        digest = TDigest()
        for x in data:
            digest.add(x)
        for q in QS:
            assert_within_rank_bound(digest, data, q)

    @given(data=streams, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_order_of_arrival_does_not_break_the_bound(self, data, seed):
        shuffled = list(data)
        random.Random(seed).shuffle(shuffled)
        digest = TDigest()
        for x in shuffled:
            digest.add(x)
        for q in QS:
            assert_within_rank_bound(digest, data, q)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2000, 4000))
    @settings(max_examples=5, deadline=None)
    def test_memory_stays_bounded_on_long_streams(self, seed, n):
        # A seed, not a drawn list: hypothesis caps generated-input
        # entropy well below a useful "long stream".
        rng = random.Random(seed)
        data = [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
        digest = TDigest()
        for x in data:
            digest.add(x)
        digest._compress()
        # The q(1-q) scale function keeps O(δ·log(n/δ)) centroids — the
        # price of its extra-tight tail quantiles (docs/STREAMING.md).
        limit = digest.compression * (2.0 + math.log(n / digest.compression))
        assert digest.centroid_count <= limit
        for q in QS:
            assert_within_rank_bound(digest, data, q)

    def test_extremes_are_exact(self):
        data = [float(i) for i in range(10_000)]
        digest = TDigest()
        for x in data:
            digest.add(x)
        assert digest.quantile(0.0) == 0.0
        assert digest.quantile(1.0) == 9999.0

    def test_duplicates_collapse_to_the_value(self):
        digest = TDigest()
        for _ in range(5000):
            digest.add(42.0)
        for q in QS:
            assert digest.quantile(q) == 42.0


class TestTDigestMerge:
    @given(a=streams, b=streams)
    @settings(max_examples=40, deadline=None)
    def test_merge_respects_the_bound(self, a, b):
        left, right = TDigest(), TDigest()
        for x in a:
            left.add(x)
        for x in b:
            right.add(x)
        left.merge(right)
        pooled = a + b
        for q in QS:
            assert_within_rank_bound(left, pooled, q)

    @given(a=streams, b=streams)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative_within_the_bound(self, a, b):
        ab_l, ab_r = TDigest(), TDigest()
        ba_l, ba_r = TDigest(), TDigest()
        for x in a:
            ab_l.add(x)
            ba_r.add(x)
        for x in b:
            ab_r.add(x)
            ba_l.add(x)
        ab_l.merge(ab_r)  # merge(a, b)
        ba_l.merge(ba_r)  # merge(b, a)
        pooled = a + b
        # Both orders must satisfy the rank bound against the pooled data;
        # internal centroids may differ, estimates stay in the window.
        for q in QS:
            assert_within_rank_bound(ab_l, pooled, q)
            assert_within_rank_bound(ba_l, pooled, q)

    @given(data=streams, parts=st.integers(min_value=2, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_sharded_merge_matches_pooled_bound(self, data, parts):
        """Splitting a stream across workers and merging (the jobs=N
        path) must estimate as well as one digest over the whole stream."""
        shards = [TDigest() for _ in range(parts)]
        for i, x in enumerate(data):
            shards[i % parts].add(x)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        for q in QS:
            assert_within_rank_bound(merged, data, q)

    def test_merge_with_empty_is_identity(self):
        digest = TDigest()
        for x in (1.0, 2.0, 3.0):
            digest.add(x)
        before = {q: digest.quantile(q) for q in QS}
        digest.merge(TDigest())
        assert {q: digest.quantile(q) for q in QS} == before


class TestTDigestEdges:
    def test_empty_sketch_raises(self):
        digest = TDigest()
        with pytest.raises(ValueError, match="empty sketch"):
            digest.quantile(0.5)

    def test_single_element_is_every_quantile(self):
        digest = TDigest()
        digest.add(7.25)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert digest.quantile(q) == 7.25

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            TDigest().add(float("nan"))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            TDigest().add(1.0, w=0.0)

    def test_rejects_out_of_range_q(self):
        digest = TDigest()
        digest.add(1.0)
        with pytest.raises(ValueError, match="q must be"):
            digest.quantile(1.5)

    def test_rejects_tiny_compression(self):
        with pytest.raises(ValueError, match="compression"):
            TDigest(compression=5)

    @given(data=streams)
    @settings(max_examples=20, deadline=None)
    def test_dict_round_trip_preserves_estimates(self, data):
        digest = TDigest()
        for x in data:
            digest.add(x)
        clone = TDigest.from_dict(digest.to_dict())
        for q in QS:
            assert clone.quantile(q) == digest.quantile(q)


#: Mixed-scale floats that stress cancellation in naive summation.
hard_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


#: Mixed magnitudes: signed zeros, subnormals, and values from 1e-300 to
#: 1e300, whose sums of at most a few hundred terms stay finite.
mixed_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e300, -1e300]),
    st.integers(-60, 60).map(lambda e: 1.5 * 2.0**e),
)


def _fast_two_sum_add(partials, x):
    """The partials update ``ExactSum.add`` made with a magnitude swap and
    Fast-TwoSum, kept as the reference for its TwoSum form."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _outcome(total):
    """``total()`` as text, or the type of the error it raises."""
    try:
        return repr(total())
    except (OverflowError, ValueError) as error:
        return type(error).__name__


def _ends_as_fsum(terms):
    """Add *terms* one by one; the sum, its ``to_list`` round trip and a
    merge of it must each end as ``math.fsum(terms)`` does."""
    acc = ExactSum()
    for x in terms:
        acc.add(x)
    merged = ExactSum()
    merged.merge(acc)
    expected = _outcome(lambda: math.fsum(terms))
    assert _outcome(lambda: acc.value) == expected
    assert _outcome(lambda: ExactSum.from_list(acc.to_list()).value) == expected
    assert _outcome(lambda: merged.value) == expected


#: Finite terms up to the largest double, so that some sums overflow.
huge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.5e308, -1.5e308, sys.float_info.max, -sys.float_info.max]),
)


class TestExactSum:
    @given(data=st.lists(hard_floats, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_fsum(self, data):
        acc = ExactSum()
        for x in data:
            acc.add(x)
        assert acc.value == math.fsum(data)

    @given(data=st.lists(hard_floats, min_size=2, max_size=200), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_order_independent(self, data, seed):
        shuffled = list(data)
        random.Random(seed).shuffle(shuffled)
        a, b = ExactSum(), ExactSum()
        for x in data:
            a.add(x)
        for x in shuffled:
            b.add(x)
        assert a.value == b.value

    @given(data=st.lists(hard_floats, min_size=2, max_size=200), parts=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_sharded_merge_is_bit_identical(self, data, parts):
        whole = ExactSum()
        for x in data:
            whole.add(x)
        shards = [ExactSum() for _ in range(parts)]
        for i, x in enumerate(data):
            shards[i % parts].add(x)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.value == whole.value

    def test_list_round_trip(self):
        acc = ExactSum()
        for x in (1e16, 1.0, -1e16, 2.0**-40):
            acc.add(x)
        assert ExactSum.from_list(acc.to_list()).value == acc.value

    @given(data=st.lists(mixed_floats, min_size=1, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_partials_match_fast_two_sum(self, data):
        # TwoSum and swap-then-Fast-TwoSum give the same exact error
        # terms, so every partial is the same double.
        acc, reference = ExactSum(), []
        for x in data:
            acc.add(x)
            _fast_two_sum_add(reference, x)
        assert [p.hex() for p in acc.to_list()] == [p.hex() for p in reference]

    @given(
        data=st.lists(
            st.one_of(mixed_floats, st.sampled_from([math.inf, -math.inf, math.nan])),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_non_finite_terms_end_as_fsum(self, data):
        _ends_as_fsum(data)

    @given(data=st.lists(huge_floats, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_finite_terms_end_as_fsum(self, data):
        _ends_as_fsum(data)

    @pytest.mark.parametrize(
        "terms, expected",
        [
            ([1.5e308, 1.5e308], "OverflowError"),
            ([-1.5e308, -1.5e308], "OverflowError"),
            # fsum raises at the overflowing term, though the total fits.
            ([1e308, 1e308, -1e308], "OverflowError"),
            ([1.0, math.inf], "inf"),
            ([math.inf, 1.0], "inf"),
            ([-math.inf, 2.0, 3.0], "-inf"),
            ([math.inf, math.inf], "inf"),
            ([math.inf, -math.inf], "ValueError"),
            ([1.0, -math.inf, 2.0, math.inf], "ValueError"),
            ([math.nan, 1.0], "nan"),
            ([1.0, math.nan, math.inf], "nan"),
            ([math.inf, math.nan, -math.inf], "ValueError"),
            # fsum starts its partials afresh after an infinite term...
            ([1e308, math.inf, 1e308], "inf"),
            # ...but an overflow among finite terms still raises.
            ([math.inf, 1e308, 1e308], "OverflowError"),
            ([1e308, 1e308, math.inf], "OverflowError"),
            ([1e308, 1e308, math.inf, -math.inf], "OverflowError"),
        ],
    )
    def test_non_finite_sum_table(self, terms, expected):
        assert _outcome(lambda: math.fsum(terms)) == expected
        _ends_as_fsum(terms)
