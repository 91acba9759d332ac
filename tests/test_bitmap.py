"""Coverage-map bookkeeping tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.coverage.bitmap import (
    VirginMap,
    classify_count,
    classify_hits,
)


def test_bucket_boundaries():
    expected = {
        0: 0, 1: 1, 2: 2, 3: 4, 4: 8, 7: 8, 8: 16, 15: 16,
        16: 32, 31: 32, 32: 64, 127: 64, 128: 128, 100000: 128,
    }
    for count, bucket in expected.items():
        assert classify_count(count) == bucket, count


@given(st.integers(min_value=1, max_value=1 << 20))
def test_buckets_are_single_bits(count):
    bucket = classify_count(count)
    assert bucket != 0
    assert bucket & (bucket - 1) == 0  # power of two


@given(st.integers(min_value=1, max_value=1 << 16), st.integers(min_value=0, max_value=1 << 16))
def test_buckets_monotonic(a, b):
    low, high = sorted((a, a + b))
    assert classify_count(low) <= classify_count(high)


def test_classify_hits_maps_counts():
    assert classify_hits({5: 1, 9: 200}) == {5: 1, 9: 128}


def test_classify_hits_agrees_with_classify_count():
    hits = dict(enumerate(range(-2, 5001)))
    assert classify_hits(hits) == {idx: classify_count(c) for idx, c in hits.items()}


def test_virgin_first_probe_is_new():
    virgin = VirginMap()
    assert virgin.probe({3: 1}) == (True, True)


def test_virgin_merge_then_same_not_new():
    virgin = VirginMap()
    virgin.merge({3: 1})
    assert virgin.probe({3: 1}) == (False, False)


def test_new_bucket_without_new_index():
    virgin = VirginMap()
    virgin.merge({3: 1})
    new_idx, new_bucket = virgin.probe({3: 2})
    assert not new_idx
    assert new_bucket


def test_new_index_dominates():
    virgin = VirginMap()
    virgin.merge({3: 1})
    assert virgin.probe({3: 1, 4: 1}) == (True, True)


def test_coverage_count_counts_indices():
    virgin = VirginMap()
    virgin.merge({1: 1, 2: 4})
    virgin.merge({1: 128})
    assert virgin.coverage_count() == 2


def test_copy_is_independent():
    virgin = VirginMap()
    virgin.merge({1: 1})
    clone = virgin.copy()
    clone.merge({2: 1})
    assert virgin.coverage_count() == 1
    assert clone.coverage_count() == 2


@given(st.dictionaries(st.integers(0, 100), st.integers(1, 300), max_size=20))
def test_probe_after_merge_never_new(hits):
    virgin = VirginMap()
    classified = classify_hits(hits)
    virgin.merge(classified)
    assert virgin.probe(classified) == (False, False)
