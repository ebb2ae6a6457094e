"""Unit and property tests for the bloom filter."""

import random

from hypothesis import given, settings, strategies as st

from repro.lsm import BloomFilter


class TestBloomFilter:
    def test_added_keys_always_found(self):
        bloom = BloomFilter(100)
        keys = [b"key%d" % i for i in range(100)]
        bloom.add_all(keys)
        assert all(bloom.may_contain(k) for k in keys)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.binary(min_size=1, max_size=24), min_size=1, max_size=200))
    def test_no_false_negatives(self, keys):
        bloom = BloomFilter(len(keys))
        bloom.add_all(keys)
        assert all(bloom.may_contain(k) for k in keys)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.binary(min_size=1, max_size=24), min_size=1, max_size=500),
           st.sampled_from([4, 10, 16]))
    def test_add_all_equals_repeated_add(self, keys, bits_per_key):
        # 1-500 keys: filters from the 64-bit minimum to 5 000 bits.
        keys = sorted(keys)
        batched = BloomFilter(len(keys), bits_per_key)
        batched.add(keys[0])  # add_all ORs into what is already set
        batched.add_all(keys[1:])
        one_by_one = BloomFilter(len(keys), bits_per_key)
        for key in keys:
            one_by_one.add(key)
        assert batched.encode() == one_by_one.encode()

    def test_false_positive_rate_near_one_percent(self):
        """Paper §4.1: 10 bloom bits ~= 1% false positives."""
        rng = random.Random(42)
        member = [b"in-%020d" % rng.randrange(10 ** 18) for _ in range(5000)]
        bloom = BloomFilter(len(member), bits_per_key=10)
        bloom.add_all(member)
        probes = [b"out-%020d" % rng.randrange(10 ** 18) for _ in range(5000)]
        fp = sum(bloom.may_contain(p) for p in probes) / len(probes)
        assert fp < 0.03  # generous bound around the nominal 1%

    def test_more_bits_fewer_false_positives(self):
        rng = random.Random(7)
        member = [b"m%018d" % rng.randrange(10 ** 15) for _ in range(2000)]
        probes = [b"p%018d" % rng.randrange(10 ** 15) for _ in range(2000)]
        rates = []
        for bits in (4, 10, 16):
            bloom = BloomFilter(len(member), bits_per_key=bits)
            bloom.add_all(member)
            rates.append(sum(bloom.may_contain(p) for p in probes))
        assert rates[0] >= rates[1] >= rates[2]

    def test_encode_decode_roundtrip(self):
        bloom = BloomFilter(50, bits_per_key=10)
        keys = [b"k%d" % i for i in range(50)]
        bloom.add_all(keys)
        restored = BloomFilter.decode(bloom.encode())
        assert all(restored.may_contain(k) for k in keys)
        assert restored.num_probes == bloom.num_probes

    def test_size_scales_with_keys(self):
        small = BloomFilter(10, bits_per_key=10)
        large = BloomFilter(10_000, bits_per_key=10)
        assert large.size_bytes > small.size_bytes
        assert large.size_bytes >= 10_000 * 10 // 8

    def test_empty_filter_has_minimum_size(self):
        bloom = BloomFilter(0)
        assert bloom.size_bytes >= 8
        assert not bloom.may_contain(b"anything")
