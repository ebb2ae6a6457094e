"""Tests for Options scaling/validation and DeviceProfile scaling."""

import pytest

from repro.engines import (ABLATION_STAGES, bolt_ablation_options, bolt_options,
                        hyperbolt_options, rocksbolt_options)
from repro.engines import hyperleveldb_options, leveldb_options, rocksdb_options
from repro.lsm import LEVELDB_FORMAT, Options, ROCKSDB_FORMAT
from repro.storage import SATA_SSD

MB = 1 << 20


class TestOptionsValidation:
    def test_defaults_valid(self):
        Options().validate()

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Options(memtable_size=0).validate()

    def test_slowdown_above_stop_rejected(self):
        with pytest.raises(ValueError):
            Options(l0_slowdown_trigger=20, l0_stop_trigger=10).validate()

    def test_stop_below_compaction_trigger_rejected(self):
        with pytest.raises(ValueError):
            Options(l0_compaction_trigger=8, l0_slowdown_trigger=2,
                    l0_stop_trigger=4).validate()

    def test_stop_below_trigger_ok_when_stop_disabled(self):
        Options(l0_compaction_trigger=8, l0_slowdown_trigger=2,
                l0_stop_trigger=4, enable_l0_stop=False).validate()

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            Options(max_levels=1).validate()


class TestOptionsScaling:
    def test_byte_fields_divide(self):
        options = Options(memtable_size=64 * MB, sstable_size=2 * MB,
                          level1_max_bytes=10 * MB).scaled(64)
        assert options.memtable_size == MB
        assert options.sstable_size == 2 * MB // 64
        assert options.level1_max_bytes == 10 * MB // 64

    def test_counts_and_triggers_unchanged(self):
        options = Options().scaled(256)
        assert options.l0_slowdown_trigger == Options().l0_slowdown_trigger
        assert options.max_open_files == Options().max_open_files
        assert options.level_size_multiplier == 10

    def test_slowdown_sleep_scales(self):
        options = Options(slowdown_sleep=1e-3).scaled(100)
        assert options.slowdown_sleep == pytest.approx(1e-5)

    def test_scale_one_is_identity_for_bytes(self):
        assert Options().scaled(1).memtable_size == Options().memtable_size

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            Options().scaled(0)

    def test_max_bytes_for_level_grows_exponentially(self):
        options = Options(level1_max_bytes=10, level_size_multiplier=10)
        assert options.max_bytes_for_level(1) == 10
        assert options.max_bytes_for_level(2) == 100
        assert options.max_bytes_for_level(3) == 1000
        assert options.max_bytes_for_level(0) == float("inf")

    def test_copy_overrides(self):
        options = Options().copy(sstable_size=12345)
        assert options.sstable_size == 12345
        assert Options().sstable_size != 12345


class TestBoltOverlay:
    """The four BoLT factories lay the same five fields over their base
    engine's options; the values below are the pre-overlay factories'."""

    #: scale -> (sstable_size, group_compaction_bytes)
    SIZES = {1: (1 * MB, 64 * MB), 256: (4096, 262144)}

    @pytest.mark.parametrize("scale", sorted(SIZES))
    @pytest.mark.parametrize("factory, base", [
        (bolt_options, leveldb_options),
        (hyperbolt_options, hyperleveldb_options),
        (rocksbolt_options, rocksdb_options)])
    def test_full_configurations(self, factory, base, scale):
        lsst, group = self.SIZES[scale]
        assert factory(scale) == base(scale).copy(
            sstable_size=lsst, use_compaction_file=True,
            group_compaction_bytes=group, enable_settled_compaction=True,
            enable_fd_cache=True)
        # Keyword knobs scale too, 0 turns grouping off, overrides win.
        assert factory(scale, logical_sstable=2 * MB, group_bytes=0,
                       settled=False, fd_cache=False, wal_sync=True,
                       use_compaction_file=False) == base(scale).copy(
            sstable_size=2 * lsst, use_compaction_file=False,
            group_compaction_bytes=0, enable_settled_compaction=False,
            enable_fd_cache=False, wal_sync=True)

    @pytest.mark.parametrize("scale", sorted(SIZES))
    @pytest.mark.parametrize("base_name, base", [
        ("leveldb", leveldb_options), ("hyperleveldb", hyperleveldb_options)])
    def test_every_ablation_stage(self, base_name, base, scale):
        lsst, group = self.SIZES[scale]
        assert bolt_ablation_options("stock", scale, base_name) == base(scale)
        for index, stage in enumerate(ABLATION_STAGES[1:], start=1):
            assert bolt_ablation_options(
                stage, scale, base_name, wal_sync=True) == base(scale).copy(
                sstable_size=lsst, use_compaction_file=True,
                group_compaction_bytes=group if index >= 2 else 0,
                enable_settled_compaction=index >= 3,
                enable_fd_cache=index >= 4, wal_sync=True), stage


class TestTableFormats:
    def test_paper_overheads(self):
        """§4.3.3: ~100 extra bytes/record for LevelDB, ~24 for RocksDB."""
        assert LEVELDB_FORMAT.per_record_overhead == 100
        assert ROCKSDB_FORMAT.per_record_overhead == 24


class TestDeviceScaling:
    def test_fixed_costs_shrink_bandwidth_constant(self):
        scaled = SATA_SSD.scaled(256)
        assert scaled.seq_write_bw == SATA_SSD.seq_write_bw
        assert scaled.seq_read_bw == SATA_SSD.seq_read_bw
        assert scaled.barrier_latency == pytest.approx(
            SATA_SSD.barrier_latency / 256)
        assert scaled.rand_read_latency == pytest.approx(
            SATA_SSD.rand_read_latency / 256)
        assert scaled.write_ramp_bytes == SATA_SSD.write_ramp_bytes // 256

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            SATA_SSD.scaled(0)

    def test_barrier_ramp_penalty_bounded(self, env, run):
        """A barrier's ramp penalty saturates at write_ramp_bytes: big
        flushes approach full bandwidth."""
        from repro.storage import BlockDevice
        from repro.sim import Environment

        def flush_time(nbytes):
            local_env = Environment()
            dev = BlockDevice(local_env, SATA_SSD)
            local_env.run_until(local_env.process(dev.barrier(nbytes)))
            return local_env.now

        ramp = SATA_SSD.write_ramp_bytes
        small_efficiency = (1 * MB) / (flush_time(1 * MB)
                                       * SATA_SSD.seq_write_bw)
        big_efficiency = (64 * MB) / (flush_time(64 * MB)
                                      * SATA_SSD.seq_write_bw)
        assert small_efficiency < 0.6      # shallow queue: ~half speed
        assert big_efficiency > 0.85       # saturated
