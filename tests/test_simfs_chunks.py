"""SimFS's chunked file store against a flat-bytes reference model.

A SimFS file is the list of chunks it was written as: appended ``bytes``
shared as given, one coalescing ``bytearray`` tail, and ``int`` runs of
zeros that hold no memory (punched pages, pages a crash reverted).  The reference
below keeps every file as one ``bytearray`` and spells out the
filesystem's semantics directly — preimages, epochs, submitted pages,
accumulating partial punches, the crash's survivor choice — so a random
mix of appends, positional writes, punches, barriers and crashes must
leave both with the same bytes and the same bookkeeping.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import SITE_TIMER, CrashInjector, FaultModel, FaultPlan
from repro.sim import Environment
from repro.storage import PAGE_SIZE, SATA_SSD, BlockDevice, SimFS
from repro.storage.filesystem import SECTOR_SIZE

NAMES = ("a", "b")


class FlatFile:
    def __init__(self):
        self.data = bytearray()
        self.dirty = {}
        self.dirty_epoch = {}
        self.submitted = set()
        self.punched = set()
        self.partial = {}
        self.durable_size = 0

    def allocated(self):
        return max(0, len(self.data) - len(self.punched) * PAGE_SIZE)

    def dirty_range(self, offset, length, epoch):
        for page in range(offset // PAGE_SIZE, (offset + length - 1) // PAGE_SIZE + 1):
            if page not in self.dirty:
                start = page * PAGE_SIZE
                self.dirty[page] = (
                    None if start >= self.durable_size
                    else bytes(self.data[start:min(start + PAGE_SIZE, self.durable_size)]))
            self.dirty_epoch[page] = epoch
            self.submitted.discard(page)
            self.punched.discard(page)
            self.partial.pop(page, None)


class FlatFS:
    """What SimFS does to bytes and bookkeeping, one bytearray per file."""

    def __init__(self):
        self.files = {name: FlatFile() for name in NAMES}
        self.epoch = 0

    def append(self, name, data):
        file = self.files[name]
        file.dirty_range(len(file.data), len(data), self.epoch)
        file.data += data

    def write_at(self, name, offset, data):
        file = self.files[name]
        file.dirty_range(offset, len(data), self.epoch)
        end = offset + len(data)
        if end > len(file.data):
            file.data += bytes(end - len(file.data))
        file.data[offset:end] = data

    def punch(self, name, offset, length):
        file = self.files[name]
        end = min(offset + length, len(file.data))
        freed = []
        for page in range(offset // PAGE_SIZE, (max(end, offset + 1) - 1) // PAGE_SIZE + 1):
            base = page * PAGE_SIZE
            lo, hi = max(offset, base), min(end, base + PAGE_SIZE)
            if lo >= hi:
                continue
            if hi - lo == PAGE_SIZE or page in file.punched:
                freed.append(page)
                continue
            covered = bytearray(PAGE_SIZE)
            file.partial.setdefault(page, []).append((lo - base, hi - base))
            for span_lo, span_hi in file.partial[page]:
                covered[span_lo:span_hi] = b"\x01" * (span_hi - span_lo)
            if all(covered):
                freed.append(page)
        for page in freed:
            file.punched.add(page)
            file.partial.pop(page, None)
            file.dirty.pop(page, None)
            file.data[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = bytes(PAGE_SIZE)

    def fsync(self, name):
        file = self.files[name]
        file.dirty.clear()
        file.dirty_epoch.clear()
        file.submitted.clear()
        file.durable_size = len(file.data)
        self.epoch += 1
        for other in self.files.values():
            if other.submitted:
                for page in other.submitted:
                    other.dirty.pop(page, None)
                    other.dirty_epoch.pop(page, None)
                other.submitted.clear()
                other.durable_size = len(other.data)

    def fdatabarrier(self, name):
        file = self.files[name]
        file.submitted.update(file.dirty)
        self.epoch += 1

    def crash(self, rng, survive, mode, torn_tail):
        dirty = [(file.dirty_epoch.get(page, 0), name, page)
                 for name, file in self.files.items() for page in file.dirty]
        if survive >= 1.0:
            survivors = {(n, p) for _e, n, p in dirty}
        elif survive <= 0.0:
            survivors = set()
        elif mode == "reorder":
            survivors = {(n, p) for _e, n, p in dirty if rng.random() < survive}
        else:
            target = sum(rng.random() < survive for _ in dirty)
            ordered = sorted(dirty, key=lambda item: item[0])
            if target < len(ordered):
                boundary = ordered[target][0]
                lo = min(i for i, item in enumerate(ordered) if item[0] == boundary)
                hi = max(i for i, item in enumerate(ordered) if item[0] == boundary) + 1
                middle = ordered[lo:hi]
                rng.shuffle(middle)
                ordered[lo:hi] = middle
            survivors = {(n, p) for _e, n, p in ordered[:target]}
        torn, keep = None, 0
        if torn_tail and dirty:
            order = {name: k for k, name in enumerate(NAMES)}
            _e, name, page = max(dirty, key=lambda item: (item[0], order[item[1]], item[2]))
            torn = (name, page)
            survivors.discard(torn)
            keep = rng.randrange(1, PAGE_SIZE // SECTOR_SIZE) * SECTOR_SIZE
        for name, file in self.files.items():
            for page, preimage in file.dirty.items():
                if (name, page) in survivors:
                    continue
                start = page * PAGE_SIZE
                end = min(start + PAGE_SIZE, len(file.data))
                prefix = b""
                if torn == (name, page):
                    prefix = bytes(file.data[start:min(start + keep, end)])
                file.data[start:end] = bytes(end - start)
                if preimage:
                    file.data[start:start + len(preimage)] = preimage
                file.data[start:start + len(prefix)] = prefix
            file.dirty.clear()
            file.dirty_epoch.clear()
            file.submitted.clear()
            file.durable_size = len(file.data)


def _run(env, gen):
    return env.run_until(env.process(gen))


def _held(file):
    return sum(len(chunk) for chunk in file.chunks if type(chunk) is not int)


def _check_layout(file):
    """The chunk list's own invariants."""
    assert len(file.chunks) == len(file.starts)
    offset = 0
    for k, (chunk, start) in enumerate(zip(file.chunks, file.starts)):
        assert start == offset
        length = chunk if type(chunk) is int else len(chunk)
        assert length > 0
        if type(chunk) is bytearray:
            assert k == len(file.chunks) - 1 and length <= PAGE_SIZE
        else:
            assert type(chunk) in (bytes, int)
        if k and type(chunk) is int:
            assert type(file.chunks[k - 1]) is not int  # zero runs merge
        offset += length
    assert offset == file.size


def _check_same(env, fs, handles, ref):
    for name in NAMES:
        file, flat = fs._files[name], ref.files[name]
        _check_layout(file)
        assert file.data == bytes(flat.data)
        assert file.size == handles[name].size == len(flat.data)
        assert file.allocated_bytes == flat.allocated()
        assert file.dirty == flat.dirty
        assert file.dirty_epoch == flat.dirty_epoch
        assert file.submitted == flat.submitted
        assert file.punched == flat.punched
        assert file.durable_size == flat.durable_size
        assert _held(file) <= file.allocated_bytes + PAGE_SIZE
        for edge in file.starts[1:]:  # reads that end or start at a chunk edge
            for lo, hi in ((edge - 1, edge), (edge - 1, edge + 1), (edge, edge + 1)):
                assert _run(env, fs.read(handles[name], lo, hi - lo)) == flat.data[lo:hi]
    assert fs.total_allocated_bytes() == sum(f.allocated() for f in ref.files.values())


def _check_image_shares(image, fs):
    """A crash image holds the live files' chunk objects, not copies."""
    for copy in image.files:
        live = fs._files[copy.name]
        assert len(copy.chunks) == len(live.chunks)
        for mine, theirs in zip(copy.chunks, live.chunks):
            if type(theirs) is bytearray:
                assert type(mine) is bytes and mine == theirs
            elif type(theirs) is bytes:
                assert mine is theirs


_SIZES = st.one_of(st.sampled_from([1, 7, 100, 511, PAGE_SIZE - 1, PAGE_SIZE,
                                    PAGE_SIZE + 1, 3 * PAGE_SIZE + 5]),
                   st.integers(1, 4 * PAGE_SIZE))
_OPS = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(NAMES), _SIZES),
    st.tuples(st.just("write_at"), st.sampled_from(NAMES), st.integers(0, 1 << 20), _SIZES),
    st.tuples(st.just("punch"), st.sampled_from(NAMES), st.integers(0, 1 << 20),
              st.integers(1, 4 * PAGE_SIZE)),
    st.tuples(st.sampled_from(["fsync", "fdatasync", "fdatabarrier"]), st.sampled_from(NAMES)),
    st.tuples(st.just("read"), st.sampled_from(NAMES), st.integers(0, 1 << 20),
              st.integers(1, 3 * PAGE_SIZE)),
    st.tuples(st.just("crash"), st.integers(0, 1 << 30),
              st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from(["epoch", "reorder"]),
              st.booleans()),
)


def _drive(ops, seed):
    env = Environment()
    fs = SimFS(env, BlockDevice(env, SATA_SSD))
    ref = FlatFS()
    handles = {name: _run(env, fs.create(name)) for name in NAMES}
    injector = CrashInjector(fs, FaultPlan(max_images=10 ** 6, max_per_site=None))
    payload = random.Random(seed)
    for op in ops:
        kind = op[0]
        if kind == "crash":
            _kind, crash_seed, survive, mode, torn = op
            fs.fault_site(SITE_TIMER)
            image = injector.images[-1]
            _check_image_shares(image, fs)
            model = FaultModel("m", survive, mode=mode, torn_tail=torn)
            _env, replica = image.materialize(model, random.Random(crash_seed))
            fs.crash(random.Random(crash_seed), survive, mode, torn)
            ref.crash(random.Random(crash_seed), survive, mode, torn)
            for name in NAMES:
                assert replica._files[name].data == bytes(ref.files[name].data)
                assert replica._files[name].allocated_bytes == ref.files[name].allocated()
            _check_same(env, fs, handles, ref)
            continue
        name = op[1]
        handle, size = handles[name], len(ref.files[name].data)
        if kind == "append":
            data = payload.randbytes(op[2])
            assert fs.append(handle, data) == size
            ref.append(name, data)
        elif kind == "write_at":
            offset = op[2] % (size + 2 * PAGE_SIZE)
            data = payload.randbytes(op[3])
            fs.write_at(handle, offset, data)
            ref.write_at(name, offset, data)
        elif kind == "punch":
            offset = op[2] % (size + 1)
            images = len(injector.images)
            fs.punch_hole(handle, offset, op[3])
            ref.punch(name, offset, op[3])
            assert len(injector.images) == images + 1
            _check_image_shares(injector.images[-1], fs)
        elif kind == "read":
            offset = op[2] % (size + 1)
            got = _run(env, fs.read(handle, offset, op[3]))
            assert got == bytes(ref.files[name].data[offset:offset + op[3]])
            assert type(got) is bytes
        elif kind == "fdatabarrier":
            _run(env, fs.fdatabarrier(handle))
            ref.fdatabarrier(name)
        else:
            _run(env, getattr(fs, kind)(handle))
            ref.fsync(name)
            _check_image_shares(injector.images[-1], fs)
        _check_same(env, fs, handles, ref)
    return fs


class TestChunkedFileModel:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OPS, max_size=40), st.integers(0, 1 << 30))
    def test_matches_flat_bytes(self, ops, seed):
        _drive(ops, seed)

    def test_seeded_long_run(self):
        rng = random.Random(20201207)
        ops = []
        for _ in range(1500):
            name = rng.choice(NAMES)
            roll = rng.random()
            size = rng.choice([rng.randrange(1, 200), rng.randrange(1, 5 * PAGE_SIZE)])
            if roll < 0.35:
                ops.append(("append", name, size))
            elif roll < 0.45:
                ops.append(("write_at", name, rng.randrange(1 << 20), size))
            elif roll < 0.65:
                ops.append(("punch", name, rng.randrange(1 << 20), rng.randrange(1, 3 * PAGE_SIZE)))
            elif roll < 0.8:
                ops.append((rng.choice(["fsync", "fdatasync", "fdatabarrier"]), name))
            elif roll < 0.97:
                ops.append(("read", name, rng.randrange(1 << 20), size))
            else:
                ops.append(("crash", rng.randrange(1 << 30), rng.choice([0.0, 0.5, 1.0]),
                            rng.choice(["epoch", "reorder"]), rng.random() < 0.5))
        _drive(ops, 7)


class TestChunkedFileMemory:
    def test_punched_pages_hold_no_bytes(self, env):
        fs = SimFS(env, BlockDevice(env, SATA_SSD))
        handle = _run(env, fs.create("c"))
        tables = [bytes([k + 1]) * (5 * PAGE_SIZE + 300) for k in range(4)]
        offsets = [fs.append(handle, table) for table in tables]
        file = handle._file
        assert [file.chunks[k] is tables[k] for k in range(4)] == [True] * 4  # no copy
        for k in (1, 2):
            fs.punch_hole(handle, offsets[k], len(tables[k]))
        assert _held(file) <= file.allocated_bytes + PAGE_SIZE
        assert file.chunks[0] is tables[0] and file.chunks[-1] is tables[3]
        assert sum(type(chunk) is int for chunk in file.chunks) == 1  # one merged hole
        expected = bytearray(b"".join(tables))
        freed = range(-(-offsets[1] // PAGE_SIZE), offsets[3] // PAGE_SIZE)  # 10 by coverage
        for page in freed:
            expected[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = bytes(PAGE_SIZE)
        assert file.punched == set(freed)
        assert file.data == expected

    def test_sub_page_appends_coalesce(self, env):
        fs = SimFS(env, BlockDevice(env, SATA_SSD))
        handle = _run(env, fs.create("wal"))
        records = [bytes([k % 250 + 1]) * 90 for k in range(200)]
        for record in records:
            fs.append(handle, record)
        file = handle._file
        assert file.data == b"".join(records)
        assert len(file.chunks) == -(-len(file.data) // (PAGE_SIZE // 90 * 90))
        assert all(type(chunk) is bytes for chunk in file.chunks[:-1])
        assert type(file.chunks[-1]) is bytearray
