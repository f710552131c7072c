"""Key tables, node energy state machine, and session-level behavior."""

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from wptsec import monitor as monitor_module
from wptsec import protocol
from wptsec.channel import (
    AntennaSpec,
    LeakageModel,
    LinkGeometry,
    LinkScenario,
    NoiseSpec,
    RectifierModel,
)
from wptsec.config import build_monitor, build_node, build_scenario, build_tables, load_config
from wptsec.errors import TableCapacityError, TableExhausted, TableTooLarge
from wptsec.monitor import (
    ACCEPTED,
    DECODED,
    NO_SYNC,
    PAYLOAD_INVALID,
    REJECTED_NO_SIGNAL,
    REJECTED_REPLAY,
    REJECTED_UNKNOWN_KEY,
    WAKE_TIMEOUT,
    AuthDecision,
    DecodeResult,
    decode_trace,
    verify,
)
from wptsec.protocol import (
    Attacker,
    MonitorConfig,
    NodeState,
    PvkTable,
    SessionEvent,
    SessionLog,
    fresh_session_scenario,
    generate_table,
    run_session,
)
from wptsec.waveform import build_frame

# flat 20% efficiency makes hand energy math easy: -10 dBm in -> 20 uW DC
FLAT_RECT = RectifierModel(efficiency_curve=((-60.0, 0.2), (60.0, 0.2)))


def anechoic_scenario(seed=0, **overrides) -> LinkScenario:
    params = dict(
        name="anechoic",
        topology="radiated",
        p_tx_dbm=15.0,
        rect=RectifierModel(),
        leakage=LeakageModel.coupling(-57.0, 15.0),
        noise=NoiseSpec(-90.0, seed),
        src_tx=AntennaSpec(2.5),
        node_antenna=AntennaSpec(9.2),
        mon_rx=AntennaSpec(9.2),
        dl=LinkGeometry(3.4, 868e6),
        ul=LinkGeometry(3.4, 868e6),
    )
    params.update(overrides)
    return LinkScenario(**params)


def session_parts(n_keys=8, seed=0):
    table = generate_table(n_keys, 2, rng_seed=seed)
    node = NodeState(table=table)
    monitor = MonitorConfig(table=table.copy())
    return node, monitor


def charging_session(node, *, rect=FLAT_RECT, seed=0, dt_s=0.01, **kwargs):
    """run_session on a wired link that feeds -10 dBm straight into the
    rectifier: 20 uW DC under FLAT_RECT."""
    scenario = LinkScenario(
        name="wired", topology="wired", p_tx_dbm=-10.0, rect=rect, noise=NoiseSpec(-90.0, seed)
    )
    monitor = MonitorConfig(table=node.table.copy())
    return run_session(scenario, node, Attacker(), monitor, dt_s=dt_s, **kwargs)


def assert_find_agrees(table: PvkTable, others: list[bytes]) -> None:
    """find agrees with a dict of the entries on every entry, on each of
    ``others``, and on every entry one byte short or long, in a table and
    its copy."""
    where = {code: i for i, code in enumerate(table.entries)}
    probes = list(where) + others
    for code in table.entries:
        probes += [code[:-1], code[1:], code + b"\x00", b"\x00" + code]
    for t in (table, table.copy()):
        assert [t.find(code) for code in probes] == [where.get(code) for code in probes]


def unused_indices(table: PvkTable) -> list[int]:
    """The reference scan that select_unused's Fenwick tree must agree with."""
    return [i for i in range(len(table)) if not table.is_used(i)]


def untouched(*tables: PvkTable) -> bool:
    """No entry of any of ``tables`` is used."""
    return all(t.n_unused == len(t) for t in tables)


def assert_selects_the_unused_pool(table: PvkTable) -> None:
    """select_unused at every rank, and the IndexError at the ranks just
    outside them, agree with the reference scan."""
    pool = unused_indices(table)
    assert table.n_unused == len(pool)
    assert [table.select_unused(k) for k in range(len(pool))] == pool
    for k in (-1, len(pool)):
        with pytest.raises(IndexError, match=re.escape(f"rank {k} outside [0, {len(pool)})")):
            table.select_unused(k)


def stable_sort_of_bytes(codes: list[bytes]) -> tuple[list[int], list[bytes]]:
    """The reference for protocol._sort_codes: a stable argsort of the codes
    as bytes (Python's sort is stable, and bytes compare as memcmp does),
    keeping the first occurrence of each code."""
    order = sorted(range(len(codes)), key=codes.__getitem__)
    kept = [i for k, i in enumerate(order) if k == 0 or codes[i] != codes[order[k - 1]]]
    return kept, [codes[i] for i in kept]


def provisioning_memory(n_keys: int, key_len: int, seed: int) -> tuple[int, int, int]:
    """(fresh, kept, peak) under tracemalloc: what a provisioned table keeps,
    what it keeps once a draw at rank 1 has built its rank tree, and the
    peak of provisioning. One draw beforehand keeps numpy's one-time
    generator set-up, about 0.64 MB, out of the figures."""
    np.random.default_rng(0).integers(0, 2**32, size=1, dtype=np.uint32)
    tracemalloc.start()
    try:
        table = generate_table(n_keys, key_len, rng_seed=seed)
        fresh, peak = tracemalloc.get_traced_memory()
        table.select_unused(1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == n_keys
    return fresh, kept, peak


class TestPvkTable:
    def test_generate_deterministic(self):
        a = generate_table(50, 2, rng_seed=9)
        b = generate_table(50, 2, rng_seed=9)
        assert a.entries == b.entries
        c = generate_table(50, 2, rng_seed=10)
        assert a.entries != c.entries

    def test_thousand_distinct_two_byte_codes(self):
        table = generate_table(1000, 2, rng_seed=4)
        assert len(set(table.entries)) == 1000

    def test_capacity_error(self):
        with pytest.raises(TableCapacityError):
            generate_table(70_000, 2, rng_seed=0)

    def test_table_past_the_key_cap_rejected(self):
        # the cap is checked before anything is drawn, so this allocates nothing
        protocol.check_table_shape(protocol.MAX_TABLE_KEYS, 8)
        with pytest.raises(TableTooLarge, match="4194304-key table cap"):
            protocol.check_table_shape(protocol.MAX_TABLE_KEYS + 1, 8)
        with pytest.raises(TableTooLarge):
            generate_table(10**16, 8, rng_seed=0)
        # a count the key length cannot hold is still named as such
        with pytest.raises(TableCapacityError):
            generate_table(10**20, 8, rng_seed=0)

    def test_argument_bounds(self):
        with pytest.raises(ValueError):
            generate_table(0, 2, rng_seed=0)
        with pytest.raises(ValueError):
            generate_table(1, 0, rng_seed=0)
        with pytest.raises(ValueError):
            generate_table(1, 65, rng_seed=0)

    def test_cursor_policy(self):
        # a sequential node emits the first unused key, wherever that is
        table = PvkTable(entries=[b"\x01", b"\x02", b"\x03"])
        node = NodeState(table=table, stored_energy_j=50e-6)
        log = charging_session(node)
        assert (log.emitted_key_index, log.emitted_code) == (0, b"\x01")
        table.mark_used(2)  # out-of-order use leaves index 1 first
        log = charging_session(node)
        assert (log.emitted_key_index, log.emitted_code) == (1, b"\x02")
        assert table.n_unused == 0
        with pytest.raises(TableExhausted):
            charging_session(node)

    def test_entries_unique_and_sized(self):
        with pytest.raises(ValueError):
            PvkTable(entries=[b"\x01", b"\x01"])
        with pytest.raises(ValueError):
            PvkTable(entries=[b""])

    def test_flags_have_one_writer(self):
        # a public used bytearray let table.used[0] = 1 flag a key past
        # n_unused and the rank tree: n_unused still read 4, and
        # select_unused(3) returned 4, an index past the table; a rebound
        # entries view would leave find searching the old sorted codes
        table = PvkTable(entries=[b"\x01", b"\x02", b"\x03", b"\x04"])
        with pytest.raises(AttributeError):
            table.used[0] = 1
        with pytest.raises(AttributeError):
            table.entries = [b"\x05", b"\x06", b"\x07", b"\x08"]
        assert table.entries == [b"\x01", b"\x02", b"\x03", b"\x04"]
        assert_selects_the_unused_pool(table)
        table.mark_used(0)
        assert_selects_the_unused_pool(table)
        assert table.select_unused(2) == 3

    def test_repr_does_not_spell_the_table(self):
        # a generated repr spelled every code and flag: 4,000,088 characters
        # for a 1,000,000-key table
        assert len(repr(generate_table(100_000, 4, rng_seed=1))) < 200

    def test_copy_is_independent(self):
        table = PvkTable(entries=[b"\x01", b"\x02"])
        clone = table.copy()
        table.mark_used(0)
        assert not clone.is_used(0)
        assert clone.select_unused(0) == 0

    @given(
        st.lists(st.booleans(), min_size=1, max_size=70).flatmap(
            lambda used: st.tuples(
                st.just(used),
                st.lists(st.integers(0, len(used) - 1), max_size=2 * len(used)),
            )
        )
    )
    def test_select_matches_the_unused_pool(self, case):
        used, marks = case
        table = PvkTable(entries=[i.to_bytes(1, "big") for i in range(len(used))])
        for index in np.flatnonzero(used):
            table.mark_used(int(index))
        for index in [None, *marks, *marks[:3]]:  # the tail marks entries again
            if index is not None:
                table.mark_used(index)
            pool = unused_indices(table)
            assert table.n_unused == len(pool)
            assert [table.select_unused(k) for k in range(len(pool))] == pool
            if pool:
                assert table.select_unused(0) == pool[0]
            with pytest.raises(IndexError):
                table.select_unused(len(pool))
        clone = table.copy()
        if pool:
            table.mark_used(pool[0])
            assert clone.n_unused == len(pool) and clone.select_unused(0) == pool[0]

    def test_mark_used_rejects_out_of_range_indices(self):
        table = PvkTable(entries=[b"\x01", b"\x02"])
        for index in (-1, 2):
            with pytest.raises(IndexError):
                table.mark_used(index)
        assert unused_indices(table) == [0, 1]

    @pytest.mark.parametrize(
        "n_keys, key_len",
        [
            (250, 1),
            (300, 2),
            (300, 3),
            (300, 4),
            (300, 5),
            (300, 7),
            (300, 8),
            (300, 64),
            (60_000, 2),
            (256, 1),
        ],
    )
    def test_bulk_draw_matches_per_key_draws(self, n_keys, key_len):
        # the per-key reference: one uint8 draw per key, first occurrence
        # kept; 250 of the 256 one-byte codes makes most draws duplicates,
        # all 256 of them is the whole code space, and 60,000 of the 65,536
        # two-byte codes takes one sort of a 163,000-code prefix (one seed:
        # its reference draws 161,644 keys one at a time)
        for seed in range(3 if n_keys < 1000 else 1):
            rng = np.random.default_rng(seed)
            codes: dict[bytes, None] = {}
            while len(codes) < n_keys:
                code = rng.integers(0, 256, size=key_len, dtype=np.uint8).tobytes()
                codes.setdefault(code)
            assert generate_table(n_keys, key_len, rng_seed=seed).entries == list(codes)

    def test_a_whole_two_byte_code_space_takes_a_few_sorts(self, monkeypatch):
        # redrawing only the codes still missing took 46,221 rounds for seed
        # 0, one sort each, and 10-58 s for seeds 0-2 on a 2-core VM; the
        # digests of the entries are those that way of provisioning gave
        digests = {
            0: "e0a21c7274ff967b2d596e715cd5d0b06a0986439500b7958a7bbdccafc967af",
            1: "a02ccf24955895e54ba801672a715be44bc5f911ff7e3c0fd920c1019128ed21",
            2: "072b367b6d0d00ed9f8d9707bd27ac6a5ed0ec1eb10214b13c9485d896d1e2b8",
        }
        sort_codes, calls = protocol._sort_codes, []

        def at_most_five_sorts(rows):
            calls.append(len(rows))
            if len(calls) > 5:
                raise AssertionError(f"a sixth sort, of {len(rows)} codes")
            return sort_codes(rows)

        monkeypatch.setattr(protocol, "_sort_codes", at_most_five_sorts)
        for seed, digest in digests.items():
            calls.clear()
            table = generate_table(65_536, 2, seed)
            assert hashlib.sha256(b"".join(table.entries)).hexdigest() == digest

    @pytest.mark.parametrize("key_len", [1, 2, 3, 4, 5, 8, 64])
    def test_constructor_sorts_as_provisioning_does(self, key_len):
        # PvkTable(entries) sorts the codes in table order, generate_table a
        # prefix of the draws: the same sorted codes and table indices
        table = generate_table(min(3000, 200**key_len), key_len, rng_seed=key_len)
        built = PvkTable(entries=list(table.entries))
        for ours, theirs in ((built._keys, table._keys), (built._at, table._at)):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sort_codes_agrees_with_a_stable_sort_of_bytes(self, data):
        # codes of 1-4 bytes take the integer sort, 5-64 the bytes sort;
        # small alphabets force repeats, zero bytes sit at either end, and a
        # 1-byte draw may hold the whole code space, shuffled, more than once
        key_len = data.draw(st.integers(1, 64), label="key_len")
        alphabet = data.draw(
            st.sampled_from([b"\x00", b"\x00\xff", b"\x01\x80\xfe", bytes(range(256))]),
            label="alphabet",
        )
        code = st.lists(st.sampled_from(alphabet), min_size=key_len, max_size=key_len).map(bytes)
        codes = data.draw(st.lists(code, max_size=200), label="codes")
        if key_len == 1:
            space = [bytes([b]) for b in range(256)]
            for _ in range(data.draw(st.integers(0, 2), label="whole spaces")):
                codes += data.draw(st.permutations(space))
        # the rows as generate_table hands them over: a view of the leading
        # bytes of rows of whole 4-byte words, or a contiguous array
        width = data.draw(st.sampled_from([key_len, 4 * -(-key_len // 4)]), label="width")
        wide = np.zeros((len(codes), width), dtype=np.uint8)
        wide[:, :key_len] = np.frombuffer(b"".join(codes), dtype=np.uint8).reshape(-1, key_len)
        order, keys = protocol._sort_codes(wide[:, :key_len])
        kept, sorted_codes = stable_sort_of_bytes(codes)
        assert order.dtype == np.int32 and order.tolist() == kept
        assert keys.dtype == np.dtype(f"S{key_len}") and keys.shape == (len(kept),)
        # compared as raw bytes, since a numpy bytes_ item drops trailing zeros
        assert keys.tobytes() == b"".join(sorted_codes)

    @pytest.mark.parametrize("n_keys, key_len", [(256, 1), (65_536, 2), (100_000, 3), (100_000, 4)])
    def test_integer_sort_of_a_provisioning_prefix(self, n_keys, key_len):
        # a whole code space's prefix, with most draws repeats, and a prefix
        # of the codes still missing
        rows = protocol._drawn_rows(3, 2 * n_keys, key_len)
        codes = [row.tobytes() for row in rows]
        order, keys = protocol._sort_codes(rows)
        kept, sorted_codes = stable_sort_of_bytes(codes)
        assert order.tolist() == kept
        assert keys.tobytes() == b"".join(sorted_codes)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_numpy_refuses_rejected_before_drawing(self, seed):
        # numpy's default_rng failed on them with "expected non-negative
        # integer" and a TypeError
        with pytest.raises(ValueError, match=f"rng_seed must be an integer >= 0, got {seed}"):
            generate_table(10, 2, seed)

    @pytest.mark.parametrize("key_len", [1, 2, 3, 4, 8, 64])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_find_agrees_with_a_dict_of_the_entries(self, key_len, data):
        # codes with zero bytes at either end, and many that share one
        # prefix, next to uniform ones
        prefix = data.draw(st.binary(max_size=key_len - 1))
        tail = st.binary(min_size=key_len - len(prefix), max_size=key_len - len(prefix))
        part = st.binary(max_size=key_len)
        code = st.one_of(
            st.binary(min_size=key_len, max_size=key_len),
            part.map(lambda b: b + bytes(key_len - len(b))),
            part.map(lambda b: bytes(key_len - len(b)) + b),
            tail.map(lambda b: prefix + b),
        )
        entries = data.draw(st.lists(code, unique=True, max_size=300))
        others = data.draw(st.lists(code, max_size=20))
        table = PvkTable(entries=entries)
        assert list(table.entries) == entries
        assert_find_agrees(table, others)

    @pytest.mark.parametrize("key_len", [1, 2, 3, 4, 8, 64])
    def test_find_agrees_on_large_and_one_bucket_tables(self, key_len):
        rng = np.random.default_rng(key_len)
        others = [rng.bytes(key_len) for _ in range(200)]
        assert_find_agrees(generate_table(min(5000, 250**key_len), key_len, key_len), others)
        if key_len >= 3:
            # 2,000 codes whose first two bytes agree, so that the search
            # tells them apart by their later bytes alone
            codes = {b"\x00\x00" + rng.bytes(key_len - 2) for _ in range(2000)}
            codes = sorted(codes, reverse=True)
            table = PvkTable(entries=codes)
            assert list(table.entries) == codes
            assert_find_agrees(table, others)

    def test_key_len_bytes_is_the_one_code_length(self):
        assert PvkTable(entries=[]).key_len_bytes is None
        assert PvkTable(entries=[b"\x01\x00\x00", b"\x00\x00\x00"]).key_len_bytes == 3
        table = generate_table(10, 8, rng_seed=1)
        assert table.key_len_bytes == table.copy().key_len_bytes == 8

    def test_empty_and_mixed_length_tables(self):
        empty = PvkTable(entries=[])
        assert [empty.find(bytes(size)) for size in range(4)] == [None] * 4
        with pytest.raises(ValueError, match="one length"):
            PvkTable(entries=[b"\x01\x02", b"\x03"])
        with pytest.raises(ValueError, match="one length"):
            PvkTable(entries=[b"\x01", b""])

    def test_index_holds_no_object_per_key(self):
        # a dict index took a 100k-key table of 4-byte codes to 13.9 MB, and
        # lists of its entries, flags and tree to 7.2 MB, with 1.6 MB more
        # for a copy; packed, they keep about 2 MB and a copy 0.5 MB. One
        # draw first, as in provisioning_memory, so that it passes run alone
        np.random.default_rng(0).integers(0, 2**32, size=1, dtype=np.uint32)
        tracemalloc.start()
        try:
            table = generate_table(100_000, 4, rng_seed=6)
            kept = tracemalloc.get_traced_memory()[0]
            clone = table.copy()
            copied = tracemalloc.get_traced_memory()[0] - kept
        finally:
            tracemalloc.stop()
        assert table.find(table.entries[-1]) == clone.find(clone.entries[-1]) == 99_999
        assert kept <= 1.8e6
        assert copied <= 0.6e6

    def test_find_turns_away_another_length_before_searching(self):
        # a code of another width would make numpy cast the whole sorted
        # array to it, 400 KB here, on every call
        table = generate_table(100_000, 4, rng_seed=6)
        code = table.entries[-1]
        for other in (code + b"\x00", code[:-1]):
            tracemalloc.start()
            try:
                found = table.find(other)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert found is None
            assert peak < 64e3

    # What the table keeps is read once a random draw has built the rank
    # tree, which a fresh table does not hold yet: 4 bytes a key.

    def test_provisioning_peaks_at_the_memory_the_table_keeps(self):
        # the draws and the dedupe dict are gone before the table builds its
        # index; holding them took the peak to about 1.6x what the table keeps
        fresh, kept, peak = provisioning_memory(100_000, 4, 5)
        assert peak <= 1.2 * kept
        assert 4 * 100_000 <= kept - fresh <= 4 * 100_000 + 4096

    def test_provisioning_3_byte_keys_peaks_at_the_memory_the_table_keeps(self):
        # the integer sort holds 8 bytes a draw against the 15 a key the
        # table keeps at 3 bytes: 1.15x measured at 100k keys
        fresh, kept, peak = provisioning_memory(100_000, 3, 5)
        assert peak <= 1.2 * kept
        assert 4 * 100_000 <= kept - fresh <= 4 * 100_000 + 4096

    def test_provisioning_64_byte_keys_peaks_at_the_memory_the_table_keeps(self):
        # at 64 bytes a key, one more copy of the codes than the table keeps
        # would take the peak to about 1.47x
        fresh, kept, peak = provisioning_memory(20_000, 64, 3)
        assert peak <= 1.2 * kept
        assert 4 * 20_000 <= kept - fresh <= 4 * 20_000 + 4096

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_tree_built_after_marks_in_any_order(self, data):
        # marks made before the first random draw are taken out of the tree
        # it builds, and marks after it keep the tree current
        n = data.draw(st.integers(1, 300), label="n")
        table = PvkTable(entries=[i.to_bytes(2, "big") for i in range(n)])
        index = st.integers(0, n - 1)
        before = data.draw(st.lists(index, max_size=n), label="before")
        for i in before:
            table.mark_used(i)
        assert table._tree is None
        assert_selects_the_unused_pool(table)
        assert (table._tree is not None) == (len(set(before)) < n - 1)
        for i in data.draw(st.lists(index, max_size=n), label="after"):
            table.mark_used(i)
            if table.n_unused:
                assert table.select_unused(table.n_unused - 1) == unused_indices(table)[-1]
        assert_selects_the_unused_pool(table)

    def test_copies_taken_before_and_after_the_tree_is_built(self):
        table = PvkTable(entries=[i.to_bytes(1, "big") for i in range(40)])
        for i in (30, 3, 17, 0):
            table.mark_used(i)
        before = table.copy()  # shares no tree: neither has one yet
        assert table.select_unused(5) == 7
        after = table.copy()  # its own copy of the built tree
        assert before._tree is None and after._tree is not None
        assert after._tree is not table._tree
        table.mark_used(6)
        after.mark_used(20)
        before.mark_used(1)
        for t, marked in ((table, {6}), (after, {20}), (before, {1})):
            assert unused_indices(t) == [i for i in range(40) if i not in {30, 3, 17, 0} | marked]
            assert_selects_the_unused_pool(t)
        assert before._tree is not None and before._tree is not table._tree

    def test_rank_zero_skips_marks_ahead_of_the_first_unused(self):
        table = PvkTable(entries=[i.to_bytes(1, "big") for i in range(10)])
        assert table.select_unused(0) == 0
        for i in (1, 2, 5):  # ahead of the first unused entry
            table.mark_used(i)
        assert table.select_unused(0) == 0
        table.mark_used(0)
        assert table.select_unused(0) == 3
        table.mark_used(4)
        table.mark_used(3)
        assert table.select_unused(0) == 6
        for i in range(6, 10):
            table.mark_used(i)
        with pytest.raises(IndexError, match=re.escape("rank 0 outside [0, 0)")):
            table.select_unused(0)
        assert table._tree is None

    @pytest.mark.parametrize("built", [False, True])
    def test_index_errors_at_the_ranks_of_before(self, built):
        # the messages the tree-only select gave, whether or not it is built
        table = PvkTable(entries=[b"\x01", b"\x02", b"\x03"])
        if built:
            assert table.select_unused(2) == 2
        for k in (-1, 3, 10):
            with pytest.raises(IndexError, match=re.escape(f"rank {k} outside [0, 3)")):
                table.select_unused(k)
        table.mark_used(1)
        assert_selects_the_unused_pool(table)
        empty = PvkTable(entries=[])
        with pytest.raises(IndexError, match=re.escape("rank 0 outside [0, 0)")):
            empty.select_unused(0)

    def test_sequential_sessions_build_no_tree(self):
        # a sequential node draws at rank 0 and the monitor only finds and
        # marks, so neither table pays for a tree, 4 bytes a key
        node, monitor = session_parts(n_keys=250, seed=2)
        for seed in range(200):
            log = run_session(anechoic_scenario(seed=seed), node, Attacker(), monitor)
            assert log.emitted_key_index == seed and log.final.verdict == ACCEPTED
        assert node.table.n_unused == monitor.table.n_unused == 50
        assert node.table._tree is None and monitor.table._tree is None


class TableMachine(RuleBasedStateMachine):
    """One key table, driven by random operations, against a plain model: a
    list of used flags and a dict from each code to its table index. The
    table is provisioned by generate_table or built from codes ending in
    zero bytes, which a numpy bytes_ item would drop. ``copy`` goes on
    with a copy, and each table left behind must keep the flags it had."""

    @initialize(data=st.data())
    def provision(self, data):
        self.key_len = key_len = data.draw(st.integers(1, 5), label="key_len")
        if data.draw(st.booleans(), label="generated"):
            n = data.draw(st.integers(1, 80), label="n")
            self.table = generate_table(n, key_len, data.draw(st.integers(0, 3), label="seed"))
            codes = list(self.table.entries)
        else:
            code = st.one_of(
                st.binary(min_size=key_len, max_size=key_len),
                st.binary(max_size=key_len - 1).map(lambda b: b + bytes(key_len - len(b))),
            )
            codes = data.draw(st.lists(code, unique=True, min_size=1, max_size=80), label="codes")
            self.table = PvkTable(entries=codes)
            # the model holds the codes given, so that a table that reorders
            # them fails however well find agrees with its own entries
            assert list(self.table.entries) == codes
        self.where = {code: i for i, code in enumerate(codes)}
        self.used = [False] * len(self.where)
        self.left = []  # (table, its flags) for each table a copy went on from

    def pool(self) -> list[int]:
        return [i for i, used in enumerate(self.used) if not used]

    @rule(data=st.data())
    def mark_used(self, data):
        n = len(self.used)
        index = data.draw(st.integers(-1, n), label="index")
        if 0 <= index < n:
            self.table.mark_used(index)
            self.used[index] = True
        else:
            with pytest.raises(IndexError):
                self.table.mark_used(index)

    @rule(data=st.data())
    def select_unused(self, data):
        pool = self.pool()
        if not pool:
            with pytest.raises(IndexError):
                self.table.select_unused(0)
            return
        rank = data.draw(st.one_of(st.just(0), st.integers(0, len(pool) - 1)), label="rank")
        assert self.table.select_unused(rank) == pool[rank]

    @rule(data=st.data())
    def find_present(self, data):
        code = data.draw(st.sampled_from(sorted(self.where)), label="code")
        assert self.table.find(code) == self.where[code]

    @rule(data=st.data())
    def find_absent(self, data):
        size = self.key_len
        absent = st.binary(min_size=size, max_size=size).filter(lambda c: c not in self.where)
        assert self.table.find(data.draw(absent, label="code")) is None

    @rule(data=st.data())
    def find_other_length(self, data):
        present = data.draw(st.sampled_from(sorted(self.where)), label="present")
        code = data.draw(
            st.sampled_from([present[:-1], present + b"\x00", b"\x00" + present])
            | st.binary(max_size=6).filter(lambda c: len(c) != self.key_len),
            label="code",
        )
        assert self.table.find(code) is None

    @rule(data=st.data())
    def entry(self, data):
        n = len(self.used)
        index = data.draw(st.integers(-n - 1, n), label="index")
        if -n <= index < n:
            code = self.table.entries[index]
            assert type(code) is bytes and self.where[code] == index % n
        else:
            with pytest.raises(IndexError):
                self.table.entries[index]

    @rule()
    def copy(self):
        self.left.append((self.table, list(self.used)))
        self.table = self.table.copy()

    @invariant()
    def flags_and_count_match_the_model(self):
        n = len(self.used)
        assert self.table.n_unused == self.used.count(False)
        assert [self.table.is_used(i) for i in range(-n, n)] == self.used * 2
        for table, used in self.left:
            assert table.n_unused == used.count(False)
            assert [table.is_used(i) for i in range(n)] == used

    @invariant()
    def select_unused_matches_a_scan(self):
        # on a copy, which copies the table's tree if it has built one, and
        # otherwise builds its own, so the table's own tree stays unbuilt
        # until a draw at a rank above 0 builds it
        probe, pool = self.table.copy(), self.pool()
        assert [probe.select_unused(k) for k in range(len(pool))] == pool
        with pytest.raises(IndexError):
            probe.select_unused(len(pool))

    @invariant()
    def entries_match_the_model(self):
        table = self.table
        assert len(table) == len(self.where) and table.key_len_bytes == self.key_len
        assert table.entries == list(self.where)


TestTableMachine = TableMachine.TestCase
TestTableMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, derandomize=True
)


class TestNodeStep:
    """The node's charge-and-emit step, as run_session drives it."""

    def test_zero_efficiency_never_wakes(self):
        rect = RectifierModel(efficiency_curve=((-60.0, 0.0), (60.0, 0.0)))
        node = NodeState(table=PvkTable(entries=[b"\x01\x02"]))
        log = charging_session(node, rect=rect, max_time_s=1.0)
        assert log.final.decode.status == WAKE_TIMEOUT and log.emitted_key_index is None
        assert node.stored_energy_j == log.total_harvested_j == 0.0
        assert log.energy_trace == [(0.0, 0.0), (1.0, 0.0)]

    def test_wakes_after_half_second(self):
        # 20 uW harvest vs 10 uJ threshold: E = P*t crosses at t = 0.5 s
        node = NodeState(table=PvkTable(entries=[b"\x01\x02"]))
        dt = 0.01
        log = charging_session(node, dt_s=dt)
        (t,) = [e.time_s for e in log.events if e.event == "node_wake"]
        assert t == pytest.approx(0.5, abs=dt + 1e-12)
        assert [e[0] for e in log.energy_trace[:2]] == [0.0, t]  # one closed-form chunk

    def test_frame_cost_debit(self):
        node = NodeState(
            table=PvkTable(entries=[b"\x01\x02"]),
            stored_energy_j=9.99e-6,
            tx_cost_j_per_bit=1e-9,
        )
        log = charging_session(node, dt_s=1.0)
        assert log.emitted_code == b"\x01\x02"
        assert log.total_tx_cost_j == node.tx_cost_j_per_bit * 40
        assert log.backscatter_time_s == pytest.approx(40 / 20e3, rel=1e-12)
        # the waking chunk's ledger entry is the energy left after the frame
        assert node.stored_energy_j == 9.99e-6 + log.total_harvested_j - log.total_tx_cost_j
        assert log.energy_trace[1] == (1.0, node.stored_energy_j)

    def test_capacity_clamp_and_ledger(self):
        node = NodeState(
            table=PvkTable(entries=[b"\x01\x02"]),
            stored_energy_j=99.9e-6,
            storage_capacity_j=100e-6,
            wake_threshold_j=150e-6,  # unreachable: clamped below threshold
        )
        log = charging_session(node, dt_s=100.0, max_time_s=100.0)
        assert node.stored_energy_j == 100e-6
        assert log.total_harvested_j == pytest.approx(0.1e-6, rel=1e-9)
        assert log.emitted_key_index is None
        assert log.energy_trace == [(0.0, 99.9e-6), (100.0, 100e-6)]

    def test_table_exhausted_at_wake(self):
        table = PvkTable(entries=[b"\x01\x02"])
        table.mark_used(0)
        node = NodeState(table=table, stored_energy_j=50e-6)
        with pytest.raises(TableExhausted):
            charging_session(node)
        # the waking chunk was banked before the table was found empty
        assert node.stored_energy_j == pytest.approx(50e-6 + 20e-6 * 0.01, rel=1e-12)

    def test_random_key_policy_draws_unused(self):
        table = generate_table(16, 2, rng_seed=3)
        node = NodeState(table=table, stored_energy_j=50e-6)
        log = charging_session(node, seed=5, key_policy="random")
        assert log.emitted_key_index is not None
        assert unused_indices(table) == [i for i in range(16) if i != log.emitted_key_index]

    def test_random_key_policy_keeps_the_pool_order(self):
        # the pick the policy made by indexing the list of unused entries,
        # with one draw per session from the noise seed's first child
        table = generate_table(500, 2, rng_seed=8)
        node = NodeState(table=table)
        pool = list(range(len(table)))
        emitted, expected = [], []
        for seed in range(len(table)):
            log = charging_session(node, seed=seed, dt_s=1.0, key_policy="random")
            emitted.append(log.emitted_key_index)
            (child,) = np.random.SeedSequence(seed).spawn(1)
            expected.append(pool.pop(np.random.default_rng(child).integers(0, len(pool))))
        assert emitted == expected
        with pytest.raises(TableExhausted):
            charging_session(node, dt_s=1.0, key_policy="random")

    def test_unknown_key_policy_rejected_before_charging(self):
        # a node already above its threshold would emit in its first chunk
        node = NodeState(table=generate_table(4, 2, rng_seed=3), stored_energy_j=50e-6)
        with pytest.raises(ValueError, match="unknown key policy: 'bogus'"):
            charging_session(node, key_policy="bogus")
        assert node.stored_energy_j == 50e-6 and untouched(node.table)

    def test_nan_dt_rejected(self):
        node = NodeState(table=generate_table(4, 2, rng_seed=3), stored_energy_j=50e-6)
        with pytest.raises(ValueError, match="dt_s must be > 0"):
            charging_session(node, dt_s=math.nan)
        assert node.stored_energy_j == 50e-6 and untouched(node.table)

    @pytest.mark.parametrize("dt_s, max_time_s", [(1e-320, 30.0), (1e-4, 1e305)])
    def test_uncountable_steps_rejected(self, dt_s, max_time_s):
        # both are finite, but their step count overflowed to inf, and every
        # session failed on it as OverflowError
        node = NodeState(table=generate_table(4, 2, rng_seed=3), stored_energy_j=50e-6)
        with pytest.raises(ValueError, match="max_time_s / dt_s must be finite"):
            charging_session(node, dt_s=dt_s, max_time_s=max_time_s)
        assert node.stored_energy_j == 50e-6 and untouched(node.table)


class TestRunSession:
    def test_legitimate_session_accepted(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=42), node, Attacker(), monitor)
        assert log.final.verdict == ACCEPTED
        assert log.final.decode.payload == log.emitted_code
        assert log.emitted_key_index == 0
        assert monitor.table.is_used(0) and node.table.is_used(0)

    def test_replay_attacker_rejected_second_time(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=43), node, Attacker(kind="replay"), monitor)
        assert [d.verdict for d in log.decisions] == [ACCEPTED, REJECTED_REPLAY]

    def test_disabled_modulation_no_signal(self):
        scenario = anechoic_scenario(
            seed=44, rect=RectifierModel(gamma_low_db=-20.0, gamma_high_db=-20.0)
        )
        node, monitor = session_parts()
        log = run_session(scenario, node, Attacker(), monitor)
        assert log.final.verdict == REJECTED_NO_SIGNAL

    def test_unknown_key_rejected(self):
        node, _ = session_parts(seed=1)
        foreign = MonitorConfig(table=generate_table(8, 2, rng_seed=2024))
        log = run_session(anechoic_scenario(seed=45), node, Attacker(), foreign)
        assert log.final.verdict == REJECTED_UNKNOWN_KEY

    def test_energy_conservation_exact(self):
        node, monitor = session_parts()
        scenario = anechoic_scenario(seed=46)
        for i in range(5):
            log = run_session(fresh_session_scenario(scenario, 100 + i), node, Attacker(), monitor)
            start = log.energy_trace[0][1]
            end = log.energy_trace[-1][1]
            assert abs(end - (start + log.total_harvested_j - log.total_tx_cost_j)) <= 1e-12

    def test_backscatter_occupancy_fraction(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=47), node, Attacker(), monitor)
        assert log.backscatter_time_s / log.duration_s < 1e-3

    def test_timeline_strictly_increasing(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=48), node, Attacker(kind="replay"), monitor)
        times = [e.time_s for e in log.events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_wake_timeout_when_unpowered(self):
        scenario = anechoic_scenario(
            seed=49, rect=RectifierModel(efficiency_curve=((-60.0, 0.0), (60.0, 0.0)))
        )
        node, monitor = session_parts()
        log = run_session(scenario, node, Attacker(), monitor, max_time_s=0.5)
        assert log.final.verdict == REJECTED_NO_SIGNAL
        assert any(e.event == "wake_timeout" for e in log.events)

    def test_replay_session_event_order(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=43), node, Attacker(kind="replay"), monitor)
        assert [e.event for e in log.events] == [
            "session_start",
            "node_wake",
            "frame_emitted",
            "verify",
            "replay_presented",
            "verify",
            "session_end",
        ]
        assert [e.verdict for e in log.events if e.event == "verify"] == [
            ACCEPTED,
            REJECTED_REPLAY,
        ]

    def test_timeout_session_event_order_and_record(self):
        scenario = anechoic_scenario(seed=49, p_tx_dbm=-15.0)
        node, monitor = session_parts()
        log = run_session(scenario, node, Attacker(kind="replay"), monitor, max_time_s=0.5)
        assert [e.event for e in log.events] == ["session_start", WAKE_TIMEOUT, "session_end"]
        assert log.duration_s == log.events[-1].time_s
        assert (log.emitted_key_index, log.emitted_code, log.trace) == (None, None, None)
        assert log.total_tx_cost_j == 0.0 and log.backscatter_time_s == 0.0
        assert log.total_harvested_j == node.stored_energy_j > 0.0
        # the node never woke, so no level was measured: the record says so
        assert [d.record() for d in log.decisions] == [
            {
                "verdict": REJECTED_NO_SIGNAL,
                "matched_key_index": None,
                "measured_dr_db": None,
                "threshold_dbm": None,
                "status": WAKE_TIMEOUT,
            }
        ]

    def test_replay_re_presents_the_session_trace(self, clustering_calls):
        # the capture is decoded once, and both presentations verify that decode
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=43), node, Attacker(kind="replay"), monitor)
        first, replay = log.decisions
        assert replay.decode is first.decode and first.decode.payload == log.emitted_code
        assert len(clustering_calls) == 1 and clustering_calls[0] is log.trace

    def test_unreachable_wake_threshold_costs_one_chunk(self):
        # storage tops out below the threshold, so the node can never wake
        node = NodeState(
            table=generate_table(4, 2, rng_seed=0),
            storage_capacity_j=100e-6,
            wake_threshold_j=100.0001e-6,
        )
        _, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=54), node, Attacker(), monitor)
        assert log.final.decode.status == WAKE_TIMEOUT
        assert len(log.energy_trace) <= 3
        assert node.stored_energy_j == log.total_harvested_j == 100e-6

    def test_tiny_harvest_times_out(self):
        # at -3100 dBm, about 1e-318 W per chunk: the chunk count's quotient
        # is inf, which failed as OverflowError before it was clamped to the
        # steps left; at -3125 dBm the harvest per 100 us step underflows to
        # 0 J, which failed as ZeroDivisionError
        for p_tx_dbm in (-3100.0, -3125.0):
            node, monitor = session_parts()
            log = run_session(anechoic_scenario(p_tx_dbm=p_tx_dbm), node, Attacker(), monitor)
            assert log.final.decode.status == WAKE_TIMEOUT
            assert 0 < node.stored_energy_j == log.total_harvested_j < 1e-300

    def test_smallest_accepted_step_keeps_the_timeline_increasing(self):
        # a node that never wakes charges to max_time_s, where the timeout's
        # steps of dt_s must still move the time on
        frame_s = build_frame(b"\0\0", 20e3).duration_s
        dt_s = math.ulp(30.0 + frame_s)
        protocol.check_event_spacing(dt_s, 30.0, 20e3, 2)
        with pytest.raises(ValueError, match="dt_s of .* is lost next to the latest event"):
            protocol.check_event_spacing(dt_s / 2, 30.0, 20e3, 2)
        rect = RectifierModel(efficiency_curve=((-60.0, 0.0), (60.0, 0.0)))
        node = NodeState(table=PvkTable(entries=[b"\x01\x02"]))
        log = charging_session(node, rect=rect, dt_s=dt_s, max_time_s=30.0)
        assert log.final.decode.status == WAKE_TIMEOUT
        assert log.events[-2].time_s >= 30.0

    def test_nan_max_time_rejected(self):
        node, monitor = session_parts()
        with pytest.raises(ValueError, match="max_time_s must be >= 0"):
            run_session(anechoic_scenario(), node, Attacker(), monitor, max_time_s=math.nan)

    def test_zero_max_time_times_out_at_once(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(), node, Attacker(), monitor, max_time_s=0.0)
        assert [e.event for e in log.events] == ["session_start", WAKE_TIMEOUT, "session_end"]
        assert log.energy_trace == [(0.0, 0.0)]

    @pytest.mark.parametrize("efficiency", [0.0, 0.2])
    def test_unknown_key_policy_rejected_before_charging(self, efficiency):
        scenario = anechoic_scenario(
            rect=RectifierModel(efficiency_curve=((-60.0, efficiency), (60.0, efficiency)))
        )
        node, monitor = session_parts()
        with pytest.raises(ValueError, match="unknown key policy: 'bogus'"):
            run_session(scenario, node, Attacker(), monitor, key_policy="bogus")
        assert node.stored_energy_j == 0.0 and untouched(node.table)

    def test_nan_dt_rejected(self):
        node, monitor = session_parts()
        with pytest.raises(ValueError, match="dt_s must be > 0"):
            run_session(anechoic_scenario(), node, Attacker(), monitor, dt_s=math.nan)

    @pytest.mark.parametrize("arg", ["dt_s", "max_time_s"])
    def test_infinite_timing_rejected_before_the_ledger(self, arg):
        # max_time_s = inf failed as OverflowError in the charge phase's step
        # count, dt_s = inf as "event times must be strictly increasing"
        node, monitor = session_parts()
        node.stored_energy_j = 5e-6
        with pytest.raises(ValueError, match=f"^{arg} must be .* finite"):
            run_session(anechoic_scenario(), node, Attacker(), monitor, **{arg: math.inf})
        assert node.stored_energy_j == 5e-6
        assert untouched(node.table, monitor.table)

    def test_lost_step_rejected_before_the_ledger(self):
        # dt_s = 1e-300 passes check_session_timing; it banked 9.96e-6 J and
        # burned key 0 in both tables before SessionLog found the event times
        # not strictly increasing
        cfg = load_config("setup=anechoic")
        node_table, monitor_table = build_tables(cfg)
        scenario = build_scenario(cfg)
        node, monitor = build_node(cfg, node_table), build_monitor(cfg, monitor_table)
        with pytest.raises(ValueError, match="dt_s of 1e-300 s is lost next to the latest event"):
            run_session(scenario, node, Attacker(), monitor, dt_s=1e-300, max_time_s=30.0)
        assert node.stored_energy_j == 0.0
        assert untouched(node_table, monitor_table)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_numpy_refuses_rejected_before_the_ledger(self, seed):
        # each banked energy and burned key 0 in the node's table alone, then
        # failed in rendering with numpy's "expected non-negative integer" or
        # a TypeError, which left the two tables out of step
        node, monitor = session_parts()
        with pytest.raises(ValueError, match=f"rng_seed must be an integer >= 0, got {seed}"):
            scenario = fresh_session_scenario(anechoic_scenario(), seed)
            run_session(scenario, node, Attacker(), monitor)
        assert node.stored_energy_j == 0.0
        assert untouched(node.table, monitor.table)

    def test_immediate_timeout_keeps_timeline_strict(self):
        node, monitor = session_parts()
        log = run_session(
            anechoic_scenario(seed=53), node, Attacker(), monitor, max_time_s=1e-6
        )
        assert log.final.verdict == REJECTED_NO_SIGNAL
        times = [e.time_s for e in log.events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_session_determinism(self):
        a_node, a_mon = session_parts()
        b_node, b_mon = session_parts()
        log_a = run_session(anechoic_scenario(seed=50), a_node, Attacker(), a_mon)
        log_b = run_session(anechoic_scenario(seed=50), b_node, Attacker(), b_mon)
        assert log_a.events == log_b.events
        assert np.array_equal(log_a.trace.samples, log_b.trace.samples)

    def test_random_key_policy_session(self):
        node, monitor = session_parts(n_keys=32)
        log = run_session(
            anechoic_scenario(seed=51), node, Attacker(), monitor, key_policy="random"
        )
        assert log.final.verdict == ACCEPTED

    def test_random_key_stream_independent_of_noise_stream(self):
        # the key draw must not replay the first draw of the noise generator
        same = 0
        for seed in range(20):
            node = NodeState(table=generate_table(1000, 2, rng_seed=3))
            monitor = MonitorConfig(table=node.table.copy())
            log = run_session(
                anechoic_scenario(seed=seed), node, Attacker(), monitor, key_policy="random"
            )
            same += log.emitted_key_index == np.random.default_rng(seed).integers(0, 1000)
        assert same <= 1

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63, 2**64 - 1])
    def test_random_key_stream_is_the_noise_seeds_first_child(self, seed):
        node = NodeState(table=generate_table(1000, 2, rng_seed=3))
        monitor = MonitorConfig(table=node.table.copy())
        log = run_session(
            anechoic_scenario(seed=seed), node, Attacker(), monitor, key_policy="random"
        )
        (child,) = np.random.SeedSequence(seed).spawn(1)
        assert log.emitted_key_index == np.random.default_rng(child).integers(0, 1000)

    def test_replay_decides_as_a_fresh_decode_of_the_capture(self, monkeypatch):
        # the replay is verified on the first decision's decode; it must
        # decide exactly as decoding the capture again would, against a copy
        # of the monitor table taken just before the replay
        tables_seen = []

        def spying_verify(decode, table):
            tables_seen.append(table.copy())
            return verify(decode, table)

        monkeypatch.setattr(monitor_module, "verify", spying_verify)
        monkeypatch.setattr(protocol, "verify", spying_verify)
        outcomes = set()
        for seed in range(120):
            rng = np.random.default_rng(seed)
            table = generate_table(64, 2, rng_seed=seed)
            node = NodeState(table=table)
            # the node's own table, another provisioning (unknown keys), or
            # one with every even index spent already, so that the first
            # presentation can itself be a replay
            monitor = MonitorConfig(
                table=generate_table(64, 2, rng_seed=seed + 1000)
                if seed % 3 == 1
                else table.copy()
            )
            if seed % 3 == 2:
                for i in range(0, 64, 2):
                    monitor.table.mark_used(i)
            scenario = anechoic_scenario(seed=seed, noise=NoiseSpec(rng.uniform(-90, -35), seed))
            log = run_session(
                scenario,
                node,
                Attacker(kind="replay"),
                monitor,
                key_policy=("sequential", "random")[seed % 2],
            )
            first, replay = log.decisions
            want = verify(decode_trace(log.trace, monitor.bit_rate_hz), tables_seen[-1])
            assert replay.verdict == want.verdict
            assert replay.matched_key_index == want.matched_key_index
            assert repr(dataclasses.astuple(replay.decode)) == repr(
                dataclasses.astuple(want.decode)
            )
            assert want.verdict != ACCEPTED
            outcomes.add((first.verdict, replay.verdict, first.decode.status))
            tables_seen.clear()
        assert outcomes >= {
            (ACCEPTED, REJECTED_REPLAY, DECODED),
            (REJECTED_REPLAY, REJECTED_REPLAY, DECODED),
            (REJECTED_UNKNOWN_KEY, REJECTED_UNKNOWN_KEY, DECODED),
            (REJECTED_NO_SIGNAL, REJECTED_NO_SIGNAL, NO_SYNC),
            (REJECTED_NO_SIGNAL, REJECTED_NO_SIGNAL, PAYLOAD_INVALID),
        }

    def test_event_fields(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=52), node, Attacker(), monitor)
        verifies = [e for e in log.events if e.event == "verify"]
        assert verifies and all(
            e.verdict is not None and e.measured_dr_db is not None for e in verifies
        )
        start = log.events[0]
        assert (start.time_s, start.event) == (0.0, "session_start")
        assert start.stored_energy_j is not None


class TestFreshSessionScenario:
    def test_copy_differs_from_its_base_only_in_the_seed(self):
        base = anechoic_scenario(seed=7)
        fresh = fresh_session_scenario(base, 8)
        assert fresh.noise == NoiseSpec(base.noise.noise_power_dbm, 8)
        assert fresh != base
        assert dataclasses.replace(fresh, noise=base.noise) == base
        for f in dataclasses.fields(LinkScenario):
            if f.name != "noise":
                assert getattr(fresh, f.name) is getattr(base, f.name)
        assert vars(fresh)["_budget"] is vars(base)["_budget"]

    def test_sessions_on_one_link_compute_its_budget_once(self, budget_calls):
        node, monitor = session_parts(n_keys=100)
        base = anechoic_scenario(seed=9)
        for i in range(100):
            log = run_session(fresh_session_scenario(base, 900 + i), node, Attacker(), monitor)
            assert log.final.verdict == ACCEPTED
        assert len(budget_calls["harvested_dc"]) == 1
        assert len(budget_calls["combine_noncoherent"]) == 2


class TestStateValidation:
    def test_node_state_bounds(self):
        table = PvkTable(entries=[b"\x01"])
        with pytest.raises(ValueError):
            NodeState(table=table, stored_energy_j=-1.0)
        with pytest.raises(ValueError):
            NodeState(table=table, stored_energy_j=2.0, storage_capacity_j=1.0)

    @pytest.mark.parametrize(
        "name", ["wake_threshold_j", "storage_capacity_j", "tx_cost_j_per_bit"]
    )
    def test_node_state_rejects_nan(self, name):
        with pytest.raises(ValueError, match="must be"):
            NodeState(table=PvkTable(entries=[b"\x01"]), **{name: math.nan})

    def test_attacker_contract(self):
        with pytest.raises(ValueError):
            Attacker(kind="mitm")

    def test_attacker_holds_only_its_kind(self):
        assert [f.name for f in dataclasses.fields(Attacker)] == ["kind"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            Attacker().kind = "replay"

    def test_monitor_config_is_frozen(self):
        # a rate set after construction skipped check_oversampling
        monitor = MonitorConfig(table=PvkTable(entries=[b"\x01"]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            monitor.bit_rate_hz = 1e9
        assert monitor.sample_rate_hz == 16 * 20e3

    def test_monitor_config_oversampling(self):
        with pytest.raises(ValueError):
            MonitorConfig(table=PvkTable(entries=[b"\x01"]), oversampling=4)

    def test_table_entries_equal_only_codes_and_lists(self):
        entries = PvkTable(entries=[b"\x01", b"\x02"]).entries
        assert entries.__eq__(3) is NotImplemented
        assert entries != 3 and entries == [b"\x01", b"\x02"]

    def test_session_log_contract(self):
        timeout = DecodeResult(WAKE_TIMEOUT, None, 0, None, None, None)
        decisions = [AuthDecision(REJECTED_NO_SIGNAL, None, timeout)]
        tied = [SessionEvent(0.5, "wake"), SessionEvent(0.5, "session_end")]
        with pytest.raises(ValueError, match="^event times must be strictly increasing"):
            SessionLog(tied, decisions, [], 0.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="^energy times must be strictly increasing"):
            SessionLog([], decisions, [(0.5, 0.0), (0.1, 0.0)], 0.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="^a session must end with at least one decision"):
            SessionLog([], [], [], 0.0, 0.0, 0.0, 0.0)

    def test_table_cursor_is_derived_not_accepted(self):
        with pytest.raises(TypeError):
            PvkTable(entries=[b"\x01", b"\x02"], cursor=1)
        with pytest.raises(TypeError):
            PvkTable(entries=[b"\x01", b"\x02"], used=[True, False])
        table = PvkTable(entries=[b"\x01", b"\x02"])
        assert [table.is_used(0), table.is_used(1)] == [False, False]
