"""Tests for the write-ahead journal: torn tails, CRC, fsync batching."""

import os

import pytest

from repro.service.journal import (
    Journal,
    JournalError,
    JournalRecord,
    format_record,
    parse_record,
    repair_journal,
    rewrite_journal,
    scan_journal,
)


def write_records(path, n, start=1):
    with Journal(path) as j:
        for i in range(start, start + n):
            j.append(i, {"op": "apply", "stamp": i})


class TestRecordFormat:
    def test_roundtrip(self):
        line = format_record(7, {"op": "undo", "stamp": 3})
        rec = parse_record(line.rstrip(b"\n"))
        assert rec == JournalRecord(7, {"op": "undo", "stamp": 3})

    def test_bad_crc_rejected(self):
        line = format_record(7, {"op": "undo", "stamp": 3})
        assert parse_record(line.replace(b'"stamp":3', b'"stamp":4')
                            .rstrip(b"\n")) is None

    def test_garbage_rejected(self):
        assert parse_record(b"not json") is None
        assert parse_record(b'{"seq": "x", "cmd": {}, "crc": ""}') is None

    @pytest.mark.parametrize("mask", [0x01, 0x20, 0xFF])
    def test_any_flipped_byte_is_rejected(self, mask):
        # the CRC is checked on the bytes as written: a flip inside the
        # body fails the hash, one inside the crc field fails the match
        line = format_record(
            12, {"op": "apply", "name": "cse", "params": {"k": 2},
                 "stamp": 5, "note": 'a"crc":"0000000000000000"'}
        ).rstrip(b"\n")
        assert parse_record(line).seq == 12
        for offset in range(len(line)):
            flipped = bytearray(line)
            flipped[offset] ^= mask
            assert parse_record(bytes(flipped)) is None, offset


class TestScan:
    def test_missing_file_is_empty(self, tmp_path):
        records, valid, torn = scan_journal(str(tmp_path / "nope"))
        assert (records, valid, torn) == ([], 0, False)

    def test_healthy_journal(self, tmp_path):
        path = str(tmp_path / "j")
        write_records(path, 5)
        records, valid, torn = scan_journal(path)
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert valid == os.path.getsize(path)
        assert not torn

    def test_unterminated_tail_detected(self, tmp_path):
        path = str(tmp_path / "j")
        write_records(path, 3)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 4, "cmd"')  # crash mid-append
        records, valid, torn = scan_journal(path)
        assert [r.seq for r in records] == [1, 2, 3]
        assert torn

    def test_corrupt_middle_truncates_rest(self, tmp_path):
        path = str(tmp_path / "j")
        write_records(path, 4)
        data = open(path, "rb").read()
        lines = data.split(b"\n")
        lines[1] = lines[1][:-4] + b"zzzz"
        open(path, "wb").write(b"\n".join(lines))
        records, _, torn = scan_journal(path)
        assert [r.seq for r in records] == [1]
        assert torn

    def test_seq_regression_is_invalid(self, tmp_path):
        path = str(tmp_path / "j")
        with open(path, "wb") as fh:
            fh.write(format_record(2, {"op": "x"}))
            fh.write(format_record(1, {"op": "x"}))
        records, _, torn = scan_journal(path)
        assert [r.seq for r in records] == [2]
        assert torn

    def test_every_byte_truncation_yields_prefix(self, tmp_path):
        """The core crash property at the file level: any truncation
        recovers a clean record prefix, never a mixed state."""
        path = str(tmp_path / "j")
        write_records(path, 6)
        data = open(path, "rb").read()
        prev = -1
        for cut in range(len(data) + 1):
            trunc = str(tmp_path / "t")
            open(trunc, "wb").write(data[:cut])
            records, valid, _ = scan_journal(trunc)
            seqs = [r.seq for r in records]
            assert seqs == list(range(1, len(seqs) + 1))
            assert len(seqs) >= prev  # monotone in the cut point
            prev = len(seqs)
        assert prev == 6


class TestRepair:
    def test_repair_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "j")
        write_records(path, 3)
        healthy = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"torn garbage")
        records, dropped = repair_journal(path)
        assert [r.seq for r in records] == [1, 2, 3]
        assert dropped == len(b"torn garbage")
        assert os.path.getsize(path) == healthy

    def test_repair_noop_on_healthy(self, tmp_path):
        path = str(tmp_path / "j")
        write_records(path, 3)
        _, dropped = repair_journal(path)
        assert dropped == 0

    def test_rewrite_atomic_replacement(self, tmp_path):
        path = str(tmp_path / "j")
        write_records(path, 5)
        records, _, _ = scan_journal(path)
        rewrite_journal(path, [r for r in records if r.seq > 3])
        records, _, torn = scan_journal(path)
        assert [r.seq for r in records] == [4, 5]
        assert not torn


class TestJournalHandle:
    def test_append_after_close_raises(self, tmp_path):
        j = Journal(str(tmp_path / "j"))
        j.close()
        with pytest.raises(JournalError):
            j.append(1, {"op": "x"})

    def test_fsync_batching(self, tmp_path):
        j = Journal(str(tmp_path / "j"), fsync_every=4)
        for i in range(1, 10):
            j.append(i, {"op": "x"})
        assert j.syncs == 2  # at records 4 and 8
        j.close()
        assert j.syncs == 3  # close flushes the remainder

    def test_unsynced_records_still_readable(self, tmp_path):
        # flush-per-append means an abandoned handle loses nothing
        path = str(tmp_path / "j")
        j = Journal(path, fsync_every=1000)
        for i in range(1, 6):
            j.append(i, {"op": "x"})
        records, _, torn = scan_journal(path)  # j never closed
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert not torn

    def test_truncate_through(self, tmp_path):
        path = str(tmp_path / "j")
        with Journal(path) as j:
            for i in range(1, 8):
                j.append(i, {"op": "x"})
            j.truncate_through(5)
            j.append(8, {"op": "x"})
        records, _, _ = scan_journal(path)
        assert [r.seq for r in records] == [6, 7, 8]

    def test_bad_fsync_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "j"), fsync_every=0)
