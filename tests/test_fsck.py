"""fsck (offline integrity checking) and atomic-persistence regressions.

Covers the three artifact families end to end — codec files, WALs, fleet
directories — plus the CLI exit-code contract (0 clean / 1 corrupt) and the
kill-mid-write regression for the fleet manifest: a crash at *any* byte
offset of the manifest write must leave a directory that either loads as
the previous fleet (tmp leftovers pruned) or fails with a typed error —
never a silently wrong fleet.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Aggregate, IndexFleet, UpdatablePolyFitIndex, load_fleet, save_fleet
from repro.cli import main
from repro.config import FitConfig, IndexConfig, SegmentationConfig
from repro.errors import SerializationError
from repro.fleet import persistence
from repro.fsck import fsck_path
from repro.index.atomic import atomic_write
from repro.index.codec import read_array_store, save_index, write_array_store
from repro.stream import WriteAheadLog
from repro.testing.faults import CrashPoint, FaultyFile, flip_bit

FAST = IndexConfig(fit=FitConfig(degree=1), segmentation=SegmentationConfig(delta=25.0))


def _keys(n=2000, seed=31):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, 1000.0, size=n))


@pytest.fixture
def codec_file(tmp_path):
    index = UpdatablePolyFitIndex.build(_keys(), aggregate=Aggregate.COUNT,
                                        delta=25.0, config=FAST)
    index.insert(np.array([1.5, 2.5]))
    path = tmp_path / "index.pfbin"
    save_index(index, path)
    return path


def _swapped_morton_file(index2d, tmp_path):
    """A CRC-valid codec file with two leaf Morton keys swapped."""
    path = tmp_path / "swapped.pfbin"
    save_index(index2d, path)
    meta, arrays = read_array_store(path, mmap=False)
    arrays = {name: np.array(array) for name, array in arrays.items()}
    keys = arrays["dir_keys"]
    keys[0], keys[-1] = keys[-1], keys[0]
    write_array_store(path, arrays, meta)
    return path


@pytest.fixture
def wal_file(tmp_path):
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        for i in range(6):
            wal.append_insert(np.arange(8, dtype=float) + i)
        wal.append_compaction(1)
    return path


@pytest.fixture
def fleet_dir(tmp_path):
    fleet = IndexFleet.build(_keys(), None, Aggregate.COUNT,
                             delta=25.0, config=FAST, num_partitions=3)
    directory = tmp_path / "fleet"
    save_fleet(fleet, directory)
    return directory


class TestFsckModule:
    def test_clean_codec(self, codec_file):
        report = fsck_path(codec_file)
        assert report.ok and report.artifact == "codec" and report.checked == 1

    def test_corrupt_codec_blob(self, codec_file):
        flip_bit(codec_file, codec_file.stat().st_size - 3)
        report = fsck_path(codec_file)
        assert not report.ok
        assert report.issues[0].kind == "codec-corrupt"
        assert "checksum" in report.issues[0].message

    def test_unsorted_morton_keys_are_codec_corrupt(self, count2d_index, tmp_path):
        # CRC-valid file whose 2-D leaf directory fails structural
        # validation on load: a typed report, never an exception.
        path = _swapped_morton_file(count2d_index, tmp_path)
        report = fsck_path(path)
        assert not report.ok and report.issues[0].kind == "codec-corrupt"
        assert "strictly increasing" in report.issues[0].message

    def test_file_without_magic_is_unreadable(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"format_version": 1}')
        report = fsck_path(path)
        assert not report.ok and report.issues[0].kind == "unreadable"

    def test_clean_wal(self, wal_file):
        report = fsck_path(wal_file)
        assert report.ok and report.artifact == "wal" and report.checked == 7

    def test_wal_mid_file_corruption(self, wal_file):
        flip_bit(wal_file, 20)  # inside the first frame, not the tail
        report = fsck_path(wal_file)
        assert not report.ok and report.issues[0].kind == "wal-corrupt"

    def test_wal_torn_tail_is_a_note_not_an_error(self, wal_file):
        data = wal_file.read_bytes()
        wal_file.write_bytes(data[:-4])
        report = fsck_path(wal_file)
        assert report.ok
        assert any("torn tail" in note for note in report.notes)

    def test_clean_fleet(self, fleet_dir):
        report = fsck_path(fleet_dir)
        assert report.ok and report.artifact == "fleet"
        assert report.checked >= 2  # manifest + at least one partition

    def test_fleet_missing_partition(self, fleet_dir):
        victim = next(fleet_dir.glob("partition-*.pfbin"))
        victim.unlink()
        report = fsck_path(fleet_dir)
        assert any(issue.kind == "partition-missing" for issue in report.issues)

    def test_fleet_corrupt_partition(self, fleet_dir):
        victim = next(fleet_dir.glob("partition-*.pfbin"))
        flip_bit(victim, victim.stat().st_size // 2)  # inside a data blob
        report = fsck_path(fleet_dir)
        assert any(issue.kind == "partition-corrupt" for issue in report.issues)

    def test_fleet_manifest_garbage(self, fleet_dir):
        (fleet_dir / "manifest.json").write_text("{not json")
        report = fsck_path(fleet_dir)
        assert report.issues[0].kind == "manifest-corrupt"

    def test_fleet_orphans_and_tmp_are_notes(self, fleet_dir):
        (fleet_dir / "partition-9999.pfbin").write_bytes(b"orphan")
        (fleet_dir / "manifest.json.tmp").write_bytes(b"stale")
        report = fsck_path(fleet_dir)
        assert report.ok
        assert any("unreferenced" in note for note in report.notes)
        assert any("tmp" in note for note in report.notes)

    def test_not_a_fleet_directory(self, tmp_path):
        report = fsck_path(tmp_path)
        assert not report.ok and report.issues[0].kind == "unreadable"

    def test_report_payload_round_trips_json(self, wal_file):
        payload = fsck_path(wal_file).to_payload()
        assert json.loads(json.dumps(payload)) == payload


class TestFsckCli:
    def test_exit_zero_when_clean(self, codec_file, wal_file, fleet_dir, capsys):
        assert main(["fsck", str(codec_file), str(wal_file), str(fleet_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 3

    def test_exit_one_when_corrupt(self, codec_file, capsys):
        flip_bit(codec_file, codec_file.stat().st_size - 3)
        assert main(["fsck", str(codec_file)]) == 1
        assert "codec-corrupt" in capsys.readouterr().out

    def test_exit_one_on_unsorted_morton_keys(self, count2d_index, tmp_path, capsys):
        path = _swapped_morton_file(count2d_index, tmp_path)
        assert main(["fsck", str(path)]) == 1
        assert "codec-corrupt" in capsys.readouterr().out

    def test_json_output(self, wal_file, capsys):
        assert main(["fsck", "--json", str(wal_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["artifact"] == "wal" and payload[0]["ok"]


class TestManifestAtomicity:
    def test_kill_mid_manifest_write_at_every_offset(self, tmp_path, monkeypatch):
        fleet = IndexFleet.build(_keys(seed=33), None, Aggregate.COUNT,
                                 delta=25.0, config=FAST, num_partitions=2)
        directory = tmp_path / "fleet"
        save_fleet(fleet, directory)
        lows = np.array([0.0, 250.0, 700.0])
        highs = np.array([1000.0, 400.0, 900.0])
        want = load_fleet(directory).snapshot().exact_batch(lows, highs)
        manifest_size = (directory / "manifest.json").stat().st_size

        for budget in range(0, manifest_size, max(1, manifest_size // 40)):
            def crashing_write(path, writer, _budget=budget):
                atomic_write(
                    path, writer,
                    opener=lambda tmp: FaultyFile(tmp, fail_after=_budget),
                )

            monkeypatch.setattr(persistence, "atomic_write", crashing_write)
            with pytest.raises(CrashPoint):
                save_fleet(fleet, directory)
            monkeypatch.undo()
            # The torn tmp file must not shadow the committed manifest.
            reloaded = load_fleet(directory)
            got = reloaded.snapshot().exact_batch(lows, highs)
            assert np.array_equal(got, want), f"budget {budget}"
            assert not list(directory.glob("*.tmp"))  # pruned on load

    def test_crash_on_first_save_fails_typed_never_partial(self, tmp_path, monkeypatch):
        fleet = IndexFleet.build(_keys(seed=34), None, Aggregate.COUNT,
                                 delta=25.0, config=FAST, num_partitions=2)
        directory = tmp_path / "fresh"

        def crashing_write(path, writer):
            atomic_write(path, writer, opener=lambda tmp: FaultyFile(tmp, fail_after=10))

        monkeypatch.setattr(persistence, "atomic_write", crashing_write)
        with pytest.raises(CrashPoint):
            save_fleet(fleet, directory)
        monkeypatch.undo()
        with pytest.raises(SerializationError):
            load_fleet(directory)

    def test_load_fleet_verify_checks_partition_checksums(self, fleet_dir):
        victim = sorted(fleet_dir.glob("partition-*.pfbin"))[-1]
        flip_bit(victim, victim.stat().st_size // 2)  # inside a data blob
        with pytest.raises(SerializationError, match="checksum"):
            load_fleet(fleet_dir, verify=True)
