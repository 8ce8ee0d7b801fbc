"""Crash-safe checkpoint storage for the measurement service.

A checkpoint is the complete resumable state of a running daemon: one
mid-stream snapshot per shard (the IMSNAP wire format of
:mod:`repro.state.codec`, whose stream cursors make unknown-length
ingestion bit-identically resumable) plus a small JSON manifest of
stream bookkeeping — position, epoch, origin — the daemon needs to
re-open its source at the right packet.

Atomicity is by write-then-rename: every shard file and the manifest
are written to a ``.tmp`` sibling, fsynced and ``os.replace``d into
place, and the *manifest* rename comes last — after the directory is
fsynced, so the shard files it names are on disk first — making it the
commit point.  A crash mid-checkpoint leaves either a complete
checkpoint or dangling shard files that no manifest references;
:meth:`CheckpointStore.latest` also skips any checkpoint whose manifest
is unreadable or whose shard files are missing, so recovery always lands
on the newest *complete* one.

The manifest records each shard file's byte length and zlib CRC32, and
:meth:`CheckpointStore.load` checks both, so a shard file damaged after
the commit (a flipped byte that still decodes, a torn write) raises
:class:`~repro.errors.SnapshotError` instead of restoring wrong state.
Manifests written before these fields existed still load, unchecked.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SnapshotError
from repro.state import from_bytes, to_bytes

#: Manifest key recording the wire version of the checkpoint layout.
CHECKPOINT_VERSION = 1


@dataclass
class CheckpointInfo:
    """One complete checkpoint on disk."""

    seq: int
    manifest_path: str
    shard_paths: "list[str]"
    meta: "dict" = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.shard_paths)


class CheckpointStore:
    """Numbered checkpoints in one directory, newest wins.

    Layout (``seq`` zero-padded so lexical order is numeric order)::

        ckpt-00000007.shard0.imsnap
        ckpt-00000007.shard1.imsnap
        ckpt-00000007.json          <- commit point, written last

    ``keep`` bounds how many checkpoints survive a :meth:`save`; older
    ones are pruned (manifest deleted first, so a prune interrupted
    mid-way never leaves a manifest pointing at deleted shards).
    """

    def __init__(self, directory: "str | os.PathLike[str]", keep: int = 3) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)

    # -- naming ----------------------------------------------------------------

    def _manifest_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"ckpt-{seq:08d}.json")

    def _shard_path(self, seq: int, shard: int) -> str:
        return os.path.join(self.directory, f"ckpt-{seq:08d}.shard{shard}.imsnap")

    def _sequences(self) -> "list[int]":
        seqs = []
        for name in os.listdir(self.directory):
            if name.startswith("ckpt-") and name.endswith(".json"):
                try:
                    seqs.append(int(name[5:-5]))
                except ValueError:
                    continue
        return sorted(seqs)

    # -- writing ---------------------------------------------------------------

    def save(self, snapshots, meta: "dict | None" = None) -> CheckpointInfo:
        """Write one checkpoint atomically; returns its info.

        ``snapshots`` is the per-shard snapshot list (one entry for an
        unsharded daemon); ``meta`` is merged into the manifest, under the
        store's own fields (``version``, ``seq``, ``shards``,
        ``shard_integrity``), which a colliding ``meta`` key never
        overrides — so re-saving a loaded checkpoint's ``meta`` writes a
        new checkpoint, not a copy of the old one's manifest.
        """
        if not snapshots:
            raise ConfigurationError("a checkpoint needs at least one snapshot")
        seqs = self._sequences()
        seq = (seqs[-1] + 1) if seqs else 0
        shard_paths = []
        integrity = []
        for shard, snapshot in enumerate(snapshots):
            path = self._shard_path(seq, shard)
            payload = to_bytes(snapshot)
            with open(path + ".tmp", "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(path + ".tmp", path)
            shard_paths.append(path)
            integrity.append({"bytes": len(payload), "crc32": zlib.crc32(payload)})
        # The shard renames reach the disk before the manifest commits them.
        self._fsync_directory()
        manifest = {
            **(meta or {}),
            "version": CHECKPOINT_VERSION,
            "seq": seq,
            "shards": [os.path.basename(path) for path in shard_paths],
            "shard_integrity": integrity,
        }
        manifest_path = self._manifest_path(seq)
        with open(manifest_path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(manifest_path + ".tmp", manifest_path)
        self._fsync_directory()
        self.prune()
        return CheckpointInfo(
            seq=seq, manifest_path=manifest_path, shard_paths=shard_paths, meta=manifest
        )

    def _fsync_directory(self) -> None:
        descriptor = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def prune(self, keep: "int | None" = None) -> int:
        """Delete all but the newest ``keep`` checkpoints; returns count."""
        keep = self.keep if keep is None else keep
        doomed = self._sequences()[:-keep] if keep else self._sequences()
        for seq in doomed:
            self._delete(seq)
        return len(doomed)

    def _delete(self, seq: int) -> None:
        # Manifest first: without it the shard files are dead weight, not
        # a half-valid checkpoint.
        for path in [self._manifest_path(seq)] + [
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if name.startswith(f"ckpt-{seq:08d}.shard")
        ]:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    # -- reading ---------------------------------------------------------------

    def _info(self, seq: int) -> "CheckpointInfo | None":
        manifest_path = self._manifest_path(seq)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            shard_paths = [
                os.path.join(self.directory, name) for name in manifest["shards"]
            ]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if not shard_paths or not all(os.path.exists(p) for p in shard_paths):
            return None
        return CheckpointInfo(
            seq=seq,
            manifest_path=manifest_path,
            shard_paths=shard_paths,
            meta=manifest,
        )

    def list(self) -> "list[CheckpointInfo]":
        """All complete checkpoints, oldest first."""
        infos = (self._info(seq) for seq in self._sequences())
        return [info for info in infos if info is not None]

    def latest(self) -> "CheckpointInfo | None":
        """The newest complete checkpoint, or ``None`` when there is no
        usable one (empty directory, or every manifest corrupt)."""
        for seq in reversed(self._sequences()):
            info = self._info(seq)
            if info is not None:
                return info
        return None

    def load(self, info: CheckpointInfo):
        """The checkpoint's per-shard snapshots, in shard order.

        Raises :class:`~repro.errors.SnapshotError` when a shard file's
        length or CRC32 differs from what the manifest recorded, or the
        recorded values are malformed.
        """
        integrity = info.meta.get("shard_integrity")
        if integrity is not None and (
            not isinstance(integrity, list) or len(integrity) != len(info.shard_paths)
        ):
            raise SnapshotError(
                f"checkpoint {info.seq} shard_integrity does not list "
                f"{len(info.shard_paths)} shard files"
            )
        snapshots = []
        for shard, path in enumerate(info.shard_paths):
            with open(path, "rb") as handle:
                payload = handle.read()
            if integrity is not None:
                _check_integrity(info.seq, path, payload, integrity[shard])
            snapshots.append(from_bytes(payload))
        return snapshots


def _check_integrity(seq: int, path: str, payload: bytes, recorded) -> None:
    """Raise SnapshotError unless ``payload`` has the recorded length and CRC32."""
    if not isinstance(recorded, dict):
        raise SnapshotError(f"checkpoint {seq} integrity entry {recorded!r} is malformed")
    expected = (recorded.get("bytes"), recorded.get("crc32"))
    actual = (len(payload), zlib.crc32(payload))
    if expected != actual:
        raise SnapshotError(
            f"checkpoint {seq} shard file {os.path.basename(path)} is damaged: "
            f"{actual[0]} bytes, crc32 {actual[1]:#010x}; the manifest "
            f"recorded {expected[0]!r} bytes, crc32 {expected[1]!r}"
        )
