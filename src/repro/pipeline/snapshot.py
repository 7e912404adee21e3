"""Durable session snapshots: serialize/restore cleaning sessions exactly.

The sessions of :mod:`repro.pipeline` are stateful by construction —
reliability/currency decisions accumulate across rounds — yet until this
module they lived and died with the process: a service restart meant
re-cleaning millions of rows from scratch.  Snapshots make the session
state durable, in the spirit of incremental view-maintenance engines
that persist auxiliary structures to keep answering under updates
without recomputation (Berkholz et al., "FO+MOD queries under updates").

What is stored vs rebuilt
-------------------------
A snapshot persists exactly the state that is *not* a pure function of
anything else:

* the rules and master data (the session's environment — omitted from
  per-shard snapshots, whose worker already holds them);
* the **base** (dirty) and **working** (repaired) relations, columnar
  (:mod:`repro.pipeline.payload`), insertion order and tid bookkeeping
  (``_next_tid``, retired tids) included — when the resident relations
  are column-backed (:mod:`repro.relational.columns`) the encode/decode
  is a resident-ref ↔ snapshot-ref remap over the column arrays, never a
  per-tuple walk, and the emitted bytes are identical either way;
* the ordered **fix log** and the per-cell **cost map** (entry order is
  preserved so float sums replay bit-identically);
* the **MD match cache** as ``premise projection → master tids`` (master
  data is immutable, so tids re-resolve exactly);
* the **ever-group-key sets** (collision-detection state: they include
  transient keys of past runs and cannot be rebuilt from the data);
* the last satisfaction verdict (it gates the scoped verification path).

Everything derived is rebuilt on restore by
:meth:`~repro.pipeline.session.CleaningSession._attach_relation_state`:
group stores, the violation/check index, the entropy structures and the
master-side blocking indexes are pure functions of the persisted
relations and rules, so rebuilding is both smaller on disk and exact.
A restored session's subsequent ``apply()``/``clean()`` observables are
therefore **byte-identical** to the never-stopped session's — fuzz-
verified (with phase traces compared) in
``tests/properties/test_property_snapshot.py``.

File format
-----------
One framed binary blob (written atomically: temp file + ``os.replace``)::

    MAGIC "UCSN" | version byte | kind | n_sections
    per section:  name | body length | SHA-256(body) | body
    trailer:      SHA-256 of everything above

Section bodies are pickled columnar dicts sharing one
:class:`~repro.pipeline.payload.ValueTable` (its value list is itself a
section), so base/working/log/cache values dedupe against each other.
Any truncation or bit flip fails a digest (or the framing) and raises
:class:`~repro.exceptions.SnapshotCorrupt` — a snapshot is never loaded
silently wrong.  An unknown version byte is refused the same way: format
changes must bump :data:`SNAPSHOT_VERSION` consciously (the golden-
fixture test in ``tests/pipeline/test_snapshot.py`` enforces that
current code keeps restoring committed version-1 snapshots).

Sharded sessions
----------------
``ShardedCleaningSession.save(path)`` writes a *directory*: one snapshot
per shard, named ``shard-<content id>-<state digest>.snap`` — the
``_shard_content_id`` that addresses the shard's live worker session
plus a prefix of the blob's own SHA-256, so a re-save whose shard
*state* changed (same tid set, same content id) writes a fresh file
instead of overwriting one the still-installed previous manifest
references — plus a ``manifest.snap`` holding the coordinator state (plan, merged
working, fix log, per-shard views with their full-form flags) and the
SHA-256 of every shard file, so a manifest and stale shard files from a
different save can never be mixed.  ``restore`` re-attaches every shard
snapshot to its worker slot (slot affinity is content-id-derived, so
each worker gets its old shards back), which is what keeps sticky
re-planning reusing warm shards across restarts.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.fixes import FixLog
from repro.exceptions import SnapshotCorrupt, SnapshotError
from repro.pipeline import payload
from repro.relational.schema import Schema

SNAPSHOT_MAGIC = b"UCSN"
#: Bump consciously on any change to the framing or the section schema;
#: restore refuses unknown versions instead of guessing.
SNAPSHOT_VERSION = 1

_PROTOCOL = pickle.HIGHEST_PROTOCOL
_DIGEST = hashlib.sha256
_DIGEST_SIZE = 32

#: The manifest file of a sharded snapshot directory.
MANIFEST_NAME = "manifest.snap"


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def pack_snapshot(kind: str, sections: Dict[str, bytes]) -> bytes:
    """Frame *sections* into one self-validating snapshot blob."""
    kind_bytes = kind.encode("utf-8")
    if len(kind_bytes) > 255:
        raise SnapshotError(f"snapshot kind too long: {kind!r}")
    out = bytearray()
    out += SNAPSHOT_MAGIC
    out.append(SNAPSHOT_VERSION)
    out.append(len(kind_bytes))
    out += kind_bytes
    out += struct.pack(">I", len(sections))
    for name, body in sections.items():
        name_bytes = name.encode("utf-8")
        out += struct.pack(">H", len(name_bytes))
        out += name_bytes
        out += struct.pack(">Q", len(body))
        out += _DIGEST(body).digest()
        out += body
    out += _DIGEST(bytes(out)).digest()
    return bytes(out)


class _Reader:
    """Bounds-checked cursor over a snapshot blob; every short read is a
    corruption, never an ``IndexError``."""

    __slots__ = ("data", "at")

    def __init__(self, data: bytes):
        self.data = data
        self.at = 0

    def take(self, n: int) -> bytes:
        end = self.at + n
        if n < 0 or end > len(self.data):
            raise SnapshotCorrupt("snapshot truncated mid-frame")
        out = self.data[self.at : end]
        self.at = end
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]


def unpack_snapshot(
    data: bytes, expect_kind: Optional[str] = None
) -> Tuple[str, Dict[str, bytes]]:
    """Validate and split a snapshot blob into ``(kind, sections)``.

    Raises :class:`~repro.exceptions.SnapshotCorrupt` on any magic,
    version, framing or checksum failure — validation happens **before**
    any section body is unpickled.
    """
    if len(data) < len(SNAPSHOT_MAGIC) + 2 + _DIGEST_SIZE:
        raise SnapshotCorrupt("snapshot too short to be valid")
    if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotCorrupt("not a snapshot (bad magic)")
    body, trailer = data[:-_DIGEST_SIZE], data[-_DIGEST_SIZE:]
    if _DIGEST(body).digest() != trailer:
        raise SnapshotCorrupt("snapshot checksum mismatch (file digest)")
    reader = _Reader(body)
    reader.take(len(SNAPSHOT_MAGIC))
    version = reader.u8()
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorrupt(
            f"unsupported snapshot version {version} (this build reads "
            f"version {SNAPSHOT_VERSION}; bump SNAPSHOT_VERSION consciously "
            f"when the format changes)"
        )
    kind = reader.take(reader.u8()).decode("utf-8")
    if expect_kind is not None and kind != expect_kind:
        raise SnapshotCorrupt(
            f"snapshot kind {kind!r} where {expect_kind!r} was expected"
        )
    sections: Dict[str, bytes] = {}
    for _ in range(reader.u32()):
        name = reader.take(reader.u16()).decode("utf-8")
        length = reader.u64()
        digest = reader.take(_DIGEST_SIZE)
        section = reader.take(length)
        if _DIGEST(section).digest() != digest:
            raise SnapshotCorrupt(
                f"snapshot checksum mismatch in section {name!r}"
            )
        sections[name] = section
    if reader.at != len(body):
        raise SnapshotCorrupt("snapshot carries trailing garbage")
    return kind, sections


def write_snapshot_file(path, blob: bytes) -> int:
    """Atomically write *blob* to *path* (unique temp file + ``os.replace``).

    A crash before the rename leaves the previous snapshot intact; the
    temp file never becomes visible under the target name (and is named
    via ``mkstemp``, so concurrent saves to one path cannot clobber each
    other's temp data).  The containing directory is fsynced after the
    rename, so a reported success survives power loss.  Returns the
    number of bytes written.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".tmp."
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)  # make the rename itself durable
        finally:
            os.close(dir_fd)
    finally:
        try:
            os.unlink(tmp)  # only present when the replace never happened
        except FileNotFoundError:
            pass
    return len(blob)


def _read_back(path) -> bytes:
    """Read snapshot bytes back from disk through the ``"snapshot.read"``
    fault point (:mod:`repro.pipeline.faults`): an armed ``corrupt`` spec
    flips a byte *before* validation, so the checksummed framing raises
    :class:`~repro.exceptions.SnapshotCorrupt` exactly as a real torn
    file would."""
    data = Path(path).read_bytes()
    from repro.pipeline import faults

    injector = faults.active()
    if injector is not None:
        data = injector.mangle_at("snapshot.read", data, target=os.fspath(path))
    return data


def read_snapshot_file(path, expect_kind: Optional[str] = None):
    """Read and validate a snapshot file; see :func:`unpack_snapshot`."""
    try:
        data = _read_back(path)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {os.fspath(path)!r}") from None
    return unpack_snapshot(data, expect_kind)


# ----------------------------------------------------------------------
# Session encoding
# ----------------------------------------------------------------------
def _schema_lookup_for(*relations_and_rules) -> payload.SchemaLookup:
    """A lookup reusing known schema instances (and memoizing fresh
    ones, so base and working decode onto one schema object)."""
    known: Dict[Tuple[str, Tuple[str, ...]], Schema] = {}

    def remember(schema: Schema) -> None:
        known.setdefault((schema.name, tuple(schema.names)), schema)

    for source in relations_and_rules:
        if source is None:
            continue
        schema = getattr(source, "schema", None)
        if schema is not None:
            remember(schema)

    def lookup(name: str, names: Tuple[str, ...]) -> Schema:
        key = (name, tuple(names))
        schema = known.get(key)
        if schema is None:
            schema = known[key] = Schema(name, names)
        return schema

    return lookup


def encode_session(session, include_environment: bool = True) -> bytes:
    """Serialize a :class:`~repro.pipeline.session.CleaningSession`.

    ``include_environment=False`` omits rules, config and master data —
    the per-shard form, where the hosting worker already owns them and
    supplies them back at decode time.
    """
    from repro.exceptions import DataError

    if session.base is None or session.working is None:
        raise DataError("CleaningSession.save() requires a prior clean()")
    table = payload.ValueTable()
    caches = _cache_entries(session, scoped=not include_environment)
    encoded: Dict[str, Any] = {
        "meta": {
            "collect_traces": session.collect_traces,
            "last_clean": session._last_clean,
            "has_master": session.master is not None,
            "has_environment": include_environment,
        },
        "base": payload.encode_relation(session.base, table),
        "working": payload.encode_relation(session.working, table),
        "fixlog": payload.encode_fixes(session.fix_log.fixes(), table),
        "costs": payload.encode_costs(session._cell_costs, table),
        "ever": payload.encode_ever_keys(session.ever_group_keys, table),
        "cache": payload.encode_match_caches(caches, table),
    }
    if include_environment:
        encoded["environment"] = (session.cfds, session.mds, session.config)
        if session.master is not None:
            encoded["master"] = payload.encode_relation(session.master, table)
    sections = {
        name: pickle.dumps(body, _PROTOCOL) for name, body in encoded.items()
    }
    sections["values"] = pickle.dumps(table.values, _PROTOCOL)
    return pack_snapshot("session", sections)


def _cache_entries(session, scoped: bool) -> Dict[str, List[Tuple]]:
    """The MD match-cache entries worth persisting for *session*.

    Shard sessions share one cache dict per worker (their
    ``md_indexes`` is the :class:`_WorkerState`-level mapping), so a
    *scoped* snapshot keeps only the entries whose premise projection
    occurs in this session's own base or working tuples — otherwise
    every shard file would duplicate the whole worker's cache.  Dropping
    an entry is always safe: the cache is a pure memo, recomputed
    deterministically on miss.

    MDs sharing a premise share one index, so each cache is written
    once, under the first name that reaches it; restoring warms the
    shared index through that name.  Snapshots that list a cache under
    every sibling name restore too: the siblings' entries agree key for
    key, so warming the shared index from each leaves one cache.
    """
    out: Dict[str, List[Tuple]] = {}
    allowed_by_attrs: Dict[Tuple[str, ...], set] = {}
    written: set = set()
    for name, index in session.md_indexes.items():
        if not index._match_cache or id(index) in written:
            continue
        written.add(id(index))
        entries = index.cache_entries()
        if scoped:
            attrs = index._premise_attrs
            allowed = allowed_by_attrs.get(attrs)
            if allowed is None:  # one scan per distinct premise projection
                allowed = allowed_by_attrs[attrs] = (
                    session.working.project(attrs)
                    | session.base.project(attrs)
                )
            entries = [(key, tids) for key, tids in entries if key in allowed]
        if entries:
            out[name] = entries
    return out


def decode_session(
    blob: bytes,
    environment: Optional[Tuple] = None,
):
    """Rebuild a :class:`~repro.pipeline.session.CleaningSession`.

    *environment* — ``(cfds, mds, master, config, md_indexes)`` — must be
    given for snapshots written with ``include_environment=False`` (the
    per-shard form); when given it also wins over an embedded
    environment, which is how a worker re-attaches a shard session to its
    process-local master-side indexes.
    """
    _kind, sections = unpack_snapshot(blob, expect_kind="session")
    return _decode_session_sections(sections, environment)


def _load_section(sections: Dict[str, bytes], name: str) -> Any:
    try:
        body = sections[name]
    except KeyError:
        raise SnapshotCorrupt(f"snapshot is missing section {name!r}") from None
    return pickle.loads(body)


def _decode_session_sections(
    sections: Dict[str, bytes], environment: Optional[Tuple]
):
    from repro.pipeline.session import CleaningSession

    values: List[Any] = _load_section(sections, "values")
    meta = _load_section(sections, "meta")
    if environment is not None:
        cfds, mds, master, config, md_indexes = environment
    else:
        if not meta["has_environment"]:
            raise SnapshotError(
                "snapshot was written without its environment (per-shard "
                "form); pass rules/master/config to decode it"
            )
        cfds, mds, config = _load_section(sections, "environment")
        master = (
            payload.decode_relation(
                _load_section(sections, "master"), values,
                _schema_lookup_for(*cfds),
            )
            if meta["has_master"]
            else None
        )
        md_indexes = None
    session = CleaningSession.from_normalized(
        cfds,
        mds,
        master,
        config,
        md_indexes=md_indexes,
        collect_traces=meta["collect_traces"],
    )
    lookup = _schema_lookup_for(*cfds, master)
    base = payload.decode_relation(_load_section(sections, "base"), values, lookup)
    working = payload.decode_relation(
        _load_section(sections, "working"), values, lookup
    )
    fix_log = FixLog()
    for fix in payload.decode_fixes(_load_section(sections, "fixlog"), values):
        fix_log.record(fix)
    session._adopt_restored_state(
        base=base,
        working=working,
        fix_log=fix_log,
        cell_costs=payload.decode_costs(_load_section(sections, "costs"), values),
        ever_group_keys=payload.decode_ever_keys(
            _load_section(sections, "ever"), values
        ),
        last_clean=meta["last_clean"],
    )
    # _attach_relation_state built the blocking indexes; re-warm their
    # match caches with the persisted entries (exact: master tids).
    for name, entries in payload.decode_match_caches(
        _load_section(sections, "cache"), values
    ).items():
        index = session.md_indexes.get(name)
        if index is not None:
            index.warm_cache(entries)
    return session


def save_session(session, path) -> int:
    """Write *session* to the snapshot file *path* atomically."""
    return write_snapshot_file(path, encode_session(session))


def restore_session(path):
    """Rebuild a session from the snapshot file at *path*."""
    _kind, sections = read_snapshot_file(path, expect_kind="session")
    return _decode_session_sections(sections, environment=None)


# ----------------------------------------------------------------------
# Sharded sessions (manifest + one snapshot per shard)
# ----------------------------------------------------------------------
def save_sharded(session, path) -> int:
    """Write *session* (a sharded session) to the directory *path*.

    Shard snapshots are pulled from their workers and written first,
    then the manifest — which names every shard file with its SHA-256 —
    is renamed into place last, so a reader either sees a complete,
    cross-checked snapshot or the previous one.  Returns total bytes.
    """
    from repro.exceptions import DataError

    if session.working is None or session.base is None or session.plan is None:
        raise DataError(
            "ShardedCleaningSession.save() requires a prior clean()"
        )
    if session._closed:
        raise DataError("cannot save a close()d ShardedCleaningSession")
    if session._pending:
        raise DataError(
            "flush() the buffered changesets before save() (buffered ops "
            "are not part of the session state)"
        )
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    runner = session._ensure_runner()
    shard_ids = list(session.plan.ids)
    blobs: List[bytes] = runner.run(
        [(sid, "snapshot_shard", ()) for sid in shard_ids]
    )
    total = 0
    shard_files: List[Tuple[str, str, str]] = []
    for sid, blob in zip(shard_ids, blobs):
        digest = _DIGEST(blob).hexdigest()
        # Content-addressed name: a shard whose *state* changed gets a
        # fresh file even when its tid set (and hence content id) did
        # not, so re-saving into the same directory never overwrites a
        # file the still-installed previous manifest references — a
        # crash anywhere mid-save leaves the old snapshot restorable.
        file_name = f"shard-{sid}-{digest[:16]}.snap"
        total += write_snapshot_file(directory / file_name, blob)
        shard_files.append((sid, file_name, digest))

    table = payload.ValueTable()
    views = []
    for sid in shard_ids:
        view = session._shard_views[sid]
        views.append(
            (sid, _encode_view(view, table), view.fullform)
        )
    encoded: Dict[str, Any] = {
        "meta": {
            "last_clean": session._last_clean,
            "stats": dict(session.stats),
            "n_workers": session.n_workers,
            "n_shards": session.n_shards,
            "reuse_sessions": session.reuse_sessions,
            "include_md_affinity": session.include_md_affinity,
            "track_legacy_bytes": session.track_legacy_bytes,
            "has_master": session.master is not None,
            "shard_files": shard_files,
        },
        "environment": (session.cfds, session.mds, session.config),
        "base": payload.encode_relation(session.base, table),
        "working": payload.encode_relation(session.working, table),
        "fixlog": payload.encode_fixes(session.fix_log.fixes(), table),
        "plan": {
            "shards": [payload.pack_ints(tids) for tids in session.plan.shards],
            "ids": list(session.plan.ids),
            "n_components": session.plan.n_components,
            "degenerate": session.plan.degenerate,
            "reason": session.plan.reason,
        },
        "views": views,
    }
    if session.master is not None:
        encoded["master"] = payload.encode_relation(session.master, table)
    sections = {
        name: pickle.dumps(body, _PROTOCOL) for name, body in encoded.items()
    }
    sections["values"] = pickle.dumps(table.values, _PROTOCOL)
    total += write_snapshot_file(
        directory / MANIFEST_NAME, pack_snapshot("sharded", sections)
    )
    # With the new manifest durably in place, retire shard files it does
    # not reference (earlier saves' states, ids that left the plan).
    keep = {MANIFEST_NAME} | {file_name for _sid, file_name, _d in shard_files}
    for stale in directory.glob("shard-*.snap"):
        if stale.name not in keep:
            stale.unlink()
    return total


def _encode_view(view, table: payload.ValueTable) -> Dict[str, Any]:
    from repro.pipeline import sharding

    if view.repaired is not None:
        raise SnapshotError(
            "shard view still holds an unmerged repaired relation"
        )
    return sharding._encode_clean_outcome(view, table)


def restore_sharded(
    path,
    n_workers: Optional[int] = None,
    supervision=None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    checkpoint_retain: int = 3,
):
    """Rebuild a :class:`~repro.pipeline.sharding.ShardedCleaningSession`
    from a :func:`save_sharded` directory.

    Every shard snapshot is verified against the manifest's digest and
    re-attached to its worker (content-id slot affinity puts each shard
    back where it lived), so the next sticky re-plan reuses the restored
    shards instead of re-cleaning them.  *n_workers* may override the
    saved worker count — shard state is worker-agnostic.  *supervision*
    and the ``checkpoint_*`` knobs configure the restored session; they
    are runtime policy, deliberately not snapshot state.
    """
    from repro.pipeline.sharding import ShardedCleaningSession, ShardPlan

    directory = Path(path)
    _kind, sections = read_snapshot_file(
        directory / MANIFEST_NAME, expect_kind="sharded"
    )
    values: List[Any] = _load_section(sections, "values")
    meta = _load_section(sections, "meta")
    cfds, mds, config = _load_section(sections, "environment")
    master = (
        payload.decode_relation(
            _load_section(sections, "master"), values, _schema_lookup_for(*cfds)
        )
        if meta["has_master"]
        else None
    )
    session = ShardedCleaningSession.from_normalized(
        cfds,
        mds,
        master,
        config,
        n_workers=n_workers if n_workers is not None else meta["n_workers"],
        n_shards=meta["n_shards"],
        include_md_affinity=meta["include_md_affinity"],
        reuse_sessions=meta["reuse_sessions"],
        track_legacy_bytes=meta["track_legacy_bytes"],
        supervision=supervision,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        checkpoint_retain=checkpoint_retain,
    )
    lookup = _schema_lookup_for(*cfds, master)
    session.base = payload.decode_relation(
        _load_section(sections, "base"), values, lookup
    )
    session.working = payload.decode_relation(
        _load_section(sections, "working"), values, lookup
    )
    log = FixLog()
    for fix in payload.decode_fixes(_load_section(sections, "fixlog"), values):
        log.record(fix)
    session.fix_log = log
    plan_blob = _load_section(sections, "plan")
    shards = [list(tids) for tids in plan_blob["shards"]]
    session.plan = ShardPlan(
        shards=shards,
        shard_of={
            tid: index for index, tids in enumerate(shards) for tid in tids
        },
        n_components=plan_blob["n_components"],
        degenerate=plan_blob["degenerate"],
        reason=plan_blob["reason"],
        ids=list(plan_blob["ids"]),
    )
    # The crash-recovery registry aliases the plan's tid lists, exactly
    # as _install_plan arranges for a live session.
    session._shard_tids = {
        sid: tids for sid, tids in zip(session.plan.ids, session.plan.shards)
    }
    from repro.pipeline import sharding

    session._shard_views = {}
    for sid, view_blob, fullform in _load_section(sections, "views"):
        view = sharding._decode_clean_outcome(view_blob, values)
        view.fullform = fullform
        session._shard_views[sid] = view
    session._last_clean = meta["last_clean"]
    session.stats.update(meta["stats"])

    # Read and digest-check every shard blob *before* spawning workers,
    # so a corrupt directory raises without leaking a process pool.
    calls = []
    for sid, file_name, digest in meta["shard_files"]:
        try:
            blob = _read_back(directory / file_name)
        except FileNotFoundError:
            raise SnapshotCorrupt(
                f"sharded snapshot is missing shard file {file_name!r}"
            ) from None
        if _DIGEST(blob).hexdigest() != digest:
            raise SnapshotCorrupt(
                f"shard file {file_name!r} does not match the manifest digest"
            )
        calls.append((sid, "restore_shard", (blob,)))
    try:
        session._ensure_runner().run(calls)
    except BaseException:
        session.close()  # do not leak the pool on a failed re-attach
        raise
    session._session_ids = {sid for sid, _f, _d in meta["shard_files"]}
    session._sync_io_stats()
    return session


# ----------------------------------------------------------------------
# Checkpoints (a retained sequence of sharded snapshots)
# ----------------------------------------------------------------------
#: Checkpoint directories are named ``checkpoint-<seq>`` with a fixed-
#: width sequence number, so lexicographic order is creation order.
CHECKPOINT_PREFIX = "checkpoint-"


def list_checkpoints(path) -> List[Path]:
    """The checkpoint directories under *path*, oldest first."""
    root = Path(path)
    if not root.is_dir():
        return []
    out: List[Tuple[int, Path]] = []
    for entry in root.iterdir():
        if not entry.is_dir() or not entry.name.startswith(CHECKPOINT_PREFIX):
            continue
        suffix = entry.name[len(CHECKPOINT_PREFIX):]
        if suffix.isdigit():
            out.append((int(suffix), entry))
    out.sort()
    return [entry for _seq, entry in out]


def save_checkpoint(session, path, retain: int = 3) -> Path:
    """Write a sharded snapshot of *session* as the next checkpoint under
    *path* and prune all but the newest *retain* checkpoints.

    Each checkpoint is a :func:`save_sharded` directory; its manifest is
    written last, so a checkpoint that lost a race with a crash simply
    fails validation and :func:`restore_latest_checkpoint` falls back to
    the previous one.  Returns the new checkpoint's path.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    existing = list_checkpoints(root)
    seq = (
        int(existing[-1].name[len(CHECKPOINT_PREFIX):]) + 1 if existing else 1
    )
    target = root / f"{CHECKPOINT_PREFIX}{seq:06d}"
    save_sharded(session, target)
    if retain > 0:
        import shutil

        for stale in list_checkpoints(root)[:-retain]:
            shutil.rmtree(stale, ignore_errors=True)
    return target


def restore_latest_checkpoint(
    path,
    n_workers: Optional[int] = None,
    supervision=None,
    checkpoint_every: int = 0,
    checkpoint_retain: int = 3,
):
    """Restore the newest checkpoint under *path* that validates.

    Corrupt, torn or half-written checkpoints (a flipped byte, a missing
    shard file, a crash mid-save) are skipped newest-to-oldest until one
    restores cleanly; raises :class:`~repro.exceptions.SnapshotError`
    when none does.  The restored session checkpoints back into *path*
    when *checkpoint_every* is set.
    """
    candidates = list_checkpoints(path)
    last_error: Optional[Exception] = None
    for candidate in reversed(candidates):
        try:
            return restore_sharded(
                candidate,
                n_workers=n_workers,
                supervision=supervision,
                checkpoint_dir=path,
                checkpoint_every=checkpoint_every,
                checkpoint_retain=checkpoint_retain,
            )
        except SnapshotError as exc:
            last_error = exc
    if last_error is not None:
        raise SnapshotError(
            f"no restorable checkpoint under {os.fspath(path)!r} "
            f"(newest failure: {last_error})"
        ) from last_error
    raise SnapshotError(f"no checkpoints under {os.fspath(path)!r}")
