"""Content-addressed persistence of individual simulation runs.

Every simulation in the evaluation is a pure function of its
``(ExperimentConfig, policy, economic model)`` triple — the workload is
synthesised from the config's seed and the engine is deterministic.  That
makes each run *content addressable*: :class:`RunKey` hashes the triple
(plus :data:`SCHEMA_VERSION`, so incompatible code revisions never collide)
into a stable digest, and :class:`RunStore` keeps finished
:class:`~repro.core.objectives.ObjectiveSet` s under that digest.

The store is two-layered:

- **L1** — a per-process dict (what the historical ``RunCache`` was);
- **L2** — an optional on-disk cache directory of one JSON document per
  run, written atomically (temp file + ``os.replace``) so a killed grid
  never leaves a truncated document behind, and loaded tolerantly (a
  corrupt or incompatible file is a miss, never a crash).

Layout of a cache directory::

    <cache_dir>/
      index.jsonl                  append-only per-run metadata lines
      runs/<digest[:2]>/<digest>.json
      docs/<digest[:2]>/<digest>.json   generic documents (e.g. market
                                   runs) under caller-computed digests
      failures.jsonl               append-only failure journal (one JSON
                                   line per exhausted-retries failure)
      quarantine/<digest>.json     corrupt/foreign run documents, moved
                                   aside for diagnosis instead of deleted

Because keys are content hashes, *resume is free*: rerunning any grid
against a populated cache dir only simulates the missing keys.  Failed
cells are first-class too: the supervisor journals them under the same
digest (:meth:`RunStore.record_failure`), and a later successful ``put``
of the digest resolves the failure — the journal stays append-only, the
run document wins.  A corrupt or truncated run document is evidence of a
crash: it is *quarantined* (moved into ``quarantine/``), counted under
``runstore.quarantined``, and treated as a miss.

Stores on different machines (or different worker processes of a
:mod:`repro.farm` grid farm) converge through :meth:`RunStore.merge_from`:
the union of two stores is well defined *because* keys are content
hashes — identical digests with identical bytes dedupe, the same digest
with differing bytes is a contract violation and both sides are
quarantined as evidence, and failure journals concatenate so the latest
record per digest wins.  The append-only ``index.jsonl`` is advisory
metadata; :meth:`RunStore.compact` rewrites it atomically (dedupe by
digest, drop entries whose run document is gone) so it stays bounded
across resumes and merges.

The perf registry sees every store interaction under the ``runstore.*``
counters (``runstore.hits``, ``runstore.misses``, ``runstore.disk_hits``,
``runstore.bytes_written``, ``runstore.bytes_read``,
``runstore.corrupt_skipped``, ``runstore.quarantined``,
``runstore.failures_recorded``, ``runstore.merge_*``,
``runstore.index_compactions``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.objectives import OBJECTIVES, Objective, ObjectiveSet
from repro.experiments.errors import FailureRecord
from repro.experiments.scenarios import ExperimentConfig
from repro.faults.config import FaultConfig
from repro.perf.registry import PERF

#: Version of the run-content schema hashed into every :class:`RunKey`.
#: Bump when a code change alters what a cached result means (workload
#: synthesis, objective measurement, policy semantics): old cache entries
#: then simply stop matching instead of being silently wrong.
#:
#: History: 2 — ``ExperimentConfig`` grew the nested ``faults`` block
#: (fault injection); grids cached under schema 1 predate dependability
#: semantics and must re-run.
#: 3 — ``FaultConfig`` grew the fault-domain subsystem (topology,
#: domain/site outage processes, cascades, elastic capacity); the extra
#: fields change every config's serialised form, so schema-2 entries miss
#: cleanly and re-run.
SCHEMA_VERSION = 3

#: Format marker / document version of one on-disk run document.
RUN_FORMAT = "repro-run"
RUN_VERSION = 1


class StoreError(ValueError):
    """Raised on malformed or incompatible stored documents."""


def config_to_dict(config: ExperimentConfig) -> dict:
    """A JSON-ready, field-complete view of an experiment configuration.

    The nested ``faults`` block serialises through
    :meth:`repro.faults.config.FaultConfig.to_dict` so the whole document
    stays plain JSON (the scripted schedule becomes lists of lists).
    """
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        doc[f.name] = value.to_dict() if f.name == "faults" else value
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Rebuild a configuration from :func:`config_to_dict` output."""
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise StoreError(f"unknown ExperimentConfig fields: {sorted(unknown)}")
    kwargs = dict(doc)
    if "faults" in kwargs:
        try:
            kwargs["faults"] = FaultConfig.from_dict(kwargs["faults"])
        except (TypeError, ValueError) as exc:
            raise StoreError(f"malformed faults block: {exc}") from exc
    return ExperimentConfig(**kwargs)


def objectives_to_dict(objectives: ObjectiveSet) -> dict:
    """Exact JSON representation of the four raw objective values."""
    return {obj.value: objectives.value(obj) for obj in OBJECTIVES}


def objectives_from_dict(doc: dict) -> ObjectiveSet:
    """Inverse of :func:`objectives_to_dict` (bit-exact: JSON round-trips
    Python floats losslessly)."""
    try:
        return ObjectiveSet(
            wait=float(doc[Objective.WAIT.value]),
            sla=float(doc[Objective.SLA.value]),
            reliability=float(doc[Objective.RELIABILITY.value]),
            profitability=float(doc[Objective.PROFITABILITY.value]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed objectives block: {exc}") from exc


@dataclass(frozen=True)
class RunKey:
    """Stable content identity of one simulation run.

    The digest covers the full configuration, the policy name, the economic
    model, and :data:`SCHEMA_VERSION` — everything the result depends on.
    """

    config: ExperimentConfig
    policy: str
    model: str
    digest: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        payload = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "config": config_to_dict(self.config),
                "policy": self.policy,
                "model": self.model,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        object.__setattr__(
            self, "digest", hashlib.sha256(payload.encode("utf-8")).hexdigest()
        )

    def document(self, objectives: ObjectiveSet) -> dict:
        """The on-disk JSON document for this key's finished run."""
        return {
            "format": RUN_FORMAT,
            "version": RUN_VERSION,
            "schema": SCHEMA_VERSION,
            "key": self.digest,
            "policy": self.policy,
            "model": self.model,
            "config": config_to_dict(self.config),
            "objectives": objectives_to_dict(objectives),
        }

    # -- the work-unit protocol of repro.experiments.pipeline.execute_plan --
    @property
    def labels(self) -> tuple[str, str]:
        """The (policy, model) names a failure record carries."""
        return self.policy, self.model

    def cached(self, store: RunStore) -> bool:
        return store.get(self.config, self.policy, self.model) is not None

    def execute(self, **budgets) -> ObjectiveSet:
        from repro.experiments.runner import run_single

        return run_single(self.config, self.policy, self.model, **budgets)

    def save(self, store: RunStore, objectives: ObjectiveSet) -> None:
        store.put(self.config, self.policy, self.model, objectives)


def load_run_document(doc: dict) -> ObjectiveSet:
    """Validate one run document and extract its objectives.

    Raises :class:`StoreError` on any incompatibility; notably a document
    written by a *newer* code revision gets an explicit upgrade message.
    """
    if doc.get("format") != RUN_FORMAT:
        raise StoreError(f"not a {RUN_FORMAT} document: format={doc.get('format')!r}")
    version = doc.get("version")
    if version != RUN_VERSION:
        if isinstance(version, int) and version > RUN_VERSION:
            raise StoreError(
                f"run document version {version} is newer than this code "
                f"supports ({RUN_VERSION}); upgrade repro to read it"
            )
        raise StoreError(f"unsupported run document version {version!r}")
    return objectives_from_dict(doc.get("objectives", {}))


def atomic_write_text(path: Path, text: str) -> int:
    """Write ``text`` to ``path`` atomically; returns the byte count.

    The document lands under a temporary name in the same directory and is
    renamed into place, so concurrent readers (other shards, a resumed
    run) only ever see absent or complete files.
    """
    data = text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return len(data)


@dataclass(frozen=True)
class MergeReport:
    """What one :meth:`RunStore.merge_from` call did.

    ``conflicts`` counts digests whose bytes differed between the two
    stores — a violation of the content-addressing contract (runs are
    pure functions of their digest), so *both* documents are moved into
    quarantine and the cell becomes a re-runnable miss rather than
    silently trusting either side.
    """

    runs_copied: int = 0  #: run documents new to the destination
    runs_deduped: int = 0  #: identical bytes already present (skipped)
    docs_copied: int = 0  #: generic documents new to the destination
    docs_deduped: int = 0
    conflicts: int = 0  #: same digest, differing bytes (both quarantined)
    corrupt: int = 0  #: unreadable/invalid source documents (quarantined)
    failure_records: int = 0  #: journal lines appended

    def __add__(self, other: "MergeReport") -> "MergeReport":
        return MergeReport(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        return (
            f"{self.runs_copied} runs + {self.docs_copied} docs merged, "
            f"{self.runs_deduped + self.docs_deduped} deduped, "
            f"{self.conflicts} conflicts, {self.corrupt} corrupt, "
            f"{self.failure_records} failure records"
        )


class RunStore:
    """Two-layer (memory + optional disk) store of finished runs.

    Drop-in compatible with the historical ``RunCache``: ``get``/``put``
    take ``(config, policy, model)``, and the ``hits``/``misses`` counters
    are **caller-managed** (the pipeline and :func:`run_single` own the
    logical access accounting, so serial and parallel grids report
    identical statistics).
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self._memory: dict[str, ObjectiveSet] = {}
        self._docs: dict[str, dict] = {}
        self._failures: dict[str, FailureRecord] = {}
        self.hits = 0
        self.misses = 0
        self.cache_dir: Optional[Path] = None
        if cache_dir is not None:
            self.cache_dir = Path(cache_dir).expanduser()
            (self.cache_dir / "runs").mkdir(parents=True, exist_ok=True)

    # -- addressing ----------------------------------------------------------
    @staticmethod
    def key_for(config: ExperimentConfig, policy: str, model: str) -> RunKey:
        return RunKey(config, policy, model)

    def run_path(self, key: RunKey) -> Optional[Path]:
        """Where this key's document lives on disk (None when memory-only)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "runs" / key.digest[:2] / f"{key.digest}.json"

    # -- lookup --------------------------------------------------------------
    def get(
        self, config: ExperimentConfig, policy: str, model: str
    ) -> Optional[ObjectiveSet]:
        """The stored result for the triple, or None.

        Disk entries are promoted into the memory layer on first touch.
        Never raises on bad disk state: a corrupt, truncated, or
        incompatible document is treated as a miss (and counted under
        ``runstore.corrupt_skipped``).
        """
        key = RunKey(config, policy, model)
        value = self._memory.get(key.digest)
        if value is not None:
            if PERF.enabled:
                PERF.incr("runstore.hits")
            return value
        value = self._load_disk(key)
        if value is not None:
            self._memory[key.digest] = value
            if PERF.enabled:
                PERF.incr("runstore.hits")
                PERF.incr("runstore.disk_hits")
            return value
        if PERF.enabled:
            PERF.incr("runstore.misses")
        return None

    def _load_disk(self, key: RunKey) -> Optional[ObjectiveSet]:
        path = self.run_path(key)
        if path is None:
            return None
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            value = load_run_document(json.loads(text))
        except (StoreError, ValueError):
            # Truncated write, manual edit, or a foreign/newer document:
            # resume by re-simulating rather than failing the whole grid.
            # The bad bytes are evidence of a crash — move them aside for
            # diagnosis instead of silently overwriting on the next put.
            self._quarantine(path)
            if PERF.enabled:
                PERF.incr("runstore.corrupt_skipped")
            return None
        if PERF.enabled:
            PERF.incr("runstore.bytes_read", len(text.encode("utf-8")))
        return value

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt run document into ``<cache_dir>/quarantine/``.

        Collisions (the same digest quarantined twice across crashes) get a
        numeric suffix so no evidence is ever overwritten.  Failure to move
        (e.g. the file vanished, permissions) degrades to the historical
        treat-as-miss behaviour.
        """
        assert self.cache_dir is not None
        qdir = self.cache_dir / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            n = 0
            while target.exists():
                n += 1
                target = qdir / f"{path.name}.{n}"
            os.replace(path, target)
        except OSError:
            return
        if PERF.enabled:
            PERF.incr("runstore.quarantined")

    # -- storage -------------------------------------------------------------
    def put(
        self,
        config: ExperimentConfig,
        policy: str,
        model: str,
        value: ObjectiveSet,
    ) -> None:
        """Record a finished run (checkpointing it to disk when configured)."""
        key = RunKey(config, policy, model)
        self._memory[key.digest] = value
        # A finished run resolves any journaled failure of the same cell.
        self._failures.pop(key.digest, None)
        path = self.run_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        n_bytes = atomic_write_text(
            path, json.dumps(key.document(value), indent=1, sort_keys=True) + "\n"
        )
        self._append_index(key)
        if PERF.enabled:
            PERF.incr("runstore.bytes_written", n_bytes)
            PERF.incr("runstore.runs_persisted")

    def _append_index(self, key: RunKey) -> None:
        assert self.cache_dir is not None
        line = json.dumps(
            {
                "key": key.digest,
                "policy": key.policy,
                "model": key.model,
                "seed": key.config.seed,
                "n_jobs": key.config.n_jobs,
            },
            sort_keys=True,
        )
        with open(self.cache_dir / "index.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    # -- generic documents ---------------------------------------------------
    # Run documents above are ObjectiveSet-shaped; other experiment layers
    # (e.g. market runs, which produce per-provider share/revenue tables)
    # reuse the same two-layer content-addressed discipline through these
    # format-agnostic methods.  The caller owns the digest computation and
    # stamps its own ``format`` marker, so foreign documents are never
    # confused with ObjectiveSet runs and incompatible schemas never
    # collide.

    def document_path(self, digest: str) -> Optional[Path]:
        """Where a generic document lives on disk (None when memory-only)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "docs" / digest[:2] / f"{digest}.json"

    def get_document(self, digest: str, fmt: str) -> Optional[dict]:
        """The stored document for ``digest``, or None.

        Same never-raises contract as :meth:`get`: disk entries are
        promoted into the memory layer on first touch, and a corrupt,
        truncated, or wrong-format file is quarantined and treated as a
        miss (counted under ``runstore.corrupt_skipped``).
        """
        doc = self._docs.get(digest)
        if doc is not None:
            if PERF.enabled:
                PERF.incr("runstore.doc_hits")
            return doc
        path = self.document_path(digest)
        if path is not None:
            try:
                text = path.read_text()
            except OSError:
                text = None
            if text is not None:
                try:
                    doc = json.loads(text)
                    if (
                        not isinstance(doc, dict)
                        or doc.get("format") != fmt
                        or doc.get("key") != digest
                    ):
                        raise StoreError(f"not a {fmt} document")
                except (StoreError, ValueError):
                    self._quarantine(path)
                    if PERF.enabled:
                        PERF.incr("runstore.corrupt_skipped")
                else:
                    self._docs[digest] = doc
                    if PERF.enabled:
                        PERF.incr("runstore.doc_hits")
                        PERF.incr("runstore.bytes_read", len(text.encode("utf-8")))
                    return doc
        if PERF.enabled:
            PERF.incr("runstore.doc_misses")
        return None

    def put_document(self, digest: str, doc: dict) -> None:
        """Record a finished document under a caller-computed ``digest``.

        ``doc`` must carry a non-empty ``format`` marker (how readers
        recognise their own documents); it is stamped with ``key=digest``
        and checkpointed atomically like every run document.
        """
        fmt = doc.get("format")
        if not isinstance(fmt, str) or not fmt:
            raise StoreError("document must carry a non-empty 'format' marker")
        stored = dict(doc)
        stored["key"] = digest
        self._docs[digest] = stored
        self._failures.pop(digest, None)
        path = self.document_path(digest)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        n_bytes = atomic_write_text(
            path, json.dumps(stored, indent=1, sort_keys=True) + "\n"
        )
        if PERF.enabled:
            PERF.incr("runstore.bytes_written", n_bytes)
            PERF.incr("runstore.docs_persisted")

    def document_digests(self) -> set[str]:
        """Digests of every generic document currently on disk."""
        if self.cache_dir is None:
            return set()
        return {p.stem for p in (self.cache_dir / "docs").glob("??/*.json")}

    # -- failure journal -----------------------------------------------------
    def record_failure(self, record: FailureRecord) -> None:
        """Journal a run that exhausted its retries.

        The journal (``failures.jsonl``) is append-only and shares the
        run documents' content addressing: the record's ``digest`` *is*
        the cell's :class:`RunKey` digest, so resumes, degrade-mode
        assembly, and humans grepping the journal all name the same
        artefact.  Appends are atomic at the line level (a single
        ``write`` of one ``\\n``-terminated line), matching the
        index-file discipline.
        """
        self._failures[record.digest] = record
        if self.cache_dir is not None:
            line = json.dumps(record.to_dict(), sort_keys=True)
            with open(self.cache_dir / "failures.jsonl", "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        if PERF.enabled:
            PERF.incr("runstore.failures_recorded")

    def failures(self) -> dict[str, FailureRecord]:
        """Unresolved failures: latest journal record per digest.

        A digest whose run (or generic) document exists, in memory or on
        disk, is resolved — a retry or another shard eventually succeeded
        — and is excluded, so the journal being append-only never makes a
        healthy grid look degraded.  Malformed journal lines are skipped.
        """
        records = dict(self._failures)
        if self.cache_dir is not None:
            try:
                lines = (self.cache_dir / "failures.jsonl").read_text().splitlines()
            except OSError:
                lines = []
            for line in lines:
                try:
                    record = FailureRecord.from_dict(json.loads(line))
                except ValueError:
                    continue
                records[record.digest] = record
        resolved = (
            self._memory.keys() | self.disk_digests()
            | self._docs.keys() | self.document_digests()
        )
        return {d: r for d, r in records.items() if d not in resolved}

    def failure_for(self, digest: str) -> Optional[FailureRecord]:
        """The unresolved failure journaled for one digest, if any."""
        return self.failures().get(digest)

    # -- merge / sync --------------------------------------------------------
    def _quarantine_bytes(self, name: str, data: bytes) -> None:
        """Preserve foreign evidence bytes under ``quarantine/<name>``.

        Unlike :meth:`_quarantine` this *copies* (the source file belongs
        to another store and may be a read-only rsync snapshot).  The same
        collision numbering guarantees nothing is ever overwritten.
        """
        assert self.cache_dir is not None
        qdir = self.cache_dir / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / name
            n = 0
            while target.exists():
                n += 1
                target = qdir / f"{name}.{n}"
            target.write_bytes(data)
        except OSError:
            return
        if PERF.enabled:
            PERF.incr("runstore.quarantined")

    def _merge_tree(self, other: "RunStore", kind: str) -> MergeReport:
        """Union one document tree (``runs`` or ``docs``) from ``other``."""
        assert self.cache_dir is not None and other.cache_dir is not None
        report = MergeReport()
        for src in sorted((other.cache_dir / kind).glob("??/*.json")):
            digest = src.stem
            try:
                data = src.read_bytes()
            except OSError:
                report += MergeReport(corrupt=1)
                continue
            try:
                doc = json.loads(data.decode("utf-8"))
                if not isinstance(doc, dict) or doc.get("key") != digest:
                    raise StoreError(f"document does not match its digest {digest}")
                if kind == "runs":
                    load_run_document(doc)
                elif not isinstance(doc.get("format"), str) or not doc["format"]:
                    raise StoreError("generic document without a 'format' marker")
            except (StoreError, ValueError, UnicodeDecodeError):
                # A corrupt source document is evidence of a crash on the
                # worker side: keep the bytes, skip the digest, carry on.
                self._quarantine_bytes(src.name, data)
                report += MergeReport(corrupt=1)
                continue
            dst = self.cache_dir / kind / digest[:2] / f"{digest}.json"
            if dst.exists():
                try:
                    ours = dst.read_bytes()
                except OSError:
                    ours = None
                if ours == data:
                    report += (
                        MergeReport(runs_deduped=1)
                        if kind == "runs"
                        else MergeReport(docs_deduped=1)
                    )
                    continue
                # Same digest, different bytes: the purity contract is
                # broken somewhere.  Trusting either side would silently
                # poison every later resume, so quarantine both and let
                # the cell re-run.
                self._quarantine(dst)
                self._quarantine_bytes(src.name, data)
                self._memory.pop(digest, None)
                self._docs.pop(digest, None)
                report += MergeReport(conflicts=1)
                continue
            dst.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(dst, data.decode("utf-8"))
            if kind == "runs":
                config = doc.get("config", {})
                line = json.dumps(
                    {
                        "key": digest,
                        "policy": doc.get("policy", ""),
                        "model": doc.get("model", ""),
                        "seed": config.get("seed"),
                        "n_jobs": config.get("n_jobs"),
                    },
                    sort_keys=True,
                )
                with open(self.cache_dir / "index.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
                report += MergeReport(runs_copied=1)
            else:
                report += MergeReport(docs_copied=1)
        return report

    def merge_from(self, other: "RunStore") -> MergeReport:
        """Union another store's artefacts into this one.

        The three artefact families merge by their own disciplines:

        - ``runs/`` and ``docs/`` — content-addressed documents.  A digest
          new to this store is copied (atomically); identical bytes
          dedupe; *conflicting* bytes for the same digest quarantine both
          sides (see :class:`MergeReport`); a corrupt source document is
          quarantined and counted, never merged.
        - ``failures.jsonl`` — journals concatenate (this store's lines
          first, then the source's), so :meth:`failures`' latest-record-
          wins rule resolves overlapping digests in favour of the merged
          source, and a digest whose run document arrived in the same
          merge is resolved outright.

        Both stores must be disk-backed.  The index is compacted
        afterwards so repeated syncs cannot grow it without bound.
        Merging never mutates ``other``.
        """
        if self.cache_dir is None or other.cache_dir is None:
            raise StoreError("merge_from requires disk-backed stores on both sides")
        report = self._merge_tree(other, "runs") + self._merge_tree(other, "docs")
        journal = other.cache_dir / "failures.jsonl"
        try:
            lines = journal.read_text().splitlines()
        except OSError:
            lines = []
        appended = 0
        for line in lines:
            try:
                record = FailureRecord.from_dict(json.loads(line))
            except ValueError:
                continue
            self.record_failure(record)
            appended += 1
        report += MergeReport(failure_records=appended)
        self.compact()
        if PERF.enabled:
            PERF.incr("runstore.merges")
            PERF.incr("runstore.merge_runs_copied", report.runs_copied)
            PERF.incr("runstore.merge_docs_copied", report.docs_copied)
            PERF.incr("runstore.merge_deduped",
                      report.runs_deduped + report.docs_deduped)
            PERF.incr("runstore.merge_conflicts", report.conflicts)
            PERF.incr("runstore.merge_corrupt", report.corrupt)
        return report

    def compact(self) -> tuple[int, int]:
        """Atomically rewrite ``index.jsonl`` to one line per live run.

        The index is append-only during normal operation, so resumes,
        retries, and merges grow it without bound.  Compaction dedupes by
        digest (last record wins, first-seen order preserved), drops
        malformed lines and entries whose run document no longer exists
        (e.g. quarantined by a merge conflict), and rewrites via the same
        tmp+rename discipline as every document.  Returns
        ``(lines_before, lines_after)``; a memory-only store is a no-op.
        """
        if self.cache_dir is None:
            return (0, 0)
        path = self.cache_dir / "index.jsonl"
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return (0, 0)
        on_disk = self.disk_digests()
        latest: dict[str, dict] = {}
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            key = entry.get("key") if isinstance(entry, dict) else None
            if key in on_disk:
                # dict insertion order keeps first-seen position while the
                # assignment keeps the latest record's content.
                latest[key] = entry
        text = "".join(json.dumps(e, sort_keys=True) + "\n" for e in latest.values())
        atomic_write_text(path, text)
        if PERF.enabled:
            PERF.incr("runstore.index_compactions")
            PERF.incr("runstore.index_lines_dropped", len(lines) - len(latest))
        return (len(lines), len(latest))

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        """Number of runs in the memory layer (RunCache-compatible)."""
        return len(self._memory)

    def disk_digests(self) -> set[str]:
        """Digests of every run document currently on disk."""
        if self.cache_dir is None:
            return set()
        return {p.stem for p in (self.cache_dir / "runs").glob("??/*.json")}

    def index_entries(self) -> Iterator[dict]:
        """Metadata lines from ``index.jsonl`` (tolerant of bad lines)."""
        if self.cache_dir is None:
            return
        path = self.cache_dir / "index.jsonl"
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return
        for line in lines:
            try:
                yield json.loads(line)
            except ValueError:
                continue

    def stats(self) -> dict:
        """Plain-dict summary for CLI/report output."""
        on_disk = self.disk_digests() if self.cache_dir is not None else set()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_runs": len(self._memory),
            "disk_runs": len(on_disk),
            "failures": len(self.failures()),
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
        }
