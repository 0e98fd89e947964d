"""Cross-run proof cache for formal verdicts.

Runner sweeps (the fig13 design-space study, ``sweep`` matrices across
seeds) re-mine the *same* canonical candidate assertions on the *same*
designs over and over, and until now every job re-proved them from
scratch.  This module gives verdicts a durable identity so they can be
reused:

* :func:`canonical_assertion_key` — the assertion's logical identity
  (sorted antecedent literals, consequent, window), independent of the
  display ``name``/``confidence``/``support`` metadata the miner attaches.
* :func:`design_fingerprint` — a content hash of the elaborated module
  (signals, ports, continuous assigns, processes), so a cache entry can
  never leak across designs or design edits.
* :class:`ProofCache` — verdicts keyed by ``(design fingerprint,
  canonical assertion, engine configuration)``, shared in-memory within a
  process via :meth:`ProofCache.resolve` and optionally persisted to a
  JSON file (conventionally under ``artifacts/``) so later runs start
  warm.

Caching *false* verdicts is sound only because every engine produces
**canonical counterexamples** — a pure function of (design, assertion,
engine config), never of solver history (see
:meth:`repro.formal.bmc.BmcModelChecker` for how the SAT path
canonicalises its models).  A cache hit therefore reproduces byte-for-byte
the counterexample a live check would have produced, which is what keeps
refinement trajectories identical across cache states.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.assertions.assertion import Assertion, Verdict
from repro.formal.result import PROOF_BOUNDED, CheckResult, Counterexample
from repro.hdl.module import Module
from repro.supervise import durable_write

logger = logging.getLogger(__name__)

#: Bump when the entry schema changes *incompatibly*; mismatched files are
#: ignored wholesale.  Additive optional keys (e.g. ``proof_strength``)
#: must NOT bump this — old caches stay loadable, with the missing key
#: defaulted conservatively in :func:`_result_from_json`.
CACHE_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# canonical keys
# ----------------------------------------------------------------------
def canonical_assertion_key(assertion: Assertion) -> str:
    """Stable identity of an assertion's logical content.

    Two assertions that compare equal (``Assertion.__eq__`` ignores the
    name/confidence/support metadata) always map to the same key, so a
    candidate re-mined in a later iteration — or renamed per iteration by
    the refinement loop — hits the same cache entry.
    """
    antecedent = "&".join(lit.describe() for lit in assertion.antecedent)
    return f"w{assertion.window}|{antecedent}=>{assertion.consequent.describe()}"


def design_fingerprint(module: Module) -> str:
    """Content hash of an elaborated module.

    Built from the module's canonical Verilog rendering (statements and
    expressions render via ``to_verilog``, which — unlike ``repr`` —
    excludes the ``stmt_id`` coverage ids), so
    structurally identical modules — e.g. two ``meta.build()`` calls of
    the same registered design, in different runs or processes — share a
    fingerprint, while any edit to the RTL changes it.  Computed fresh on
    every call — modules have public mutators, so memoising here could
    serve a pre-edit hash; callers that hold the design fixed (e.g.
    :class:`repro.formal.checker.FormalVerifier`, whose engines snapshot
    the module at construction anyway) cache the result themselves.
    """
    dump = repr((
        module.name,
        module.clock,
        module.reset,
        [(port.name, port.direction.value, port.width) for port in module.ports],
        sorted((signal.name, signal.width, signal.kind.value, signal.reset_value)
               for signal in module.signals.values()),
        [(assign.target, assign.expr.to_verilog()) for assign in module.assigns],
        [(process.kind.value, process.clock, process.body.to_verilog())
         for process in module.processes],
    ))
    return hashlib.sha256(dump.encode()).hexdigest()[:24]


def assertion_shard(assertion: Assertion, shards: int) -> int:
    """Deterministic shard index for dispatching one assertion.

    Uses a content hash of the canonical key, **not** Python's builtin
    ``hash`` (which is salted per process): the same assertion must land
    on the same worker in every process and every run, both for
    reproducibility and so a worker's persistent solver context keeps
    seeing the candidates it already encoded.
    """
    if shards <= 1:
        return 0
    digest = hashlib.sha256(canonical_assertion_key(assertion).encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def _counterexample_to_json(counterexample: Counterexample) -> dict:
    data: dict = {
        "input_vectors": [dict(vector) for vector in counterexample.input_vectors],
        "window_start": counterexample.window_start,
    }
    if counterexample.initial_state is not None:
        data["initial_state"] = dict(counterexample.initial_state)
    return data


def _counterexample_from_json(data: dict, assertion: Assertion) -> Counterexample:
    return Counterexample(
        input_vectors=tuple({str(k): int(v) for k, v in vector.items()}
                            for vector in data["input_vectors"]),
        window_start=int(data["window_start"]),
        assertion=assertion,
        initial_state=({str(k): int(v) for k, v in data["initial_state"].items()}
                       if data.get("initial_state") is not None else None),
    )


def _result_to_json(result: CheckResult) -> dict:
    entry: dict = {"verdict": result.verdict.value, "engine": result.engine}
    if result.proof_strength is not None:
        entry["proof_strength"] = result.proof_strength
    if result.details:
        entry["details"] = dict(result.details)
    if result.counterexample is not None:
        entry["counterexample"] = _counterexample_to_json(result.counterexample)
    return entry


def _result_from_json(entry: dict, assertion: Assertion) -> CheckResult:
    counterexample = None
    if entry.get("counterexample") is not None:
        counterexample = _counterexample_from_json(entry["counterexample"], assertion)
    verdict = Verdict(entry["verdict"])
    # Entries persisted before the proof-strength field carry no
    # ``proof_strength`` key.  They are conservatively loaded as
    # ``bounded`` — never silently upgraded to a proof the engine that
    # wrote them did not make — for every non-FALSE verdict (FALSE
    # verdicts have a witness and no strength, matching live results).
    strength = entry.get("proof_strength")
    if strength is None and verdict is not Verdict.FALSE:
        strength = PROOF_BOUNDED
    return CheckResult(
        assertion=assertion,
        verdict=verdict,
        counterexample=counterexample,
        engine=entry.get("engine", ""),
        seconds=0.0,
        details=dict(entry.get("details", {})),
        proof_strength=strength,
    )


# ----------------------------------------------------------------------
class ProofCache:
    """Verdict store keyed by (design fingerprint, assertion, engine config).

    One instance may back many verifiers at once (every design keys its
    own entries), which is how a multi-design driver loop — or several
    sequential runner jobs executing in one pool worker process — reuse
    each other's proofs.  Thread-safe for the simple reason that every
    mutation holds one lock; the expected contention (a handful of
    verifiers in one process) is negligible.

    With a ``path`` the cache is persistent: existing entries are loaded
    at construction, and :meth:`flush` merges the in-memory entries into
    the file via read-merge-replace with an atomic rename.  Readers never
    see a torn file; two processes flushing in the same instant may each
    miss entries the other added inside the read→replace window
    (last-replace wins).  That is a deliberate trade: entries are
    deterministic per key, so a dropped entry can only cost a later
    re-prove, never a wrong verdict.
    """

    _registry: "dict[str | None, ProofCache]" = {}
    _registry_lock = threading.Lock()

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._dirty = False
        if self.path is not None:
            self._entries.update(self._read_file(self.path))

    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, setting: "bool | str | os.PathLike | None") -> "ProofCache | None":
        """Map a ``GoldMineConfig.formal_proof_cache`` value to a cache.

        ``False``/``None``/``""`` disable caching; ``True`` returns the
        process-shared in-memory cache; a path returns the shared
        persistent cache bound to that file (one instance per resolved
        path, so every verifier in the process sees the same entries).
        """
        if not setting:
            return None
        key = None if setting is True else str(Path(setting).resolve())
        with cls._registry_lock:
            cache = cls._registry.get(key)
            if cache is None:
                cache = cls(key)
                cls._registry[key] = cache
            return cache

    @classmethod
    def reset_shared(cls) -> None:
        """Drop every registry entry (tests use this for isolation)."""
        with cls._registry_lock:
            cls._registry.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def entry_key(fingerprint: str, engine_key: str, assertion: Assertion) -> str:
        return f"{fingerprint}|{engine_key}|{canonical_assertion_key(assertion)}"

    def lookup(self, fingerprint: str, engine_key: str,
               assertion: Assertion) -> CheckResult | None:
        """Return the cached result rebound to ``assertion``, or ``None``.

        The reconstructed :class:`CheckResult` carries the *queried*
        assertion object (cache keys ignore name metadata, so the stored
        assertion may have been named by an earlier run) and a zero
        ``seconds`` — timing is operational telemetry, not part of a
        verdict's identity.
        """
        key = self.entry_key(fingerprint, engine_key, assertion)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
        return _result_from_json(entry, assertion)

    def store(self, fingerprint: str, engine_key: str, assertion: Assertion,
              result: CheckResult) -> None:
        if result.timed_out:
            # An expired query budget is not a verdict; caching it would
            # freeze an accident of scheduling into every later run.
            return
        key = self.entry_key(fingerprint, engine_key, assertion)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = _result_to_json(result)
                self.stores += 1
                self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"proof_cache_hits": self.hits, "proof_cache_misses": self.misses,
                "proof_cache_stores": self.stores,
                "proof_cache_entries": len(self._entries)}

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @staticmethod
    def _quarantine(path: Path, reason: str) -> Path | None:
        """Move a damaged cache file aside to ``<path>.corrupt-<ts>``.

        The run continues with an empty cache — a lost cache only costs
        re-proving, never a wrong verdict — while the quarantined file
        stays on disk for post-mortem inspection.
        """
        stamp = int(time.time())
        target = path.with_name(f"{path.name}.corrupt-{stamp}")
        suffix = 0
        while target.exists():
            suffix += 1
            target = path.with_name(f"{path.name}.corrupt-{stamp}.{suffix}")
        try:
            os.replace(path, target)
        except OSError:
            logger.warning("proof cache %s is %s and could not be quarantined; "
                           "continuing with an empty cache", path, reason)
            return None
        logger.warning("proof cache %s is %s; quarantined to %s and continuing "
                       "with an empty cache", path, reason, target)
        return target

    @staticmethod
    def _valid_entry(entry: object) -> bool:
        """Cheap shape check of one persisted entry.

        Guards the merge path against individually garbled entries inside
        an otherwise well-formed file (e.g. a partially overwritten value
        from a crashed writer): bad entries are skipped, good ones load.
        """
        if not isinstance(entry, dict):
            return False
        try:
            verdict = Verdict(entry.get("verdict"))
        except (ValueError, TypeError):
            return False
        del verdict  # any Verdict value is loadable (old FALSE entries
        # may predate witness persistence and still load, witness-less)
        counterexample = entry.get("counterexample")
        if counterexample is not None:
            if not isinstance(counterexample, dict):
                return False
            if not isinstance(counterexample.get("input_vectors"), list):
                return False
            if not isinstance(counterexample.get("window_start"), int):
                return False
        return True

    @classmethod
    def _read_file(cls, path: Path) -> dict[str, dict]:
        try:
            document = json.loads(path.read_text())
        except FileNotFoundError:
            return {}
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            cls._quarantine(path, "unreadable (truncated or corrupt)")
            return {}
        if not isinstance(document, dict) or \
                document.get("version") != CACHE_SCHEMA_VERSION:
            cls._quarantine(path, "of an unknown schema")
            return {}
        entries = document.get("entries")
        if not isinstance(entries, dict):
            cls._quarantine(path, "missing its entry table")
            return {}
        valid = {key: entry for key, entry in entries.items()
                 if cls._valid_entry(entry)}
        dropped = len(entries) - len(valid)
        if dropped:
            logger.warning("proof cache %s: skipped %d malformed entr%s",
                           path, dropped, "y" if dropped == 1 else "ies")
        return valid

    def flush(self) -> None:
        """Merge in-memory entries into the backing file atomically.

        No-op for in-memory caches and when nothing changed since the
        last flush.  The on-disk entries are re-read and merged first so
        concurrent flushers only ever add entries.
        """
        if self.path is None:
            return
        with self._lock:
            if not self._dirty:
                return
            merged = self._read_file(self.path)
            merged.update(self._entries)
            self._entries = merged
            document = {"version": CACHE_SCHEMA_VERSION, "entries": merged}
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # durable_write fsyncs the tmp and the directory entry, so a
            # power loss mid-flush cannot leave an empty cache file.
            durable_write(self.path,
                          json.dumps(document, indent=1, sort_keys=True) + "\n")
            self._dirty = False
