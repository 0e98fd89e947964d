"""Unit tests for the proof cache: keys, persistence, sharing, reuse."""

from __future__ import annotations

import json

import pytest

from repro.assertions.assertion import Assertion, Literal, Verdict
from repro.designs import info as design_info
from repro.formal.checker import EXACT_TIER_MARKER, SLICED_ENCODING, FormalVerifier
from repro.formal.proofcache import (
    CACHE_SCHEMA_VERSION,
    ProofCache,
    canonical_assertion_key,
    design_fingerprint,
)
from repro.formal.result import (
    PROOF_BOUNDED,
    PROOF_UNBOUNDED,
    Counterexample,
    false_result,
    true_result,
    unknown_result,
)


@pytest.fixture(autouse=True)
def _isolated_shared_cache():
    ProofCache.reset_shared()
    yield
    ProofCache.reset_shared()


def sample_assertion(name: str = "", value: int = 1) -> Assertion:
    return Assertion(
        (Literal("req0", 1, 0), Literal("req1", 0, 1)),
        Literal("gnt0", value, 2), window=2, name=name,
    )


class TestCanonicalKeys:
    def test_key_ignores_metadata(self):
        plain = sample_assertion()
        named = sample_assertion(name="gnt0_i3_a7")
        richer = Assertion(plain.antecedent, plain.consequent, plain.window,
                           "x", confidence=0.5, support=99)
        assert canonical_assertion_key(plain) == canonical_assertion_key(named)
        assert canonical_assertion_key(plain) == canonical_assertion_key(richer)

    def test_key_is_order_insensitive(self):
        forward = Assertion((Literal("a", 1, 0), Literal("b", 0, 0)),
                            Literal("z", 1, 0), window=1)
        backward = Assertion((Literal("b", 0, 0), Literal("a", 1, 0)),
                             Literal("z", 1, 0), window=1)
        assert canonical_assertion_key(forward) == canonical_assertion_key(backward)

    def test_key_separates_different_assertions(self):
        assert canonical_assertion_key(sample_assertion(value=1)) \
            != canonical_assertion_key(sample_assertion(value=0))

    def test_key_text_is_pinned(self):
        """Keys are persisted, so their text is pinned byte for byte: bit
        literals render ``sig[bit]@cycle=v``, whole-signal literals
        ``sig@cycle=v``, the antecedent in canonical order."""
        assertion = Assertion(
            (Literal("state", 5, 1), Literal("req", 1, 0, 2), Literal("en", 0, 0)),
            Literal("gnt", 1, 2, 0), window=2)
        assert canonical_assertion_key(assertion) == \
            "w2|en@0=0&req[2]@0=1&state@1=5=>gnt[0]@2=1"

    def test_fingerprint_stable_across_builds(self):
        meta = design_info("arbiter2")
        assert design_fingerprint(meta.build()) == design_fingerprint(meta.build())

    def test_fingerprint_separates_designs(self):
        fingerprints = {design_fingerprint(design_info(name).build())
                        for name in ("arbiter2", "arbiter4", "b01", "cex_small")}
        assert len(fingerprints) == 4


class TestStoreAndLookup:
    FP = "f" * 24
    ENGINE = "bmc:bound=6"

    def test_roundtrip_true_verdict(self):
        cache = ProofCache()
        assertion = sample_assertion()
        cache.store(self.FP, self.ENGINE, assertion,
                    true_result(assertion, "bmc", 1.25, bound=6, proof="induction"))
        hit = cache.lookup(self.FP, self.ENGINE, assertion.with_name("renamed"))
        assert hit is not None and hit.verdict is Verdict.TRUE
        assert hit.seconds == 0.0  # timing is never cached
        assert hit.details["proof"] == "induction"
        assert hit.assertion.name == "renamed"  # rebound to the query

    def test_roundtrip_false_verdict_with_counterexample(self):
        cache = ProofCache()
        assertion = sample_assertion()
        counterexample = Counterexample(
            input_vectors=({"req0": 1, "req1": 0}, {"req0": 0, "req1": 1}),
            window_start=0, assertion=assertion)
        cache.store(self.FP, self.ENGINE, assertion,
                    false_result(assertion, counterexample, "bmc", 0.5))
        query = sample_assertion(name="later_iteration")
        hit = cache.lookup(self.FP, self.ENGINE, query)
        assert hit.verdict is Verdict.FALSE
        assert hit.counterexample.input_vectors == counterexample.input_vectors
        assert hit.counterexample.window_start == 0
        assert hit.counterexample.assertion is query

    def test_misses_on_other_design_engine_or_assertion(self):
        cache = ProofCache()
        assertion = sample_assertion()
        cache.store(self.FP, self.ENGINE, assertion,
                    true_result(assertion, "bmc"))
        assert cache.lookup("0" * 24, self.ENGINE, assertion) is None
        assert cache.lookup(self.FP, "bmc:bound=12", assertion) is None
        assert cache.lookup(self.FP, self.ENGINE, sample_assertion(value=0)) is None
        assert cache.stats()["proof_cache_misses"] == 3

    def test_first_store_wins(self):
        cache = ProofCache()
        assertion = sample_assertion()
        cache.store(self.FP, self.ENGINE, assertion, true_result(assertion, "bmc"))
        cache.store(self.FP, self.ENGINE, assertion.with_name("again"),
                    true_result(assertion, "bmc"))
        assert cache.stores == 1 and len(cache) == 1


class TestPersistence:
    def test_flush_and_reload(self, tmp_path):
        path = tmp_path / "proofs.json"
        assertion = sample_assertion()
        cache = ProofCache(path)
        cache.store("a" * 24, "explicit:x", assertion, true_result(assertion, "explicit"))
        cache.flush()
        reloaded = ProofCache(path)
        assert reloaded.lookup("a" * 24, "explicit:x", assertion).verdict is Verdict.TRUE

    def test_flush_merges_with_concurrent_writer(self, tmp_path):
        path = tmp_path / "proofs.json"
        first, second = ProofCache(path), ProofCache(path)
        a1, a2 = sample_assertion(value=1), sample_assertion(value=0)
        first.store("a" * 24, "e", a1, true_result(a1, "explicit"))
        second.store("a" * 24, "e", a2, true_result(a2, "explicit"))
        first.flush()
        second.flush()  # must not clobber the first writer's entry
        merged = ProofCache(path)
        assert merged.lookup("a" * 24, "e", a1) is not None
        assert merged.lookup("a" * 24, "e", a2) is not None

    def test_corrupt_or_mismatched_files_are_ignored(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert len(ProofCache(garbage)) == 0
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(
            {"version": CACHE_SCHEMA_VERSION + 1, "entries": {"k": {}}}))
        assert len(ProofCache(stale)) == 0

    def test_corrupt_file_is_quarantined_not_deleted(self, tmp_path):
        """An unreadable cache file moves aside to ``.corrupt-<ts>`` so the
        evidence survives for inspection, and the cache restarts empty."""
        garbage = tmp_path / "proofs.json"
        garbage.write_text('{"version": 2, "entr')  # truncated mid-write
        cache = ProofCache(garbage)
        assert len(cache) == 0
        quarantined = list(tmp_path.glob("proofs.json.corrupt-*"))
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == '{"version": 2, "entr'
        assert not garbage.exists()
        # The cache is fully usable at the original path afterwards.
        assertion = sample_assertion()
        cache.store("a" * 24, "e", assertion, true_result(assertion, "explicit"))
        cache.flush()
        assert ProofCache(garbage).lookup("a" * 24, "e", assertion) is not None

    def test_unknown_schema_is_quarantined(self, tmp_path):
        stale = tmp_path / "proofs.json"
        stale.write_text(json.dumps(
            {"version": CACHE_SCHEMA_VERSION + 1, "entries": {"k": {}}}))
        assert len(ProofCache(stale)) == 0
        assert list(tmp_path.glob("proofs.json.corrupt-*"))

    def test_malformed_entries_skipped_good_ones_load(self, tmp_path):
        """Per-entry damage inside a well-formed file drops only the
        damaged entries — no quarantine, no collateral loss."""
        good = sample_assertion(value=1)
        path = tmp_path / "proofs.json"
        cache = ProofCache(path)
        cache.store("a" * 24, "e", good, true_result(good, "explicit"))
        cache.flush()
        document = json.loads(path.read_text())
        document["entries"]["broken-1"] = {"verdict": "maybe"}
        document["entries"]["broken-2"] = "not even a dict"
        document["entries"]["broken-3"] = {
            "verdict": Verdict.FALSE.value,
            "counterexample": {"input_vectors": "not-a-list"},
        }
        path.write_text(json.dumps(document))
        reloaded = ProofCache(path)
        assert len(reloaded) == 1
        assert reloaded.lookup("a" * 24, "e", good).verdict is Verdict.TRUE
        assert path.exists() and not list(tmp_path.glob("*.corrupt-*"))

    def test_timed_out_results_are_never_stored(self):
        from repro.formal.result import timeout_result

        assertion = sample_assertion()
        cache = ProofCache()
        cache.store("a" * 24, "e", assertion,
                    timeout_result(assertion, "bmc", bound=6))
        assert len(cache) == 0
        assert cache.lookup("a" * 24, "e", assertion) is None

    def test_in_memory_flush_is_a_noop(self):
        cache = ProofCache()
        assertion = sample_assertion()
        cache.store("a" * 24, "e", assertion, true_result(assertion, "explicit"))
        cache.flush()  # must not raise, nothing to write


class TestProofStrengthBackwardCompat:
    """Caches written before the proof-strength field stay loadable.

    The schema version did **not** change when ``proof_strength`` was
    added (the key is additive), so files written by older runs load into
    new code.  The compatibility contract: entries with no
    ``proof_strength`` key are conservatively ``bounded`` for TRUE and
    UNKNOWN verdicts — never silently upgraded to a proof the engine
    that wrote them did not make — and ``None`` for FALSE, exactly like
    live results.
    """

    FP = "a" * 24
    ENGINE = "bmc:bound=6"

    def _old_format_file(self, tmp_path, assertion, entry):
        """Hand-author a cache file the pre-proof-strength code wrote."""
        key = ProofCache.entry_key(self.FP, self.ENGINE, assertion)
        path = tmp_path / "old_format.json"
        path.write_text(json.dumps(
            {"version": CACHE_SCHEMA_VERSION, "entries": {key: entry}}))
        return path

    def test_true_entry_without_strength_loads_as_bounded(self, tmp_path):
        assertion = sample_assertion()
        path = self._old_format_file(tmp_path, assertion, {
            "verdict": Verdict.TRUE.value, "engine": "bmc",
            "details": {"bound": 6, "proof": "induction"},
        })
        hit = ProofCache(path).lookup(self.FP, self.ENGINE, assertion)
        assert hit is not None and hit.verdict is Verdict.TRUE
        assert hit.proof_strength == PROOF_BOUNDED  # never upgraded
        assert hit.details["proof"] == "induction"

    def test_unknown_entry_without_strength_loads_as_bounded(self, tmp_path):
        assertion = sample_assertion()
        path = self._old_format_file(tmp_path, assertion, {
            "verdict": Verdict.UNKNOWN.value, "engine": "bmc",
        })
        hit = ProofCache(path).lookup(self.FP, self.ENGINE, assertion)
        assert hit.verdict is Verdict.UNKNOWN
        assert hit.proof_strength == PROOF_BOUNDED

    def test_false_entry_without_strength_has_no_strength(self, tmp_path):
        assertion = sample_assertion()
        path = self._old_format_file(tmp_path, assertion, {
            "verdict": Verdict.FALSE.value, "engine": "bmc",
        })
        hit = ProofCache(path).lookup(self.FP, self.ENGINE, assertion)
        assert hit.verdict is Verdict.FALSE
        assert hit.proof_strength is None  # FALSE carries a witness, not a strength

    def test_old_format_round_trips_without_upgrade(self, tmp_path):
        """Loading an old file and flushing it through new code must not
        manufacture ``unbounded`` out of thin air, while entries stored
        by the new engines keep their real strength alongside."""
        old = sample_assertion(value=1)
        new = sample_assertion(value=0)
        path = self._old_format_file(tmp_path, old, {
            "verdict": Verdict.TRUE.value, "engine": "bmc",
        })
        cache = ProofCache(path)
        cache.store(self.FP, "k-induction:bound=8:k=8", new,
                    true_result(new, "k-induction", proof="k-induction",
                                induction_k=2))
        cache.flush()
        reloaded = ProofCache(path)
        legacy = reloaded.lookup(self.FP, self.ENGINE, old)
        proved = reloaded.lookup(self.FP, "k-induction:bound=8:k=8", new)
        assert legacy.proof_strength == PROOF_BOUNDED
        assert proved.proof_strength == PROOF_UNBOUNDED
        document = json.loads(path.read_text())
        entries = document["entries"]
        assert document["version"] == CACHE_SCHEMA_VERSION  # no bump
        key_old = ProofCache.entry_key(self.FP, self.ENGINE, old)
        assert "proof_strength" not in entries[key_old] or \
            entries[key_old]["proof_strength"] == PROOF_BOUNDED

    def test_new_entries_persist_their_strength(self, tmp_path):
        path = tmp_path / "proofs.json"
        proved = sample_assertion(value=1)
        passed = sample_assertion(value=0)
        cache = ProofCache(path)
        cache.store(self.FP, self.ENGINE, proved,
                    true_result(proved, "tiered", proof="k-induction"))
        cache.store(self.FP, self.ENGINE, passed,
                    unknown_result(passed, "tiered", bound=8))
        cache.flush()
        reloaded = ProofCache(path)
        assert reloaded.lookup(self.FP, self.ENGINE, proved) \
            .proof_strength == PROOF_UNBOUNDED
        assert reloaded.lookup(self.FP, self.ENGINE, passed) \
            .proof_strength == PROOF_BOUNDED


class TestResolve:
    def test_disabled_settings(self):
        assert ProofCache.resolve(False) is None
        assert ProofCache.resolve(None) is None
        assert ProofCache.resolve("") is None

    def test_true_shares_one_in_memory_instance(self):
        assert ProofCache.resolve(True) is ProofCache.resolve(True)
        assert ProofCache.resolve(True).path is None

    def test_paths_share_per_file_instances(self, tmp_path):
        first = ProofCache.resolve(tmp_path / "a.json")
        assert first is ProofCache.resolve(str(tmp_path / "a.json"))
        assert first is not ProofCache.resolve(tmp_path / "b.json")


class TestEngineKeyText:
    """Engine-configuration keys are part of every persisted entry, so
    their text is pinned byte for byte: a change would orphan every
    existing cache file."""

    def test_explicit_key_keeps_its_pinned_field(self):
        module = design_info("arbiter2").build()
        verifier = FormalVerifier(module, engine="explicit")
        assert verifier._proof_engine_key() == \
            "explicit:max_states=50000:max_inputs=4096:pinned="

    @pytest.mark.parametrize("induction_k,key", [
        (0, "tiered:bound=6:k=0:ir"),
        (4, "tiered:bound=6:k=4:ir:exact=18"),
    ])
    def test_tiered_key_names_bound_and_depth(self, induction_k, key):
        module = design_info("arbiter2").build()
        verifier = FormalVerifier(module, engine="tiered", bound=6,
                                  induction_k=induction_k)
        assert verifier._proof_engine_key() == key


class TestSlicedEncodingKeys:
    """The SAT engine checks every assertion on its cone-of-influence slice
    and keys its entries with the ``:ir`` encoding suffix — the key form
    ``--ir-opt`` runs already wrote, so those caches keep hitting.  Entries
    under the suffix-less key were written by the retired unsliced
    encoding, which can prove less under k-induction: never served."""

    FORMS = [("tiered", "tiered:bound=6:k=4")]
    #: What follows the encoding suffix in the current key.
    TAIL = EXACT_TIER_MARKER

    def _verifier(self, engine, path):
        module = design_info("arbiter2").build()
        return FormalVerifier(module, engine=engine, bound=6, induction_k=4,
                              proof_cache=ProofCache(path))

    def test_suffix_names_the_sliced_encoding(self):
        assert SLICED_ENCODING == ":ir"

    @pytest.mark.parametrize("engine,unsliced_key", FORMS)
    def test_only_the_sliced_entry_is_served(self, tmp_path, engine,
                                             unsliced_key):
        assertion = sample_assertion()
        fingerprint = design_fingerprint(design_info("arbiter2").build())
        path = tmp_path / "proofs.json"
        cache = ProofCache(path)
        cache.store(fingerprint, unsliced_key, assertion,
                    unknown_result(assertion, engine, bound=6, marker="unsliced"))
        cache.store(fingerprint, f"{unsliced_key}:ir{self.TAIL}", assertion,
                    unknown_result(assertion, engine, bound=6, marker="sliced"))
        cache.flush()
        assert len(json.loads(path.read_text())["entries"]) == 2

        verifier = self._verifier(engine, path)
        result = verifier.check(assertion)
        assert result.details["marker"] == "sliced"
        assert verifier.stats.reuse["proof_cache_hits"] == 1
        assert verifier.stats.reuse["proof_cache_misses"] == 0

    @pytest.mark.parametrize("engine,unsliced_key", FORMS)
    def test_unsliced_entry_alone_is_a_miss(self, tmp_path, engine,
                                            unsliced_key):
        assertion = sample_assertion()
        fingerprint = design_fingerprint(design_info("arbiter2").build())
        path = tmp_path / "proofs.json"
        cache = ProofCache(path)
        cache.store(fingerprint, unsliced_key, assertion,
                    unknown_result(assertion, engine, bound=6, marker="unsliced"))
        cache.flush()

        verifier = self._verifier(engine, path)
        result = verifier.check(assertion)
        assert "marker" not in result.details
        assert verifier.stats.reuse["proof_cache_misses"] == 1
        verifier.close()
        # The engine's own verdict is stored under the sliced key, beside
        # the unsliced entry it did not trust.
        keys = json.loads(path.read_text())["entries"]
        assert ProofCache.entry_key(fingerprint, f"{unsliced_key}:ir{self.TAIL}",
                                    assertion) in keys


class TestExactTierKeys:
    """Entries written before the exact tier existed may be UNKNOWNs the
    tier now decides, so at ``induction_k > 0`` they are never served; at
    ``induction_k=0`` the tier never runs and they still hit."""

    # A b09 window-2 candidate that k-induction cannot prove at any depth
    # up to 8 and the exact tier proves.
    ASSERTION = Assertion((Literal("hold", 1, 0, 2), Literal("shift_in", 0, 0, 3)),
                          Literal("d_out", 1, 2), window=2)

    def test_marker_names_the_row_budget(self):
        assert EXACT_TIER_MARKER == ":exact=18"

    @pytest.mark.parametrize("induction_k,served", [(0, True), (8, False)])
    def test_pre_tier_entry(self, tmp_path, induction_k, served):
        module = design_info("b09").build()
        fingerprint = design_fingerprint(module)
        path = tmp_path / "proofs.json"
        cache = ProofCache(path)
        cache.store(fingerprint, f"tiered:bound=10:k={induction_k}:ir",
                    self.ASSERTION,
                    unknown_result(self.ASSERTION, "tiered", bound=10,
                                   marker="pre-tier"))
        cache.flush()
        verifier = FormalVerifier(module, engine="tiered", bound=10,
                                  induction_k=induction_k,
                                  proof_cache=ProofCache(path))
        result = verifier.check(self.ASSERTION)
        assert ("marker" in result.details) is served
        assert verifier.stats.reuse["proof_cache_hits"] == int(served)
        if not served:
            assert result.verdict is Verdict.TRUE
            assert result.details["proof"] == "explicit"
