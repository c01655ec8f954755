"""Cache lifecycle verbs: stats, gc, and merge."""

import json
import os
import time

import pytest

import repro
import repro.experiments.parallel as parallel
from repro.cli import main
from repro.experiments.cache_tools import (
    CacheMergeError,
    cache_stats,
    gc_cache,
    merge_caches,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    ResultCache,
    config_fingerprint,
    result_to_payload,
    run_configs,
)
from repro.experiments.queue import enqueue_config, try_claim
from repro.metrics.serialize import records_to_dicts, unpack_floats


def _config(seed: int = 1, **overrides) -> ExperimentConfig:
    base = dict(cores=10, intensity=30, policy="FIFO", seed=seed)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def results():
    configs = [_config(seed=s) for s in (1, 2, 3)]
    return list(zip(configs, run_configs(configs)))


def _fill(root, results):
    cache = ResultCache(root)
    for config, result in results:
        cache.store(config, result)
    return cache


class TestStats:
    def test_counts_bytes_and_shards(self, tmp_path, results):
        cache = _fill(tmp_path, results)
        report = cache_stats(tmp_path)
        assert report.entries == 3
        assert report.current == 3
        assert report.stale == 0 and report.corrupt == 0
        expected_bytes = sum(
            cache.path_for(config).stat().st_size for config, _ in results
        )
        assert report.total_bytes == expected_bytes
        assert sum(count for count, _ in report.shards.values()) == 3
        assert report.oldest_age is not None and report.oldest_age >= 0

    def test_sees_sidecar_state(self, tmp_path):
        enqueue_config(tmp_path, _config())
        try_claim(tmp_path, "ab" + "0" * 62, owner="w")
        report = cache_stats(tmp_path)
        assert report.queue_depth == 1
        assert report.active_claims == 1
        rendered = report.render()
        assert "1 queued" in rendered and "1 claimed" in rendered

    def test_classifies_stale_and_corrupt(self, tmp_path, results):
        cache = _fill(tmp_path, results)
        config = results[0][0]
        path = cache.path_for(config)
        payload = json.loads(path.read_text())
        payload["schema"] = -1
        path.write_text(json.dumps(payload))
        other = cache.path_for(results[1][0])
        other.write_text("{truncated")
        report = cache_stats(tmp_path)
        assert report.stale == 1
        assert report.corrupt == 1
        assert report.current == 1

    def test_empty_root(self, tmp_path):
        report = cache_stats(tmp_path / "nonexistent")
        assert report.entries == 0
        assert "0 entries" in report.render()


class TestGc:
    def test_noop_on_healthy_in_budget_cache(self, tmp_path, results):
        _fill(tmp_path, results)
        report = gc_cache(tmp_path)
        assert report.evicted == 0
        assert report.kept == 3

    def test_dead_weight_always_goes_first(self, tmp_path, results):
        cache = _fill(tmp_path, results)
        path = cache.path_for(results[0][0])
        payload = json.loads(path.read_text())
        payload["package_version"] = "0.0.0-ancient"
        path.write_text(json.dumps(payload))
        report = gc_cache(tmp_path)
        assert report.evicted == 1
        assert list(report.reasons.values()) == ["stale"]
        assert not path.exists()

    def test_max_age_evicts_old_entries(self, tmp_path, results):
        cache = _fill(tmp_path, results)
        old = cache.path_for(results[0][0])
        past = time.time() - 3600
        os.utime(old, (past, past))
        report = gc_cache(tmp_path, max_age=60)
        assert report.evicted == 1
        assert report.reasons == {old.stem: "age"}
        assert not old.exists()

    def test_size_budget_evicts_oldest_first(self, tmp_path, results):
        cache = _fill(tmp_path, results)
        paths = [cache.path_for(config) for config, _ in results]
        # Make ages strictly ordered: paths[0] oldest, paths[2] newest.
        now = time.time()
        for rank, path in enumerate(paths):
            stamp = now - (len(paths) - rank) * 100
            os.utime(path, (stamp, stamp))
        total = sum(path.stat().st_size for path in paths)
        budget = total - 1  # must evict exactly the single oldest entry
        report = gc_cache(tmp_path, size_budget=budget)
        assert report.evicted == 1
        assert report.reasons == {paths[0].stem: "budget"}
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()

    def test_zero_budget_clears_the_cache(self, tmp_path, results):
        _fill(tmp_path, results)
        report = gc_cache(tmp_path, size_budget=0)
        assert report.evicted == 3
        assert cache_stats(tmp_path).entries == 0

    def test_dry_run_deletes_nothing(self, tmp_path, results):
        _fill(tmp_path, results)
        report = gc_cache(tmp_path, size_budget=0, dry_run=True)
        assert report.evicted == 3
        assert report.dry_run
        assert "would evict 3" in report.render()
        assert cache_stats(tmp_path).entries == 3

    def test_rejects_negative_limits(self, tmp_path):
        with pytest.raises(ValueError, match="max_age"):
            gc_cache(tmp_path, max_age=-1)
        with pytest.raises(ValueError, match="size_budget"):
            gc_cache(tmp_path, size_budget=-1)


class TestMerge:
    def test_disjoint_union(self, tmp_path, results):
        src, dst = tmp_path / "src", tmp_path / "dst"
        _fill(src, results[:1])
        _fill(dst, results[1:])
        report = merge_caches(src, dst)
        assert report.copied == 1
        assert report.identical == 0
        assert cache_stats(dst).entries == 3
        # The copy is byte-exact.
        src_cache, dst_cache = ResultCache(src), ResultCache(dst)
        config = results[0][0]
        assert src_cache.path_for(config).read_bytes() == (
            dst_cache.path_for(config).read_bytes()
        )

    def test_overlap_must_be_byte_identical(self, tmp_path, results):
        src, dst = tmp_path / "src", tmp_path / "dst"
        _fill(src, results)
        _fill(dst, results)
        report = merge_caches(src, dst)
        assert report.copied == 0
        assert report.identical == 3

    def test_conflicting_entry_aborts_before_copying(self, tmp_path, results):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src_cache = _fill(src, results)
        _fill(dst, results[:1])
        # Corrupt the shared entry in dst: the merge must abort without
        # copying the (valid) src-only entries.
        shared = ResultCache(dst).path_for(results[0][0])
        shared.write_text(shared.read_text() + " ")
        with pytest.raises(CacheMergeError, match="different bytes"):
            merge_caches(src, dst)
        assert cache_stats(dst).entries == 1  # nothing was copied
        assert src_cache.path_for(results[1][0]).exists()

    def test_merge_into_fresh_root(self, tmp_path, results):
        src, dst = tmp_path / "src", tmp_path / "fresh"
        _fill(src, results)
        report = merge_caches(src, dst)
        assert report.copied == 3
        assert cache_stats(dst).entries == 3

    def test_same_root_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="same root"):
            merge_caches(tmp_path, tmp_path)

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            merge_caches(tmp_path / "nope", tmp_path / "dst")


def _write_old_entry(root, config, result, monkeypatch, schema):
    """An entry as an older schema stored it, under that schema's
    fingerprint.  Both schemas stored the accumulator's t-digest centroids
    as JSON float lists; schema 6 also stored one JSON object per record,
    where schema 8 already stored record columns."""
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "CACHE_SCHEMA_VERSION", schema)
        fingerprint = config_fingerprint(config)
    payload = result_to_payload(result)
    if schema == 6:
        payload["records"] = records_to_dicts(result.records)
    for name in ("response_digest", "stretch_digest"):
        digest = payload["accumulator"][name]
        for key in ("means", "weights"):
            digest[key] = list(unpack_floats(digest[key]))
    path = root / fingerprint[:2] / f"{fingerprint}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "fingerprint": fingerprint,
                "schema": schema,
                "package_version": repro.__version__,
                "result": payload,
            }
        )
    )
    return path


@pytest.mark.parametrize("schema", [6, 8])
class TestSchemaV6Entries:
    """Entries from before the current layout are never served: schema 6's
    rows and schema 8's list-form t-digests alike.  ``cache verify``
    reports them stale and ``cache gc`` reclaims them."""

    def test_never_served(self, tmp_path, results, monkeypatch, schema):
        config, result = results[0]
        _write_old_entry(tmp_path, config, result, monkeypatch, schema)
        assert ResultCache(tmp_path).load(config) is None

    def test_cache_verify_reports_stale(self, tmp_path, results, monkeypatch, capsys, schema):
        _fill(tmp_path, results[1:])
        path = _write_old_entry(tmp_path, *results[0], monkeypatch, schema)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        assert "scanned: 3  ok: 2  corrupt: 0  stale: 1" in capsys.readouterr().out
        assert not path.exists()
        assert (tmp_path / "quarantine" / f"{path.parent.name}-{path.name}").exists()

    def test_cache_gc_counts_dead_weight(self, tmp_path, results, monkeypatch, capsys, schema):
        _fill(tmp_path, results[1:])
        path = _write_old_entry(tmp_path, *results[0], monkeypatch, schema)
        size = path.stat().st_size
        report = gc_cache(tmp_path)
        assert (report.evicted, report.kept, report.freed_bytes) == (1, 2, size)
        assert report.reasons == {path.stem: "stale"}
        assert not path.exists()
        _write_old_entry(tmp_path, *results[0], monkeypatch, schema)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "[1 stale]" in capsys.readouterr().out
