"""The ``repro-skel/2`` leaf annex: stored DEFLATE lengths, no dead columns.

Every QUIC-served chain spec of a stored shard carries the raw-DEFLATE
length of its TLS payload, stamped with the zlib that measured it, so a
warm campaign reads the length instead of running zlib.  The columns the
reader never used (TBS and signature lengths, serials, SKI/SAN/SCT values)
are gone.  A directory warmed by the ``repro-skel/1`` writer is rebound and
regenerated shard by shard, never refused.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import zlib

import pytest

from repro.analysis.report import build_report
from repro.cli import main
from repro.core.ioutil import decode_self_verifying, encode_self_verifying
from repro.scanners import MeasurementCampaign, run_grid_campaign
from repro.scanners import skeleton_store as skeleton_store_module
from repro.scanners.skeleton_store import (
    KEY_DIGEST_LENGTH,
    SKELETON_FORMAT,
    STORE_METADATA_FILENAME,
    SkeletonKey,
    SkeletonStore,
    cache_counters,
    reset_cache_counters,
    reset_stores,
    shard_count,
    warm,
)
from repro.scenarios import load_scenario
from repro.scenarios.grid import load_grid
from repro.tls import cert_compression
from repro.tls.cert_compression import chain_payload, deflate_size
from repro.webpki.population import GENERATION_SHARD_SIZE, PopulationConfig
from repro.webpki.skeleton import encode_skeleton_shard

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Two generation shards, so scan shards straddle a stored-shard boundary.
POPULATION_SIZE = 2000
SCAN_SHARD_SIZE = 700
SPOOFED = 12
#: The benchmark's population size, for the store-size comparison.
BENCH_SIZE = 20_000


@pytest.fixture(autouse=True)
def _isolate_process_state():
    reset_stores()
    reset_cache_counters()
    yield
    reset_stores()
    reset_cache_counters()


@pytest.fixture(scope="module")
def config():
    return PopulationConfig(size=POPULATION_SIZE, seed=2022)


@pytest.fixture(scope="module")
def warmed_dir(config, tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("skel-format"))
    warm(directory, config)
    reset_stores()
    return directory


@pytest.fixture()
def deflate_calls(monkeypatch):
    """Payload lengths of every zlib pass the compression model runs."""
    calls = []

    def counting_deflate(payload):
        calls.append(len(payload))
        return deflate_size(payload)

    monkeypatch.setattr(cert_compression, "deflate_size", counting_deflate)
    return calls


def _annex_specs(shard):
    """``(spec, QUIC-served)`` per annex record, in annex order."""
    for skeleton in shard.skeletons:
        quic = skeleton.supports_quic
        if skeleton.https_spec is not None:
            yield skeleton.https_spec, quic and skeleton.quic_shares_https
        if skeleton.quic_spec is not None:
            yield skeleton.quic_spec, quic


def _stored_deflate_column(path):
    """The DEFLATE-length column and zlib stamp of one ``.skel`` file."""
    with open(path, "rb") as handle:
        payload = decode_self_verifying(SKELETON_FORMAT, handle.read())
    (skeleton_length,) = struct.unpack_from("<I", payload, KEY_DIGEST_LENGTH)
    pos = KEY_DIGEST_LENGTH + 4 + skeleton_length
    (count,) = struct.unpack_from("<I", payload, pos)
    pos += 4 + 4 * count + 28 * count  # count, DER lengths, field-size rows
    lengths = struct.unpack_from(f"<{count}I", payload, pos)
    pos += 4 * count
    stamp = payload[pos + 1 : pos + 1 + payload[pos]]
    return lengths, stamp


def _report(config, directory=None, backend="columnar", stream=True):
    kwargs = dict(spoofed_targets_per_provider=SPOOFED, skeleton_cache_dir=directory)
    if stream:
        kwargs.update(stream=True, shard_size=SCAN_SHARD_SIZE, scan_backend=backend)
    return build_report(MeasurementCampaign(population_config=config, **kwargs).run()).text


# ---------------------------------------------------------------------------
# The repro-skel/1 writer, kept as a fixture: the layout the parent format
# used, so the old-format directory and store-size tests run against the
# real bytes rather than a description of them.
# ---------------------------------------------------------------------------

FORMAT_1 = b"repro-skel/1"


def _format1_annex(shard, cache) -> bytes:
    records = []
    for spec, _ in _annex_specs(shard):
        leaf = cache[spec].leaf
        extensions = leaf.extensions
        records.append(
            (
                leaf.der,
                len(leaf.tbs_der),
                len(leaf.signature_value),
                leaf.serial_number,
                extensions[3].value,  # SKI
                extensions[6].value,  # SAN
                extensions[8].value,  # SCT
                leaf._field_size_row,
            )
        )
    count = len(records)
    out = bytearray(struct.pack("<I", count))
    out += struct.pack(f"<{count}I", *(len(record[0]) for record in records))
    out += struct.pack(f"<{count}I", *(record[1] for record in records))
    out += struct.pack(f"<{count}H", *(record[2] for record in records))
    for column in (4, 5, 6):
        out += struct.pack(f"<{count}H", *(len(record[column]) for record in records))
    for record in records:
        out += record[3].to_bytes(16, "big")
    out += struct.pack(f"<{7 * count}I", *(value for record in records for value in record[7]))
    for column in (0, 4, 5, 6):
        for record in records:
            out += record[column]
    return bytes(out)


def format1_file(shard, cache, key: SkeletonKey) -> bytes:
    """One generation shard as the ``repro-skel/1`` writer encoded it."""
    skeleton_bytes = encode_skeleton_shard(shard)
    payload = (
        key.digest().encode("ascii")
        + struct.pack("<I", len(skeleton_bytes))
        + skeleton_bytes
        + _format1_annex(shard, cache)
    )
    return encode_self_verifying(FORMAT_1, payload)


def write_format1_store(directory: str, config: PopulationConfig, scratch: str) -> None:
    """Warm ``directory`` for ``config`` the way the format-1 writer did."""
    os.makedirs(directory)
    source = SkeletonStore(scratch)  # cold: fully issued leaves
    for index in range(shard_count(config.size)):
        shard, cache = source.load_or_generate(config, index)
        key = SkeletonKey.for_config(config, index)
        with open(os.path.join(directory, key.filename()), "wb") as handle:
            handle.write(format1_file(shard, cache, key))
    metadata = {
        "format": FORMAT_1.decode("ascii"),
        "seed": config.seed,
        "size": config.size,
        "generation_shard_size": GENERATION_SHARD_SIZE,
    }
    with open(os.path.join(directory, STORE_METADATA_FILENAME), "w", encoding="utf-8") as handle:
        json.dump(metadata, handle)
    reset_stores()


class TestStoredDeflateLengths:
    @pytest.mark.parametrize("seed", [2022, 7])
    def test_stored_length_is_a_fresh_zlib_pass(self, seed, tmp_path):
        """Differential: every QUIC chain's stored length, against zlib."""
        config = PopulationConfig(size=POPULATION_SIZE, seed=seed)
        directory = str(tmp_path / "skel")
        warm(directory, config)
        reset_stores()
        store = SkeletonStore(directory)
        served_total = other_total = 0
        for index in range(shard_count(config.size)):
            shard, cache = store.load_or_generate(config, index)
            lengths, stamp = _stored_deflate_column(
                store.path_for(SkeletonKey.for_config(config, index))
            )
            assert stamp == zlib.ZLIB_RUNTIME_VERSION.encode("ascii")
            records = list(_annex_specs(shard))
            assert len(lengths) == len(records)
            for (spec, served), stored in zip(records, lengths):
                if served:
                    served_total += 1
                    chain = cache[spec]
                    payload = chain_payload(cert.der for cert in chain.certificates)
                    assert stored == deflate_size(payload) > 0, spec.domain
                else:
                    other_total += 1
                    assert stored == 0, spec.domain
        assert served_total > 0 and other_total > 0

    def test_decoded_chains_carry_the_stored_length(self, config, warmed_dir):
        shard, cache = SkeletonStore(warmed_dir).load_or_generate(config, 0)
        for spec, served in _annex_specs(shard):
            assert ("_deflate_size" in cache[spec].__dict__) == served, spec.domain

    def test_stamp_mismatch_recomputes_with_identical_bytes(
        self, config, warmed_dir, monkeypatch, deflate_calls
    ):
        reference = _report(config)
        deflate_calls.clear()
        reset_stores()
        monkeypatch.setattr(skeleton_store_module, "DEFLATE_STAMP", b"0.0.0-other")
        shard, cache = SkeletonStore(warmed_dir).load_or_generate(config, 0)
        assert not any("_deflate_size" in chain.__dict__ for chain in cache.values())
        reset_stores()
        assert _report(config, warmed_dir) == reference
        assert cache_counters()["misses"] == 0
        quic_chains = sum(
            served
            for index in range(shard_count(config.size))
            for _, served in _annex_specs(
                SkeletonStore(warmed_dir).load_or_generate(config, index)[0]
            )
        )
        assert len(deflate_calls) == quic_chains > 0


class TestWarmCampaignRunsNoZlib:
    @pytest.mark.parametrize(
        "backend, stream",
        [("columnar", True), ("object", True), ("object", False)],
        ids=["streamed-columnar", "streamed-object", "serial"],
    )
    def test_warm_baseline_campaign_makes_no_deflate_call(
        self, config, warmed_dir, deflate_calls, backend, stream
    ):
        reference = _report(config, backend=backend, stream=stream)  # cache-free
        assert deflate_calls  # the cache-free run measures every QUIC chain
        deflate_calls.clear()
        reset_stores()
        reset_cache_counters()
        assert _report(config, warmed_dir, backend=backend, stream=stream) == reference
        counters = cache_counters()
        assert counters["hits"] > 0 and counters["misses"] == 0
        assert deflate_calls == []

    def test_cold_cached_run_makes_as_many_passes_as_cache_free(
        self, config, tmp_path, deflate_calls
    ):
        reference = _report(config)
        cache_free_calls = len(deflate_calls)
        deflate_calls.clear()
        reset_stores()
        assert _report(config, str(tmp_path / "skel")) == reference
        assert len(deflate_calls) == cache_free_calls

    @pytest.mark.parametrize("scenario", ["trimmed-chains", "ecdsa-only"])
    def test_transform_deflates_only_the_chains_it_rewrote(
        self, config, warmed_dir, deflate_calls, scenario
    ):
        member = load_scenario(scenario).population_config(base=config)
        reference = _report(member)
        deflate_calls.clear()
        reset_stores()
        assert _report(member, warmed_dir) == reference
        # Replay the warm materialisation: a rewritten QUIC-served spec needs
        # a zlib pass unless it resolves to the baseline chain itself (a trim
        # that does not shorten the chain).
        store = SkeletonStore(warmed_dir)
        rewritten = fresh = 0
        for index in range(shard_count(config.size)):
            shard, cache = store.load_or_generate(config, index)
            baseline_chains = {id(chain) for chain in cache.values()}
            replay = dict(cache)
            for skeleton in shard.skeletons:
                if not skeleton.supports_quic:
                    continue
                changed = member.scenario.transform_skeleton(skeleton)
                base_spec = skeleton.https_spec if skeleton.quic_shares_https else skeleton.quic_spec
                spec = changed.https_spec if changed.quic_shares_https else changed.quic_spec
                if spec == base_spec:
                    continue
                rewritten += 1
                chain = changed.materialize(chain_cache=replay).quic_chain
                fresh += id(chain) not in baseline_chains
        assert 0 < fresh <= rewritten
        assert len(deflate_calls) == fresh

    def test_warm_grid_deflates_only_rewritten_chains(
        self, config, warmed_dir, deflate_calls
    ):
        grid = load_grid("baseline-2022,universal-compression")
        kwargs = dict(
            config=config, shard_size=SCAN_SHARD_SIZE, scan_backend="columnar",
            spoofed_targets_per_provider=SPOOFED,
        )
        reference = run_grid_campaign(grid, **kwargs)
        deflate_calls.clear()
        reset_stores()
        warm_results = run_grid_campaign(grid, skeleton_cache_dir=warmed_dir, **kwargs)
        for name in grid.member_names:
            assert build_report(warm_results[name]).text == build_report(reference[name]).text
        # Neither member rewrites a chain spec.
        assert deflate_calls == []


class TestFormatOneDirectory:
    def test_old_format_cache_is_rebound_and_regenerated(
        self, config, tmp_path, capsys
    ):
        directory = str(tmp_path / "skel")
        write_format1_store(directory, config, str(tmp_path / "scratch"))
        old_files = sorted(name for name in os.listdir(directory) if name.endswith(".skel"))
        assert len(old_files) == shard_count(config.size)
        common = [
            "campaign", "--size", str(config.size), "--seed", str(config.seed),
            "--stream", "--shard-size", str(SCAN_SHARD_SIZE),
        ]
        plain = str(tmp_path / "plain.txt")
        cached = str(tmp_path / "cached.txt")
        assert main([*common, "--output", plain]) == 0
        assert main([*common, "--skeleton-cache", directory, "--output", cached]) == 0
        with open(plain, "rb") as a, open(cached, "rb") as b:
            assert a.read() == b.read()
        store = SkeletonStore(directory)
        assert store.entries() == old_files  # regenerated under the same addresses
        assert len(os.listdir(store.quarantine_directory)) == len(old_files)
        assert store.stats()["metadata"]["format"] == SKELETON_FORMAT.decode("ascii")
        for name in old_files:
            with open(os.path.join(directory, name), "rb") as handle:
                assert handle.read().startswith(SKELETON_FORMAT + b" ")
        # A second run reads the regenerated files.
        reset_stores()
        reset_cache_counters()
        again = str(tmp_path / "again.txt")
        assert main([*common, "--skeleton-cache", directory, "--output", again]) == 0
        assert cache_counters()["misses"] == 0

    def test_old_format_cache_of_another_population_still_exits_2(
        self, config, tmp_path, capsys
    ):
        directory = str(tmp_path / "skel")
        write_format1_store(directory, config, str(tmp_path / "scratch"))
        code = main([
            "campaign", "--size", str(config.size), "--seed", "7", "--stream",
            "--skeleton-cache", directory, "--output", str(tmp_path / "r.txt"),
        ])
        assert code == 2
        error = capsys.readouterr().err
        assert "different population" in error and "seed" in error
        assert "repro-skel" not in error  # the format is not what is refused


class TestStoreBytes:
    def test_store_is_a_fifth_smaller_than_format_one(self, tmp_path):
        """At the benchmark's 20k domains, against the format-1 writer."""
        config = PopulationConfig(size=BENCH_SIZE, seed=2022)
        store = SkeletonStore(str(tmp_path / "skel"))
        old_bytes = new_bytes = 0
        for index in range(shard_count(config.size)):
            shard, cache = store.load_or_generate(config, index)  # cold: writes
            key = SkeletonKey.for_config(config, index)
            old_bytes += len(format1_file(shard, cache, key))
            new_bytes += os.path.getsize(store.path_for(key))
            store.reset_memo()
        assert new_bytes <= 0.8 * old_bytes, (new_bytes, old_bytes)

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        directories = []
        for hash_seed in ("1", "2"):
            directory = tmp_path / f"skel-{hash_seed}"
            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro", "skeletons", "warm", str(directory),
                    "--size", str(POPULATION_SIZE), "--seed", "2022",
                ],
                capture_output=True, text=True, timeout=300,
                env=dict(env, PYTHONHASHSEED=hash_seed),
            )
            assert completed.returncode == 0, completed.stderr
            directories.append(directory)
        names = sorted(os.listdir(directories[0]))
        assert len([name for name in names if name.endswith(".skel")]) == shard_count(
            POPULATION_SIZE
        )
        assert sorted(os.listdir(directories[1])) == names
        for name in names:
            assert (directories[0] / name).read_bytes() == (
                directories[1] / name
            ).read_bytes(), name
