"""ArtifactStore: codecs, robustness, concurrency, fork safety, gc,
store locations and env resolution."""

import hashlib
import json
import multiprocessing
import pickle

import pytest

from repro.errors import StoreError, ValidationError
from repro.store import (
    ArtifactStore,
    content_hash,
    default_store_dir,
    open_store,
    require_store,
)
from repro.synthesis.synthesizer import SynthesisReport

KEY = "a" * 64


class TestRoundTrip:
    def test_json_kinds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        doc = {"qor": [0.5, 1.0], "configs": [[0, 1], [2, 3]]}
        store.put("training-set", KEY, doc)
        assert store.get("training-set", KEY) == doc

    def test_synthesis_codec(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = SynthesisReport(
            area=12.5, delay=0.8, power=3.25, gate_count=42,
            cells={"NAND2": 21, "INV": 21},
        )
        store.put("synthesis", KEY, report)
        back = store.get("synthesis", KEY)
        assert back == report

    def test_library_codec(self, tmp_path, tiny_library):
        store = ArtifactStore(tmp_path)
        store.put("library", KEY, tiny_library)
        back = store.get("library", KEY)
        assert len(back) == len(tiny_library)
        assert back.summary() == tiny_library.summary()

    def test_get_missing_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("training-set", KEY) is None
        assert not store.has("training-set", KEY)

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("dse", KEY, {"x": 1})
        store.delete("dse", KEY)
        assert store.get("dse", KEY) is None

    def test_meta_and_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("dse", KEY, {"x": 1}, meta={"note": "hi"})
        [entry] = store.entries("dse")
        assert entry.kind == "dse" and entry.key == KEY
        assert entry.size > 0 and entry.path.is_file()
        assert store.keys("dse") == [KEY]
        assert store.stats()["dse"]["count"] == 1


class TestRobustness:
    """Corrupt/stale entries must be transparent misses, never crashes."""

    def _put(self, store):
        return store.put("training-set", KEY, {"qor": [1.0, 2.0]})

    def test_truncated_blob_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        ref.path.write_bytes(ref.path.read_bytes()[:5])
        assert store.get("training-set", KEY) is None
        # the poisoned entry was evicted: a fresh put works again
        self._put(store)
        assert store.get("training-set", KEY) == {"qor": [1.0, 2.0]}

    def test_corrupt_blob_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        ref.path.write_bytes(b"{not json at all")
        assert store.get("training-set", KEY) is None

    def test_stale_index_entry_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        ref.path.unlink()  # blob vanished; index row is now stale
        assert store.get("training-set", KEY) is None
        assert store.entries("training-set") == []

    def test_undecodable_payload_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = store.put("synthesis", KEY, SynthesisReport(
            area=1.0, delay=1.0, power=1.0, gate_count=1,
        ))
        # valid JSON, wrong schema: decode raises -> miss, evicted
        ref.path.write_text(json.dumps({"bogus": True}))
        with open(ref.path, "rb") as fh:
            data = fh.read()
        # re-index the rewritten bytes so the checksum matches
        store._index(
            "synthesis", KEY, ref.path,
            hashlib.sha256(data).hexdigest(), len(data), None,
        )
        assert store.get("synthesis", KEY) is None
        assert store.get("synthesis", KEY) is None  # stays a clean miss

    def test_orphan_blob_is_adopted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = self._put(store)
        # simulate a writer that died between rename and index insert
        with store._connect() as conn:
            conn.execute("DELETE FROM artifacts")
        assert store.get("training-set", KEY) == {"qor": [1.0, 2.0]}
        assert store.entries("training-set") != []
        assert ref.path.is_file()

    def test_raced_blob_is_reindexed_then_garbage_evicted(self, tmp_path):
        """Changed bytes on disk: valid ones are adopted, garbage evicted.

        Changed but decodable bytes are indistinguishable from a raced
        valid write, so they are re-indexed and served consistently;
        undecodable bytes turn into a transparent miss.
        """
        store = ArtifactStore(tmp_path)
        ref = store.put("dse", KEY, {"x": 1})
        ref.path.write_bytes(b'{"x": "raced"}')
        assert store.get("dse", KEY) == {"x": "raced"}
        assert store.get("dse", KEY) == {"x": "raced"}
        [entry] = store.entries("dse")
        assert entry.sha256 == hashlib.sha256(b'{"x": "raced"}').hexdigest()
        ref.path.write_bytes(b"garbage")
        assert store.get("dse", KEY) is None  # evicted, not a crash
        assert store.entries("dse") == []
        store.put("dse", KEY, {"x": 2})
        assert store.get("dse", KEY) == {"x": 2}


def _writer(root: str, worker: int, n: int) -> None:
    store = ArtifactStore(root)
    for i in range(n):
        key = content_hash({"item": i})
        store.put("dse", key, {"item": i, "writer": worker})


class TestConcurrency:
    def test_two_process_writes_never_tear(self, tmp_path):
        """Two processes hammering the same keys via atomic rename."""
        n = 25
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_writer, args=(str(tmp_path), w, n))
            for w in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = ArtifactStore(tmp_path)
        for i in range(n):
            doc = store.get("dse", content_hash({"item": i}))
            assert doc is not None and doc["item"] == i
            assert doc["writer"] in (0, 1)


def _child_reads(store, queue):
    try:
        queue.put(("ok", store.get("dse", KEY)))
    except Exception as exc:  # pragma: no cover - the failure mode
        queue.put(("err", repr(exc)))


class TestForkSafety:
    def test_fork_after_read_gets_fresh_connection(self, tmp_path):
        """A child forked after a read must not share the parent's handle."""
        store = ArtifactStore(tmp_path)
        store.put("dse", KEY, {"x": 1})
        assert store.get("dse", KEY) == {"x": 1}  # caches the connection
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_child_reads, args=(store, queue))
        child.start()
        tag, value = queue.get(timeout=30)
        child.join(timeout=30)
        assert (tag, value) == ("ok", {"x": 1})
        assert child.exitcode == 0
        # and the parent's cached connection still works after the fork
        assert store.get("dse", KEY) == {"x": 1}
        store.put("dse", "b" * 64, [])
        assert store.get("dse", "b" * 64) == []

    def test_pickle_carries_only_the_root(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("dse", KEY, {"x": 1})  # opens a connection
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone._conn is None
        assert clone.get("dse", KEY) == {"x": 1}


class TestGc:
    def test_keeps_referenced_and_shared(self, tmp_path, tiny_library):
        store = ArtifactStore(tmp_path)
        store.put("dse", "1" * 64, {"x": 1})
        store.put("dse", "2" * 64, {"x": 2})
        store.put("library", "3" * 64, tiny_library)
        stats = store.gc({("dse", "1" * 64)})
        assert stats["removed"] == 1  # the unreferenced dse artifact
        assert store.get("dse", "1" * 64) == {"x": 1}
        assert store.get("dse", "2" * 64) is None
        assert store.get("library", "3" * 64) is not None  # shared kind

    def test_keep_kinds_override_drops_shared(self, tmp_path,
                                              tiny_library):
        store = ArtifactStore(tmp_path)
        store.put("library", "3" * 64, tiny_library)
        store.gc(set(), keep_kinds=())
        assert store.get("library", "3" * 64) is None

    def test_dry_run_reports_what_the_real_pass_removes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [format(i, "x") * 16 for i in range(6)]
        for i, key in enumerate(keys):
            store.put("dse", key, "x" * (i + 1))
        kept = {("dse", key) for key in keys[:2]}
        dry = store.gc(kept, keep_kinds=(), dry_run=True)
        assert dry["dry_run"] is True
        assert len(store.entries()) == 6  # nothing deleted
        real = store.gc(kept, keep_kinds=())
        assert real["dry_run"] is False
        assert store.keys("dse") == keys[:2]
        dry.pop("dry_run"), real.pop("dry_run")
        assert dry == real
        assert real["removed"] == 4 and real["kept"] == 2


def _open_via(surface, location, monkeypatch):
    """Open a store through one of the three user-facing surfaces."""
    if surface == "open_store":
        return open_store(location)
    if surface == "--store":
        from repro.cli import _resolve_store, build_parser

        args = build_parser().parse_args(["run", "--store", location])
        return _resolve_store(args.store)
    monkeypatch.setenv("REPRO_STORE_DIR", location)
    return open_store()


SURFACES = ["open_store", "--store", "REPRO_STORE_DIR"]


class TestStoreLocation:
    """A store is a local directory, spelled ``PATH`` or ``sqlite:PATH``."""

    @pytest.mark.parametrize("surface", SURFACES)
    @pytest.mark.parametrize("removed", ["sharded:x", "http://h:1"])
    def test_removed_backends_rejected(self, surface, removed,
                                       monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match="removed backend"):
            _open_via(surface, removed, monkeypatch)
        assert list(tmp_path.iterdir()) == []  # no "sharded:" dir

    @pytest.mark.parametrize("surface", SURFACES)
    def test_sqlite_prefix_and_bare_path_are_one_store(
        self, surface, monkeypatch, tmp_path
    ):
        root = tmp_path / "store"
        plain = _open_via(surface, str(root), monkeypatch)
        prefixed = _open_via(surface, f"sqlite:{root}", monkeypatch)
        assert plain.root == prefixed.root == root
        assert plain.uri == prefixed.uri == f"sqlite:{root}"
        plain.put("dse", KEY, {"x": 1})
        assert prefixed.get("dse", KEY) == {"x": 1}
        assert open_store(prefixed.uri).get("dse", KEY) == {"x": 1}
        assert open_store(plain) is plain

    @pytest.mark.parametrize("empty", ["", "   ", "sqlite:"])
    def test_empty_location_rejected(self, empty):
        with pytest.raises(ValidationError, match="non-empty"):
            open_store(empty)

    def test_cli_reports_removed_backend(self, monkeypatch, tmp_path,
                                         capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["workloads", "run", "sobel", "--store",
                     "sharded:x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "removed backend" in err
        assert list(tmp_path.iterdir()) == []

    def test_sharded_root_refused(self, tmp_path):
        """A sharded tree written by an earlier release is never opened
        as a plain store on top of its shards."""
        (tmp_path / "store-manifest.json").write_text(json.dumps(
            {"format": "sharded", "version": 1, "shards": 4}
        ))
        with pytest.raises(StoreError, match="sharded"):
            ArtifactStore(tmp_path)
        with pytest.raises(StoreError, match="sharded"):
            open_store(str(tmp_path))
        assert not (tmp_path / "index.sqlite3").exists()


class TestEnvResolution:
    def test_default_dir_priority(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert str(default_store_dir()) == ".repro-store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "new"))
        assert default_store_dir() == tmp_path / "new"

    @pytest.mark.parametrize("env", ["REPRO_STORE_DIR"])
    @pytest.mark.parametrize("bad", ["", "   ", "\t"])
    def test_blank_env_values_rejected(self, monkeypatch, env, bad):
        monkeypatch.setenv(env, bad)
        with pytest.raises(ValidationError, match=env):
            default_store_dir()

    def test_open_store_uses_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert open_store().root == tmp_path

    def test_require_store_missing_root(self, tmp_path):
        with pytest.raises(StoreError, match="no experiment store"):
            require_store(tmp_path / "absent")
