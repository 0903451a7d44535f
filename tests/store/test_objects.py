"""Object-store mechanics: shard redirection and the corrupt-entry /
plain-miss classification."""

import os
import pickle

from repro.store import CACHE_MISS, ObjectStore, Store


def key(tag):
    return ObjectStore.key_for(tag, "a/b.cc", "int main() {}\n")


class TestShardRedirection:
    def test_put_lands_in_shard_and_get_falls_through(self, tmp_path):
        master = str(tmp_path / "objects")
        shard = str(tmp_path / "shard-h-1" / "objects")
        area = ObjectStore(master, shard_root=shard)
        assert area.write_root == shard
        assert area.put(key("parse:3"), {"v": 1})
        # the entry physically lives in the shard, not the master
        assert os.path.exists(area.entry_path(key("parse:3"), shard))
        assert not os.path.exists(area.entry_path(key("parse:3"), master))
        # ... but the sharded writer still reads it back
        assert area.get(key("parse:3")) == {"v": 1}
        # a master-only reader does not see unmerged shard entries
        assert ObjectStore(master).get(key("parse:3")) is CACHE_MISS

    def test_master_entry_read_before_shard(self, tmp_path):
        master = str(tmp_path / "objects")
        shard = str(tmp_path / "shard-h-1" / "objects")
        ObjectStore(master).put(key("t"), "master")
        area = ObjectStore(master, shard_root=shard)
        assert area.get(key("t")) == "master"

    def test_store_object_store_wiring(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        area = store.object_store()
        assert area.root == store.objects_root
        assert area.record_references is True
        sharded = store.object_store(shard="")
        assert sharded.write_root.startswith(
            os.path.join(store.root, "shard-"))


class TestMissClassification:
    def test_plain_absence_is_not_corruption(self, tmp_path):
        area = ObjectStore(str(tmp_path))
        assert area.get(key("absent")) is CACHE_MISS
        assert area.misses == 1
        assert area.corrupt_entries == 0

    def test_unopenable_existing_entry_counts_corrupt(self, tmp_path):
        # an entry whose path exists but cannot be opened as a file
        # (here: it is a directory) is store rot, not a plain miss
        area = ObjectStore(str(tmp_path))
        os.makedirs(area.entry_path(key("dir")))
        assert area.get(key("dir")) is CACHE_MISS
        assert area.misses == 1
        assert area.corrupt_entries == 1

    def test_truncated_pickle_counts_corrupt(self, tmp_path):
        area = ObjectStore(str(tmp_path))
        area.put(key("torn"), {"big": list(range(100))})
        path = area.entry_path(key("torn"))
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert area.get(key("torn")) is CACHE_MISS
        assert area.corrupt_entries == 1
        # recompute-and-overwrite heals it
        assert area.put(key("torn"), "fresh")
        assert area.get(key("torn")) == "fresh"

    def test_wrong_schema_pickle_counts_corrupt(self, tmp_path):
        area = ObjectStore(str(tmp_path))
        path = area.entry_path(key("junk"))
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle at all")
        assert area.get(key("junk")) is CACHE_MISS
        assert area.corrupt_entries == 1


class TestEntries:
    def test_entries_sorted_and_round_trip(self, tmp_path):
        area = ObjectStore(str(tmp_path))
        keys = sorted(key(f"tag{i}") for i in range(5))
        for index, each in enumerate(keys):
            area.put(each, index)
        listed = list(area.entries())
        assert [k for k, _ in listed] == keys
        for each, path in listed:
            with open(path, "rb") as handle:
                pickle.load(handle)


class TestKeyMemo:
    def test_memo_hits_equal_fresh_hashes(self, tmp_path):
        area = ObjectStore(str(tmp_path))
        source = "int main() {}\n"
        first = area.cached_key("parse:4", "a.cc", source)
        assert first == ObjectStore.key_for("parse:4", "a.cc", source)
        # an equal but distinct string object still hits the memo
        copy = "".join(list(source))
        assert copy is not source
        assert area.cached_key("parse:4", "a.cc", copy) == first
        assert area.cached_key("check:4", "a.cc", source, "fp") == \
            ObjectStore.key_for("check:4", "a.cc", source, "fp")

    def test_changed_source_rehashes(self, tmp_path):
        area = ObjectStore(str(tmp_path))
        area.cached_key("parse:4", "a.cc", "int x;")
        assert area.cached_key("parse:4", "a.cc", "int y;") == \
            ObjectStore.key_for("parse:4", "a.cc", "int y;")
        assert area.cached_key("parse:4", "a.cc", "int x;") == \
            ObjectStore.key_for("parse:4", "a.cc", "int x;")

    def test_prune_drops_paths_no_longer_present(self, tmp_path):
        area = ObjectStore(str(tmp_path))
        for path in ("a.cc", "b.cc"):
            area.cached_key("parse:4", path, "int x;")
            area.cached_key("check:4", path, "int x;", "fp")
        area.prune_key_memo({"b.cc"})
        assert {slot[1] for slot in area._key_memo} == {"b.cc"}
        assert area.cached_key("parse:4", "a.cc", "int x;") == \
            ObjectStore.key_for("parse:4", "a.cc", "int x;")
