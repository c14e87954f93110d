"""Unit tests for the simulated S3 object store and request ledgers."""
import threading

import pytest

from repro.s3.store import Ledger, NoSuchBucket, NoSuchKey, S3Client, S3Store


@pytest.fixture()
def s3(tmp_path):
    store = S3Store(tmp_path)
    store.create_bucket("b0")
    store.create_bucket("b1")
    return store


class TestPutGet:
    def test_roundtrip(self, s3):
        c = s3.client()
        c.put("b0", "a/b/key", b"hello")
        assert c.get("b0", "a/b/key") == b"hello"

    def test_overwrite(self, s3):
        c = s3.client()
        c.put("b0", "k", b"one")
        c.put("b0", "k", b"two")
        assert c.get("b0", "k") == b"two"

    def test_empty_object(self, s3):
        c = s3.client()
        c.put("b0", "empty", b"")
        assert c.get("b0", "empty") == b""
        assert c.head("b0", "empty") == 0

    @pytest.mark.parametrize(
        "offset,length,expected",
        [(0, 5, b"01234"), (3, 4, b"3456"), (8, None, b"89"), (0, None, b"0123456789"), (9, 100, b"9")],
    )
    def test_ranged_get(self, s3, offset, length, expected):
        c = s3.client()
        c.put("b0", "r", b"0123456789")
        assert c.get("b0", "r", offset=offset, length=length) == expected

    def test_get_missing_raises(self, s3):
        with pytest.raises(NoSuchKey):
            s3.client().get("b0", "nope")

    def test_missing_bucket_raises(self, s3):
        with pytest.raises(NoSuchBucket):
            s3.client().get("zzz", "k")

    @pytest.mark.parametrize("key", ["../escape", "a//../b", ""])
    def test_invalid_keys_rejected(self, s3, key):
        with pytest.raises((ValueError, NoSuchKey)):
            s3.client().put("b0", key, b"x")

    def test_bad_bucket_name_rejected(self, s3):
        with pytest.raises(ValueError):
            s3.create_bucket("Has Spaces")

    def test_atomic_put_no_partial_reads(self, s3):
        """Concurrent readers either miss the key or see the full object."""
        c = s3.client()
        payload = b"x" * (1 << 20)
        seen = []

        def reader():
            r = s3.client()
            for _ in range(200):
                try:
                    seen.append(len(r.get("b0", "big")))
                except NoSuchKey:
                    pass

        t = threading.Thread(target=reader)
        t.start()
        c.put("b0", "big", payload)
        t.join()
        assert all(n == len(payload) for n in seen)


class TestListHeadDelete:
    def test_list_prefix(self, s3):
        c = s3.client()
        for k in ("p/one", "p/two", "q/three"):
            c.put("b0", k, b"x")
        assert c.list("b0", "p/") == ["p/one", "p/two"]
        assert c.list("b0") == ["p/one", "p/two", "q/three"]

    def test_list_excludes_temp_files(self, s3, tmp_path):
        c = s3.client()
        c.put("b0", "p/one", b"x")
        (tmp_path / "b0" / "p" / ".tmp-junk").write_bytes(b"partial")
        assert c.list("b0", "p/") == ["p/one"]

    def test_head_size(self, s3):
        c = s3.client()
        c.put("b0", "k", b"12345")
        assert c.head("b0", "k") == 5

    def test_delete(self, s3):
        c = s3.client()
        c.put("b0", "k", b"x")
        c.delete("b0", "k")
        with pytest.raises(NoSuchKey):
            c.get("b0", "k")

    def test_exists(self, s3):
        c = s3.client()
        assert not c.exists("b0", "later")
        c.put("b0", "later", b"v")
        assert c.exists("b0", "later")
        assert c.ledger.heads == 2  # every probe is billed as a HEAD


class TestLedger:
    def test_counts_every_request_kind(self, s3):
        c = s3.client()
        c.put("b0", "k", b"abc")
        c.get("b0", "k")
        c.head("b0", "k")
        c.list("b0")
        c.delete("b0", "k")
        led = c.ledger
        assert (led.puts, led.gets, led.heads, led.lists, led.deletes) == (1, 1, 1, 1, 1)
        assert led.requests == 5

    def test_bytes_accounting(self, s3):
        c = s3.client()
        c.put("b0", "k", b"abcdef")
        c.get("b0", "k", offset=1, length=3)
        assert c.ledger.bytes_written == 6
        assert c.ledger.bytes_read == 3

    def test_per_bucket_counts(self, s3):
        c = s3.client()
        c.put("b0", "k", b"x")
        c.put("b1", "k", b"x")
        c.get("b1", "k")
        assert c.ledger.per_bucket["b0"] == {"puts": 1}
        assert c.ledger.per_bucket["b1"] == {"puts": 1, "gets": 1}

    def test_merge_and_json_roundtrip(self):
        a, b = Ledger(), Ledger()
        a.record("puts", "x", 10)
        b.record("gets", "x", 5)
        b.record("puts", "y", 1)
        a.merge(b)
        assert (a.puts, a.gets) == (2, 1)
        assert a.bytes_written == 11 and a.bytes_read == 5
        again = Ledger.from_json(a.to_json())
        assert again == a

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Ledger().record("borrows", "b")

    def test_clients_isolated(self, s3):
        c1, c2 = s3.client(), s3.client()
        c1.put("b0", "k", b"x")
        assert c2.ledger.requests == 0
        assert c2.get("b0", "k") == b"x"  # but they share the store
