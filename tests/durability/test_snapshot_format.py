"""The snapshot file format: one compact canonical encode per snapshot.

``snapshot.json`` is byte-equal to the compact, sorted-key JSON of its
wrapper, its checksum covers exactly the ``state`` text inside it, and
the state is encoded once per write.  Snapshots written in the earlier
indented layout still load: the reader is plain ``json.loads``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import checkpoint, codec
from repro.durability.checkpoint import SCHEMA, CheckpointStore
from repro.durability.codec import state_checksum
from repro.durability.io import atomic_write_bytes, frame_entry
from repro.lint.output import dumps_json

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
states = st.dictionaries(st.text(max_size=6), json_values, max_size=5)


def new_store(directory) -> CheckpointStore:
    store = CheckpointStore(directory)
    store.initialize(account="acme", config_hash="cfg-1", cadence_seconds=3600.0)
    return store


class TestCompactCanonicalLayout:
    @given(
        states,
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=1e9),
    )
    @settings(max_examples=60)
    def test_bytes_are_the_compact_sorted_wrapper(self, tmp_path_factory, state, seq, time):
        store = new_store(tmp_path_factory.mktemp("ckpt"))
        store.write_snapshot(seq=seq, time=time, state=state)
        wrapper = {
            "schema": SCHEMA,
            "seq": seq,
            "time": time,
            "checksum": state_checksum(state),
            "state": state,
        }
        expected = json.dumps(wrapper, sort_keys=True, separators=(",", ":"))
        assert store.snapshot_path.read_bytes() == expected.encode("utf-8")
        load = store.load()
        assert load.snapshot["checksum"] == state_checksum(state)
        assert load.state == state

    def test_canonical_json_runs_once_per_snapshot(self, tmp_path, monkeypatch):
        calls = []
        canonical_json = codec.canonical_json

        def counting(state):
            calls.append(1)
            return canonical_json(state)

        # Patch both names, so a second encode through state_checksum counts.
        monkeypatch.setattr(codec, "canonical_json", counting)
        monkeypatch.setattr(checkpoint, "canonical_json", counting)
        store = new_store(tmp_path / "ckpt")
        for seq in range(3):
            store.write_snapshot(seq=seq, time=float(seq), state={"x": [seq, 0.5]})
            assert len(calls) == seq + 1


class TestIndentedLayoutStillLoads:
    def test_pre_compact_snapshot_loads_and_verifies(self, tmp_path):
        """A snapshot in the earlier ``dumps_json`` (``indent=2``) layout."""
        store = new_store(tmp_path / "ckpt")
        state = {"optimizers": {"WH": {"x": 1, "w": [0.1, 2.5e-7]}}, "name": "café"}
        checksum = state_checksum(state)
        wrapper = {"schema": SCHEMA, "seq": 4, "time": 7.5, "checksum": checksum, "state": state}
        store.snapshot_path.write_text(dumps_json(wrapper))
        atomic_write_bytes(
            store.journal_path, frame_entry({"seq": 4, "kind": "basis", "checksum": checksum})
        )
        store.append({"seq": 5, "kind": "delta", "time": 8.0})
        load = store.load(expected_config_hash="cfg-1")
        assert load.state == state
        assert load.snapshot["seq"] == 4
        assert [entry["seq"] for entry in load.entries] == [5]
        report = store.verify(expected_config_hash="cfg-1")
        assert report["ok"] is True, report["errors"]
        assert report["snapshot_seq"] == 4
