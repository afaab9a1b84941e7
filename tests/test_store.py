import json

import numpy as np
import pytest

from raga_moodkit.audio import SegmentPlan
from raga_moodkit.errors import CorruptArtifact, DataError, ValidationError
from raga_moodkit.mfcc import MfccConfig
from raga_moodkit.store import (
    FeatureTable,
    read_store,
    sidecar_path,
    song_id_of,
    segment_id,
    write_correlation_csv,
    write_store,
)


def sample_table(n_rows=6, n_coeffs=5):
    rng = np.random.default_rng(0)
    config = MfccConfig(n_filters=8, n_coeffs=n_coeffs)
    plan = SegmentPlan(((0.0, 60.0), (20.0, 60.0)))
    ids = [segment_id(f"song_{i // 2}", i % 2) for i in range(n_rows)]
    labels = np.array(["Veera", "Karuna"] * (n_rows // 2))
    return FeatureTable(
        segment_ids=ids, labels=labels, X=rng.standard_normal((n_rows, n_coeffs)),
        mfcc=config, plan=plan,
    )


def test_segment_id_roundtrip():
    assert song_id_of(segment_id("veera_001", 1)) == "veera_001"
    assert song_id_of("a:b:2") == "a:b"


def test_write_read_roundtrip_exact(tmp_path):
    table = sample_table()
    path = tmp_path / "features.csv"
    write_store(table, path)
    again = read_store(path)
    np.testing.assert_array_equal(table.X, again.X)  # repr round-trips floats
    assert again.segment_ids == table.segment_ids
    np.testing.assert_array_equal(again.labels, table.labels)
    assert again.mfcc == table.mfcc
    assert again.plan == table.plan


def test_header_shape(tmp_path):
    table = sample_table()
    path = tmp_path / "features.csv"
    write_store(table, path)
    header = path.read_text().splitlines()[0]
    assert header == "segment_id,rasa,c0,c1,c2,c3,c4"


def test_sidecar_records_config(tmp_path):
    table = sample_table()
    path = tmp_path / "features.csv"
    write_store(table, path, extra_meta={"config": {"command": "extract"}})
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["mfcc"]["n_coeffs"] == 5
    assert meta["segment_plan"] == [[0.0, 60.0], [20.0, 60.0]]
    assert meta["n_rows"] == 6
    assert meta["config"] == {"command": "extract"}


def test_missing_sidecar_rejected(tmp_path):
    table = sample_table()
    path = tmp_path / "features.csv"
    write_store(table, path)
    sidecar_path(path).unlink()
    with pytest.raises(ValidationError):
        read_store(path)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda row: row.replace(row.split(",")[3], "abc"),  # non-numeric coefficient
        lambda row: row.rsplit(",", 1)[0],  # a coefficient missing
        lambda row: row + ",0.5",  # one coefficient too many
    ],
)
def test_corrupt_row_is_typed_data_error(tmp_path, mangle):
    path = tmp_path / "features.csv"
    write_store(sample_table(), path)
    lines = path.read_text().splitlines()
    lines[2] = mangle(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptArtifact, match="features.csv:3: "):
        read_store(path)


@pytest.mark.parametrize("fault, text", [(b"\xff", "not UTF-8 text"), (b"x" * 200_000, "not CSV text")],
                         ids=["non_utf8_byte", "field_past_the_csv_limit"])
def test_csv_fault_in_the_header_names_line_1(tmp_path, fault, text):
    path = tmp_path / "features.csv"
    write_store(sample_table(), path)
    path.write_bytes(fault + path.read_bytes())
    with pytest.raises(CorruptArtifact, match=f"^features.csv:1: {text}"):
        read_store(path)


def test_malformed_sidecar_is_typed_data_error(tmp_path):
    path = tmp_path / "features.csv"
    write_store(sample_table(), path)
    sidecar_path(path).write_text("{not json")
    with pytest.raises(DataError):
        read_store(path)


def test_song_ids_grouping():
    table = sample_table()
    assert table.song_ids == ["song_0", "song_0", "song_1", "song_1", "song_2", "song_2"]


def test_songs_numbered_in_order_of_appearance():
    table = sample_table()
    table.segment_ids = ["b:0", "a:0", "b:1", "c:0", "a:1", "c:1"]
    first_rows, song_of_row = table.songs()
    np.testing.assert_array_equal(first_rows, [0, 1, 3])
    np.testing.assert_array_equal(song_of_row, [0, 1, 0, 2, 1, 2])


@pytest.mark.parametrize("n_rows", [10**12, 10**400, 7, 5, 0, -1, True, 6.0, "6"])
def test_sidecar_row_count_other_than_the_stores_is_corrupt(tmp_path, n_rows):
    """A sidecar row count the file cannot hold is refused before anything
    is allocated for it, and any other count but the store's is refused."""
    path = tmp_path / "features.csv"
    write_store(sample_table(), path)
    meta = json.loads(sidecar_path(path).read_text())
    meta["n_rows"] = n_rows
    sidecar_path(path).write_text(json.dumps(meta))
    with pytest.raises(CorruptArtifact, match="rows its sidecar records"):
        read_store(path)


def test_misaligned_rows_rejected():
    config = MfccConfig()
    with pytest.raises(ValidationError):
        FeatureTable(
            segment_ids=["a:0"], labels=np.array(["Veera", "Karuna"]),
            X=np.zeros((2, 40)), mfcc=config, plan=SegmentPlan(((0, 60),)),
        )


def test_correlation_csv(tmp_path):
    matrix = np.array([[1.0, 0.5], [0.5, 1.0]])
    path = tmp_path / "corr.csv"
    write_correlation_csv(matrix, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",c0,c1"
    assert lines[1].startswith("c0,1.0,0.5")
