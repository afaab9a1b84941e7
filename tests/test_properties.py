"""Property tests of the readers. Whatever bytes ``decode_wav`` is given, it
returns mono audio or raises a ``MoodkitError``, and an encoded mono signal
decodes to its quantized samples. ``read_store`` (CSV and sidecar),
``load_manifest`` and ``ModelBundle.load`` likewise read arbitrary or mutated
files, or raise a ``MoodkitError``; named corrupt bundles exit 2 on the
command line."""
import base64
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import raga_moodkit
from raga_moodkit.audio import DEFAULT_BI_SAMPLE_PLAN, AudioBuffer, decode_wav, encode_wav
from raga_moodkit.bundle import ModelBundle
from raga_moodkit.catalog import MANIFEST_FIELDS, FeatureScaler, load_manifest
from raga_moodkit.cli import main
from raga_moodkit.errors import CorruptArtifact, MoodkitError
from raga_moodkit.mfcc import MfccConfig
from raga_moodkit.models import (
    GaussianNbClassifier,
    KnnClassifier,
    MlpClassifier,
    RandomForestClassifier,
    RbfSvmClassifier,
    SoftmaxRegression,
)
from raga_moodkit.models.serialize import encode_array
from raga_moodkit.store import FeatureTable, read_store, sidecar_path, write_store

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: (offset, struct format) of each field of the 44-byte header ``encode_wav`` writes
HEADER_FIELDS = {
    "riff_size": (4, "<I"),
    "fmt_size": (16, "<I"),
    "format_tag": (20, "<H"),
    "channels": (22, "<H"),
    "sample_rate": (24, "<I"),
    "bits": (34, "<H"),
    "data_size": (40, "<I"),
}


def decodes_or_fails_typed(data: bytes) -> None:
    try:
        buffer = decode_wav(data)
    except MoodkitError:
        return
    samples = buffer.samples
    assert samples.ndim == 1 and samples.dtype == np.float64
    assert buffer.sample_rate > 0
    assert np.all(np.abs(samples) <= 1.0)


@PROPERTY
@given(st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(lambda body: b"RIFF" + body[:4] + b"WAVE" + body[4:]),
))
def test_arbitrary_bytes_decode_or_raise_a_moodkit_error(data):
    decodes_or_fails_typed(data)


@st.composite
def mutated_streams(draw):
    channels = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    encoding = draw(st.sampled_from(["pcm16", "pcm24", "float32"]))
    samples = np.linspace(-1.0, 1.0, n * channels).reshape(n, channels)
    stream = bytearray(encode_wav(AudioBuffer(samples=samples, sample_rate=8000), encoding))
    for name in draw(st.lists(st.sampled_from(sorted(HEADER_FIELDS)), max_size=3)):
        offset, fmt = HEADER_FIELDS[name]
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = draw(st.one_of(st.integers(0, top), st.sampled_from([0, 1, 3, 8, 24, 32, 0xFFFE, top])))
        struct.pack_into(fmt, stream, offset, value)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(stream) - 1))
        stream[at] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(stream)))
    return bytes(stream[:cut] if draw(st.booleans()) else stream)


@PROPERTY
@given(mutated_streams())
def test_mutated_headers_decode_or_raise_a_moodkit_error(data):
    decodes_or_fails_typed(data)


def test_huge_channel_count_and_data_past_the_end_are_typed_errors_or_empty():
    stream = bytearray(encode_wav(AudioBuffer(samples=np.zeros(10), sample_rate=8000)))
    struct.pack_into("<H", stream, 22, 65535)
    assert decode_wav(bytes(stream)).samples.shape == (0,)
    struct.pack_into("<I", stream, 40, 2**32 - 1)
    decodes_or_fails_typed(bytes(stream))


@PROPERTY
@given(
    hnp.arrays(np.float64, st.integers(0, 200), elements=st.floats(-1.0, 1.0)),
    st.sampled_from(["pcm16", "pcm24", "float32"]),
    st.integers(1, 192000),
)
def test_encoded_mono_decodes_to_its_quantized_samples(samples, encoding, rate):
    decoded = decode_wav(encode_wav(AudioBuffer(samples=samples, sample_rate=rate), encoding))
    assert decoded.sample_rate == rate
    if encoding == "float32":
        expected = samples.astype(np.float32).astype(np.float64)
    else:
        full_scale = 2.0 ** (15 if encoding == "pcm16" else 23)
        codes = np.clip(np.rint(samples * full_scale), -full_scale, full_scale - 1).astype(np.int64)
        expected = codes / full_scale
    np.testing.assert_array_equal(decoded.samples.view(np.int64), expected.view(np.int64))


# --- feature stores, manifests and model bundles ------------------------------------

@st.composite
def mutated_bytes(draw, data: bytes):
    """``data`` with up to four bytes overwritten, inserted or deleted, then
    perhaps cut short."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["overwrite", "insert", "delete"]))
        if kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=3))
        elif at < len(data):
            data[at : at + 1] = b"" if kind == "delete" else bytes([draw(st.integers(0, 255))])
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut] if draw(st.booleans()) else data)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400), 2**63, -1, 0]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def json_paths(node, prefix=()):
    """The key path of every value in a parsed JSON document, the root too."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def parent_of(document, path: tuple):
    """The list or object that holds the value at ``path``."""
    for key in path[:-1]:
        document = document[key]
    return document


@st.composite
def mutated_json(draw, data: bytes):
    """``data``, a JSON document, with one value replaced by an arbitrary one
    (huge integers, NaN and infinity included) or one key dropped."""
    document = json.loads(data)
    path = draw(st.sampled_from(sorted(json_paths(document), key=repr)))
    if not path:
        return json.dumps(draw(json_values)).encode()
    parent = parent_of(document, path)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(document).encode()


def save_bundle(model, table, path) -> None:
    """Fit ``model`` on ``table``'s z-scored rows and save it as a bundle."""
    scaler = FeatureScaler().fit(table.X)
    ModelBundle(
        model=model.fit(scaler.transform(table.X), table.labels), scaler=scaler,
        feature_fingerprint=table.mfcc.get_params(), config={"plan": [list(c) for c in table.plan.cuts]},
    ).save(path)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A folder holding a small valid store with its sidecar, a manifest and
    a bundle, and the bytes of each; ``read`` writes bytes over one of them
    and reads it back."""
    folder = tmp_path_factory.mktemp("artifacts")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    labels = np.array(["Karuna", "Veera", "Shantha"] * 2)
    table = FeatureTable([f"s{i}:0" for i in range(6)], labels, X, MfccConfig(n_coeffs=3), DEFAULT_BI_SAMPLE_PLAN)
    write_store(table, folder / "store.csv")
    save_bundle(RbfSvmClassifier(gamma=0.5), table, folder / "model.json")
    (folder / "manifest.csv").write_text(
        ",".join(MANIFEST_FIELDS) + "\ns1,a.wav,Song,Mohana,Tamil,Movie\ns2,b.wav,Song,Kalyani,Hindi,Folk/Album\n",
        encoding="utf-8",
    )
    files = {"store": folder / "store.csv", "sidecar": sidecar_path(folder / "store.csv"),
             "manifest": folder / "manifest.csv", "bundle": folder / "model.json"}
    originals = {name: path.read_bytes() for name, path in files.items()}
    readers = {"store": read_store, "sidecar": read_store, "manifest": load_manifest, "bundle": ModelBundle.load}

    def read(name: str, data: bytes):
        for other, path in files.items():
            path.write_bytes(data if other == name else originals[other])
        return readers[name](folder / "store.csv" if name == "sidecar" else files[name])

    for name in files:  # each original reads back, so a failure is the mutation's
        read(name, originals[name])
    return originals, read


def reads_or_fails_typed(read, name: str, data: bytes) -> None:
    try:
        read(name, data)
    except MoodkitError:
        pass


@PROPERTY
@given(st.data())
def test_store_csv_reads_or_raises_a_moodkit_error(artifacts, data):
    originals, read = artifacts
    reads_or_fails_typed(read, "store", data.draw(st.binary(max_size=300) | mutated_bytes(originals["store"])))


@PROPERTY
@given(st.data())
def test_store_sidecar_reads_or_raises_a_moodkit_error(artifacts, data):
    originals, read = artifacts
    sidecar = originals["sidecar"]
    reads_or_fails_typed(read, "sidecar", data.draw(
        st.binary(max_size=300) | mutated_bytes(sidecar) | mutated_json(sidecar)))


def json_path_text(path: tuple) -> str:
    """A key path as the readers name it: ``model.params.pairs[0].bias``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@pytest.mark.parametrize("name", ["sidecar", "bundle"])
def test_a_dropped_key_is_named_by_its_json_path(artifacts, name):
    """Each key of the sidecar and of the bundle, dropped in turn: the file
    still reads, or the refusal names the key's JSON path and no exception
    class of Python's."""
    originals, read = artifacts
    document = json.loads(originals[name])
    keys = [path for path in json_paths(document) if path and isinstance(path[-1], str)]
    for path in keys:
        edited = json.loads(originals[name])
        del parent_of(edited, path)[path[-1]]
        try:
            read(name, json.dumps(edited).encode())
        except CorruptArtifact as exc:
            assert json_path_text(path) in str(exc) and "KeyError" not in str(exc), (path, str(exc))


@pytest.mark.parametrize("name, step", [("bundle", (FeatureScaler, "from_dict")),
                                        ("sidecar", (MfccConfig, "from_record"))])
def test_a_bug_in_a_reader_is_not_reported_as_a_corrupt_file(artifacts, monkeypatch, name, step):
    """An ``AttributeError`` inside a reader, as a renamed attribute would
    raise, reaches the caller as itself: only faults of the file are
    ``CorruptArtifact``."""
    originals, read = artifacts

    def slip(*args, **kwargs):
        raise AttributeError("a renamed attribute")

    monkeypatch.setattr(*step, classmethod(slip))
    with pytest.raises(AttributeError, match="a renamed attribute"):
        read(name, originals[name])


@PROPERTY
@given(st.data())
def test_manifest_reads_or_raises_a_moodkit_error(artifacts, data):
    originals, read = artifacts
    reads_or_fails_typed(read, "manifest", data.draw(st.binary(max_size=300) | mutated_bytes(originals["manifest"])))


@PROPERTY
@given(st.data())
def test_bundle_reads_or_raises_a_moodkit_error(artifacts, data):
    originals, read = artifacts
    bundle = originals["bundle"]
    reads_or_fails_typed(read, "bundle", data.draw(
        st.binary(max_size=300) | mutated_bytes(bundle) | mutated_json(bundle)))


#: A value past the csv module's field size limit (131,072 characters)
HUGE_FIELD = b"x" * 200_000
#: JSON nested past the interpreter's recursion limit
DEEP_JSON = b"[" * 100_000
MANIFEST_HEADER = ",".join(MANIFEST_FIELDS).encode() + b"\n"

#: Files that once escaped as another exception than a ``MoodkitError``:
#: ``csv.Error`` from a field past the csv module's size limit (and, on
#: Python 3.10, from a NUL byte), ``RecursionError`` from deep JSON and
#: ``OverflowError`` from a JSON integer too large for ``float``. The NUL
#: rows are bad beyond the NUL too, so later Pythons, whose csv module takes
#: NUL, refuse them as well.
ESCAPES = {
    "store-field-past-the-csv-limit": ("store", b"segment_id,rasa,c0,c1,c2\n" + HUGE_FIELD + b",Veera,0,0,0\n"),
    "store-nul-byte": ("store", b"segment_id,rasa,c0,c1,c2\ns0:0,Veera,0,\x000,0\n"),
    "sidecar-nested-past-the-recursion-limit": ("sidecar", DEEP_JSON),
    "sidecar-cut-start-too-large-for-float": ("sidecar", ("segment_plan", 0, 0)),
    "sidecar-sample-rate-too-large-for-float": ("sidecar", ("mfcc", "sample_rate")),
    "manifest-field-past-the-csv-limit": ("manifest", MANIFEST_HEADER + HUGE_FIELD + b",a.wav,S,Yaman,Tamil,Pop\n"),
    "manifest-nul-byte": ("manifest", MANIFEST_HEADER + b"s1,a.wav,S\x00,Yaman,Tamil,Pop\n"),
    "bundle-nested-past-the-recursion-limit": ("bundle", DEEP_JSON),
    "bundle-cut-start-too-large-for-float": ("bundle", ("config", "plan", 0, 0)),
    "bundle-bias-too-large-for-float": ("bundle", ("model", "params", "pairs", 0, "bias")),
}


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_former_escapes_raise_a_moodkit_error(artifacts, name):
    originals, read = artifacts
    target, data = ESCAPES[name]
    if isinstance(data, tuple):  # a key path whose value becomes too large for float
        document = json.loads(originals[target])
        parent_of(document, data)[data[-1]] = 10**400
        data = json.dumps(document).encode()
    with pytest.raises(MoodkitError):
        read(target, data)


def test_a_sample_rate_too_large_for_float_is_named_by_its_json_path(artifacts):
    """The declared bound refuses it before any division by it could overflow."""
    originals, read = artifacts
    document = json.loads(originals["sidecar"])
    document["mfcc"]["sample_rate"] = 10**400
    with pytest.raises(CorruptArtifact, match=r"^sidecar store\.csv\.meta\.json is corrupt: mfcc\.sample_rate: "
                                              r"expected int \(in \[1, 384000\]\)"):
        read("sidecar", json.dumps(document).encode())


# --- corrupt bundles that once loaded -------------------------------------------------

def stored(payload: dict) -> np.ndarray:
    """A stored array as written, non-finite values included."""
    return np.frombuffer(base64.b64decode(payload["data"]), dtype="<f8").reshape(payload["shape"]).copy()


def loop_root_to_itself(payload):
    tree = next(tree for tree in payload["model"]["params"]["trees"] if stored(tree["feature"])[0] != -1)
    left = stored(tree["left"])
    left[0] = 0
    tree["left"] = encode_array(left)


def empty_a_leaf(payload):
    tree = payload["model"]["params"]["trees"][0]
    counts = stored(tree["counts"])
    counts[np.flatnonzero(stored(tree["feature"]) == -1)[0]] = 0.0
    tree["counts"] = encode_array(counts)


def change_array(path, change):
    """An edit that passes the array stored at ``path`` in the model's
    parameters through ``change``."""
    def edit(payload):
        parent = parent_of(payload["model"]["params"], path)
        parent[path[-1]] = encode_array(change(stored(parent[path[-1]])))
    return edit


def change_data(key, change):
    """An edit that passes the base64 text of the model's stored array ``key`` through ``change``."""
    def edit(payload):
        array = payload["model"]["params"][key]
        array["data"] = change(array["data"])
    return edit


def set_first_pair(key, value):
    def edit(payload):
        payload["model"]["params"]["pairs"][0][key] = value
    return edit


def keep_one_tree(payload):
    del payload["model"]["params"]["trees"][1:]


def repeat_first_class(payload):
    order = payload["model"]["class_order"]
    order[1] = order[0]


def drop_scaler_and_a_weight_row(payload):
    payload["scaler"] = None
    change_array(("weights",), lambda weights: weights[1:])(payload)


def nan_first_row(X):
    X[0] = np.nan
    return X


def set_scaler(scaler):
    def edit(payload):
        payload["scaler"] = scaler
    return edit


def change_scale(change):
    """An edit that passes the scaler's stored ``scale``, a JSON list, through ``change``."""
    def edit(payload):
        payload["scaler"]["scale"] = change(np.asarray(payload["scaler"]["scale"])).tolist()
    return edit


def set_params(**values):
    def edit(payload):
        payload["model"]["params"].update(values)
    return edit


def nan_first(scale):
    scale[0] = np.nan
    return scale


#: A split of the ``family_bundles`` store's 12 rows: they alternate between the sides.
SPLIT_ROLES = {f"s{i}:0": ("train", "val")[i % 2] for i in range(12)}


def set_roles(roles):
    def edit(payload):
        payload["split"] = {"roles": roles}
    return edit


#: Bundles that loaded before their decoders checked them: a tree whose root
#: is its own child (scoring never ended), a leaf with no class counts (NaN
#: scores), SVM pair indexes out of range or reversed (votes went to the last
#: class), an infinite SVM bias (one side won every vote of its pair), a
#: stored kNN row of NaN (never a neighbour), gnb variances or priors cut to
#: one column (they broadcast), fractional kNN labels or tree features (they
#: were truncated), a forest with fewer trees than ``n_estimators``, a class
#: order with a repeated class, a logreg bundle without a scaler whose
#: weights lost a feature row (``evaluate`` then exited 1, refusing the store),
#: a scaler stored as ``{}`` (read as no scaler), a scale holding NaN (that
#: feature went to 0), infinity (every feature went to 0) or negated spreads,
#: a kNN ``k`` above the stored rows with distance weights (uniform
#: weights no longer sum to 1, so the zero-row probe refuses those), and
#: split roles with one role neither "train" nor "val" (scored as
#: validation), with every role "train" (``evaluate`` exited 1) or stored as
#: a list (every row counted as validation). Two more were refused only as a
#: Python exception's repr: base64 text cut short (binascii's ``Error('Incorrect
#: padding')``) and data one element short of its shape (numpy's ``ValueError``).
CORRUPT_BUNDLES = {
    "forest-tree-cycle": ("forest", loop_root_to_itself),
    "forest-empty-leaf": ("forest", empty_a_leaf),
    "forest-fractional-feature": ("forest", change_array(("trees", 0, "feature"),
                                                         lambda feature: np.where(feature >= 0, feature + 0.5, feature))),
    "forest-one-tree": ("forest", keep_one_tree),
    "svm-pair-index-negative": ("svm", set_first_pair("classes", [0, -1])),
    "svm-pair-reversed": ("svm", set_first_pair("classes", [1, 0])),
    "svm-infinite-bias": ("svm", set_first_pair("bias", np.inf)),
    "knn-nan-training-row": ("knn", change_array(("X",), nan_first_row)),
    "knn-fractional-label": ("knn", change_array(("y_index",), lambda y_index: y_index + 0.6)),
    "gnb-var-one-column": ("gnb", change_array(("var",), lambda var: var[:, :1])),
    "gnb-priors-one": ("gnb", change_array(("priors",), lambda priors: priors[:1])),
    "gnb-repeated-class": ("gnb", repeat_first_class),
    "logreg-no-scaler-short-weights": ("logreg", drop_scaler_and_a_weight_row),
    "scaler-empty": ("svm", set_scaler({})),
    "scaler-nan-scale": ("svm", change_scale(nan_first)),
    "scaler-inf-scale": ("svm", change_scale(lambda scale: np.full_like(scale, np.inf))),
    "scaler-negative-scale": ("svm", change_scale(np.negative)),
    "knn-k-above-rows": ("knn", set_params(k=1000, weights="distance")),
    "split-role-unknown": ("knn", set_roles({**SPLIT_ROLES, "s0:0": "bogus"})),
    "split-roles-all-train": ("knn", set_roles(dict.fromkeys(SPLIT_ROLES, "train"))),
    "split-roles-list": ("knn", set_roles(list(SPLIT_ROLES.items()))),
    "knn-array-base64-cut-short": ("knn", change_data("X", lambda data: data[:-1])),
    "knn-array-one-element-short": ("knn", change_data(
        "X", lambda data: base64.b64encode(base64.b64decode(data)[:-8]).decode("ascii"))),
    # a size past its declared bound, refused before numpy compares feature indexes with it
    "forest-feature-count-too-large-for-float": ("forest", lambda payload: payload["model"]["params"]["trees"][0]
                                                 .update(n_features=10**400)),
}

#: Seconds a corrupt bundle's ``evaluate`` may take before the test fails.
TIMEOUT_S = 60

#: The model ``family_bundles`` saves for each family.
FAMILY_MODELS = {
    "forest": lambda: RandomForestClassifier(n_estimators=3),
    "svm": lambda: RbfSvmClassifier(gamma=0.5),
    "knn": lambda: KnnClassifier(k=3),
    "gnb": GaussianNbClassifier,
    "logreg": lambda: SoftmaxRegression(max_iter=50),
    "mlp": lambda: MlpClassifier(hidden=(4, 4, 4, 4), epochs=5),
}


@pytest.fixture(scope="module")
def family_bundles(tmp_path_factory):
    """A small store and one bundle trained on it for each family above."""
    folder = tmp_path_factory.mktemp("family_bundles")
    rng = np.random.default_rng(1)
    labels = np.repeat(["Karuna", "Veera", "Shantha"], 4)
    X = rng.standard_normal((12, 3)) + 3.0 * (labels == "Veera")[:, None]
    table = FeatureTable([f"s{i}:0" for i in range(12)], labels, X, MfccConfig(n_coeffs=3), DEFAULT_BI_SAMPLE_PLAN)
    write_store(table, folder / "store.csv")
    for family, model in FAMILY_MODELS.items():
        save_bundle(model(), table, folder / f"{family}.json")
    return folder


@pytest.mark.parametrize("name", sorted(CORRUPT_BUNDLES))
def test_corrupt_bundle_exits_2_as_corrupt_artifact(family_bundles, tmp_path, name):
    family, edit = CORRUPT_BUNDLES[name]
    payload = json.loads((family_bundles / f"{family}.json").read_text())
    edit(payload)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(payload))
    src = Path(raga_moodkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    # in a child process, so that a decoder that never returns fails the test
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from raga_moodkit.cli import main; sys.exit(main(sys.argv[1:]))",
         "evaluate", "--features", str(family_bundles / "store.csv"), "--model", str(bundle),
         "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert done.returncode == 2, done.stderr
    assert "bundle.json is corrupt" in done.stderr
    with pytest.raises(CorruptArtifact):
        ModelBundle.load(bundle)


def drop(*path):
    """An edit that drops the key at ``path``."""
    def edit(document):
        del parent_of(document, path)[path[-1]]
        return document
    return edit


def put(path, value):
    """An edit that sets the value at ``path``."""
    def edit(document):
        parent_of(document, path)[path[-1]] = value
        return document
    return edit


#: Hand edits of the SVM bundle or of the store's sidecar that once printed
#: a Python exception's repr (``KeyError('kind')``, ``AttributeError("'list'
#: object has no attribute 'get'")``), each with the start of the refusal that
#: now names the JSON path.
HAND_EDITS = {
    "no-scaler": ("bundle", drop("scaler"), "scaler: missing"),
    "no-scaler-kind": ("bundle", drop("scaler", "kind"), "scaler.kind: missing"),
    "scaler-empty": ("bundle", put(("scaler",), {}), "scaler.kind: missing"),
    "no-params": ("bundle", drop("model", "params"), "model.params: missing"),
    "no-class-order": ("bundle", drop("model", "class_order"), "model.class_order: missing"),
    "model-a-list": ("bundle", put(("model",), []), "model: expected an object, got a list"),
    "fingerprint-a-string": ("bundle", put(("feature_fingerprint",), "mfcc"), "feature_fingerprint: expected an object"),
    "unknown-family": ("bundle", put(("model", "family"), "hmm"), "model.family: expected one of"),
    "pair-without-bias": ("bundle", drop("model", "params", "pairs", 0, "bias"), "model.params.pairs[0].bias: missing"),
    "sidecar-a-list": ("sidecar", lambda document: [document], "top level: expected an object, got a list"),
}


@pytest.mark.parametrize("name", sorted(HAND_EDITS))
def test_a_hand_edited_file_exits_2_naming_its_json_path(family_bundles, tmp_path, capsys, name):
    target, edit, named = HAND_EDITS[name]
    store, bundle = tmp_path / "store.csv", tmp_path / "svm.json"
    store.write_bytes((family_bundles / "store.csv").read_bytes())
    for role, source, copy in [("sidecar", sidecar_path(family_bundles / "store.csv"), sidecar_path(store)),
                               ("bundle", family_bundles / "svm.json", bundle)]:
        document = json.loads(source.read_text(encoding="utf-8"))
        copy.write_text(json.dumps(edit(document) if role == target else document), encoding="utf-8")
    assert main(["evaluate", "--features", str(store), "--model", str(bundle)]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert named in stderr, stderr
    assert not re.search(r"[A-Za-z]*Error\b|Traceback|object has no attribute", stderr), stderr


def stored_array_paths(payload) -> list:
    """The key path of every array stored in a bundle: the scaler's offset
    and scale, which are JSON lists, and each base64 array of the model's
    parameters, MLP layers, SVM pair arrays and forest tree arrays included."""
    return [("scaler", "offset"), ("scaler", "scale")] + [
        path for path in json_paths(payload)
        if path and isinstance(node := parent_of(payload, path)[path[-1]], dict) and "data" in node]


@PROPERTY
@given(st.data())
def test_a_stored_array_with_one_dimension_changed_is_corrupt(family_bundles, data):
    family = data.draw(st.sampled_from(sorted(FAMILY_MODELS)))
    payload = json.loads((family_bundles / f"{family}.json").read_text())
    path = data.draw(st.sampled_from(stored_array_paths(payload)))
    parent = parent_of(payload, path)
    node = parent[path[-1]]
    arr = np.asarray(node) if isinstance(node, list) else stored(node)
    kind = data.draw(st.sampled_from(["cut", "repeat", "add an axis"]))
    if kind == "add an axis":
        changed = np.expand_dims(arr, data.draw(st.integers(0, arr.ndim)))
    else:
        axis = data.draw(st.integers(0, arr.ndim - 1))
        n = arr.shape[axis]
        size = data.draw(st.integers(0, n - 1) if kind == "cut" else st.integers(n + 1, 2 * n))
        changed = np.take(arr, np.arange(size) % n, axis=axis)
    parent[path[-1]] = changed.tolist() if isinstance(node, list) else encode_array(changed)
    bundle = family_bundles / "changed.json"
    bundle.write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifact):
        ModelBundle.load(bundle)
