"""Music mood classification toolkit.

WAV ingestion, cepstral features computed from first principles, a
raga-to-rasa label catalog, six from-scratch classifier families behind one
fit/predict contract, an experiment runner with holdout or k-fold grid
search, and a mood-transition playlist recommender. See the ``cli`` module
for the command-line surface.
"""

__version__ = "0.1.0"

from .audio import (
    CANONICAL_RATE,
    DEFAULT_BI_SAMPLE_PLAN,
    AudioBuffer,
    SegmentPlan,
    bi_sample,
    decode_wav,
    encode_wav,
    extract_segment,
    read_wav,
    resample,
    to_mono,
    write_wav,
)
from .bundle import ModelBundle
from .catalog import (
    GENRES,
    RASAS,
    DEFAULT_RAGA_TABLE,
    FeatureScaler,
    RagaTable,
    Rasa,
    SongRecord,
    load_manifest,
    parse_rasa,
    rasa_for_raga,
    stratified_indices,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    accuracy,
    confusion_matrix,
    evaluate_bundle,
    extract_features,
    grid_search,
    kfold_indices,
    precision_recall,
    run_on_features,
    select_final_model,
)
from .mfcc import (
    FeatureVector,
    MelFilterbank,
    MfccConfig,
    aggregate_features,
    build_filterbank,
    dct_ii,
    feature_correlation,
    filterbank_boundaries,
    log_mel_energies,
    mel,
    mel_inv,
    mfcc_frames,
    power_spectrum,
    segment_features,
)
from .models import (
    FAMILIES,
    GaussianNbClassifier,
    KnnClassifier,
    MlpClassifier,
    RandomForestClassifier,
    RbfSvmClassifier,
    SoftmaxRegression,
    from_envelope,
    make_classifier,
    to_envelope,
)
from .recommender import Playlist, ScoredLibrary, recommend_transition, score_library
from .store import FeatureTable, read_store, write_store
from .synth import DEFAULT_RECIPES, RasaRecipe, SyntheticSpec, generate_corpus
