"""Music mood classification toolkit.

WAV ingestion, cepstral features computed from first principles, a
raga-to-rasa label catalog, six from-scratch classifier families behind one
fit/predict contract, an experiment runner with holdout or k-fold grid
search, and a mood-transition playlist recommender. See the ``cli`` module
for the command-line surface.
"""

__version__ = "0.1.0"
