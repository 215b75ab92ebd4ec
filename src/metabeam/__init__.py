"""Multi-user MISO downlink beamforming toolkit.

Classical WMMSE solving with a learned twist: small networks predict the
solver's decomposed state (u, w, mu) from channel features, trained with
first-order meta-learning so they adapt fast, plus a loss-ranked replay
memory for streaming adaptation under distribution shift.
"""

__version__ = "0.1.0"
