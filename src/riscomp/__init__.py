"""riscomp: simulation and analysis toolkit for RIS-assisted CoMP-NOMA networks.

Subpackages cover fading channels, STAR-RIS configuration, the NOMA SINR
kernels, moment-matched SINR statistics, Monte Carlo validation, the
multi-cell energy-efficiency / passive-beamforming experiments, and the
aerial-RIS reinforcement-learning loop.
"""

__version__ = "0.1.0"
