"""Projective QND readout of a nuclear spin-1/2 from cascaded weak measurements.

Layers, bottom up:

* ``rotations``   -- SU(2) rotors and SO(3) matrices
* ``hyperfine``   -- electron-nuclear system, DD sequences, filter function
* ``measurement`` -- Kraus pair, outcome statistics, strength D
* ``control``     -- waiting-time engineering and the QND condition
* ``cascade``     -- multi-outcome distributions, thresholds, fidelities
* ``trajectory``  -- stochastic records and post-measurement states
* ``stability``   -- dephasing map, survival curves, lifetimes, tolerances
* ``nv``          -- NV-center presets, room-temperature readout, 2D scans
* ``cli``         -- command-line front end
"""

__version__ = "0.1.0"
