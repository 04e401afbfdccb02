"""Quantum-limited mirror-motion estimation toolkit.

Simulates a mirror driven by a stochastic force, read out interferometrically
with phase-tracked homodyne detection of a coherent or phase-squeezed probe
beam, and compares Wiener-smoothed position/momentum/force estimates against
the analytic minimum MSEs and the waveform quantum estimation bounds.
"""
