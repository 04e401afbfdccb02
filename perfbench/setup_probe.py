"""Set-up a user pays on every CLI run, timed in a fresh interpreter: import
mirrormotion, build the reference config and priors, build the spectral grid.
Prints the elapsed seconds rescaled to the reference CPU speed (speed.py),
then the plain elapsed seconds."""

import time

t0 = time.perf_counter()

from mirrormotion import cli, est  # noqa: E402  (the import is what is timed)

grid = est.SpectralGrid.build(cli.reference_config().priors())
elapsed = time.perf_counter() - t0
if grid.nodes.size == 0:
    raise SystemExit("spectral grid is empty")

import speed  # noqa: E402

speed.probe()  # the first call also plans its FFT
print(repr(elapsed * speed.REFERENCE_S / speed.probe()), repr(elapsed))
