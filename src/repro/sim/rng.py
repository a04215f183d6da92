"""Named, reproducible random streams.

Every stochastic component of the simulation (sensor jitter, interference
daemons, DVFS noise, ...) draws from its own named stream so that adding a
new consumer never perturbs the draws seen by existing ones. Streams are
derived deterministically from the root seed and the stream name.
"""

import hashlib

import numpy as np


class RngStreams:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, name):
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def __getitem__(self, name):
        return self.stream(name)

    def spawn(self, session_id):
        """A new :class:`RngStreams` for fleet session ``session_id``.

        Derivation goes through :class:`numpy.random.SeedSequence` with
        ``spawn_key=(session_id,)``, so children are provably independent
        (in the SeedSequence sense) of each other and of the parent — the
        guarantee fleet simulation needs so per-session results are
        bit-identical regardless of execution order or worker count.

        Named-stream derivation inside the child is unchanged (sha256 of
        ``"{seed}:{name}"``), keeping existing seed-state byte-compatible.
        """
        session_id = int(session_id)
        if session_id < 0:
            raise ValueError(f"negative session id: {session_id}")
        # SeedSequence entropy must be non-negative; mask negatives into
        # the same 128-bit space deterministically.
        entropy = self.seed & ((1 << 128) - 1)
        sequence = np.random.SeedSequence(entropy, spawn_key=(session_id,))
        child_seed = int.from_bytes(
            sequence.generate_state(4, np.uint32).tobytes(), "little"
        )
        return RngStreams(child_seed)
