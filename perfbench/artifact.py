"""Fit and save the emulator artifact the campaign and serving workloads use.

Run as a child process of the benchmark so the fit's memory peak stays out
of the workload's ``peak_rss_mb``::

    python3 perfbench/artifact.py OUT.npz

Prints one JSON line: the fit's wall seconds and a digest of the saved
arrays, which the benchmark compares across invocations.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import zipfile


def artifact_digest(path: str) -> str:
    """SHA-256 over the name, size and CRC-32 of every array in the NPZ.

    The zip directory already holds each member's CRC-32 of its
    uncompressed bytes, so nothing is decompressed.  File bytes are not
    compared: zip members carry timestamps, so two saves of one state
    differ as files.
    """
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as archive:
        for info in sorted(archive.infolist(), key=lambda i: i.filename):
            digest.update(f"{info.filename}:{info.file_size}:{info.CRC}\n".encode())
    return digest.hexdigest()


def main(path: str) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import repro
    from workloads import ARCHIVE_SEED, LMAX, training_ensemble

    sims = training_ensemble(ARCHIVE_SEED)
    start = time.perf_counter()
    emulator = repro.fit(sims, lmax=LMAX)
    fit_s = time.perf_counter() - start
    repro.save(emulator, path)
    print(json.dumps({"fit_s": fit_s, "digest": artifact_digest(path)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
