"""Rewrite ``stream_digests.json`` from the current trace generator.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regen_stream

Only regenerate for a change that is *meant* to alter the generated
streams or the predictor's training, and say so in the change's
description: for a speed-up or refactor the digest file must stay as it is.
"""

from __future__ import annotations

from .stream import DIGEST_PATH, compute_digests, write_digests


def main():
    digests = compute_digests()
    write_digests(digests)
    print(f"wrote {len(digests)} digests to {DIGEST_PATH}")


if __name__ == "__main__":
    main()
