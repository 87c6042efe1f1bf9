"""CI check: how many distinct wire tags C2 dispatches on.

Counts the tags of ``collect_p2_handlers()`` over the two query protocols a
C2 daemon registers (``SkNNBasic`` + ``SkNNSecure`` and, through them, every
sub-protocol) — a sharded query adds none, it is the serial protocol with a
scattered scan.  Prints the count as a Markdown table row (CI appends it to
the line-count summary) and exits 1 when it exceeds ``MAX_TAGS``.

Run: ``PYTHONPATH=src python scripts/p2_tag_check.py``
"""

from __future__ import annotations

import sys
from random import Random

from repro.core.cloud import FederatedCloud
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.paillier import generate_keypair

MAX_TAGS = 8


def main() -> int:
    cloud = FederatedCloud.deploy(generate_keypair(64, Random(1)))
    tags = sorted({tag for protocol
                   in (SkNNBasic(cloud), SkNNSecure(cloud, distance_bits=8))
                   for tag in protocol.collect_p2_handlers()})
    print(f"| distinct P2 wire tags (count, must be <= {MAX_TAGS}) "
          f"| {len(tags)} |")
    if len(tags) > MAX_TAGS:
        print(f"P2 wire tags: {tags}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
