"""CI check: how many distinct wire tags C2 dispatches on, and how many
control tags each daemon role answers.

Counts the tags of ``collect_p2_handlers()`` over the two query protocols a
C2 daemon registers (``SkNNBasic`` + ``SkNNSecure`` and, through them, every
sub-protocol) — a sharded query adds none, it is the serial protocol with a
scattered scan.  Then counts each role's ``CONTROL_STEPS`` (the
``transport.*`` requests a client may send it), so a second query request
shape cannot come back without its cap moving in the same diff.  Prints the
counts as Markdown table rows (CI appends them to the line-count summary)
and exits 1 when any exceeds its cap.

Run: ``PYTHONPATH=src python scripts/p2_tag_check.py``
"""

from __future__ import annotations

import sys
from random import Random

from repro.core.cloud import FederatedCloud
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.paillier import generate_keypair
from repro.transport.daemon import C1Daemon, C2Daemon

MAX_TAGS = 8
#: role -> (daemon class, cap on its control tags)
MAX_CONTROL_TAGS = {"C1": (C1Daemon, 8), "C2": (C2Daemon, 7)}


def main() -> int:
    cloud = FederatedCloud.deploy(generate_keypair(64, Random(1)))
    tags = sorted({tag for protocol
                   in (SkNNBasic(cloud), SkNNSecure(cloud, distance_bits=8))
                   for tag in protocol.collect_p2_handlers()})
    print(f"| distinct P2 wire tags (count, must be <= {MAX_TAGS}) "
          f"| {len(tags)} |")
    failed = len(tags) > MAX_TAGS
    if failed:
        print(f"P2 wire tags: {tags}", file=sys.stderr)
    for role, (daemon, cap) in MAX_CONTROL_TAGS.items():
        steps = sorted(daemon.CONTROL_STEPS)
        print(f"| {role} control tags (count, must be <= {cap}) "
              f"| {len(steps)} |")
        if len(steps) > cap:
            print(f"{role} control tags: {steps}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
