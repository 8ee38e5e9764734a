"""Coherence message vocabulary.

``SPEC_GETS`` is the transaction InvisiSpec adds (Section VI-E1): it returns
the latest copy of a line without changing any cache or directory state, and
is *not* ordered by the directory — a forwarded Spec-GetS that reaches a
core which has lost ownership bounces back to the requester, which retries.
"""

from __future__ import annotations

import enum


class MessageType(enum.Enum):
    GETS = "GetS"  # read request (load, validation, exposure)
    GETX = "GetX"  # write / ownership request
    UPGRADE = "Upgrade"  # S -> M without data
    SPEC_GETS = "Spec-GetS"  # InvisiSpec invisible read
    FWD_GETS = "Fwd-GetS"  # directory forwards read to M/E owner
    FWD_GETX = "Fwd-GetX"
    FWD_SPEC_GETS = "Fwd-Spec-GetS"
    INV = "Inv"  # invalidate a sharer
    INV_ACK = "Inv-Ack"
    DATA = "Data"  # data response (line)
    NACK = "Nack"  # Spec-GetS bounce
    WRITEBACK = "Writeback"  # dirty line to its home bank
    WB_ACK = "WB-Ack"
