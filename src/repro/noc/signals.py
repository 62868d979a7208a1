"""Control signals of the NoC credit link; the link consults
:class:`repro.idld.flow.FlowSignalFabric` for each, so each can be
injected."""

from __future__ import annotations

import enum


class NocSignal(enum.Enum):
    """Injectable link control signals."""

    #: Deliver an in-flight flit into the receive buffer.
    FLIT_DELIVER = "flit_deliver"
    #: Return a credit upstream when a buffer slot drains.
    CREDIT_RETURN = "credit_return"
    #: Decrement the sender's credit counter on injection.
    CREDIT_CONSUME = "credit_consume"
