"""Agent-controller wire transport.

The paper's controller talks to agents over the management network; in
tests and simulations the controller holds agents in-process, but the
same ``AgentHandle`` interface is implemented here over real TCP
sockets with a length-prefixed protocol (JSON control ops, packed
``bin1`` data ops), so the split-process deployment path is exercised
end-to-end (on localhost) by the integration tests.
"""

from repro.core.net.client import (
    AgentUnreachable,
    PeerRefused,
    RemoteAgentHandle,
    RetryPolicy,
    WireClient,
    ZoneClient,
)
from repro.core.net.protocol import (
    ProtocolError,
    recv_message,
    send_message,
)
from repro.core.net.server import AgentServer, FleetServer

__all__ = [
    "AgentServer",
    "AgentUnreachable",
    "FleetServer",
    "PeerRefused",
    "ProtocolError",
    "RemoteAgentHandle",
    "RetryPolicy",
    "WireClient",
    "ZoneClient",
    "recv_message",
    "send_message",
]
