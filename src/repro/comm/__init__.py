"""``repro.comm`` — communication substrates.

Framed TCP transport (the paper's socket layer), a pickle-free wire
protocol for numpy arrays, the one frame server every listening node
is built on, MPI-style collectives and a gRPC-style RPC system.  Everything meters messages/bytes so the edge simulator can replay
real traffic against a WiFi model.
"""

from . import protocol
from .base import Transport
from .demux import ChannelDead, DemuxGroup, ReplyDemux, ReplySlot
from .mpi import Communicator, LocalGroup, run_group
from .protocol import Message, ProtocolError, decode, encode
from .rpc import RemoteError, RpcClient, RpcServer
from .server import FrameServer
from .transport import (FrameError, Listener, MeteredSocket, TcpTransport,
                        TransportStats, connect, recv_frame, send_frame)

__all__ = [
    "protocol", "Message", "ProtocolError", "encode", "decode",
    "Communicator", "LocalGroup", "run_group", "RpcServer", "RpcClient",
    "RemoteError", "Listener", "MeteredSocket", "TransportStats", "connect",
    "send_frame", "recv_frame", "FrameError", "Transport", "TcpTransport",
    "ReplyDemux", "ReplySlot", "DemuxGroup", "ChannelDead", "FrameServer",
]
