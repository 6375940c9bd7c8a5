"""One process per expert: the lifecycle of forked team workers.

``deploy_local_team`` over real TCP serves each worker expert from a
forked child (:class:`repro.distributed.ForkedWorker`).  These tests pin
what that may not change — the answers, byte for byte — and what it
must guarantee: no child outlives its parent, a child holds no
descriptor of the parent's or of a sibling's, restarts keep the port,
and the one-BLAS-thread cap stays balanced.
"""

import os
import signal
import socket
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.comm import protocol
from repro.comm.transport import connect
from repro.core import TeamInference, expert_forward
from repro.distributed import ExpertWorker, ForkedWorker, deploy_local_team
from repro.nn import (MLP, Module, blas, build_model, downsize,
                      shake_shake_spec)

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="reads children's state in /proc")


def _mlp_team(k=3, features=16):
    return [MLP(features, 4, depth=1, width=8, rng=np.random.default_rng(i))
            for i in range(k)]


def _teardown(master, workers):
    master.close()
    for worker in workers:
        worker.stop()


def _start_time(pid: int) -> str | None:
    """The process's start time from ``/proc/<pid>/stat``, or None once
    it is gone or a zombie (exited, only waiting to be reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in "ZX" else fields[19]


def _gone(pids_started: dict[int, str], within_s: float) -> bool:
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        if all(_start_time(pid) != started
               for pid, started in pids_started.items()):
            return True
        time.sleep(0.05)
    return False


def _pipes_and_sockets(pid: int) -> set[str]:
    """What ``pid``'s descriptors point at, for sockets and pipes; fd 2
    is left out, since children keep the parent's standard error."""
    found = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if fd != "2" and target.startswith(("socket:", "pipe:")):
            found.add(target)
    return found


class Tempered(Module):
    """A test-local ``Module`` wrapper: the child knows it only because
    it inherited it (nothing is pickled or imported by name)."""

    def __init__(self, inner: Module, scale: float):
        super().__init__()
        self.inner = inner
        self.scale = scale

    def forward(self, x):
        return self.inner(x) * self.scale


class TestAnswers:
    @pytest.mark.parametrize("family", ["mlp", "shake_shake"])
    def test_byte_identical_to_team_inference(self, family, rng):
        if family == "mlp":
            experts = _mlp_team(k=4, features=784)
            x = rng.standard_normal((5, 784))
        else:
            spec = downsize(shake_shake_spec(8), 4)
            experts = [build_model(spec, np.random.default_rng((3, i)))
                       for i in range(4)]
            x = rng.standard_normal((2, 3, 32, 32))
        master, workers = deploy_local_team(experts, engine="compiled")
        try:
            assert all(isinstance(w, ForkedWorker) for w in workers)
            preds, winner, _ = master.infer(x)
            local = TeamInference(experts, engine="compiled")
            want_preds, want_winner = local.predict_with_winner(x)
            assert preds.tobytes() == want_preds.tobytes()
            assert winner.tobytes() == want_winner.tobytes()
            for index, want in enumerate(local.forward_all(x)):
                got = master.last_outputs[index]
                assert got.probs.tobytes() == want.probs.tobytes()
                assert got.entropy.tobytes() == want.entropy.tobytes()
        finally:
            _teardown(master, workers)

    def test_custom_module_crosses_the_process_boundary(self, rng):
        experts = [Tempered(e, scale) for e, scale
                   in zip(_mlp_team(), (0.5, 2.0, 3.0))]
        x = rng.standard_normal((6, 16))
        master, workers = deploy_local_team(experts)
        try:
            preds, winner, _ = master.infer(x)
            want_preds, want_winner = \
                TeamInference(experts).predict_with_winner(x)
            assert preds.tobytes() == want_preds.tobytes()
            assert winner.tobytes() == want_winner.tobytes()
            assert master.last_outputs[2].probs.tobytes() == \
                expert_forward(experts[2], x.astype(np.float32)) \
                .probs.tobytes()
        finally:
            _teardown(master, workers)

    def test_a_given_transport_keeps_threads(self):
        from repro.comm.transport import TcpTransport
        master, workers = deploy_local_team(_mlp_team(),
                                            transport=TcpTransport())
        try:
            assert all(isinstance(w, ExpertWorker) for w in workers)
        finally:
            _teardown(master, workers)


class TestLifecycle:
    def test_restart_keeps_the_port_and_the_cap_balanced(self, rng):
        expert = _mlp_team(k=1)[0]
        x = rng.standard_normal((3, 16)).astype(np.float32)
        want = expert_forward(expert, x).probs.tobytes()
        holds = blas._holders
        worker = ForkedWorker(expert)
        worker.start()
        worker.start()                  # a second start forks nothing
        address, pids = worker.address, [worker.pid]
        for _ in range(2):
            assert blas._holders == holds + 1
            if blas.get_num_threads() is not None:
                assert blas.get_num_threads() == 1
            with connect(*address) as sock:
                sock.send(protocol.encode(protocol.INFER, {"seq": 1},
                                          {"x": x}))
                reply = protocol.decode(sock.recv(timeout=10.0))
            assert reply.arrays["probs"].tobytes() == want
            started = _start_time(worker.pid)
            worker.stop()
            worker.stop()               # nor does a second stop release
            assert worker.pid is None
            assert _start_time(pids[-1]) != started    # reaped, not left
            assert blas._holders == holds
            with pytest.raises(OSError):    # the port closed with it
                socket.create_connection(address, timeout=1.0).close()
            worker.start()
            worker.start()
            assert worker.address == address
            pids.append(worker.pid)
        worker.stop()
        assert len(set(pids)) == 3

    def test_children_share_no_descriptor(self):
        """No socket of the parent's, and no sibling's lifeline: each
        child holds only its listener, its connections and its own
        lifeline's read end."""
        master, workers = deploy_local_team(_mlp_team(k=4))
        try:
            workers[0].stop()
            workers[0].start()          # forked after its siblings and
                                        # after the master's connections
            for worker in workers:      # past the fork's own set-up
                with connect(*worker.address) as sock:
                    sock.send(protocol.encode(protocol.PING, {"seq": 1}))
                    assert protocol.decode(sock.recv(timeout=10.0)).kind \
                        == protocol.PONG
            mine = _pipes_and_sockets(os.getpid())
            held = {w.pid: _pipes_and_sockets(w.pid) for w in workers}
            for pid, theirs in held.items():
                # The one pipe is the child's lifeline, whose write end
                # this process holds; nothing else is shared.
                (lifeline,) = {t for t in theirs if t.startswith("pipe:")}
                assert theirs & mine == {lifeline}, pid
                for other, also in held.items():
                    assert other == pid or not theirs & also
        finally:
            _teardown(master, workers)

    def test_closing_a_parent_socket_still_gives_its_peer_eof(self):
        server = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(server.getsockname())
        peer, _ = server.accept()
        server.close()
        master, workers = deploy_local_team(_mlp_team())
        try:
            client.close()              # no shutdown: the last holder's
            peer.settimeout(5.0)        # close is what sends the FIN
            assert peer.recv(1) == b""
        finally:
            peer.close()
            _teardown(master, workers)

    def test_children_die_with_a_sigkilled_parent(self):
        script = textwrap.dedent("""
            import time
            import numpy as np
            from repro.distributed import deploy_local_team
            from repro.nn import MLP
            experts = [MLP(8, 3, depth=1, width=4,
                           rng=np.random.default_rng(i)) for i in range(4)]
            master, workers = deploy_local_team(experts)
            master.infer(np.zeros((1, 8)))
            workers[0].stop()
            workers[0].start()
            print(" ".join(str(w.pid) for w in workers), flush=True)
            time.sleep(120)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 3
            started = {pid: _start_time(pid) for pid in pids}
            assert None not in started.values()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        gone = _gone(started, within_s=2.0)
        survivors = [pid for pid, at in started.items()
                     if _start_time(pid) == at]
        for pid in survivors:           # a failing run leaks nothing
            os.kill(pid, signal.SIGKILL)
        assert gone, survivors
