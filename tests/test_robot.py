import socket
import threading
import time

import numpy as np
import pytest

from rebartie import robot as robotmod
from rebartie.errors import ConnectionLost, ProtocolError
from rebartie.frames import TiePoint
from rebartie.robot import (
    ABORT_ON_ERROR,
    SKIP_ON_ERROR,
    OK,
    Response,
    RobotClient,
    RobotCommand,
    SimRobotConfig,
    SimRobotServer,
    decode_command,
    decode_response,
    encode_command,
    encode_response,
    execute_sequence,
    move,
)


def make_ties(positions):
    return [TiePoint(np.asarray(p, float), i) for i, p in enumerate(positions)]


def start_server(**kwargs):
    config_kwargs = {
        "workspace_center": kwargs.pop("center", (0.0, 0.0, 0.0)),
        "workspace_radius": kwargs.pop("radius", 1.0),
        "tie_failure_rate": kwargs.pop("failure_rate", 0.0),
        "seed": kwargs.pop("seed", 0),
    }
    server = SimRobotServer(SimRobotConfig(**config_kwargs), port=0, **kwargs)
    server.start()
    return server


class TestProtocolCodec:
    def test_move_encoding(self):
        assert encode_command(move(0.1, -0.2, 0.3)) == "MOVE 0.100000 -0.200000 0.300000\n"

    def test_ok_decoding(self):
        assert decode_response("OK\n") is OK

    def test_err_decoding(self):
        resp = decode_response("ERR 2 UNREACHABLE\n")
        assert resp == Response(False, 2, "UNREACHABLE")

    def test_malformed_response(self):
        with pytest.raises(ProtocolError):
            decode_response("WAT\n")

    def test_malformed_command(self):
        for bad in ("", "MOVE 1 2", "MOVE a b c", "DANCE", "TIE 1"):
            with pytest.raises(ProtocolError):
                decode_command(bad)

    def test_round_trip_random_commands(self, rng):
        kinds = ["MOVE", "TIE", "HOME", "QUIT"]
        for _ in range(2000):
            kind = kinds[rng.integers(len(kinds))]
            if kind == "MOVE":
                # encoder emits 6 decimals, so draw from that grid
                coords = rng.integers(-2_000_000, 2_000_000, 3) / 1e6
                cmd = move(*coords)
            else:
                cmd = RobotCommand(kind)
            assert decode_command(encode_command(cmd)) == cmd

    def test_response_round_trip(self):
        for resp in (OK, Response(False, 4, "TIE_FAILED"), Response(False, 1, "BAD_COMMAND")):
            assert decode_response(encode_response(resp)) == resp


class TestSimServerStateMachine:
    def test_conformance_script(self, tmp_path):
        log = tmp_path / "server.log"
        server = start_server(radius=0.5, log_path=str(log))
        with RobotClient(server.host, server.port) as client:
            assert client.send(RobotCommand("TIE")).code == 3  # NO_POSE
            assert client.send(move(0, 0, 0.1)).ok
            assert client.send(move(0, 0, 0.51)).code == 2  # UNREACHABLE
            assert client.send(RobotCommand("TIE")).ok
            assert client.send(RobotCommand("TIE")).code == 3  # consumed
            assert client.send(RobotCommand("HOME")).ok
            # malformed line: connection stays open
            client.sock.sendall(b"GIBBERISH\n")
            line = client.reader.readline()
            assert decode_response(line).code == 1
            assert client.send(move(0, 0, 0.2)).ok
            assert client.send(RobotCommand("QUIT")).ok
        server.stop()
        entries = log.read_text().splitlines()
        assert all(len(e.split(" ", 2)) == 3 for e in entries)
        directions = {e.split(" ", 2)[1] for e in entries}
        assert directions == {"RECV", "SEND"}

    def test_unreachable_boundary(self):
        server = start_server(radius=0.5)
        with RobotClient(server.host, server.port) as client:
            assert client.send(move(0.5, 0, 0)).ok  # exactly on the boundary
            assert client.send(move(0.51, 0, 0)).code == 2
            client.send(RobotCommand("QUIT"))
        server.stop()

    def test_tie_failure_seeded_deterministic(self):
        transcripts = []
        for _ in range(2):
            server = start_server(failure_rate=0.5, seed=42, stop_on_quit=True)
            outcomes = []
            with RobotClient(server.host, server.port) as client:
                for _ in range(20):
                    client.send(move(0, 0, 0.1))
                    outcomes.append(client.send(RobotCommand("TIE")).ok)
                client.send(RobotCommand("QUIT"))
            server.stop()
            transcripts.append(outcomes)
        assert transcripts[0] == transcripts[1]
        assert True in transcripts[0] and False in transcripts[0]

    def test_stop_right_after_start_closes_log(self, tmp_path, monkeypatch):
        # stop() can close the listener before the server thread gets going;
        # the thread must still end cleanly and close the log it opened
        crashes, logs = [], []
        monkeypatch.setattr(threading, "excepthook", crashes.append)

        def tracking_open(*args, **kwargs):
            logs.append(open(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr(robotmod, "open", tracking_open, raising=False)
        for _ in range(200):
            server = start_server(log_path=str(tmp_path / "server.log"))
            server.stop()
            assert not server._thread.is_alive()
        assert crashes == []
        assert len(logs) == 200
        assert all(f.closed for f in logs)

    def test_stop_wakes_a_blocked_accept(self):
        server = start_server()
        time.sleep(0.2)  # long enough for the thread to block in accept()
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0
        assert not server._thread.is_alive()

    @pytest.mark.parametrize("port", ["in-use", 70000, -1])
    def test_failed_bind_closes_its_socket(self, monkeypatch, port):
        made = []
        make = socket.socket

        def tracking_socket(*args, **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            probe.listen(1)
            if port == "in-use":
                port = probe.getsockname()[1]
            monkeypatch.setattr(socket, "socket", tracking_socket)
            with pytest.raises((OSError, OverflowError)):
                SimRobotServer(SimRobotConfig(), port=port)
        assert len(made) == 1
        assert made[0].fileno() == -1  # closed


class TestExecuteSequence:
    def test_all_reachable_full_success(self):
        server = start_server(radius=2.0)
        ties = make_ties([[0, 0, 0.1 * i] for i in range(9)])
        with RobotClient(server.host, server.port) as client:
            report = execute_sequence(ties, client, SKIP_ON_ERROR)
        server.stop()
        assert report.attempted == 9
        assert report.successes == 9
        from rebartie.metrics import compute_tce

        assert compute_tce(report.successes, report.attempted) == 100.0

    def test_one_unreachable_skip_policy(self):
        server = start_server(radius=1.0)
        positions = [[0, 0, 0.1]] * 9 + [[5.0, 5.0, 5.0]]
        ties = make_ties(positions)
        with RobotClient(server.host, server.port) as client:
            report = execute_sequence(ties, client, SKIP_ON_ERROR)
        server.stop()
        assert report.attempted == 10
        assert report.successes == 9
        failed = [o for o in report.outcomes if not o.success]
        assert failed[0].stage == "move" and failed[0].code == 2

    def test_abort_policy_stops_at_first_failure(self):
        server = start_server(failure_rate=1.0)
        ties = make_ties([[0, 0, 0.1]] * 5)
        with RobotClient(server.host, server.port) as client:
            report = execute_sequence(ties, client, ABORT_ON_ERROR)
        server.stop()
        assert report.attempted == 1
        assert report.successes == 0
        assert report.outcomes[0].stage == "tie"
        assert report.outcomes[0].code == 4

    def test_skip_policy_attempts_everything(self):
        server = start_server(failure_rate=1.0)
        ties = make_ties([[0, 0, 0.1]] * 5)
        with RobotClient(server.host, server.port) as client:
            report = execute_sequence(ties, client, SKIP_ON_ERROR)
        server.stop()
        assert report.attempted == 5
        assert report.successes == 0
        assert all(o.code == 4 for o in report.outcomes)

    def test_server_vanishing_raises_connection_lost(self):
        server = start_server()
        ties = make_ties([[0, 0, 0.1]] * 50)
        client = RobotClient(server.host, server.port)
        assert client.send(move(0, 0, 0.1)).ok
        server.stop()  # drop the server mid-sequence
        with pytest.raises(ConnectionLost) as exc:
            execute_sequence(ties, client, SKIP_ON_ERROR)
        client.close()
        assert exc.value.report is not None
        assert exc.value.report.attempted <= 50

    def test_sequential_connections_queue(self):
        server = start_server(stop_on_quit=False)
        for _ in range(3):
            with RobotClient(server.host, server.port) as client:
                assert client.send(move(0, 0, 0.1)).ok
                assert client.send(RobotCommand("QUIT")).ok
        server.stop()
