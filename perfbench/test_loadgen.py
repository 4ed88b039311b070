"""Tests of loadgen's answer checks against a scripted DNS server.

    python3 perfbench/test_loadgen.py

Needs the benchmark's build (.bench_build/perfbench/loadgen, made by the
first perfbench/run.py); skipped without it.  The scripted server plays
authority and cache at once: it serves the generated zone, applies each
RFC 2136 UPDATE it receives, and can be told to answer changed names with
an address no version of the zone carries.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

LOADGEN = HERE.parent / ".bench_build" / "perfbench" / "loadgen"
FOREIGN = bytes([192, 0, 2, 1])  # TEST-NET-1: never a generated address
OPCODE_UPDATE = 5


def read_name(msg, off):
    """(labels, offset after the name) of the name at `off`."""
    labels, end = [], None
    while True:
        n = msg[off]
        if n & 0xC0 == 0xC0:
            end = off + 2 if end is None else end
            off = ((n & 0x3F) << 8) | msg[off + 1]
            continue
        if n == 0:
            return labels, (off + 1 if end is None else end)
        labels.append(msg[off + 1:off + 1 + n].decode())
        off += 1 + n


class ScriptedServer:
    def __init__(self, zone_file, foreign_after_update):
        self.addresses = {}
        for line in Path(zone_file).read_text().splitlines():
            fields = line.split()
            if len(fields) >= 5 and fields[-2] == "A" and fields[0][0] == "w":
                label = fields[0].split(".")[0]
                self.addresses[label] = socket.inet_aton(fields[-1])
        self.foreign_after_update = foreign_after_update
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.port = self.sock.getsockname()[1]
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.serve)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()
        self.sock.close()

    def serve(self):
        while not self.stop.is_set():
            try:
                msg, peer = self.sock.recvfrom(1500)
            except socket.timeout:
                continue
            self.sock.sendto(self.answer(msg), peer)

    def answer(self, msg):
        qid, flags = struct.unpack_from("!HH", msg)
        if (flags >> 11) & 0xF == OPCODE_UPDATE:
            # Zone section, then the update section; the last RR adds the
            # new A record, so the message ends in its address.
            _, off = read_name(msg, 12)
            off += 4
            labels, _ = read_name(msg, off)
            self.addresses[labels[0]] = (FOREIGN if self.foreign_after_update
                                         else msg[-4:])
            return struct.pack("!HHHHHH", qid, 0x8000 | (flags & 0x7800),
                               0, 0, 0, 0)
        labels, end = read_name(msg, 12)
        question = msg[12:end + 4]
        rr = struct.pack("!HHHIH", 0xC00C, 1, 1, 60, 4)
        return (struct.pack("!HHHHHH", qid, 0x8400 | (flags & 0x0100), 1, 1,
                            0, 0)
                + question + rr + self.addresses[labels[0]])


@unittest.skipUnless(LOADGEN.exists(), "run perfbench/run.py once to build")
class ProbeCheckTest(unittest.TestCase):
    def churn(self, foreign_after_update):
        with tempfile.TemporaryDirectory() as tmp:
            zone = os.path.join(tmp, "zone.txt")
            out = os.path.join(tmp, "out.json")
            subprocess.check_call([str(LOADGEN), "zone", "--seed", "7",
                                   "--names", "200", "--out", zone])
            with ScriptedServer(zone, foreign_after_update) as server:
                target = "127.0.0.1:%d" % server.port
                subprocess.check_call(
                    [str(LOADGEN), "run", "--seed", "7", "--names", "200",
                     "--target", target, "--update-target", target,
                     "--phase", "500:2",
                     "--out", out, "--samples", os.path.join(tmp, "s.bin")],
                    timeout=60)
            return json.loads(Path(out).read_text())

    def test_consistent_server_passes(self):
        summary = self.churn(foreign_after_update=False)
        updates = summary["updates"]
        self.assertGreater(updates["attempted"], 0)
        self.assertEqual(updates["failed"], 0)
        self.assertEqual(updates["never_consistent"], 0)
        self.assertEqual(run.answer_errors(summary["phases"], [updates]), 0)

    def test_foreign_probe_answer_makes_the_run_incorrect(self):
        summary = self.churn(foreign_after_update=True)
        updates = summary["updates"]
        self.assertGreater(updates["probe_wrong"], 0)
        self.assertEqual(updates["failed"], updates["attempted"])
        self.assertGreaterEqual(
            run.answer_errors(summary["phases"], [updates]),
            updates["probe_wrong"])


if __name__ == "__main__":
    unittest.main()
