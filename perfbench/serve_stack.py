"""The serve stack the traced run (``layers.py``) measures.

An in-process ``CompileDaemon`` with one worker serves HTTP on a unix
socket to one ``ServeClient``, which waits for each reply, as
``repro-serve``'s callers (build scripts, DSE drivers) do.  A hit is a
repeated kernel source; a miss is a new source variant of a kernel,
which the worker compiles and publishes into the disk cache.

This was also an end-to-end workload, ``serve_mixed``.  It was dropped:
on the shared 2-vCPU sandbox its latencies follow host stalls on the
thread and process hand-offs, which no calibration removes (two sets of
ten runs differed by 26% in median hit latency and 159% in p99).
"""

from __future__ import annotations

import asyncio
import threading
import time

from common import OPT, arg_spec, compile_kernel

SERVE_FILENAME = "<serve>"


class ServeStack:
    """Daemon (one worker) + HTTP server on a loop thread + client."""

    def __init__(self, sandbox):
        from repro.serve import CompileDaemon, Server, ServeClient

        self.daemon = CompileDaemon(
            workers=1, cache_dir=str(sandbox.fresh_dir("serve"))).start()
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve-loop")
        self.thread.start()
        self.server = Server(self.daemon, path=sandbox.socket_path())
        self.client = ServeClient(path=self.server.path)
        try:
            self._call(self.server.start())
            self.client.wait_ready()
        except BaseException:
            self.close()
            raise

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro,
                                                self.loop).result(60)

    def close(self) -> None:
        """Stop everything this stack started and wait for it."""
        try:
            self.client.close()
            self._call(self.server.stop())
            self.daemon.stop()
            self._call(self.server.close_connections())
        finally:
            self.daemon.stop(drain=False)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            self.loop.close()


class Requests:
    """Request payloads and the in-process reference C per kernel."""

    def __init__(self, corpus, seed: int):
        self.seed = seed
        self.specs = {k.name: [arg_spec(t) for t in k.arg_types]
                      for k in corpus}
        self.reference_c = {
            k.name: compile_kernel(k, OPT,
                                   filename=SERVE_FILENAME).c_source()
            for k in corpus}
        self._variants = 0

    def variant(self, kernel) -> str:
        """A source never requested before: same kernel, new text, so a
        new cache key."""
        self._variants += 1
        return (f"{kernel.source}\n% serve variant {self.seed}-"
                f"{self._variants}\n")

    def send(self, client, kernel, source):
        t0 = time.perf_counter()
        reply = client.compile(source, self.specs[kernel.name],
                               entry=kernel.entry,
                               filename=SERVE_FILENAME)
        return time.perf_counter() - t0, reply

    def verified(self, reply, kernel, cached: bool) -> bool:
        return (reply.get("status") == "ok"
                and reply.get("cached") is cached
                and reply.get("c_source") == self.reference_c[kernel.name])
