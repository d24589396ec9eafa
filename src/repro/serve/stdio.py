"""The stdio transport: blocking stdin/stdout as an asyncio stream pair.

``repro serve`` answers stdio on the same event loop, through the same
connection handler, as its TCP and unix-socket clients.
:class:`StdinReader` and :class:`StdoutWriter` give the standard streams
the slice of the :class:`asyncio.StreamReader` /
:class:`asyncio.StreamWriter` interface that handler uses — whatever the
streams are: a pipe, a file, or an in-memory text stream.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, TextIO

#: bytes read from stdin per chunk
_READ_CHUNK = 65536


class StdinReader:
    """``await read()`` over a blocking stdin, pumped by a daemon thread.

    Pipes, files and in-memory text streams cannot all be registered with
    the event loop, so a thread reads whatever ``stdin`` is (its binary
    buffer when it has one) and hands chunks over through a bounded
    queue — memory stays flat however fast stdin fills.  The thread is a
    daemon so a server stopped by a signal never waits on an open stdin.
    """

    def __init__(self, stdin: TextIO) -> None:
        self._loop = asyncio.get_running_loop()
        self._chunks: "asyncio.Queue[bytes]" = asyncio.Queue(maxsize=4)
        threading.Thread(target=self._pump, args=(stdin,),
                         name="repro-stdin", daemon=True).start()

    def _pump(self, stdin: TextIO) -> None:
        source = getattr(stdin, "buffer", None)
        try:
            if source is not None:
                read = getattr(source, "read1", source.read)
                chunks = iter(lambda: read(_READ_CHUNK), b"")
            else:
                chunks = (line.encode("utf-8") for line in stdin)
            for chunk in chunks:
                asyncio.run_coroutine_threadsafe(
                    self._chunks.put(chunk), self._loop).result()
        except (OSError, ValueError):
            pass  # an unreadable or closed stdin ends the input
        except (RuntimeError, concurrent.futures.CancelledError):
            return  # the loop stopped: nobody reads any more
        try:
            asyncio.run_coroutine_threadsafe(self._chunks.put(b""),
                                             self._loop)
        except RuntimeError:  # the loop closed meanwhile
            pass

    async def read(self, _size: int = -1) -> bytes:
        """The next chunk of stdin (``b""`` at EOF)."""
        return await self._chunks.get()


class StdoutWriter:
    """The slice of :class:`asyncio.StreamWriter` the connection loop
    uses, over a text stream (stdout); ``transport`` is itself, so the
    ``disconnect`` fault site's abort is a no-op that ends the session."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self.transport = self

    def write(self, data: bytes) -> None:
        self._stream.write(data.decode("utf-8"))

    async def drain(self) -> None:
        self._stream.flush()

    def abort(self) -> None:
        pass

    def get_extra_info(self, _name: str, default: Any = None) -> Any:
        return default

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


__all__ = ["StdinReader", "StdoutWriter"]
