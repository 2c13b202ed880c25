"""repro.server — the network tier: HTTP serving.

:mod:`repro.service` made the deployment a single thread-safe Python
object; this package puts it on the wire using only the standard
library (``asyncio`` — the numpy-only runtime dependency policy holds):
an **asyncio HTTP server** (:class:`MatchServer`, ``repro-server``
CLI) serving ``POST /match``, ``GET /stats``, ``GET /healthz`` and
``POST /admin/invalidate`` over the
:class:`~repro.service.requests.MatchRequest` /
:class:`~repro.service.requests.MatchResponse` JSON schema, with
blocking matching work bounded on a semaphore-gated thread pool.

Example
-------
>>> import http.client, json
>>> from repro.graphs import erdos_renyi
>>> from repro.server import BackgroundServer
>>> from repro.service import MatchService
>>> service = MatchService(catalog={"tiny": erdos_renyi(50, 120, 2, seed=1)})
>>> with BackgroundServer(service) as background:
...     conn = http.client.HTTPConnection(*background.address, timeout=30)
...     conn.request("GET", "/healthz")
...     health = json.loads(conn.getresponse().read())
...     conn.close()
>>> health["status"], health["datasets"]
('ok', ['tiny'])
"""

from repro.server.http import BackgroundServer, MatchServer
from repro.server.protocol import ProtocolError

__all__ = [
    "BackgroundServer",
    "MatchServer",
    "ProtocolError",
]
