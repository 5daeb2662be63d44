"""Origin server abstractions for the simulated network."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.httpkit import Headers, Request, Response

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.network import VisitorContext


class OriginServer:
    """Base class: anything that answers HTTP requests for some site."""

    def handle(self, request: Request, visitor: "VisitorContext") -> Response:
        """Produce a response for *request* from *visitor*'s location."""
        raise NotImplementedError

    # Convenience response builders -------------------------------------
    @staticmethod
    def html(request: Request, body: str, status: int = 200) -> Response:
        headers = Headers([("content-type", "text/html; charset=utf-8")])
        return Response(request=request, status=status, headers=headers, body=body)

    @staticmethod
    def effects(request: Request, payload: str) -> Response:
        """A "script" response whose body is a JSON effect list.

        The browser executes these effects against the embedding page,
        modelling what third-party JavaScript (CMP/SMP scripts, ad
        loaders) does on real sites.
        """
        headers = Headers([("content-type", "application/x-dom-effects")])
        return Response(request=request, status=200, headers=headers, body=payload)

    @staticmethod
    def pixel(request: Request) -> Response:
        headers = Headers([("content-type", "image/gif")])
        return Response(request=request, status=200, headers=headers, body="GIF89a")

    @staticmethod
    def not_found(request: Request) -> Response:
        return Response(request=request, status=404, body="not found")


class StaticServer(OriginServer):
    """Serves one fixed HTML body for every path (useful in tests)."""

    def __init__(self, body: str, status: int = 200,
                 set_cookies: Optional[list] = None) -> None:
        self.body = body
        self.status = status
        self.set_cookies = list(set_cookies or [])

    def handle(self, request: Request, visitor: "VisitorContext") -> Response:
        response = self.html(request, self.body, self.status)
        for header in self.set_cookies:
            response.add_cookie(header)
        return response
