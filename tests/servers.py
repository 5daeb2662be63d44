"""Origin servers for tests that build a network by hand."""

from typing import Optional

from repro.httpkit import Request, Response
from repro.netsim import OriginServer, VisitorContext


class StaticServer(OriginServer):
    """Serves one fixed HTML body for every path."""

    def __init__(self, body: str, status: int = 200,
                 set_cookies: Optional[list] = None) -> None:
        self.body = body
        self.status = status
        self.set_cookies = list(set_cookies or [])

    def handle(self, request: Request, visitor: VisitorContext) -> Response:
        response = self.html(request, self.body, self.status)
        for header in self.set_cookies:
            response.add_cookie(header)
        return response
