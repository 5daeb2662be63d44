"""A Selenium-like facade over :class:`~repro.browser.core.Browser`.

BannerClick is built on Selenium; this facade reproduces the API subset
it uses — including Selenium's *limitations*:

- ``find_elements`` (CSS/XPath) only sees the current browsing context:
  no shadow-root content, no iframe content.
- ``switch_to_frame`` changes the context to an iframe's document.
- ``WebElement.shadow_root`` works for **open** roots only; accessing a
  closed root raises — the crawler must fall back to the privileged
  devtools-style :meth:`WebDriver.pierce_shadow_root` (modelling the
  paper's closed-shadow-DOM handling, §3 / [52]).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.browser.core import Browser, ClickOutcome
from repro.browser.page import Page
from repro.dom import Document, Element, Node, ShadowRoot
from repro.dom.selector import query_selector_all
from repro.dom.xpath import xpath_all
from repro.errors import (
    ClosedShadowRootError,
    NoSuchElementError,
)


class By:
    """Locator strategies (Selenium naming)."""

    CSS_SELECTOR = "css selector"
    XPATH = "xpath"
    TAG_NAME = "tag name"
    ID = "id"


class WebElement:
    """A handle on a DOM element, bound to its driver."""

    def __init__(self, driver: "WebDriver", element: Element) -> None:
        self._driver = driver
        self.element = element

    # -- inspection -----------------------------------------------------
    @property
    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def tag_name(self) -> str:
        return self.element.tag

    @property
    def text(self) -> str:
        """Visible text of the element (no shadow/frame piercing)."""
        return self.element.text_content()

    def get_attribute(self, name: str) -> Optional[str]:
        return self.element.get_attribute(name)

    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def is_displayed(self) -> bool:
        return self.element.is_visible()

    # -- shadow DOM -----------------------------------------------------
    @property
    def shadow_root(self) -> "ShadowContext":
        """The element's shadow root — open roots only (Selenium parity)."""
        root = self.element.shadow_root
        if root is None:
            if self.element.attached_shadow_root is not None:
                raise ClosedShadowRootError(
                    f"<{self.element.tag}> hosts a closed shadow root"
                )
            raise NoSuchElementError(f"<{self.element.tag}> has no shadow root")
        return ShadowContext(self._driver, root)

    # -- interaction ------------------------------------------------------
    def click(self) -> ClickOutcome:
        return self._driver.browser.click(self._driver.page, self.element)

    def __repr__(self) -> str:
        return f"<WebElement {self.element!r}>"


class ShadowContext:
    """Query context rooted at an (open) shadow root."""

    def __init__(self, driver: "WebDriver", root: ShadowRoot) -> None:
        self._driver = driver
        self.root = root

    def find_elements(self, by: str, value: str) -> List[WebElement]:
        return self._driver._find_in(self.root, by, value)


class WebDriver:
    """Drives one loaded page with Selenium-flavoured lookups."""

    def __init__(self, browser: Browser, page: Page) -> None:
        self.browser = browser
        self.page = page
        #: The current browsing context (main document or a frame doc).
        self._context: Document = page.document

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------
    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def switch_to_default_content(self) -> None:
        self._context = self.page.document

    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def switch_to_frame(self, frame: Union[WebElement, Element]) -> None:
        element = frame.element if isinstance(frame, WebElement) else frame
        if element.tag != "iframe" or element.content_document is None:
            raise NoSuchElementError("element is not a loaded iframe")
        self._context = element.content_document

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find_elements(self, by: str, value: str) -> List[WebElement]:
        """All matches in the current context (no shadow/frame pierce)."""
        return self._find_in(self._context, by, value)

    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def find_element(self, by: str, value: str) -> WebElement:
        found = self.find_elements(by, value)
        if not found:
            raise NoSuchElementError(f"no element for {by}={value!r}")
        return found[0]

    def _find_in(self, root: Node, by: str, value: str) -> List[WebElement]:
        if by == By.CSS_SELECTOR:
            elements = query_selector_all(root, value)
        elif by == By.XPATH:
            elements = xpath_all(root, value)
        elif by == By.TAG_NAME:
            elements = [el for el in root.elements() if el.tag == value.lower()]
        elif by == By.ID:
            elements = [el for el in root.elements() if el.id == value]
        else:
            raise ValueError(f"unknown locator strategy {by!r}")
        return [WebElement(self, el) for el in elements]

    # ------------------------------------------------------------------
    # Shadow DOM discovery helpers
    # ------------------------------------------------------------------
    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def elements_with_shadow_root(self) -> List[WebElement]:
        """Elements in the current context that host an *open* root.

        This mirrors BannerClick's scripted scan for elements with a
        ``shadow_root`` property (paper §3).
        """
        return [
            WebElement(self, el)
            for el in self._context.elements()
            if el.shadow_root is not None
        ]

    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def pierce_shadow_root(self, element: Union[WebElement, Element]) -> ShadowContext:
        """Privileged (devtools-level) access to any shadow root.

        Real BannerClick reaches closed shadow roots through injected
        page scripts that capture ``attachShadow`` [52]; we model that
        capability as a devtools pierce.
        """
        el = element.element if isinstance(element, WebElement) else element
        root = el.attached_shadow_root
        if root is None:
            raise NoSuchElementError(f"<{el.tag}> has no shadow root")
        return ShadowContext(self, root)

    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def elements_with_any_shadow_root(self) -> List[WebElement]:
        """Privileged scan that also reveals closed shadow hosts."""
        return [
            WebElement(self, el)
            for el in self._context.elements()
            if el.attached_shadow_root is not None
        ]

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def iframe_elements(self) -> List[WebElement]:
        """All loaded iframes in the current context."""
        return [
            WebElement(self, el)
            for el in self._context.elements(include_shadow=True)
            if el.tag == "iframe" and el.content_document is not None
        ]

    @property
    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def page_source(self) -> str:
        from repro.dom import to_html

        return to_html(self.page.document)

    # reprolint: disable=test-only-definition -- perfbench: patches repro.browser.webdriver.query_selector_all (ROADMAP item 10)
    def execute_append_clone(self, source: Node, target_parent: Element) -> Node:
        """Clone *source* and append the clone to *target_parent*.

        The primitive behind the paper's shadow-DOM workaround: clone
        shadow children into the main document body so that ordinary
        XPath/CSS lookups can run over them.  Writing makes the page's
        DOM private (``Page.writable``), so the current browsing context
        moves onto the page's copy too.
        """
        clone = source.clone(deep=True)
        target_parent = self.page.writable(target_parent)
        self._context = self.page.current(self._context)
        target_parent.append_child(clone)
        return clone
