"""Registry of servable applications.

Any verified :class:`~repro.core.framework.DesignFramework` can be
served; this module wires up the four shipped applications (the same
set the verification CLI knows) together with their structured
descriptions, so the runtime can reject precondition-false requests
instead of silently no-opping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ServingError
from repro.algebraic.description import StructuredDescription
from repro.core.framework import DesignFramework
from repro.runtime.service import SpecRuntime

__all__ = ["RuntimeApp", "available_applications", "build_app", "make_runtime"]


@dataclass(frozen=True)
class RuntimeApp:
    """One servable application: the design plus its descriptions."""

    name: str
    framework: DesignFramework
    descriptions: list[StructuredDescription]


def _bank() -> RuntimeApp:
    from repro.applications.bank import bank_descriptions, bank_framework

    framework = bank_framework()
    return RuntimeApp(
        "bank",
        framework,
        bank_descriptions(framework.algebraic.signature),
    )


def _courses() -> RuntimeApp:
    from repro.applications.courses import (
        courses_descriptions,
        courses_framework,
    )

    framework = courses_framework()
    return RuntimeApp(
        "courses",
        framework,
        courses_descriptions(framework.algebraic.signature),
    )


def _projects() -> RuntimeApp:
    from repro.applications.projects import (
        projects_descriptions,
        projects_framework,
    )

    framework = projects_framework()
    return RuntimeApp(
        "projects",
        framework,
        projects_descriptions(framework.algebraic.signature),
    )


def _library() -> RuntimeApp:
    from repro.applications.library import (
        library_descriptions,
        library_framework,
    )

    framework = library_framework()
    return RuntimeApp(
        "library",
        framework,
        library_descriptions(framework.algebraic.signature),
    )


_FACTORIES: dict[str, Callable[[], RuntimeApp]] = {
    "bank": _bank,
    "courses": _courses,
    "projects": _projects,
    "library": _library,
}


def available_applications() -> tuple[str, ...]:
    """Names of the servable applications."""
    return tuple(_FACTORIES)


def build_app(name: str) -> RuntimeApp:
    """Build one servable application by name.

    Raises:
        ServingError: for an unknown application name.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ServingError(
            f"unknown application {name!r}; available: "
            + ", ".join(_FACTORIES)
        )
    return factory()


def make_runtime(name: str, **kwargs) -> SpecRuntime:
    """Build a :class:`SpecRuntime` serving application ``name``.

    Keyword arguments are forwarded to :class:`SpecRuntime`
    (``data_dir``, ``fsync_batch``, ``fsync``, ``compact_every``).
    """
    app = build_app(name)
    return SpecRuntime(app.framework, app.descriptions, **kwargs)
