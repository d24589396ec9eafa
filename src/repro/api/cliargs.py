"""Argparse argument groups generated from the spec dataclasses.

Every CLI flag that mirrors a :class:`WorkloadSpec` or
:class:`EngineConfig` field is declared exactly once — as ``cli`` metadata
on the field — and the subcommands (``run``, ``index build``) build
their argument groups from it.  Adding a knob to a spec dataclass
therefore adds it to every subcommand that includes the group, instead of
being copy-pasted into several argparse blocks.
"""

from __future__ import annotations

import argparse
from dataclasses import MISSING, fields
from typing import Optional, Sequence

from repro.api.registry import algorithm_names
from repro.api.specs import EngineConfig, RunSpec, WorkloadSpec, parse_budgets
from repro.exceptions import SpecError


def budgets_argument(text: str):
    """``--budgets`` argparse type: JSON object or ``item=count`` pairs."""
    try:
        return parse_budgets(text)
    except SpecError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def tcp_address_argument(text: str):
    """``--tcp`` argparse type: ``HOST:PORT`` (or just ``:PORT``/``PORT``).

    Returns a ``(host, port)`` pair; the host defaults to ``127.0.0.1``
    and port ``0`` asks the OS for a free one.
    """
    text = str(text).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host.strip() or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed TCP address {text!r}; expected HOST:PORT "
            f"(e.g. 127.0.0.1:7411)") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"TCP port must be in [0, 65535], got {port}")
    return host, port


def _add_field_argument(target, f) -> None:
    meta = dict(f.metadata["cli"])
    flag = meta.pop("flag")
    if meta.get("type") == "budgets":
        meta["type"] = budgets_argument
    choices = meta.pop("choices", None)
    if callable(choices):
        choices = choices()
    if choices is not None:
        meta["choices"] = list(choices)
    default = f.default if f.default is not MISSING else None
    target.add_argument(flag, dest=f.name, default=default, **meta)


def add_spec_arguments(parser: argparse.ArgumentParser, cls, *,
                       exclude: Sequence[str] = (),
                       title: Optional[str] = None) -> None:
    """Add the CLI-visible fields of a spec dataclass to ``parser``.

    ``exclude`` drops fields by name; fields without ``cli`` metadata
    (programmatic-only, like ``fixed_allocation``) are skipped.
    """
    target = parser.add_argument_group(title) if title else parser
    for f in fields(cls):
        if "cli" not in f.metadata:
            continue
        if f.name in exclude:
            continue
        _add_field_argument(target, f)


def add_workload_arguments(parser: argparse.ArgumentParser, *,
                           exclude: Sequence[str] = ()) -> None:
    """The ``WorkloadSpec`` argument group (network/configuration/budgets)."""
    add_spec_arguments(parser, WorkloadSpec, exclude=exclude,
                       title="workload")


def add_engine_arguments(parser: argparse.ArgumentParser, *,
                         exclude: Sequence[str] = ()) -> None:
    """The ``EngineConfig`` argument group (engines/samples/seed)."""
    add_spec_arguments(parser, EngineConfig, exclude=exclude,
                       title="engine")


def add_algorithm_argument(parser: argparse.ArgumentParser,
                           default: str = "SeqGRD-NM") -> None:
    """``--algorithm`` with choices derived from the registry."""
    parser.add_argument("--algorithm", default=default,
                        choices=list(algorithm_names()),
                        help="seed-selection algorithm (registry-dispatched)")


def _from_namespace(cls, args: argparse.Namespace):
    values = {}
    for f in fields(cls):
        if "cli" in f.metadata and hasattr(args, f.name):
            values[f.name] = getattr(args, f.name)
    return cls(**values)


def workload_from_args(args: argparse.Namespace) -> WorkloadSpec:
    """Build a :class:`WorkloadSpec` from a parsed namespace."""
    return _from_namespace(WorkloadSpec, args)


def engine_from_args(args: argparse.Namespace) -> EngineConfig:
    """Build an :class:`EngineConfig` from a parsed namespace."""
    return _from_namespace(EngineConfig, args)


def runspec_from_args(args: argparse.Namespace,
                      algorithm: Optional[str] = None) -> RunSpec:
    """Build the full :class:`RunSpec` from a parsed namespace."""
    return RunSpec(algorithm=algorithm or args.algorithm,
                   workload=workload_from_args(args),
                   engine=engine_from_args(args))


__all__ = [
    "add_spec_arguments",
    "add_workload_arguments",
    "add_engine_arguments",
    "add_algorithm_argument",
    "budgets_argument",
    "tcp_address_argument",
    "workload_from_args",
    "engine_from_args",
    "runspec_from_args",
]
