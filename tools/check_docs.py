#!/usr/bin/env python
"""Fail when a catalog page in docs/ is out of sync with the code.

Each row of :data:`CATALOGS` names a page whose ``## `name` ...``
headings list what the code defines, and checks it in both directions:

* everything the code defines has a heading (nothing undocumented);
* every heading names something the code defines, or one of the row's
  allowed extras (no stale catalog entries).

A row may also name things that must be mentioned somewhere in the
page's text (docs/DISTRIBUTED.md: every ``worker`` / ``cache`` CLI flag
and the ``REPRO_LEASE_TTL`` environment variable).

Separately, every ``*.md`` file cited in the sources and docs
(:data:`CITING`) must match a Markdown file in the repository, so no
docstring or page points at a document that does not exist.

Last, README.md's CI paragraph (the one citing :data:`WORKFLOW`) must
agree with the workflow: its ``Python X–Y`` range is the ``tests`` job's
first and last ``python-version``, its ``<N>-way smoke matrix`` has as
many entries as the ``smoke`` job, and it names every ``smoke`` entry and
every ``perfbench-outputs`` workload.  The workflow's one-line matrix
lists are read with regular expressions, so no YAML parser is needed.

Every check runs and every failure is reported; the exit status is 1 if
any failed.

Run from the repository root (CI's docs job does)::

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

#: Catalog entries look like: ## `name` — description
HEADING = re.compile(r"^##\s+`(?P<name>[^`]+)`", re.MULTILINE)

#: Flags that need no documentation.
IGNORED_FLAGS = {"-h", "--help"}

#: Files and directories (relative to the repository root) whose ``*.py``
#: and ``*.md`` files may cite Markdown documents.
CITING = ("src", "benchmarks", "docs", "README.md")

#: A cited Markdown file: a path-like token ending in ``.md``.
CITATION = re.compile(r"[\w./-]*\w\.md\b")

#: The CI workflow whose facts README.md restates, relative to the root.
WORKFLOW = Path(".github") / "workflows" / "ci.yml"

#: A workflow key at two-space indentation (a job) and its indented body.
JOB = re.compile(r"^  (?P<name>[\w-]+):\n(?P<body>(?:(?: {4}.*)?\n)*)", re.MULTILINE)

#: README's CI facts: the tested Python range and the smoke-matrix size.
PYTHON_RANGE = re.compile(r"Python (\d+\.\d+)[–-](\d+\.\d+)")
SMOKE_SIZE = re.compile(r"\b(\w+)-way smoke matrix")
NUMBER_WORDS = "zero one two three four five six seven eight nine ten eleven twelve".split()

Parser = argparse.ArgumentParser


def _registered(module: str, registry: str) -> Callable[[], Iterable[str]]:
    """The names in the :class:`repro.catalog.Registry` *registry* of
    *module* (imported when the check runs)."""

    def names() -> Iterable[str]:
        return getattr(importlib.import_module(module), registry).names()

    return names


def _comparison_metrics() -> Iterable[str]:
    from repro.metrics.compare import COMPARE_METRICS

    return COMPARE_METRICS


def _failure_fields() -> Iterable[str]:
    from repro.failures import FailureSpec

    return [field.name for field in dataclasses.fields(FailureSpec)]


def _subcommands(parser: Parser) -> Dict[str, Parser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _flags(parser: Parser) -> Set[str]:
    flags: Set[str] = set()
    for action in parser._actions:
        flags.update(action.option_strings)
    return flags - IGNORED_FLAGS


def _commands() -> Dict[str, Parser]:
    """The CLI's subcommand parsers."""
    from repro.cli import build_parser

    return _subcommands(build_parser())


def _executor_names(commands: Dict[str, Parser]) -> List[str]:
    """The ``grid`` verb's ``--executor`` choices."""
    (executor,) = [a for a in commands["grid"]._actions if "--executor" in a.option_strings]
    return list(executor.choices)


def _distributed_entries() -> Iterable[str]:
    commands = _commands()
    cache_verbs = _subcommands(commands["cache"])
    return [*_executor_names(commands), "worker", *(f"cache {verb}" for verb in cache_verbs)]


def _distributed_mentions() -> Dict[str, Set[str]]:
    from repro.experiments.queue import LEASE_TTL_ENV

    commands = _commands()
    flags = _flags(commands["worker"])
    for verb_parser in _subcommands(commands["cache"]).values():
        flags |= _flags(verb_parser)
    return {"flags": flags, "environment variables": {LEASE_TTL_ENV}}


@dataclass(frozen=True)
class Catalog:
    """One catalog page and the code it documents."""

    #: File name under the docs directory.
    doc: str
    #: Lists what the code defines; each needs a heading.
    defined: Callable[[], Iterable[str]]
    #: Error wording: ``<missing> missing from docs/<doc>: ...``.
    missing: str
    #: Error wording: ``docs/<doc> documents <unknown>: ...``.
    unknown: str
    #: Success wording: ``docs/<doc> covers all <n> <noun>``.
    noun: str
    #: Headings allowed although the code does not define them.
    extras: FrozenSet[str] = frozenset()
    #: ``what -> names`` that must appear somewhere in the page's text.
    mentions: Callable[[], Dict[str, Set[str]]] = dict


CATALOGS = (
    Catalog(
        doc="SCENARIOS.md",
        defined=_registered("repro.workload.registry", "SCENARIOS"),
        missing="registered scenario(s)",
        unknown="unregistered scenario(s)",
        noun="registered scenarios",
    ),
    Catalog(
        doc="POLICIES.md",
        defined=_registered("repro.scheduling.registry", "POLICY_REGISTRY"),
        missing="registered policy(ies)",
        unknown="unregistered policy(ies)",
        noun="registered policies",
        # The stock invoker: documented beside the policies, not registered.
        extras=frozenset({"baseline"}),
    ),
    Catalog(
        doc="BALANCERS.md",
        defined=_registered("repro.cluster.controller", "BALANCERS"),
        missing="registered balancer(s)",
        unknown="unregistered balancer(s)",
        noun="registered balancers",
    ),
    Catalog(
        doc="COMPARISONS.md",
        defined=_comparison_metrics,
        missing="comparison metric(s)",
        unknown="unknown metric(s)",
        noun="comparison metrics",
    ),
    Catalog(
        doc="FAILURES.md",
        defined=_failure_fields,
        missing="FailureSpec field(s)",
        unknown="unknown field(s)",
        noun="FailureSpec fields",
    ),
    Catalog(
        doc="DISTRIBUTED.md",
        defined=_distributed_entries,
        missing="entries",
        unknown="unknown entries",
        noun="catalog entries",
        mentions=_distributed_mentions,
    ),
)


def check(catalog: Catalog, docs_dir: Path) -> Tuple[List[str], str]:
    """``(problems, summary)`` for one catalog page under ``docs_dir``;
    the page is in sync when ``problems`` is empty."""
    path = Path(docs_dir) / catalog.doc
    if not path.exists():
        return [f"{path} does not exist"], ""
    label = f"docs/{catalog.doc}"
    text = path.read_text(encoding="utf-8")
    defined = set(catalog.defined())
    documented = set(HEADING.findall(text))
    problems = []
    undocumented = sorted(defined - documented)
    if undocumented:
        problems.append(f"{catalog.missing} missing from {label}: " + ", ".join(undocumented))
    stale = sorted(documented - defined - catalog.extras)
    if stale:
        problems.append(f"{label} documents {catalog.unknown}: " + ", ".join(stale))
    covered = [f"{len(defined)} {catalog.noun}"]
    for what, names in catalog.mentions().items():
        absent = sorted(name for name in names if name not in text)
        if absent:
            problems.append(f"{what} missing from {label}: " + ", ".join(absent))
        covered.append(f"{len(names)} {what}")
    return problems, f"{label} covers all " + ", ".join(covered)


def _visible_files(root: Path, pattern: str) -> List[Path]:
    """Files under *root* matching *pattern*, outside hidden directories."""
    return sorted(
        path
        for path in root.rglob(pattern)
        if not any(part.startswith(".") for part in path.relative_to(root).parts[:-1])
    )


def check_citations(root: Path) -> Tuple[List[str], str]:
    """``(problems, summary)`` for the Markdown citations under *root*:
    a citation resolves when some ``*.md`` file's path relative to *root*
    equals it or ends with ``/`` plus it (``FAILURES.md`` and
    ``docs/FAILURES.md`` both resolve to docs/FAILURES.md)."""
    known = {path.relative_to(root).as_posix() for path in _visible_files(root, "*.md")}
    citing: List[Path] = []
    for name in CITING:
        path = root / name
        if path.is_dir():
            citing += _visible_files(path, "*.py") + _visible_files(path, "*.md")
        elif path.exists():
            citing.append(path)
    problems = []
    count = 0
    for path in citing:
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for cited in CITATION.findall(line):
                count += 1
                target = re.sub(r"^(\.\.?/)+", "", cited)
                if not any(k == target or k.endswith("/" + target) for k in known):
                    problems.append(
                        f"{path.relative_to(root).as_posix()}:{lineno} cites "
                        f"{cited}, which matches no file in the repository"
                    )
    where = ", ".join(name + ("/" if (root / name).is_dir() else "") for name in CITING)
    return problems, f"all {count} Markdown citations in {where} resolve"


def _matrix(jobs: Dict[str, str], job: str, key: str) -> List[str]:
    """Entries of the one-line list ``key: [a, "b", ...]`` in *job*'s body."""
    match = re.search(rf"^ +{key}: \[(.*)\]$", jobs.get(job, ""), re.MULTILINE)
    return [entry.strip().strip("\"'") for entry in match[1].split(",")] if match else []


def _size(word: str) -> int:
    """``8`` or ``eight`` as a number (-1 when it is neither)."""
    if word.isdigit():
        return int(word)
    return NUMBER_WORDS.index(word.lower()) if word.lower() in NUMBER_WORDS else -1


def check_ci_facts(root: Path) -> Tuple[List[str], str]:
    """``(problems, summary)`` for the CI facts that README.md's paragraph
    citing :data:`WORKFLOW` states about that workflow under *root*."""
    readme, workflow = root / "README.md", root / WORKFLOW
    absent = [path for path in (readme, workflow) if not path.exists()]
    if absent:
        return [f"{path} does not exist" for path in absent], ""
    ci = WORKFLOW.as_posix()
    jobs = {m["name"]: m["body"] for m in JOB.finditer(workflow.read_text(encoding="utf-8"))}
    pythons = _matrix(jobs, "tests", "python-version")
    smokes = _matrix(jobs, "smoke", "smoke")
    workloads = _matrix(jobs, "perfbench-outputs", "workload")
    if not (pythons and smokes and workloads):
        lists = "tests python-version, smoke smoke, perfbench-outputs workload"
        return [f"{ci} lacks a one-line matrix list ({lists})"], ""
    paragraphs = readme.read_text(encoding="utf-8").split("\n\n")
    cited = [" ".join(p.split()) for p in paragraphs if ci in p]
    if not cited:
        return [f"README.md has no paragraph citing {ci}"], ""
    text = cited[0]
    problems = []
    tested = f"{pythons[0]}–{pythons[-1]}"
    stated = [f"{low}–{high}" for low, high in PYTHON_RANGE.findall(text)]
    if stated != [tested]:
        claim = f"Python {', '.join(stated)}" if stated else "no Python range"
        problems.append(f"README.md states {claim}, but the tests job runs {tested}")
    sizes = SMOKE_SIZE.findall(text)
    if [_size(word) for word in sizes] != [len(smokes)]:
        claim = f"'{', '.join(sizes)}-way smoke matrix'" if sizes else "no smoke-matrix size"
        problems.append(f"README.md states {claim}, but the smoke job has {len(smokes)} entries")
    for what, names in (("smoke entries", smokes), ("perfbench-outputs workloads", workloads)):
        unnamed = [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)]
        if unnamed:
            problems.append(f"{what} missing from README.md's CI paragraph: " + ", ".join(unnamed))
    summary = (
        f"README.md's CI facts match {ci}: Python {tested}, {len(smokes)} smoke "
        f"entries, {len(workloads)} perfbench-outputs workloads"
    )
    return problems, summary


def main(docs_dir: Path = DOCS_DIR, root: Path = REPO_ROOT) -> int:
    """Check every catalog under ``docs_dir``, and the Markdown citations
    and README's CI facts under ``root``; 0 when all are in sync."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    status = 0
    results = [check(catalog, docs_dir) for catalog in CATALOGS]
    results.append(check_citations(root))
    results.append(check_ci_facts(root))
    for problems, summary in results:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            status = 1
        else:
            print(summary)
    return status


if __name__ == "__main__":
    sys.exit(main())
